// perfbench: the repository benchmark.
//
//   perfbench --workload <paper_reports|epc_lookup_server|hot_set_ingest>
//             --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//
// Prints a run header, the workload's end-to-end metrics under the names
// NOTES.md gives them (value, unit, sample count), with --trace 1 the
// per-layer table, and as the last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The metrics object holds
// the BENCHMARK.json end_to_end set (--trace 0) or per_layer set
// (--trace 1). perfbench/run.py builds this binary and runs it.
#include <sys/stat.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

#include "common.h"

namespace perfbench {
namespace {

/// BENCHMARK.json end_to_end, in order. Every workload reports each one;
/// NOTES.md maps primary/secondary to each workload's operations.
const char* const kEndToEnd[] = {
    "setup_s",
    "primary_p95_ms",
    "secondary_p95_ms",
    "peak_rss_mb",
};

/// BENCHMARK.json per_layer, in order, with units. A workload that never
/// enters a layer reports it as 0 with 0 samples.
struct LayerDef {
  const char* name;
  const char* unit;
};
const LayerDef kPerLayer[] = {
    {"server.roundtrip_ms", "ms"},
    {"server.exec_ms", "ms"},
    {"server.outside_exec_ms", "ms"},
    {"server.exec_ms.cat4", "ms"},
    {"server.exec_ms.cat5", "ms"},
    {"server.outside_exec_ms.cat4", "ms"},
    {"server.outside_exec_ms.cat5", "ms"},
    {"server.roundtrip_hit_ms", "ms"},
    {"server.roundtrip_miss_ms", "ms"},
    {"server.plan_cache_hit_ratio", "ratio"},
    {"server.admission_queued_ratio", "ratio"},
    {"rewrite.derive_ms", "ms"},
    {"rewrite.derive_ms.q1", "ms"},
    {"rewrite.derive_ms.q2", "ms"},
    {"rewrite.derive_ms.cat4", "ms"},
    {"rewrite.derive_ms.cat5", "ms"},
    {"rewrite.candidates_per_query", "count"},
    {"rewrite.chosen.expanded", "count"},
    {"rewrite.chosen.join_back", "count"},
    {"rewrite.chosen.naive", "count"},
    {"rewrite.stitch_ms", "ms"},
    {"sql.parse_ms", "ms"},
    {"plan.plan_ms", "ms"},
    {"plan.max_dop", "count"},
    {"exec.collect_ms", "ms"},
    {"exec.collect_ms.q1", "ms"},
    {"exec.collect_ms.q2", "ms"},
    {"exec.collect_ms.cat4", "ms"},
    {"exec.collect_ms.cat5", "ms"},
    {"exec.rows_out", "count"},
    {"exec.scan_rows_per_row_out", "ratio"},
    {"exec.peak_mem_mb", "MiB"},
    {"storage.columnar_scanned_segments", "count"},
    {"storage.columnar_skip_ratio", "ratio"},
    {"storage.columnar_encoded_per_epoch", "count"},
    {"cache.fragment_regions_per_query", "count"},
    {"cache.fragment_hit_ratio", "ratio"},
    {"cache.fragment_invalidations_per_epoch", "count"},
    {"cache.fragment_resident_mb", "MiB"},
    {"ingest.apply_p50_ms", "ms"},
    {"ingest.apply_p95_ms", "ms"},
    {"ingest.generator_late_ms", "ms"},
    {"ingest.rows_per_s", "1/s"},
    {"ingest.achieved_ratio", "ratio"},
    {"wal.bytes_per_row", "B"},
    {"cleansing.define_rule_ms", "ms"},
    {"setup.generate_s", "s"},
    {"setup.load_s", "s"},
    {"trace.overhead_ratio", "ratio"},
};

[[noreturn]] void Usage(const char* why) {
  fprintf(stderr,
          "perfbench: %s\nusage: perfbench --workload "
          "<paper_reports|epc_lookup_server|hot_set_ingest> --seed <n> "
          "--seconds <s> --trace <0|1> --work-dir <dir>\n",
          why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  if (args.work_dir.empty()) Usage("--work-dir is required");
  if (!(args.seconds > 0)) Usage("--seconds must be positive");
  return args;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  printf("\n%s\n", title);
  printf("  %-40s %16s  %-6s %8s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : metrics) {
    printf("  %-40s %16.6g  %-6s %8lld\n", m.name.c_str(), m.value,
           m.unit.c_str(), static_cast<long long>(m.samples));
  }
}

/// Median self time per span name, so a reader can see where each
/// operation's time goes (see NOTES.md, "Reading the traced table").
void PrintSpanTable(const SpanSummary& spans) {
  printf("\ntraced spans (self time = duration minus child spans)\n");
  printf("  %-34s %8s %12s %12s %12s\n", "span", "count", "self_p50_ms",
         "self_p95_ms", "total_p50_ms");
  for (const auto& [name, self] : spans.self_ms) {
    const std::vector<double>& total = spans.total_ms.at(name);
    printf("  %-34s %8zu %12.4f %12.4f %12.4f\n", name.c_str(), self.size(),
           Percentile(self, 0.5), Percentile(self, 0.95),
           Percentile(total, 0.5));
  }
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  if (mkdir(args.work_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    Die("cannot create work dir " + args.work_dir);
  }
  RunReport report;
  if (args.workload == "paper_reports") {
    report = RunPaperReports(args);
  } else if (args.workload == "epc_lookup_server") {
    report = RunEpcLookupServer(args);
  } else if (args.workload == "hot_set_ingest") {
    report = RunHotSetIngest(args);
  } else {
    Usage(("unknown workload " + args.workload).c_str());
  }

  for (const auto& [key, value] : report.header) {
    printf("# %-22s %s\n", key.c_str(), value.c_str());
  }
  PrintTable("end-to-end", report.table);
  for (const std::string& note : report.notes) printf("note: %s\n", note.c_str());

  std::vector<Metric> out;
  if (!args.trace) {
    for (const char* name : kEndToEnd) {
      const Metric* found = nullptr;
      for (const Metric& m : report.e2e) {
        if (m.name == name) found = &m;
      }
      if (found == nullptr) Die(std::string("missing metric ") + name);
      out.push_back(*found);
    }
  } else {
    std::set<std::string> known;
    for (const LayerDef& def : kPerLayer) {
      known.insert(def.name);
      Metric m{def.name, 0, def.unit, 0};
      for (const Metric& reported : report.layers) {
        if (reported.name == def.name) m = reported;
      }
      if (m.unit != def.unit) Die("unit mismatch for " + m.name);
      out.push_back(m);
    }
    for (const Metric& m : report.layers) {
      if (known.count(m.name) == 0) Die("undeclared metric " + m.name);
    }
    PrintTable("per-layer", out);
    PrintSpanTable(report.spans);
  }

  std::string json = "{\"correct\": ";
  json += report.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < out.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + out[i].name + "\": {\"value\": " +
            JsonNumber(out[i].value) + ", \"unit\": \"" + out[i].unit + "\"}";
  }
  json += "}}";
  printf("%s\n", json.c_str());
  fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
