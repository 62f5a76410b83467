#include "common.h"

#include <dirent.h>
#include <malloc.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/simd.h"
#include "exec/parallel.h"
#include "expr/row_batch.h"
#include "plan/planner.h"
#include "rfidgen/anomaly.h"
#include "rfidgen/rfidgen.h"
#include "rfidgen/workload.h"
#include "sql/parser.h"
#include "storage/columnar.h"
#include "verify/verify.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {
const std::chrono::steady_clock::time_point kProcessStart =
    std::chrono::steady_clock::now();
}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SinceProcessStartS() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kProcessStart)
      .count();
}

void Die(const std::string& what) {
  fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

// --- tracing ---------------------------------------------------------

int32_t Tracer::Begin(const char* name, const char* tag, uint64_t request) {
  Span s;
  s.name = name;
  s.tag = tag;
  s.request = request;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = NowNs();
  spans_.push_back(s);
  const auto id = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::End(int32_t id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  open_.pop_back();  // ScopedSpan closes spans in LIFO order
}

void Tracer::AddMeasuredChild(int32_t parent, const char* name,
                              int64_t duration_ns) {
  if (!on_ || parent < 0) return;
  const Span& p = spans_[static_cast<size_t>(parent)];
  Span s;
  s.name = name;
  s.tag = p.tag;
  s.request = p.request;
  s.parent = parent;
  s.end_ns = p.end_ns;
  s.start_ns = std::max(p.start_ns, p.end_ns - duration_ns);
  spans_.push_back(s);
}

void Summarize(const std::vector<Span>& spans, SpanSummary* out) {
  // Children of one span run one after another on the span's thread, so
  // the time they cover is the sum of their durations.
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const int64_t total = s.end_ns - s.start_ns;
    const double self = NsToMs(std::max<int64_t>(0, total - child_ns[i]));
    const std::string name = s.name;
    out->self_ms[name].push_back(self);
    out->total_ms[name].push_back(NsToMs(total));
    if (s.tag[0] != '\0') {
      const std::string tagged = name + "." + s.tag;
      out->self_ms[tagged].push_back(self);
      out->total_ms[tagged].push_back(NsToMs(total));
    }
  }
}

std::string SpanPath(const Args& args) {
  return args.work_dir + "/../spans-" + args.workload + ".tsv";
}

bool DumpSpans(const std::string& path,
               const std::vector<const Tracer*>& tracers) {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  fprintf(f, "thread\tspan\tparent\trequest\tname\ttag\tstart_ns\tend_ns\n");
  for (size_t t = 0; t < tracers.size(); ++t) {
    const std::vector<Span>& spans = tracers[t]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      fprintf(f, "%zu\t%zu\t%d\t%llu\t%s\t%s\t%lld\t%lld\n", t, i, s.parent,
              static_cast<unsigned long long>(s.request), s.name, s.tag,
              static_cast<long long>(s.start_ns),
              static_cast<long long>(s.end_ns));
    }
  }
  return fclose(f) == 0;
}

// --- statistics -------------------------------------------------------

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double PeakRssMb() {
  FILE* f = fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (fgets(line, sizeof(line), f) != nullptr) {
    if (sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  fclose(f);
  return kb / 1024.0;
}

void ResetPeakRss() {
  malloc_trim(0);
  // "5" resets the peak resident set size (Linux 4.0 and later).
  FILE* f = fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return;
  fputs("5", f);
  fclose(f);
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return 0;
  while (dirent* e = readdir(d)) {
    const std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    const std::string path = dir + "/" + name;
    struct stat st {};
    if (lstat(path.c_str(), &st) != 0) continue;
    if (S_ISDIR(st.st_mode)) {
      total += DirectoryBytes(path);
    } else if (S_ISREG(st.st_mode)) {
      total += static_cast<uint64_t>(st.st_size);
    }
  }
  closedir(d);
  return total;
}

// --- correctness -------------------------------------------------------

std::vector<std::string> CanonicalRows(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& row : rows) {
    std::string line;
    for (const rfid::Value& v : row) {
      if (v.type() == rfid::DataType::kDouble) {
        char buf[40];
        snprintf(buf, sizeof(buf), "%.12g", v.double_value());
        line += buf;
      } else {
        line += v.ToString();
      }
      line += '\x1f';
    }
    out.push_back(std::move(line));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// --- engine helpers ----------------------------------------------------

void GenerateDatabase(uint64_t seed, Database* db) {
  rfid::rfidgen::GeneratorOptions gen;
  gen.seed = seed;
  gen.num_pallets = kPallets;
  gen.min_cases_per_pallet = kCasesPerPallet;
  gen.max_cases_per_pallet = kCasesPerPallet;
  // The reads table dwarfs the dimension tables (as in the paper-figure
  // harnesses: 126 sites x 10 locations). One distribution centre, so
  // q2's site predicate selects the same share of reads on every seed.
  gen.num_stores = 100;
  gen.num_warehouses = 25;
  gen.num_dcs = 1;
  gen.locations_per_site = 10;
  auto g = rfid::rfidgen::Generate(gen, db);
  if (!g.ok()) Die("generate: " + g.status().ToString());
  rfid::rfidgen::AnomalyOptions anomalies;
  anomalies.seed = seed * 2654435761ULL + 17;
  anomalies.dirty_fraction = 0.10;
  auto a = rfid::rfidgen::InjectAnomalies(anomalies, db);
  if (!a.ok()) Die("inject anomalies: " + a.status().ToString());
}

int64_t RtimeQuantile(const Database& db, double fraction) {
  auto res = rfid::ExecuteSql(db, "SELECT rtime FROM caseR ORDER BY rtime");
  if (!res.ok() || res->rows.empty()) Die("rtime quantile query failed");
  const auto last = static_cast<double>(res->rows.size() - 1);
  const auto i = static_cast<size_t>(fraction * last);
  return res->rows[i][0].timestamp_value();
}

std::unique_ptr<rfid::CleansingRuleEngine> MakeEngine(
    Database* db, int num_rules, std::vector<double>* define_ms) {
  auto engine = std::make_unique<rfid::CleansingRuleEngine>(
      db, /*persist_templates=*/false);
  for (const std::string& def :
       rfid::workload::StandardRuleDefinitions(num_rules)) {
    const int64_t t0 = NowNs();
    rfid::Status st = engine->DefineRule(def);
    if (define_ms != nullptr) define_ms->push_back(NsToMs(NowNs() - t0));
    if (!st.ok()) Die("define rule: " + st.ToString());
  }
  return engine;
}

namespace {

/// Sum of rows= over the leaves of an ExplainOperatorTree rendering (a
/// line is a leaf when the next line is not indented deeper).
uint64_t LeafRows(const std::string& explain) {
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < explain.size()) {
    size_t nl = explain.find('\n', pos);
    if (nl == std::string::npos) nl = explain.size();
    if (nl > pos) lines.push_back(explain.substr(pos, nl - pos));
    pos = nl + 1;
  }
  auto indent = [](const std::string& s) {
    return s.find_first_not_of(' ');
  };
  uint64_t total = 0;
  for (size_t i = 0; i < lines.size(); ++i) {
    const bool leaf =
        i + 1 == lines.size() || indent(lines[i + 1]) <= indent(lines[i]);
    const size_t r = lines[i].rfind(" rows=");
    if (!leaf || r == std::string::npos) continue;
    total += std::strtoull(lines[i].c_str() + r + 6, nullptr, 10);
  }
  return total;
}

}  // namespace

rfid::Result<std::vector<Row>> RunSql(const Database& db,
                                      const std::string& sql,
                                      rfid::ExecContext* ctx, Tracer* tracer,
                                      const char* tag, uint64_t request,
                                      ExecStats* stats) {
  if (tracer == nullptr || !tracer->on()) {
    auto res = rfid::ExecuteSql(db, sql, ctx);
    if (!res.ok()) return res.status();
    if (stats != nullptr) {
      stats->rows_out = res->rows.size();
      stats->peak_mem_bytes = res->peak_memory_bytes;
      stats->max_dop = res->max_dop;
    }
    return std::move(res->rows);
  }
  rfid::StatementPtr stmt;
  {
    ScopedSpan span(tracer, "sql.parse", tag, request);
    RFID_ASSIGN_OR_RETURN(stmt, rfid::ParseSql(sql));
  }
  rfid::PlannedQuery plan;
  {
    ScopedSpan span(tracer, "plan.plan", tag, request);
    rfid::Planner planner(&db, ctx);
    RFID_ASSIGN_OR_RETURN(plan, planner.Plan(*stmt));
  }
  std::vector<Row> rows;
  {
    ScopedSpan span(tracer, "exec.collect", tag, request);
    RFID_ASSIGN_OR_RETURN(rows, rfid::CollectRows(plan.root.get(), ctx));
  }
  std::string explain;
  {
    ScopedSpan span(tracer, "exec.explain", tag, request);
    explain = rfid::ExplainOperatorTree(*plan.root);
  }
  if (stats != nullptr) {
    stats->rows_out = rows.size();
    stats->leaf_rows = LeafRows(explain);
    stats->peak_mem_bytes = ctx->memory_peak();
    stats->max_dop = plan.max_dop;
  }
  return rows;
}

// --- results -----------------------------------------------------------

void AddMetric(std::vector<Metric>* out, std::string name, double value,
               std::string unit, int64_t samples) {
  out->push_back(Metric{std::move(name), value, std::move(unit), samples});
}

void AddLatency(std::vector<Metric>* out, const std::string& prefix,
                const std::vector<double>& latency_ms) {
  const auto n = static_cast<int64_t>(latency_ms.size());
  AddMetric(out, prefix + "_p50_ms", Percentile(latency_ms, 0.5), "ms", n);
  AddMetric(out, prefix + "_p95_ms", Percentile(latency_ms, 0.95), "ms", n);
}

void AddGatedLatencies(RunReport* report, const std::vector<double>& primary,
                       const std::vector<double>& secondary) {
  AddMetric(&report->e2e, "primary_p95_ms", Percentile(primary, 0.95), "ms",
            static_cast<int64_t>(primary.size()));
  AddMetric(&report->e2e, "secondary_p95_ms", Percentile(secondary, 0.95),
            "ms", static_cast<int64_t>(secondary.size()));
}

void AddCommonMetrics(RunReport* report, const std::vector<double>& setup_s,
                      double peak_rss_mb) {
  const double setup = Percentile(setup_s, 0.5);
  const auto repeats = static_cast<int64_t>(setup_s.size());
  for (std::vector<Metric>* out : {&report->table, &report->e2e}) {
    AddMetric(out, "setup_s", setup, "s", repeats);
    AddMetric(out, "peak_rss_mb", peak_rss_mb, "MiB", 1);
  }
  AddMetric(&report->table, "failed_ratio",
            static_cast<double>(report->failed) /
                static_cast<double>(std::max<int64_t>(1, report->attempted)),
            "ratio", report->attempted);
}

void QueryTally::Add(const ExecStats& stats,
                     const rfid::RewriteInfo* rewrite) {
  ++queries;
  rows_out += stats.rows_out;
  leaf_rows += stats.leaf_rows;
  peak_mem_bytes = std::max(peak_mem_bytes, stats.peak_mem_bytes);
  max_dop = std::max(max_dop, stats.max_dop);
  if (rewrite == nullptr) return;
  ++rewrites;
  candidates += static_cast<double>(rewrite->candidates.size());
  if (rewrite->chosen == rfid::RewriteStrategy::kExpanded) ++chosen[0];
  if (rewrite->chosen == rfid::RewriteStrategy::kJoinBack) ++chosen[1];
  if (rewrite->chosen == rfid::RewriteStrategy::kNaive) ++chosen[2];
}

void QueryTally::Report(RunReport* report) const {
  auto& l = report->layers;
  if (rewrites > 0) {
    AddMetric(&l, "rewrite.candidates_per_query",
              candidates / static_cast<double>(rewrites), "count", rewrites);
    AddMetric(&l, "rewrite.chosen.expanded", static_cast<double>(chosen[0]),
              "count", rewrites);
    AddMetric(&l, "rewrite.chosen.join_back", static_cast<double>(chosen[1]),
              "count", rewrites);
    AddMetric(&l, "rewrite.chosen.naive", static_cast<double>(chosen[2]),
              "count", rewrites);
  }
  const auto nq = static_cast<double>(std::max<int64_t>(1, queries));
  AddMetric(&l, "plan.max_dop", max_dop, "count", queries);
  AddMetric(&l, "exec.rows_out", static_cast<double>(rows_out) / nq, "count",
            queries);
  AddMetric(&l, "exec.scan_rows_per_row_out",
            static_cast<double>(leaf_rows) /
                static_cast<double>(std::max<uint64_t>(1, rows_out)),
            "ratio", queries);
  AddMetric(&l, "exec.peak_mem_mb",
            static_cast<double>(peak_mem_bytes) / (1024.0 * 1024.0), "MiB",
            queries);
}

void AddColumnarScanMetrics(RunReport* report,
                            const rfid::ColumnarCounters& before,
                            const rfid::ColumnarCounters& after,
                            int64_t queries) {
  const auto scanned =
      static_cast<double>(after.segments_scanned - before.segments_scanned);
  const auto skipped =
      static_cast<double>(after.segments_skipped - before.segments_skipped);
  AddMetric(&report->layers, "storage.columnar_scanned_segments",
            scanned / static_cast<double>(std::max<int64_t>(1, queries)),
            "count", queries);
  AddMetric(&report->layers, "storage.columnar_skip_ratio",
            scanned + skipped > 0 ? skipped / (scanned + skipped) : 0, "ratio",
            queries);
}

void AddSpanMetric(RunReport* report, const std::string& name,
                   const std::string& key) {
  auto it = report->spans.self_ms.find(key);
  if (it == report->spans.self_ms.end()) {
    AddMetric(&report->layers, name, 0, "ms", 0);
    return;
  }
  AddMetric(&report->layers, name, Percentile(it->second, 0.5), "ms",
            static_cast<int64_t>(it->second.size()));
}

uint64_t ResultDigest(const std::vector<Row>& rows) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a over the canonical rows
  for (const std::string& line : CanonicalRows(rows)) {
    for (unsigned char c : line) {
      h ^= c;
      h *= 1099511628211ULL;
    }
    h ^= '\n';
    h *= 1099511628211ULL;
  }
  return h;
}

void AddEngineHeader(RunReport* report, const Args& args) {
  const rfid::ParallelPolicy policy = rfid::CurrentParallelPolicy();
  auto& h = report->header;
  h.emplace_back("workload", args.workload);
  h.emplace_back("seed", std::to_string(args.seed));
  h.emplace_back("nproc", std::to_string(std::thread::hardware_concurrency()));
  h.emplace_back("max_dop", std::to_string(policy.max_dop));
  h.emplace_back("simd", rfid::ColumnarEnabled()
                             ? rfid::simd::ActiveLevelName()
                             : "off");
  h.emplace_back("batch_size", std::to_string(rfid::BatchCapacity()));
  h.emplace_back("vectorized", rfid::VectorizedEnabled() ? "on" : "off");
  h.emplace_back("columnar", rfid::ColumnarEnabled() ? "on" : "off");
  h.emplace_back("verify", rfid::VerifyEnabled()
                               ? (rfid::VerifySoftMode() ? "soft" : "hard")
                               : "off");
  h.emplace_back("build", PERFBENCH_BUILD_TYPE);
  h.emplace_back("pallets", std::to_string(kPallets));
}

}  // namespace perfbench
