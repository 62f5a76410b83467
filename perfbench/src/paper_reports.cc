// paper_reports: the analyst's report. Figure 6 q1 (dwell) and q2 (site
// analysis) at 10% rtime selectivity against the first three standard
// rules, rewritten with the auto strategy and executed embedded, with no
// fragment cache. One closed-loop client; q1 and q2 alternate so that a
// burst of host noise hits both. Execution carries almost all the work.
#include "common.h"
#include "rfidgen/workload.h"

namespace perfbench {
namespace {

constexpr int kRules = 3;
constexpr double kSelectivity = 0.10;
constexpr const char* kTags[2] = {"q1", "q2"};

struct Fixture {
  Database db;
  std::unique_ptr<rfid::CleansingRuleEngine> engine;
  std::string sql[2];
};

struct SetupTimes {
  std::vector<double> generate_s;
  std::vector<double> define_ms;
};

/// One report: Rewrite, then execute the rewritten statement.
rfid::Result<std::vector<Row>> ExecuteReport(const Fixture& f, int q,
                                             rfid::RewriteStrategy strategy,
                                             Tracer* tracer, uint64_t request,
                                             rfid::RewriteInfo* info,
                                             ExecStats* stats) {
  {
    ScopedSpan span(tracer, "rewrite.derive", kTags[q], request);
    rfid::QueryRewriter rewriter(const_cast<Database*>(&f.db),
                                 f.engine.get());
    rfid::RewriteOptions opts;
    opts.strategy = strategy;
    RFID_ASSIGN_OR_RETURN(*info, rewriter.Rewrite(f.sql[q], opts));
  }
  rfid::ExecContext ctx;
  return RunSql(f.db, info->sql, &ctx, tracer, kTags[q], request, stats);
}

/// Runs q1 then q2, untraced, and dies on an error (warm-up and settle).
void RunPairUnrecorded(const Fixture& f) {
  for (int q = 0; q < 2; ++q) {
    rfid::RewriteInfo info;
    auto rows = ExecuteReport(f, q, rfid::RewriteStrategy::kAuto, nullptr, 0,
                              &info, nullptr);
    if (!rows.ok()) Die("report: " + rows.status().ToString());
  }
}

std::unique_ptr<Fixture> Setup(uint64_t seed, SetupTimes* times) {
  auto f = std::make_unique<Fixture>();
  const int64_t t0 = NowNs();
  GenerateDatabase(seed, &f->db);
  times->generate_s.push_back(NsToMs(NowNs() - t0) / 1e3);
  f->engine = MakeEngine(&f->db, kRules, &times->define_ms);
  f->sql[0] = rfid::workload::Q1(RtimeQuantile(f->db, kSelectivity));
  f->sql[1] =
      rfid::workload::Q2(RtimeQuantile(f->db, 1.0 - kSelectivity), "dc0");
  RunPairUnrecorded(*f);  // warm-up: lazy state is built before timing
  return f;
}

}  // namespace

RunReport RunPaperReports(const Args& args) {
  RunReport report;
  AddEngineHeader(&report, args);
  report.header.emplace_back("rules", "3 (reader, duplicate, replacing)");
  report.header.emplace_back("strategy", "auto, embedded, no fragment cache");
  report.header.emplace_back("selectivity", "0.10 of caseR rows");
  report.header.emplace_back("clients", "1 closed loop, q1/q2 alternating");

  SetupTimes times;
  std::vector<double> setup_s;
  std::unique_ptr<Fixture> f = RepeatSetup<Fixture>(
      [&](int) { return Setup(args.seed, &times); }, &setup_s);

  ResetPeakRss();
  const int64_t settle_end =
      NowNs() + static_cast<int64_t>(kSettleSeconds * 1e9);
  while (NowNs() < settle_end) RunPairUnrecorded(*f);

  // --- timed window ---
  Tracer tracer(args.trace);
  std::vector<double> latency[2];
  std::vector<double> traced_ms[2], untraced_ms[2];  // trace run halves
  std::vector<uint64_t> digests[2];
  int64_t errors = 0;
  QueryTally tally;
  const rfid::ColumnarCounters col0 = rfid::GlobalColumnarCounters();
  const int64_t window_start = NowNs();
  const int64_t deadline =
      window_start + static_cast<int64_t>(args.seconds * 1e9);
  uint64_t request = 0;
  for (uint64_t pair = 0; NowNs() < deadline; ++pair) {
    const bool traced = args.trace && pair % 2 == 0;
    Tracer* tr = traced ? &tracer : nullptr;
    for (int q = 0; q < 2; ++q) {
      ++request;
      rfid::RewriteInfo info;
      ExecStats stats;
      const int64_t t0 = NowNs();
      rfid::Result<std::vector<Row>> rows = [&] {
        ScopedSpan root(tr, "report", kTags[q], request);
        return ExecuteReport(*f, q, rfid::RewriteStrategy::kAuto, tr, request,
                             &info, &stats);
      }();
      const double ms = NsToMs(NowNs() - t0);
      if (!rows.ok()) {
        if (errors++ == 0) {
          report.notes.push_back(std::string(kTags[q]) + " failed: " +
                                 rows.status().ToString());
        }
        continue;
      }
      latency[q].push_back(ms);
      (traced ? traced_ms : untraced_ms)[q].push_back(ms);
      digests[q].push_back(ResultDigest(*rows));
      if (traced) tally.Add(stats, &info);
    }
  }
  const rfid::ColumnarCounters col1 = rfid::GlobalColumnarCounters();
  const double peak_rss = PeakRssMb();

  // --- correctness gate: the naive rewrite on the same database ---
  int64_t wrong = 0;
  for (int q = 0; q < 2; ++q) {
    rfid::RewriteInfo info;
    auto oracle = ExecuteReport(*f, q, rfid::RewriteStrategy::kNaive, nullptr,
                                0, &info, nullptr);
    if (!oracle.ok()) Die("naive oracle: " + oracle.status().ToString());
    const uint64_t want = ResultDigest(*oracle);
    int64_t bad = 0;
    for (uint64_t d : digests[q]) bad += d != want ? 1 : 0;
    if (bad > 0) {
      report.notes.push_back(std::string(kTags[q]) + ": " +
                             std::to_string(bad) +
                             " answers differ from the naive rewrite");
    }
    wrong += bad;
  }

  const auto n = static_cast<int64_t>(latency[0].size() + latency[1].size());
  report.attempted = n + errors;
  report.failed = errors + wrong;
  AddCommonMetrics(&report, setup_s, peak_rss);
  AddLatency(&report.table, "report_q1", latency[0]);
  AddLatency(&report.table, "report_q2", latency[1]);
  AddGatedLatencies(&report, latency[0], latency[1]);
  if (!args.trace) return report;

  // --- per-layer metrics ---
  Summarize(tracer.spans(), &report.spans);
  AddSpanMetric(&report, "rewrite.derive_ms", "rewrite.derive");
  AddSpanMetric(&report, "rewrite.derive_ms.q1", "rewrite.derive.q1");
  AddSpanMetric(&report, "rewrite.derive_ms.q2", "rewrite.derive.q2");
  AddSpanMetric(&report, "sql.parse_ms", "sql.parse");
  AddSpanMetric(&report, "plan.plan_ms", "plan.plan");
  AddSpanMetric(&report, "exec.collect_ms", "exec.collect");
  AddSpanMetric(&report, "exec.collect_ms.q1", "exec.collect.q1");
  AddSpanMetric(&report, "exec.collect_ms.q2", "exec.collect.q2");
  tally.Report(&report);
  AddColumnarScanMetrics(&report, col0, col1, n);
  double overhead = 0;
  for (int q = 0; q < 2; ++q) {
    overhead +=
        Percentile(traced_ms[q], 0.5) / Percentile(untraced_ms[q], 0.5) - 1.0;
  }
  AddMetric(&report.layers, "trace.overhead_ratio", overhead / 2, "ratio", n);
  AddMetric(&report.layers, "cleansing.define_rule_ms",
            Percentile(times.define_ms, 0.5), "ms",
            static_cast<int64_t>(times.define_ms.size()));
  AddMetric(&report.layers, "setup.generate_s",
            Percentile(times.generate_s, 0.5), "s", kSetupRepeats);
  if (!DumpSpans(SpanPath(args), {&tracer})) {
    report.notes.push_back("could not write the span file");
  }
  return report;
}

}  // namespace perfbench
