// Shared pieces of the repository benchmark: arguments, the span tracer,
// sample statistics, answer canonicalisation for the correctness gate,
// the traced split of ExecuteSql, and the result record every workload
// fills. See perfbench/NOTES.md for what is measured and why.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cleansing/rule.h"
#include "exec/exec_context.h"
#include "rewrite/rewriter.h"
#include "storage/catalog.h"
#include "storage/columnar.h"

namespace perfbench {

using rfid::Database;
using rfid::Row;

/// Scale of the generated database: 200 pallets of 10 cases, about 60k
/// caseR reads. Many small pallets rather than 40 large ones, so that a
/// 10% slice of the reads spans some 20 pallets on every seed.
inline constexpr int64_t kPallets = 200;
inline constexpr int kCasesPerPallet = 10;
/// Setups per run; setup_s is their median.
inline constexpr int kSetupRepeats = 3;
/// Untimed operations run this long between setup and the timed window,
/// so the window starts in steady state: the live feed running and
/// invalidating, the plan cache holding the hottest statements.
inline constexpr double kSettleSeconds = 3.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  // scratch space inside the checkout
};

int64_t NowNs();
inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }
/// Seconds since the process started (the start of setup_s).
double SinceProcessStartS();

// --- tracing ---------------------------------------------------------

/// One timed call into a layer. `parent` indexes the tracer's span list
/// (-1 for a root); spans of one operation share `request`. `tag` splits
/// a workload's operations (q1/q2, cat4/cat5, dashboard, batch).
struct Span {
  const char* name = "";
  const char* tag = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint64_t request = 0;
};

/// Per-thread span recorder. Spans stay in memory; Dump writes them out
/// after the run. A disabled tracer records nothing and costs a branch.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  bool on() const { return on_; }
  int32_t Begin(const char* name, const char* tag, uint64_t request);
  void End(int32_t id);
  /// Records a child of `parent` whose duration another process measured
  /// (the server-reported execution time), placed at the parent's end.
  void AddMeasuredChild(int32_t parent, const char* name, int64_t duration_ns);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span around one call; a no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, const char* tag,
             uint64_t request)
      : tracer_(tracer),
        id_(tracer != nullptr && tracer->on()
                ? tracer->Begin(name, tag, request)
                : -1) {}
  ~ScopedSpan() { Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Close() {
    if (id_ >= 0) tracer_->End(id_);
    id_ = -1;
  }
  int32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int32_t id_;
};

/// Self time (duration minus the time child spans cover) of every span,
/// grouped by "name" and by "name.tag".
struct SpanSummary {
  std::map<std::string, std::vector<double>> self_ms;
  std::map<std::string, std::vector<double>> total_ms;
};
void Summarize(const std::vector<Span>& spans, SpanSummary* out);
/// Where a traced run writes its spans: spans-<workload>.tsv beside the
/// work directory (the work directory itself is removed after the run).
std::string SpanPath(const Args& args);
/// Writes every span as one TSV line; returns false on I/O failure.
bool DumpSpans(const std::string& path,
               const std::vector<const Tracer*>& tracers);

// --- statistics -------------------------------------------------------

/// Linear-interpolated percentile (numpy's default); 0 for no samples.
double Percentile(std::vector<double> v, double p);
/// Process peak resident set (VmHWM) in MiB.
double PeakRssMb();
/// Returns freed heap to the system and restarts VmHWM from the current
/// resident set, so the peak covers the timed window, not earlier setups.
void ResetPeakRss();
/// Total bytes of the regular files under `dir`.
uint64_t DirectoryBytes(const std::string& dir);

// --- correctness -------------------------------------------------------

/// Order-insensitive canonical form of a result: one string per row,
/// doubles rounded to 12 significant digits, sorted.
std::vector<std::string> CanonicalRows(const std::vector<Row>& rows);

// --- engine helpers ----------------------------------------------------

/// Generates the seeded RFIDGen database (200 pallets, 10% anomalies)
/// that paper_reports and epc_lookup_server query.
void GenerateDatabase(uint64_t seed, Database* db);

/// The caseR rtime below which `fraction` of the rows lie. Selectivity
/// by row share, not by time span: 40 pallets cluster their reads in
/// time, so a share of the time span selects very different row counts
/// on different seeds.
int64_t RtimeQuantile(const Database& db, double fraction);

/// Defines the first `num_rules` standard rules; appends one duration
/// per DefineRule call to `define_ms`.
std::unique_ptr<rfid::CleansingRuleEngine> MakeEngine(
    Database* db, int num_rules, std::vector<double>* define_ms);

/// Layer counters of one executed query (traced path only).
struct ExecStats {
  uint64_t rows_out = 0;
  uint64_t leaf_rows = 0;  // summed leaf rows= of the executed plan
  uint64_t peak_mem_bytes = 0;
  int max_dop = 1;
};

/// ExecuteSql, or — when `tracer` is on — its public parts ParseSql,
/// Planner::Plan, CollectRows and ExplainOperatorTree, each in a span.
rfid::Result<std::vector<Row>> RunSql(const Database& db, const std::string& sql,
                        rfid::ExecContext* ctx, Tracer* tracer,
                        const char* tag, uint64_t request,
                        ExecStats* stats);

[[noreturn]] void Die(const std::string& what);

// --- results -----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  int64_t samples = 0;
};

/// What one workload run reports. `table` holds the workload's own
/// end-to-end metrics (printed for people); `e2e` the BENCHMARK.json
/// end_to_end set; `layers` the per_layer set (traced runs only).
struct RunReport {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::pair<std::string, std::string>> header;
  std::vector<Metric> table;
  std::vector<Metric> e2e;
  std::vector<Metric> layers;
  SpanSummary spans;
  std::vector<std::string> notes;  // steadiness guards, mismatches
};

void AddMetric(std::vector<Metric>* out, std::string name, double value,
               std::string unit, int64_t samples);
/// `<prefix>_p50_ms` and `<prefix>_p95_ms` of `latency_ms`.
void AddLatency(std::vector<Metric>* out, const std::string& prefix,
                const std::vector<double>& latency_ms);
/// The gated end-to-end latencies: p95 of the workload's primary and
/// secondary operations (NOTES.md says why p95 and not p50).
void AddGatedLatencies(RunReport* report, const std::vector<double>& primary,
                       const std::vector<double>& secondary);
/// setup_s, failed_ratio and peak_rss_mb, which every workload reports.
void AddCommonMetrics(RunReport* report, const std::vector<double>& setup_s,
                      double peak_rss_mb);

/// Per-query layer counters summed over the traced queries of a run.
struct QueryTally {
  int64_t queries = 0;
  int64_t rewrites = 0;
  double candidates = 0;
  int64_t chosen[3] = {0, 0, 0};  // expanded, join-back, naive
  uint64_t rows_out = 0;
  uint64_t leaf_rows = 0;
  uint64_t peak_mem_bytes = 0;
  int max_dop = 1;

  void Add(const ExecStats& stats, const rfid::RewriteInfo* rewrite);
  /// The rewrite.* (when any query was rewritten), plan.max_dop and exec.*
  /// count metrics.
  void Report(RunReport* report) const;
};

/// storage.columnar_scanned_segments (per query) and
/// storage.columnar_skip_ratio between two counter snapshots.
void AddColumnarScanMetrics(RunReport* report,
                            const rfid::ColumnarCounters& before,
                            const rfid::ColumnarCounters& after,
                            int64_t queries);

/// Builds a workload fixture kSetupRepeats times, each after freeing the
/// previous one, and keeps the last. Appends each set-up's duration to
/// `setup_s`; the first is timed from process start.
template <typename Fixture, typename Build>
std::unique_ptr<Fixture> RepeatSetup(Build build, std::vector<double>* setup_s) {
  std::unique_ptr<Fixture> f;
  for (int i = 0; i < kSetupRepeats; ++i) {
    f.reset();
    const double start = i == 0 ? 0.0 : SinceProcessStartS();
    f = build(i);
    setup_s->push_back(SinceProcessStartS() - start);
  }
  return f;
}
/// Per-layer metric `name`: the median self time of the spans `key`
/// ("layer" or "layer.tag") in ms; absent spans report 0 with 0 samples.
void AddSpanMetric(RunReport* report, const std::string& name,
                   const std::string& key);
/// Order-insensitive digest of a result (hash of CanonicalRows).
uint64_t ResultDigest(const std::vector<Row>& rows);
/// Common run header fields (cores, dop, SIMD, batch, modes, build).
void AddEngineHeader(RunReport* report, const Args& args);

RunReport RunPaperReports(const Args& args);
RunReport RunEpcLookupServer(const Args& args);
RunReport RunHotSetIngest(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
