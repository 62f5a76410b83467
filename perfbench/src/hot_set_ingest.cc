// hot_set_ingest: writes beside reads. An open-loop ingest thread applies
// small rfidgen::ReadStream batches on a fixed schedule through
// IngestPipeline::Apply, logged to a WAL at FsyncPolicy::kPerEpoch in a
// fresh directory. A closed-loop client repeats the hot dashboard q1
// (3 rules, 50% rtime selectivity) through StitchWithFragmentCache and
// ExecuteSql on the latest snapshot. Ingest, WAL, columnar encoding at the
// watermark and fragment-cache invalidation all do real work here; the
// same fragment cache serves a wide query, where the lookup serves a
// narrow one.
#include <algorithm>
#include <atomic>
#include <thread>

#include "cache/fragment_cache.h"
#include "common.h"
#include "ingest/ingest.h"
#include "plan/planner.h"
#include "rewrite/fragment_stitch.h"
#include "rewrite/rewriter.h"
#include "rfidgen/stream.h"
#include "rfidgen/workload.h"
#include "storage/columnar.h"
#include "wal/wal_manager.h"

namespace perfbench {
namespace {

constexpr int kRules = 3;
constexpr double kSelectivity = 0.50;
/// Warm base fed before timing: comparable to the ~60k-read bulk
/// database the other workloads query.
constexpr size_t kWarmRows = 100000;
constexpr size_t kWarmBatchRows = 512;
/// The live feed: 32 rows every 125 ms, 256 rows/s offered. Apply stays
/// well inside its period, and a 20 s run gives 160 freshness samples.
constexpr size_t kBatchRows = 32;
constexpr int64_t kBatchPeriodNs = 125'000'000;
/// Batches due in the window but not applied by its end that the feed may
/// leave: the one in flight and one more.
constexpr int64_t kMaxBacklogBatches = 2;
/// Every Nth dashboard answer is kept with its pinned snapshot and
/// compared with the naive rewrite after the run.
constexpr int kCheckEvery = 12;

std::vector<rfid::ingest::TableBatch> ToGroup(rfid::rfidgen::StreamBatch b) {
  std::vector<rfid::ingest::TableBatch> group;
  group.push_back({"caseR", std::move(b.case_rows)});
  group.push_back({"palletR", std::move(b.pallet_rows)});
  group.push_back({"parent", std::move(b.parent_rows)});
  group.push_back({"epc_info", std::move(b.info_rows)});
  return group;
}

struct Fixture {
  Database db;
  std::unique_ptr<rfid::rfidgen::ReadStream> stream;
  std::unique_ptr<rfid::wal::WalManager> wal;
  std::unique_ptr<rfid::cache::FragmentCache> cache;
  std::unique_ptr<rfid::ingest::IngestPipeline> pipeline;
  std::unique_ptr<rfid::CleansingRuleEngine> engine;
  std::string wal_dir;
  std::string q1;
};

struct SetupTimes {
  std::vector<double> generate_s;  // stream construction
  std::vector<double> load_s;      // warm feed through the pipeline + WAL
  std::vector<double> define_ms;
};

/// Runs the dashboard once on the latest snapshot: stitch, then execute.
struct Dashboard {
  rfid::SnapshotPtr snapshot;
  rfid::Result<std::vector<Row>> rows = std::vector<Row>{};
  size_t regions = 0;
  ExecStats stats;
};

Dashboard RunDashboard(Fixture& f, Tracer* tracer, uint64_t request) {
  Dashboard d;
  d.snapshot = f.pipeline->snapshot();
  rfid::ExecContext ctx;
  ctx.set_snapshot(d.snapshot);
  std::string sql;
  {
    ScopedSpan span(tracer, "rewrite.stitch", "dashboard", request);
    auto stitch = rfid::StitchWithFragmentCache(f.q1, &f.db, *f.engine,
                                                f.cache.get(), &ctx);
    if (!stitch.ok()) {
      d.rows = stitch.status();
      return d;
    }
    if (!stitch->used) {
      d.rows = rfid::Status::Internal("fragment stitch not used: " +
                                      stitch->reason);
      return d;
    }
    sql = std::move(stitch->sql);
    d.regions = stitch->regions.size();
  }
  d.rows = RunSql(f.db, sql, &ctx, tracer, "dashboard", request, &d.stats);
  return d;
}

std::unique_ptr<Fixture> Setup(const Args& args, int repeat,
                               SetupTimes* times) {
  auto f = std::make_unique<Fixture>();
  int64_t t0 = NowNs();
  rfid::rfidgen::StreamOptions opt;
  opt.seed = args.seed;
  // The stream emits far fewer reads per pallet than bulk generation;
  // this scale leaves a long tail after the warm base for the live feed.
  opt.num_pallets = 2400;
  auto stream = rfid::rfidgen::ReadStream::Create(&f->db, opt);
  if (!stream.ok()) Die("stream: " + stream.status().ToString());
  f->stream = std::move(*stream);
  times->generate_s.push_back(NsToMs(NowNs() - t0) / 1e3);

  t0 = NowNs();
  f->wal_dir = args.work_dir + "/hot-set-wal-" + std::to_string(repeat);
  rfid::wal::WalOptions wopt;
  wopt.fsync_policy = rfid::wal::FsyncPolicy::kPerEpoch;
  auto wal = rfid::wal::WalManager::Open(f->wal_dir, &f->db, wopt);
  if (!wal.ok()) Die("wal open: " + wal.status().ToString());
  if ((*wal)->recovery().recovered) Die("wal directory was not fresh");
  f->wal = std::move(*wal);
  rfid::cache::FragmentCacheOptions copt;
  // Regions sized so a live batch touches the tail of the scheme, not
  // the whole table (as in bench_eager_vs_deferred's hot set).
  copt.target_region_rows = 4096;
  copt.max_regions = 16;
  f->cache = std::make_unique<rfid::cache::FragmentCache>(copt);
  f->pipeline = std::make_unique<rfid::ingest::IngestPipeline>(
      &f->db, /*accounting=*/nullptr, /*index_compact_threshold=*/8,
      f->wal.get());
  f->pipeline->set_fragment_cache(f->cache.get());
  size_t fed = 0;
  while (fed < kWarmRows) {
    if (f->stream->exhausted()) Die("stream exhausted during the warm feed");
    rfid::rfidgen::StreamBatch batch = f->stream->NextBatch(kWarmBatchRows);
    fed += batch.total_rows();
    rfid::Status st = f->pipeline->Apply(ToGroup(std::move(batch)));
    if (!st.ok()) Die("warm feed: " + st.ToString());
  }
  times->load_s.push_back(NsToMs(NowNs() - t0) / 1e3);

  f->engine = MakeEngine(&f->db, kRules, &times->define_ms);
  f->q1 = rfid::workload::Q1(RtimeQuantile(f->db, kSelectivity));
  // Warm-up: the first stitch cleanses every region into the cache.
  for (int i = 0; i < 2; ++i) {
    Dashboard d = RunDashboard(*f, nullptr, 0);
    if (!d.rows.ok()) Die("warm-up dashboard: " + d.rows.status().ToString());
  }
  return f;
}

/// What the ingest thread saw during the window.
struct IngestLog {
  std::unique_ptr<Tracer> tracer;
  std::vector<double> freshness_ms;  // due time -> Apply returned
  std::vector<double> late_ms;       // due time -> batch generation began
  std::vector<double> apply_ms;
  uint64_t rows = 0;
  int64_t batches_due = 0;  // by the end of the window
  int64_t behind_at_deadline = 0;  // due in the window, applied after it
  int64_t errors = 0;
  bool exhausted = false;
  std::string first_error;
};

/// Applies one batch every period from `start` until `deadline`; batches
/// due before `measure_from` (the settle phase) are applied unrecorded.
void RunIngest(Fixture* f, int64_t start, int64_t measure_from,
               int64_t deadline, const std::atomic<bool>* stop,
               IngestLog* log) {
  for (int64_t i = 0;; ++i) {
    const int64_t due = start + i * kBatchPeriodNs;
    if (due >= deadline) break;
    const bool measured = due >= measure_from;
    log->batches_due += measured ? 1 : 0;
    Tracer* tracer = measured ? log->tracer.get() : nullptr;
    while (NowNs() < due) {
      if (stop->load(std::memory_order_acquire)) return;
      const int64_t left = due - NowNs();
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          std::min<int64_t>(left, 1'000'000)));
    }
    const uint64_t request = (1ULL << 61) | static_cast<uint64_t>(i);
    const int64_t began = NowNs();
    ScopedSpan root(tracer, "ingest.batch", "batch", request);
    if (f->stream->exhausted()) {
      log->exhausted = true;
      return;
    }
    rfid::rfidgen::StreamBatch batch;
    {
      ScopedSpan span(tracer, "ingest.generate", "batch", request);
      batch = f->stream->NextBatch(kBatchRows);
    }
    const size_t rows = batch.total_rows();
    const int64_t apply_start = NowNs();
    rfid::Status st;
    {
      ScopedSpan span(tracer, "ingest.apply", "batch", request);
      st = f->pipeline->Apply(ToGroup(std::move(batch)));
    }
    const int64_t done = NowNs();
    root.Close();
    if (!st.ok()) {
      ++log->errors;
      if (log->first_error.empty()) log->first_error = st.ToString();
      continue;
    }
    if (!measured) continue;
    if (done > deadline) ++log->behind_at_deadline;
    log->rows += rows;
    log->freshness_ms.push_back(NsToMs(done - due));
    log->late_ms.push_back(NsToMs(began - due));
    log->apply_ms.push_back(NsToMs(done - apply_start));
  }
}

}  // namespace

RunReport RunHotSetIngest(const Args& args) {
  RunReport report;
  AddEngineHeader(&report, args);
  report.header.emplace_back("rules", "3 (reader, duplicate, replacing)");
  report.header.emplace_back("dashboard",
                             "q1 at 0.50 selectivity, fragment cache on, "
                             "1 closed-loop client");
  report.header.emplace_back("ingest", "open loop, 32-row batches every "
                                       "125 ms (256 rows/s offered)");
  report.header.emplace_back("fsync", "per_epoch");
  report.header.emplace_back("stream", "2400 pallets, 100k rows fed before "
                                       "timing");

  SetupTimes times;
  std::vector<double> setup_s;
  std::unique_ptr<Fixture> f = RepeatSetup<Fixture>(
      [&](int i) { return Setup(args, i, &times); }, &setup_s);

  // --- timed window ---
  Tracer tracer(args.trace);
  IngestLog ingest;
  ingest.tracer = std::make_unique<Tracer>(args.trace);
  std::vector<double> latency, traced_ms, untraced_ms;
  std::vector<std::pair<rfid::SnapshotPtr, std::vector<Row>>> samples;
  int64_t errors = 0;
  std::string first_error;
  size_t regions = 0;
  QueryTally tally;
  const size_t stream_total = f->stream->events_remaining();
  ResetPeakRss();
  const int64_t settle_start = NowNs();
  const int64_t window_start =
      settle_start + static_cast<int64_t>(kSettleSeconds * 1e9);
  const int64_t deadline =
      window_start + static_cast<int64_t>(args.seconds * 1e9);
  std::atomic<bool> stop{false};
  std::thread ingest_thread(RunIngest, f.get(), settle_start, window_start,
                            deadline, &stop, &ingest);
  // Settle: dashboards under the live feed, unrecorded.
  while (NowNs() < window_start) {
    Dashboard d = RunDashboard(*f, nullptr, 0);
    if (!d.rows.ok()) {
      stop.store(true, std::memory_order_release);
      ingest_thread.join();
      Die("settle dashboard: " + d.rows.status().ToString());
    }
  }
  const auto cache0 = f->cache->stats();
  const rfid::ColumnarCounters col0 = rfid::GlobalColumnarCounters();
  const uint64_t epoch0 = f->pipeline->epoch();
  const uint64_t wal0 = DirectoryBytes(f->wal_dir);
  for (uint64_t n = 0; NowNs() < deadline; ++n) {
    const bool traced = args.trace && n % 2 == 0;
    Tracer* tr = traced ? &tracer : nullptr;
    const int64_t t0 = NowNs();
    Dashboard d;
    {
      ScopedSpan root(tr, "dashboard", "dashboard", n);
      d = RunDashboard(*f, tr, n);
    }
    const double ms = NsToMs(NowNs() - t0);
    if (!d.rows.ok()) {
      ++errors;
      if (first_error.empty()) first_error = d.rows.status().ToString();
      continue;
    }
    latency.push_back(ms);
    (traced ? traced_ms : untraced_ms).push_back(ms);
    if (n % kCheckEvery == 0) {
      samples.emplace_back(d.snapshot, std::move(*d.rows));
    }
    if (traced) {
      regions += d.regions;
      tally.Add(d.stats, nullptr);
    }
  }
  stop.store(true, std::memory_order_release);
  ingest_thread.join();
  const auto cache1 = f->cache->stats();
  const rfid::ColumnarCounters col1 = rfid::GlobalColumnarCounters();
  const uint64_t epochs = f->pipeline->epoch() - epoch0;
  const uint64_t wal1 = DirectoryBytes(f->wal_dir);
  const double peak_rss = PeakRssMb();

  // --- steadiness guards ---
  // The feed must keep up: at the deadline at most kMaxBacklogBatches
  // batches due in the window may still be unapplied, and the stream
  // must not run dry.
  const auto applied = static_cast<int64_t>(ingest.freshness_ms.size());
  const int64_t unapplied = ingest.batches_due - applied - ingest.errors;
  const int64_t backlog = ingest.behind_at_deadline + unapplied;
  if (ingest.exhausted) report.notes.push_back("ingest stream exhausted");
  if (backlog > kMaxBacklogBatches) {
    report.notes.push_back("ingest backlog grew: " + std::to_string(backlog) +
                           " batches due in the window were not applied "
                           "by its end");
  }
  report.header.emplace_back(
      "stream_left", std::to_string(f->stream->events_remaining()) + " of " +
                         std::to_string(stream_total) + " events");

  // --- correctness gate: naive rewrite on each pinned snapshot ---
  int64_t wrong = 0;
  for (const auto& [snapshot, rows] : samples) {
    rfid::ExecContext ctx;
    ctx.set_snapshot(snapshot);
    rfid::QueryRewriter rewriter(&f->db, f->engine.get());
    rfid::RewriteOptions opts;
    opts.strategy = rfid::RewriteStrategy::kNaive;
    opts.exec_context = &ctx;
    auto info = rewriter.Rewrite(f->q1, opts);
    if (!info.ok()) Die("naive oracle rewrite: " + info.status().ToString());
    auto oracle = rfid::ExecuteSql(f->db, info->sql, &ctx);
    if (!oracle.ok()) Die("naive oracle: " + oracle.status().ToString());
    if (CanonicalRows(rows) != CanonicalRows(oracle->rows)) ++wrong;
  }
  if (wrong > 0) {
    report.notes.push_back(std::to_string(wrong) + " of " +
                           std::to_string(samples.size()) +
                           " sampled dashboards differ from the naive rewrite");
  }
  if (!first_error.empty()) report.notes.push_back("dashboard: " + first_error);
  if (!ingest.first_error.empty()) {
    report.notes.push_back("ingest: " + ingest.first_error);
  }
  const auto n = static_cast<int64_t>(latency.size());
  // Attempted: dashboards run plus batches due. Batches never applied
  // (stream exhausted) and a backlog beyond the limit count as failed.
  report.attempted = n + errors + ingest.batches_due;
  report.failed = errors + wrong + ingest.errors +
                  (backlog > kMaxBacklogBatches ? backlog : unapplied);
  report.header.emplace_back("dashboards_checked",
                             std::to_string(samples.size()));

  AddCommonMetrics(&report, setup_s, peak_rss);
  AddLatency(&report.table, "dashboard", latency);
  AddLatency(&report.table, "freshness", ingest.freshness_ms);
  AddGatedLatencies(&report, latency, ingest.freshness_ms);

  if (!args.trace) return report;

  Summarize(tracer.spans(), &report.spans);
  Summarize(ingest.tracer->spans(), &report.spans);
  const auto ne = static_cast<double>(std::max<uint64_t>(1, epochs));
  auto& l = report.layers;
  AddSpanMetric(&report, "rewrite.stitch_ms", "rewrite.stitch");
  AddSpanMetric(&report, "sql.parse_ms", "sql.parse");
  AddSpanMetric(&report, "plan.plan_ms", "plan.plan");
  AddSpanMetric(&report, "exec.collect_ms", "exec.collect");
  tally.Report(&report);
  AddColumnarScanMetrics(&report, col0, col1, n);
  AddMetric(&l, "storage.columnar_encoded_per_epoch",
            static_cast<double>(col1.segments_encoded -
                                col0.segments_encoded) /
                ne,
            "count", static_cast<int64_t>(epochs));
  const auto frag_lookups = static_cast<double>(
      (cache1.hits - cache0.hits) + (cache1.misses - cache0.misses));
  AddMetric(&l, "cache.fragment_regions_per_query",
            static_cast<double>(regions) /
                static_cast<double>(std::max<int64_t>(1, tally.queries)),
            "count", tally.queries);
  AddMetric(&l, "cache.fragment_hit_ratio",
            frag_lookups > 0
                ? static_cast<double>(cache1.hits - cache0.hits) / frag_lookups
                : 0,
            "ratio", n);
  AddMetric(&l, "cache.fragment_invalidations_per_epoch",
            static_cast<double>(cache1.invalidations - cache0.invalidations) /
                ne,
            "count", static_cast<int64_t>(epochs));
  AddMetric(&l, "cache.fragment_resident_mb",
            static_cast<double>(cache1.resident_bytes) / (1024.0 * 1024.0),
            "MiB", 1);
  AddMetric(&l, "ingest.apply_p50_ms", Percentile(ingest.apply_ms, 0.5), "ms",
            applied);
  AddMetric(&l, "ingest.apply_p95_ms", Percentile(ingest.apply_ms, 0.95),
            "ms", applied);
  AddMetric(&l, "ingest.generator_late_ms", Percentile(ingest.late_ms, 0.5),
            "ms", applied);
  const double offered = static_cast<double>(kBatchRows) * 1e9 /
                         static_cast<double>(kBatchPeriodNs);
  // Rows of the batches due in the window, over the window's length.
  const double achieved = static_cast<double>(ingest.rows) / args.seconds;
  AddMetric(&l, "ingest.rows_per_s", achieved, "1/s", applied);
  AddMetric(&l, "ingest.achieved_ratio", achieved / offered, "ratio",
            applied);
  AddMetric(&l, "wal.bytes_per_row",
            ingest.rows > 0 ? static_cast<double>(wal1 - wal0) /
                                  static_cast<double>(ingest.rows)
                            : 0,
            "B", static_cast<int64_t>(ingest.rows));
  AddMetric(&l, "trace.overhead_ratio",
            Percentile(traced_ms, 0.5) / Percentile(untraced_ms, 0.5) - 1.0,
            "ratio", n);
  AddMetric(&l, "cleansing.define_rule_ms", Percentile(times.define_ms, 0.5),
            "ms", static_cast<int64_t>(times.define_ms.size()));
  AddMetric(&l, "setup.generate_s", Percentile(times.generate_s, 0.5), "s",
            kSetupRepeats);
  AddMetric(&l, "setup.load_s", Percentile(times.load_s, 0.5), "s",
            kSetupRepeats);
  if (!DumpSpans(SpanPath(args), {&tracer, ingest.tracer.get()})) {
    report.notes.push_back("could not write the span file");
  }
  return report;
}

}  // namespace perfbench
