// epc_lookup_server: traceability lookups at a dock door. An in-process
// SQL server loads the seeded database with .load; four sessions, one
// connection and one closed-loop client thread each, send the per-EPC
// lookup for EPCs drawn Zipf(1.0) over every caseR EPC. Three sessions
// hold the 4-rule catalog (the fragment-cache stitch engages), one holds
// the full 5-rule catalog (the missing rule's palletR x parent arm runs):
// different applications with different rule sets is the premise of
// deferred cleansing. Wire, admission, plan cache, rewrite derivation and
// stitch dominate; execution is small.
#include <algorithm>
#include <atomic>
#include <map>
#include <random>
#include <thread>

#include "cache/fragment_cache.h"
#include "common.h"
#include "plan/planner.h"
#include "rewrite/fragment_stitch.h"
#include "rewrite/rewriter.h"
#include "rfidgen/workload.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/columnar.h"
#include "storage/persist.h"

namespace perfbench {
namespace {

using rfid::server::CacheOutcome;
using rfid::server::Client;
using rfid::server::RowsPayload;
using rfid::server::Server;

constexpr int kSessions = 4;
constexpr int kFullCatalogSessions = 1;  // the last session: 5 rules
constexpr int kWarmLookupsPerSession = 4;
/// Distinct (EPC, catalog) pairs replayed embedded in a traced run.
constexpr size_t kReplayPairs = 48;
constexpr const char* kCatTags[2] = {"cat4", "cat5"};

int CatalogOf(int session) {
  return session >= kSessions - kFullCatalogSessions ? 1 : 0;
}
int RulesOf(int catalog) { return catalog == 0 ? 4 : 5; }

std::string LookupSql(const std::string& epc) {
  return "SELECT rtime, biz_loc, reader FROM caseR WHERE epc = '" + epc +
         "' ORDER BY rtime";
}

/// Zipf(1.0) over ranks [0, n): inverse-CDF sampling.
class Zipf {
 public:
  explicit Zipf(size_t n) : cdf_(n) {
    double sum = 0;
    for (size_t k = 0; k < n; ++k) {
      sum += 1.0 / static_cast<double>(k + 1);
      cdf_[k] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Draw(std::mt19937_64* rng) const {
    const double u = std::uniform_real_distribution<double>(0, 1)(*rng);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

struct Fixture {
  Database twin;  // the embedded copy of what the server loaded
  std::vector<std::string> epcs;  // Zipf rank -> EPC (seeded permutation)
  std::unique_ptr<Server> server;
  std::vector<std::unique_ptr<Client>> clients;

  Fixture() = default;
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;
  ~Fixture() {
    clients.clear();
    if (server != nullptr) server->Shutdown();
  }
};

struct SetupTimes {
  std::vector<double> generate_s;
  std::vector<double> load_s;
};

std::unique_ptr<Client> Connect(const Server& server) {
  auto client = Client::Connect("127.0.0.1", server.port());
  if (!client.ok()) Die("connect: " + client.status().ToString());
  return std::move(*client);
}

std::unique_ptr<Fixture> Setup(const Args& args, int repeat,
                               SetupTimes* times) {
  auto f = std::make_unique<Fixture>();
  int64_t t0 = NowNs();
  GenerateDatabase(args.seed, &f->twin);
  times->generate_s.push_back(NsToMs(NowNs() - t0) / 1e3);

  // The server receives only the generated data: save it, .load it.
  t0 = NowNs();
  const std::string dir =
      args.work_dir + "/lookup-db-" + std::to_string(repeat);
  rfid::Status saved = rfid::SaveDatabase(f->twin, dir);
  if (!saved.ok()) Die("save database: " + saved.ToString());
  rfid::server::ServerOptions options;
  options.max_sessions = kSessions + 1;
  auto server = Server::Start(options);
  if (!server.ok()) Die("server start: " + server.status().ToString());
  f->server = std::move(*server);
  {
    std::unique_ptr<Client> seeder = Connect(*f->server);
    auto loaded = seeder->Command(".load " + dir);
    if (!loaded.ok()) Die(".load: " + loaded.status().ToString());
    (void)seeder->Quit();
  }
  times->load_s.push_back(NsToMs(NowNs() - t0) / 1e3);

  for (int s = 0; s < kSessions; ++s) {
    f->clients.push_back(Connect(*f->server));
    for (const std::string& def :
         rfid::workload::StandardRuleDefinitions(RulesOf(CatalogOf(s)))) {
      auto defined = f->clients.back()->Command(".rule " + def);
      if (!defined.ok()) Die(".rule: " + defined.status().ToString());
    }
  }

  auto epcs = rfid::ExecuteSql(f->twin, "SELECT DISTINCT epc FROM caseR");
  if (!epcs.ok() || epcs->rows.empty()) Die("epc list query failed");
  for (const Row& row : epcs->rows) {
    f->epcs.push_back(row[0].string_value());
  }
  std::sort(f->epcs.begin(), f->epcs.end());
  std::mt19937_64 rng(args.seed);
  std::shuffle(f->epcs.begin(), f->epcs.end(), rng);

  // Warm the plan cache on the hottest EPCs and fill the fragment cache
  // (a cold 4-rule stitch cleanses every region), all sessions at once.
  std::vector<std::thread> warm;
  std::atomic<int> warm_errors{0};
  for (int s = 0; s < kSessions; ++s) {
    warm.emplace_back([&, s] {
      for (int k = 0; k < kWarmLookupsPerSession; ++k) {
        auto res = f->clients[static_cast<size_t>(s)]->Query(
            LookupSql(f->epcs[static_cast<size_t>(k)]));
        if (!res.ok()) ++warm_errors;
      }
    });
  }
  for (std::thread& t : warm) t.join();
  if (warm_errors.load() != 0) Die("warm-up lookups failed");
  return f;
}

/// What one session thread saw during the window.
struct SessionLog {
  std::unique_ptr<Tracer> tracer;
  std::vector<double> latency_ms;
  std::vector<double> traced_ms, untraced_ms;
  std::vector<double> hit_ms, miss_ms;  // traced round trips by outcome
  int64_t lookups = 0;
  int64_t errors = 0;
  int64_t repeat_mismatches = 0;
  int64_t unordered = 0;
  std::string first_error;
  /// First answer per distinct EPC rank, with the digest later answers
  /// must match.
  std::map<size_t, std::pair<uint64_t, std::vector<Row>>> answers;
};

/// One session's closed loop until `deadline`. `phase` picks the draw
/// stream, so the settle phase and the window draw different EPCs.
void RunSession(const Fixture& f, const Args& args, int session, int phase,
                int64_t deadline, SessionLog* log) {
  const Zipf zipf(f.epcs.size());
  std::mt19937_64 rng(args.seed * 1000003ULL +
                      static_cast<uint64_t>(session * 16 + phase));
  Client* client = f.clients[static_cast<size_t>(session)].get();
  const char* tag = kCatTags[CatalogOf(session)];
  Tracer* tracer = log->tracer.get();
  for (uint64_t n = 0; NowNs() < deadline; ++n) {
    const size_t rank = zipf.Draw(&rng);
    const std::string sql = LookupSql(f.epcs[rank]);
    const bool traced = tracer->on() && n % 2 == 0;
    Tracer* tr = traced ? tracer : nullptr;
    const uint64_t request =
        (static_cast<uint64_t>(session) << 48) | static_cast<uint64_t>(n);
    const int64_t t0 = NowNs();
    ScopedSpan span(tr, "server.roundtrip", tag, request);
    const int32_t span_id = span.id();
    rfid::Result<RowsPayload> res = client->Query(sql);
    span.Close();
    const double ms = NsToMs(NowNs() - t0);
    ++log->lookups;
    if (!res.ok()) {
      ++log->errors;
      if (log->first_error.empty()) log->first_error = res.status().ToString();
      continue;
    }
    log->latency_ms.push_back(ms);
    (traced ? log->traced_ms : log->untraced_ms).push_back(ms);
    if (traced) {
      const bool hit = res->cache == CacheOutcome::kHit;
      tracer->AddMeasuredChild(
          span_id, "server.exec",
          static_cast<int64_t>(res->elapsed_micros) * 1000);
      (hit ? log->hit_ms : log->miss_ms).push_back(ms);
    }
    for (size_t i = 1; i < res->rows.size(); ++i) {
      if (res->rows[i][0].Compare(res->rows[i - 1][0]) < 0) {
        ++log->unordered;
        break;
      }
    }
    const uint64_t digest = ResultDigest(res->rows);
    auto it = log->answers.find(rank);
    if (it == log->answers.end()) {
      log->answers.emplace(rank, std::make_pair(digest, std::move(res->rows)));
    } else if (it->second.first != digest) {
      ++log->repeat_mismatches;
    }
  }
}

/// Replays up to kReplayPairs distinct served EPCs per catalog on the
/// embedded twin, through the server's own sequence: Rewrite, then the
/// fragment stitch when it applies, then execution. A first, unrecorded
/// pass fills the replay's fragment cache, as the server's was filled in
/// set-up.
void ReplayEmbedded(Fixture& f, const std::vector<SessionLog>& logs,
                    const std::unique_ptr<rfid::CleansingRuleEngine> (&engines)[2],
                    Tracer* tracer, QueryTally* tally) {
  rfid::cache::FragmentCache cache;
  for (int c = 0; c < 2; ++c) {
    std::vector<size_t> ranks;
    for (int s = 0; s < kSessions; ++s) {
      if (CatalogOf(s) != c) continue;
      for (const auto& entry : logs[static_cast<size_t>(s)].answers) {
        ranks.push_back(entry.first);
      }
    }
    std::sort(ranks.begin(), ranks.end());
    ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
    if (ranks.size() > kReplayPairs) ranks.resize(kReplayPairs);
    for (int pass = 0; pass < 2; ++pass) {
      Tracer* tr = pass == 1 ? tracer : nullptr;
      for (size_t rank : ranks) {
        const uint64_t request = (1ULL << 62) | rank;
        const std::string sql = LookupSql(f.epcs[rank]);
        ScopedSpan root(tr, "lookup.embedded", kCatTags[c], request);
        rfid::ExecContext ctx;
        rfid::RewriteInfo info;
        {
          ScopedSpan span(tr, "rewrite.derive", kCatTags[c], request);
          rfid::QueryRewriter rewriter(&f.twin, engines[c].get());
          rfid::RewriteOptions opts;
          opts.exec_context = &ctx;
          auto rewritten = rewriter.Rewrite(sql, opts);
          if (!rewritten.ok()) {
            Die("replay rewrite: " + rewritten.status().ToString());
          }
          info = std::move(*rewritten);
        }
        std::string final_sql = info.sql;
        {
          ScopedSpan span(tr, "rewrite.stitch", kCatTags[c], request);
          auto stitch = rfid::StitchWithFragmentCache(sql, &f.twin,
                                                      *engines[c], &cache,
                                                      &ctx);
          if (stitch.ok() && stitch->used) final_sql = stitch->sql;
        }
        ExecStats stats;
        auto rows = RunSql(f.twin, final_sql, &ctx, tr, kCatTags[c], request,
                           &stats);
        if (!rows.ok()) Die("replay: " + rows.status().ToString());
        if (tr != nullptr) tally->Add(stats, &info);
      }
    }
  }
}

}  // namespace

RunReport RunEpcLookupServer(const Args& args) {
  RunReport report;
  AddEngineHeader(&report, args);
  report.header.emplace_back(
      "sessions", "4 closed loop: 3 x 4-rule catalog, 1 x 5-rule catalog");
  report.header.emplace_back("epc_draw", "Zipf(1.0) over all caseR EPCs");
  report.header.emplace_back("server",
                             "in-process, plan cache 256, fragment cache on, "
                             "admission max_concurrent 4");

  SetupTimes times;
  std::vector<double> setup_s;
  std::unique_ptr<Fixture> f = RepeatSetup<Fixture>(
      [&](int i) { return Setup(args, i, &times); }, &setup_s);
  report.header.emplace_back("epcs", std::to_string(f->epcs.size()));

  // Settle: every session runs its loop, unrecorded, before the window.
  ResetPeakRss();
  auto run_sessions = [&](int phase, int64_t deadline,
                          std::vector<SessionLog>* logs) {
    std::vector<std::thread> threads;
    for (int s = 0; s < kSessions; ++s) {
      threads.emplace_back(RunSession, std::cref(*f), std::cref(args), s,
                           phase, deadline, &(*logs)[static_cast<size_t>(s)]);
    }
    for (std::thread& t : threads) t.join();
  };
  {
    std::vector<SessionLog> settle(kSessions);
    for (SessionLog& log : settle) log.tracer = std::make_unique<Tracer>(false);
    run_sessions(0, NowNs() + static_cast<int64_t>(kSettleSeconds * 1e9),
                 &settle);
    for (const SessionLog& log : settle) {
      if (log.errors > 0) Die("settle lookup: " + log.first_error);
    }
  }

  // --- timed window ---
  const auto plan0 = f->server->plan_cache_stats();
  const auto adm0 = f->server->admission_stats();
  const auto frag0 = f->server->fragment_cache_stats();
  const rfid::ColumnarCounters col0 = rfid::GlobalColumnarCounters();
  std::vector<SessionLog> logs(kSessions);
  for (SessionLog& log : logs) log.tracer = std::make_unique<Tracer>(args.trace);
  const int64_t window_start = NowNs();
  const int64_t deadline =
      window_start + static_cast<int64_t>(args.seconds * 1e9);
  run_sessions(1, deadline, &logs);
  const double window_s = NsToMs(NowNs() - window_start) / 1e3;
  const auto plan1 = f->server->plan_cache_stats();
  const auto adm1 = f->server->admission_stats();
  const auto frag1 = f->server->fragment_cache_stats();
  const rfid::ColumnarCounters col1 = rfid::GlobalColumnarCounters();
  const double peak_rss = PeakRssMb();

  // --- correctness gate: the naive rewrite on the embedded twin ---
  // Naive cleansing of the whole table once per catalog, grouped by EPC,
  // equals the naive rewrite of every lookup (sigma_s(Phi(R))).
  std::vector<double> define_ms;
  std::unique_ptr<rfid::CleansingRuleEngine> engines[2];
  std::map<std::string, std::vector<Row>> oracle[2];
  for (int c = 0; c < 2; ++c) {
    engines[c] = MakeEngine(&f->twin, RulesOf(c), &define_ms);
    rfid::QueryRewriter rewriter(&f->twin, engines[c].get());
    rfid::RewriteOptions opts;
    opts.strategy = rfid::RewriteStrategy::kNaive;
    auto info =
        rewriter.Rewrite("SELECT epc, rtime, biz_loc, reader FROM caseR", opts);
    if (!info.ok()) Die("naive oracle rewrite: " + info.status().ToString());
    auto all = rfid::ExecuteSql(f->twin, info->sql);
    if (!all.ok()) Die("naive oracle: " + all.status().ToString());
    for (Row& row : all->rows) {
      std::string epc = row[0].string_value();
      oracle[c][epc].push_back(Row(row.begin() + 1, row.end()));
    }
  }
  int64_t lookups = 0, errors = 0, wrong = 0, distinct = 0;
  int64_t lookups_cat[2] = {0, 0};
  for (int s = 0; s < kSessions; ++s) {
    SessionLog& log = logs[static_cast<size_t>(s)];
    const int c = CatalogOf(s);
    lookups += log.lookups;
    lookups_cat[c] += static_cast<int64_t>(log.latency_ms.size());
    errors += log.errors;
    wrong += log.repeat_mismatches + log.unordered;
    if (!log.first_error.empty()) {
      report.notes.push_back("session " + std::to_string(s) +
                             " error: " + log.first_error);
    }
    for (const auto& [rank, answer] : log.answers) {
      ++distinct;
      const auto it = oracle[c].find(f->epcs[rank]);
      const std::vector<Row> none;
      if (CanonicalRows(answer.second) !=
          CanonicalRows(it == oracle[c].end() ? none : it->second)) {
        ++wrong;
      }
    }
  }
  if (wrong > 0) {
    report.notes.push_back(std::to_string(wrong) +
                           " lookups differ from the naive rewrite");
  }
  report.attempted = lookups;
  report.failed = errors + wrong;
  report.header.emplace_back("distinct_pairs_checked",
                             std::to_string(distinct));

  std::vector<double> pooled, by_cat[2];
  for (int s = 0; s < kSessions; ++s) {
    const SessionLog& log = logs[static_cast<size_t>(s)];
    pooled.insert(pooled.end(), log.latency_ms.begin(), log.latency_ms.end());
    auto& dst = by_cat[CatalogOf(s)];
    dst.insert(dst.end(), log.latency_ms.begin(), log.latency_ms.end());
  }
  const auto n = static_cast<int64_t>(pooled.size());
  const double qps = static_cast<double>(n) / window_s;
  AddCommonMetrics(&report, setup_s, peak_rss);
  AddLatency(&report.table, "lookup", pooled);
  AddMetric(&report.table, "lookup_qps", qps, "1/s", n);
  AddGatedLatencies(&report, pooled, by_cat[1]);

  if (!args.trace) return report;

  // --- per-layer metrics ---
  // Server side: client spans around each round trip, with the server's
  // own execution time as a measured child.
  std::vector<const Tracer*> tracers;
  std::vector<double> traced, untraced, hit_ms, miss_ms;
  for (const SessionLog& log : logs) {
    tracers.push_back(log.tracer.get());
    Summarize(log.tracer->spans(), &report.spans);
    traced.insert(traced.end(), log.traced_ms.begin(), log.traced_ms.end());
    untraced.insert(untraced.end(), log.untraced_ms.begin(),
                    log.untraced_ms.end());
    hit_ms.insert(hit_ms.end(), log.hit_ms.begin(), log.hit_ms.end());
    miss_ms.insert(miss_ms.end(), log.miss_ms.begin(), log.miss_ms.end());
  }
  auto& l = report.layers;
  auto total_p50 = [&](const std::string& key) {
    auto it = report.spans.total_ms.find(key);
    return it == report.spans.total_ms.end() ? 0.0
                                             : Percentile(it->second, 0.5);
  };
  AddMetric(&l, "server.roundtrip_ms", total_p50("server.roundtrip"), "ms",
            static_cast<int64_t>(traced.size()));
  AddSpanMetric(&report, "server.exec_ms", "server.exec");
  AddSpanMetric(&report, "server.outside_exec_ms", "server.roundtrip");
  AddSpanMetric(&report, "server.exec_ms.cat4", "server.exec.cat4");
  AddSpanMetric(&report, "server.exec_ms.cat5", "server.exec.cat5");
  AddSpanMetric(&report, "server.outside_exec_ms.cat4",
                "server.roundtrip.cat4");
  AddSpanMetric(&report, "server.outside_exec_ms.cat5",
                "server.roundtrip.cat5");
  AddMetric(&l, "server.roundtrip_hit_ms", Percentile(hit_ms, 0.5), "ms",
            static_cast<int64_t>(hit_ms.size()));
  AddMetric(&l, "server.roundtrip_miss_ms", Percentile(miss_ms, 0.5), "ms",
            static_cast<int64_t>(miss_ms.size()));
  const auto plan_lookups =
      static_cast<double>((plan1.hits - plan0.hits) +
                          (plan1.misses - plan0.misses));
  AddMetric(&l, "server.plan_cache_hit_ratio",
            plan_lookups > 0
                ? static_cast<double>(plan1.hits - plan0.hits) / plan_lookups
                : 0,
            "ratio", n);
  const auto admitted = static_cast<double>(adm1.admitted - adm0.admitted);
  AddMetric(&l, "server.admission_queued_ratio",
            admitted > 0 ? static_cast<double>(adm1.queued - adm0.queued) /
                               admitted
                         : 0,
            "ratio", static_cast<int64_t>(admitted));
  const auto frag_lookups = static_cast<double>(
      (frag1.hits - frag0.hits) + (frag1.misses - frag0.misses));
  AddMetric(&l, "cache.fragment_regions_per_query",
            frag_lookups / static_cast<double>(
                               std::max<int64_t>(1, lookups_cat[0])),
            "count", lookups_cat[0]);
  AddMetric(&l, "cache.fragment_hit_ratio",
            frag_lookups > 0
                ? static_cast<double>(frag1.hits - frag0.hits) / frag_lookups
                : 0,
            "ratio", lookups_cat[0]);
  AddMetric(&l, "cache.fragment_resident_mb",
            static_cast<double>(frag1.resident_bytes) / (1024.0 * 1024.0),
            "MiB", 1);
  AddColumnarScanMetrics(&report, col0, col1, n);
  AddMetric(&l, "trace.overhead_ratio",
            Percentile(traced, 0.5) / Percentile(untraced, 0.5) - 1.0,
            "ratio", n);

  // Embedded side: the lookup's rewrite, stitch, plan and exec layers,
  // measured on the statements actually served.
  Tracer replay(true);
  QueryTally tally;
  ReplayEmbedded(*f, logs, engines, &replay, &tally);
  Summarize(replay.spans(), &report.spans);
  tracers.push_back(&replay);
  AddSpanMetric(&report, "rewrite.derive_ms", "rewrite.derive");
  AddSpanMetric(&report, "rewrite.derive_ms.cat4", "rewrite.derive.cat4");
  AddSpanMetric(&report, "rewrite.derive_ms.cat5", "rewrite.derive.cat5");
  AddSpanMetric(&report, "rewrite.stitch_ms", "rewrite.stitch.cat4");
  AddSpanMetric(&report, "sql.parse_ms", "sql.parse");
  AddSpanMetric(&report, "plan.plan_ms", "plan.plan");
  AddSpanMetric(&report, "exec.collect_ms", "exec.collect");
  AddSpanMetric(&report, "exec.collect_ms.cat4", "exec.collect.cat4");
  AddSpanMetric(&report, "exec.collect_ms.cat5", "exec.collect.cat5");
  tally.Report(&report);
  AddMetric(&l, "cleansing.define_rule_ms", Percentile(define_ms, 0.5), "ms",
            static_cast<int64_t>(define_ms.size()));
  AddMetric(&l, "setup.generate_s", Percentile(times.generate_s, 0.5), "s",
            kSetupRepeats);
  AddMetric(&l, "setup.load_s", Percentile(times.load_s, 0.5), "s",
            kSetupRepeats);
  if (!DumpSpans(SpanPath(args), tracers)) {
    report.notes.push_back("could not write the span file");
  }
  return report;
}

}  // namespace perfbench
