// edgebench — the end-to-end benchmark of SuccinctEdge.
//
// One process runs one workload through the engine's public surfaces and
// prints one JSON result line:
//
//   edgebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (see perfbench/README.md for the full metric map):
//
//   lubm_cold_read        serve::QueryService over one Database on LUBM1,
//                         reasoning and decode on; closed loop, 2 clients,
//                         2 readers, a fixed sequence of distinct queries.
//   sensor_mixed_durable  a device-mode Database (Open on a simulated block
//                         device) over LUBM1: open-loop reads at a fixed
//                         rate from a small catalog, one writer inserting
//                         sensor batches at a fixed rate with a CompactAsync
//                         fold (and checkpoint) every N batches, then a
//                         reopen that re-checks every answer.
//   lubm_sharded_read     the lubm_cold_read sequence through
//                         QueryService(ShardedDatabase*) over K=2
//                         subject-hash shards.
//
// With --trace 0 the line carries the end-to-end metrics. With --trace 1
// the same timed phase runs (the registry counters and histograms the
// modules export through metrics() give the per-layer figures that need
// real concurrency), followed by a single-threaded replay through the
// public layer calls — snapshot() → ParseQuery → PlanOrder →
// ExecuteEncoded / Execute, ExplainQuery per pattern, Insert /
// CompactAsync / WaitForCompaction / Open — and the line carries the
// per-layer metrics.
//
// Every read is checked against an oracle count computed single-threaded
// before the timed phase; a wrong answer makes the run exit 1 with
// "correct": false.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/database.h"
#include "core/sharded_database.h"
#include "harness.h"
#include "io/block_device.h"
#include "requests.h"
#include "serve/query_service.h"
#include "sparql/executor.h"
#include "sparql/sparql_parser.h"
#include "util/rng.h"
#include "workloads/lubm_generator.h"
#include "workloads/sensor_generator.h"

namespace perfbench {
namespace {

using sedge::Database;
using sedge::ShardedDatabase;
using sedge::Status;
namespace obs = sedge::obs;
namespace rdf = sedge::rdf;
namespace serve = sedge::serve;
namespace sparql = sedge::sparql;

// ---------------------------------------------------------------- settings
// Held fixed for every workload and machine, so runs compare.
constexpr int kBuildThreads = 1;     // Database::set_build_threads
constexpr int kReaders = 2;          // QueryService reader threads
constexpr int kClients = 2;          // closed-loop client threads
constexpr size_t kQueueDepth = 256;  // QueryService admission queue
constexpr int kSetupRepeats = 11;    // setup_s is the median of these
constexpr double kReadLimitMs = 10;  // read_slo_frac latency limit
constexpr size_t kSequenceSize = 1000;  // lubm_*_read requests per round
constexpr int kShards = 2;              // lubm_sharded_read
// sensor_mixed_durable
constexpr double kReadRate = 800;      // open-loop reads per second
constexpr double kWindowSeconds = 2;   // open-loop percentile windows
constexpr size_t kCatalogSize = 16;    // distinct read texts
constexpr double kWriteRate = 50;      // write batches per second
constexpr int kFoldEvery = 50;         // batches per CompactAsync
constexpr int kReplayFolds = 3;        // traced fold cycles
constexpr int kTailBatches = 25;       // unfolded WAL tail before reopen
constexpr int kReplayCatalogPasses = 8;  // traced passes over the catalog
constexpr int kRecoverRepeats = 3;     // recover_s is the median of these

// The metric vocabulary, in output order. perfbench/run.py checks it
// against BENCHMARK.json.
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},           {"read_qps", "1/s"},
    {"read_p50_ms", "ms"},      {"read_slo_frac", "frac"},
    {"store_bytes_per_triple", "B/triple"},
};

const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"serve.queue_wait_ms_p99", "ms"},
    {"serve.execute_ms_p50", "ms"},
    {"serve.result_cache_hit_ratio", "ratio"},
    {"serve.plan_cache_hit_ratio", "ratio"},
    {"serve.result_cache_invalidations_per_batch", "count"},
    {"sparql.parse_ms", "ms"},
    {"sparql.plan_ms", "ms"},
    {"sparql.execute_ms", "ms"},
    {"sparql.decode_ms", "ms"},
    {"sparql.intermediate_rows_per_result", "ratio"},
    {"store.tp_merge_join_ms", "ms"},
    {"store.tp_row_ms", "ms"},
    {"store.tp_type_ms", "ms"},
    {"store.merge_join_share", "ratio"},
    {"store.base_bytes", "B"},
    {"store.dict_bytes", "B"},
    {"store.overlay_bytes", "B"},
    {"core.insert_ms_p50", "ms"},
    {"core.insert_ms_p99", "ms"},
    {"core.fork_ms_p50", "ms"},
    {"core.fold_s", "s"},
    {"core.folds", "count"},
    {"io.wal_sync_ms_p99", "ms"},
    {"io.wal_bytes_per_triple", "B/triple"},
    {"io.device_blocks_written", "count"},
    {"io.checkpoint_s", "s"},
    {"dist.query_ms_p50", "ms"},
    {"dist.join_ms_p50", "ms"},
    {"dist.fanout_mean", "count"},
    {"dist.subqueries_per_query", "ratio"},
    {"dist.pushdown_ratio", "ratio"},
    {"read_p90_ms", "ms"},
    {"read_p99_ms", "ms"},
    {"write_p50_ms", "ms"},
    {"write_p99_ms", "ms"},
    {"recover_s", "s"},
    {"device_bytes_per_triple", "B/triple"},
    {"failed_frac", "frac"},
    {"bench.read_samples", "count"},
    {"bench.write_samples", "count"},
    {"bench.gen_late_ms_p99", "ms"},
    {"bench.layer_coverage_frac", "frac"},
    {"bench.trace_overhead_frac", "frac"},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// ------------------------------------------------------------ bookkeeping

/// Wrong answers, from any thread. The first one is kept for the report.
class Checker {
 public:
  void Expect(bool ok, const std::string& what) {
    if (ok) return;
    std::lock_guard<std::mutex> lk(mu_);
    if (wrong_++ == 0) first_ = what;
  }
  uint64_t wrong() const {
    std::lock_guard<std::mutex> lk(mu_);
    return wrong_;
  }
  std::string first() const {
    std::lock_guard<std::mutex> lk(mu_);
    return first_;
  }

 private:
  mutable std::mutex mu_;
  uint64_t wrong_ = 0;
  std::string first_;
};

/// Everything a workload reports. Metrics missing from `e2e` / `layer`
/// are emitted as 0 (a layer the workload does not exercise).
struct RunResult {
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> info;
};

uint64_t CounterValue(const obs::MetricsRegistry& reg, const char* name) {
  const obs::Counter* c = reg.FindCounter(name);
  return c == nullptr ? 0 : c->value();
}

double HistSum(const obs::MetricsRegistry& reg, const char* name) {
  const obs::Histogram* h = reg.FindHistogram(name);
  return h == nullptr ? 0.0 : h->sum();
}

double HistMs(const obs::MetricsRegistry& reg, const char* name, double p) {
  return HistogramPercentile(reg.FindHistogram(name), p) * 1e3;
}

void ResetHistograms(obs::MetricsRegistry& reg,
                     std::initializer_list<const char*> names) {
  for (const char* name : names) reg.GetHistogram(name)->Reset();
}

serve::ServeOptions ServeOpts(int readers) {
  serve::ServeOptions o;
  o.readers = readers;
  o.queue_depth = kQueueDepth;
  o.decode_results = true;
  return o;
}

template <typename Fn>
double TimeSeconds(Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  return SecondsBetween(start, Clock::now());
}

rdf::Graph LubmGraph(uint64_t seed) {
  sedge::workloads::LubmConfig config;
  config.seed = seed;
  return sedge::workloads::LubmGenerator::Generate(config);
}

std::vector<uint64_t> OracleCounts(const Database& db,
                                   const std::vector<std::string>& seq) {
  std::vector<uint64_t> out;
  out.reserve(seq.size());
  for (const std::string& text : seq) {
    const auto count = db.QueryCount(text);
    SEDGE_CHECK(count.ok()) << count.status().ToString() << "\n" << text;
    out.push_back(count.value());
  }
  return out;
}

/// Serve-layer figures of the timed phase.
void AddServeLayer(const obs::MetricsRegistry& reg, RunResult* res) {
  const double rhits = CounterValue(reg, "serve_result_cache_hits_total");
  const double rmiss = CounterValue(reg, "serve_result_cache_misses_total");
  const double phits = CounterValue(reg, "serve_plan_cache_hits_total");
  const double pmiss = CounterValue(reg, "serve_plan_cache_misses_total");
  res->layer["serve.queue_wait_ms_p99"] =
      HistMs(reg, "serve_queue_wait_seconds", 99);
  res->layer["serve.execute_ms_p50"] = HistMs(reg, "serve_execute_seconds", 50);
  res->layer["serve.result_cache_hit_ratio"] = Ratio(rhits, rhits + rmiss);
  res->layer["serve.plan_cache_hit_ratio"] = Ratio(phits, phits + pmiss);
}

void AddStoreBytes(const std::vector<const sedge::store::TripleStore*>& stores,
                   RunResult* res) {
  double base = 0, dict = 0, overlay = 0, total = 0, triples = 0;
  for (const auto* s : stores) {
    base += static_cast<double>(s->TriplesSizeInBytes());
    dict += static_cast<double>(s->DictionarySizeInBytes());
    overlay += static_cast<double>(s->DeltaSizeInBytes());
    total += static_cast<double>(s->SizeInBytes());
    triples += static_cast<double>(s->num_triples());
  }
  res->e2e["store_bytes_per_triple"] = Ratio(total, triples);
  res->layer["store.base_bytes"] = base;
  res->layer["store.dict_bytes"] = dict;
  res->layer["store.overlay_bytes"] = overlay;
}

void AddMergeJoinShare(const std::vector<sparql::ExecutorStats>& stats,
                       RunResult* res) {
  double merge = 0, row = 0;
  for (const auto& s : stats) {
    merge += static_cast<double>(s.merge_join_extends);
    row += static_cast<double>(s.row_extends);
  }
  res->layer["store.merge_join_share"] = Ratio(merge, merge + row);
}

// ------------------------------------------------------- closed-loop reads

struct ReadLog {
  std::vector<double> latency_ms;  // every response
  // The same latencies cut into windows: one per round (closed loop) or
  // per kWindowSeconds of schedule (open loop). Each holds >= 1000 reads.
  std::vector<std::vector<double>> windows;
  std::vector<double> round_qps;   // correct responses per second, per round
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t within_limit = 0;  // correct and no slower than kReadLimitMs
};

/// Runs `seq` in rounds: one unmeasured warm-up round, then measured
/// rounds until `seconds` have passed. Each round sends the whole
/// sequence once from kClients closed-loop clients through a fresh
/// QueryService, so no text repeats within a service's lifetime and both
/// serve caches stay cold.
template <typename Store>
ReadLog RunClosedLoop(Store* store, const std::vector<std::string>& seq,
                      const std::vector<uint64_t>& oracle, double seconds,
                      Checker* checker) {
  ReadLog log;
  Clock::time_point deadline = Clock::time_point::max();
  for (bool warm_up = true;; warm_up = false) {
    if (!warm_up && Clock::now() >= deadline) break;
    serve::QueryService service(store, ServeOpts(kReaders));
    std::atomic<size_t> next{0};
    std::vector<ReadLog> client_logs(kClients);
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        ReadLog& mine = client_logs[c];
        for (size_t i = next.fetch_add(1); i < seq.size();
             i = next.fetch_add(1)) {
          const Clock::time_point sent = Clock::now();
          const serve::QueryService::Response resp =
              service.Execute(seq[i]);
          const double ms = MillisBetween(sent, Clock::now());
          ++mine.attempted;
          mine.latency_ms.push_back(ms);
          if (!resp.status.ok()) {
            ++mine.failed;
            continue;
          }
          checker->Expect(resp.rows == oracle[i],
                          "request " + std::to_string(i) + " returned " +
                              std::to_string(resp.rows) + " rows, oracle " +
                              std::to_string(oracle[i]) + "\n" + seq[i]);
          if (resp.rows == oracle[i] && ms <= kReadLimitMs) {
            ++mine.within_limit;
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
    const double wall = SecondsBetween(start, Clock::now());
    service.Shutdown();
    if (warm_up) {
      // Warm-up answers are checked, and its failures count, but its
      // timings are not measured.
      for (const ReadLog& c : client_logs) log.failed += c.failed;
      log.attempted += seq.size();
      deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
      continue;
    }
    uint64_t ok = 0;
    log.windows.emplace_back();
    for (const ReadLog& c : client_logs) {
      log.latency_ms.insert(log.latency_ms.end(), c.latency_ms.begin(),
                            c.latency_ms.end());
      log.windows.back().insert(log.windows.back().end(),
                                c.latency_ms.begin(), c.latency_ms.end());
      log.attempted += c.attempted;
      log.failed += c.failed;
      log.within_limit += c.within_limit;
      ok += c.attempted - c.failed;
    }
    log.round_qps.push_back(static_cast<double>(ok) / wall);
  }
  return log;
}

/// Latency percentiles are medians over the log's windows of each
/// window's percentile: a burst of machine noise in one window moves the
/// run's figure no more than any other window does.
void AddReadMetrics(const ReadLog& log, double qps, RunResult* res) {
  std::vector<double> p50, p90, p99;
  for (const std::vector<double>& w : log.windows) {
    p50.push_back(Percentile(w, 50));
    p90.push_back(Percentile(w, 90));
    p99.push_back(Percentile(w, 99));
  }
  res->e2e["read_qps"] = qps;
  res->e2e["read_p50_ms"] = Median(p50);
  res->layer["read_p90_ms"] = Median(p90);
  res->layer["read_p99_ms"] = Median(p99);
  res->info["windows"] = static_cast<double>(log.windows.size());
  // Over measured reads only; a failed read counts as a miss.
  res->e2e["read_slo_frac"] =
      Ratio(static_cast<double>(log.within_limit),
            static_cast<double>(log.latency_ms.size()));
  res->layer["bench.read_samples"] = static_cast<double>(log.latency_ms.size());
  res->attempted += log.attempted;
  res->failed += log.failed;
}

// ------------------------------------------------------ traced read replay

struct ReplayTotals {
  double request_s = 0;  // client-side QueryService::Execute
  double queue_wait_s = 0, parse_s = 0, plan_s = 0, execute_s = 0,
         decode_s = 0;
  double tp_merge_join_s = 0, tp_row_s = 0, tp_type_s = 0;
  double intermediate_rows = 0, result_rows = 0;
  std::vector<double> traced_ms, untraced_ms;
  size_t requests = 0;
};

void SumPatternSpans(const obs::ProfileNode& node, ReplayTotals* t) {
  if (node.name == "tp/merge_join") t->tp_merge_join_s += node.seconds;
  if (node.name == "tp/row") t->tp_row_s += node.seconds;
  if (node.name == "tp/type") t->tp_type_s += node.seconds;
  if (node.name.rfind("tp/", 0) == 0) {
    t->intermediate_rows += static_cast<double>(node.StatOr("rows_out", 0));
  }
  for (const auto& child : node.children) SumPatternSpans(*child, t);
}

/// Single-threaded replay of `seq` against one Database: each request is
/// served once through a one-reader QueryService (the request total), then
/// once through each public layer call with a timer around it.
void ReplaySingle(Database* db, const std::vector<std::string>& seq,
                  const std::vector<uint64_t>& oracle, int passes,
                  Checker* checker, ReplayTotals* t) {
  const obs::MetricsRegistry& reg = db->metrics();
  for (int pass = 0; pass < passes; ++pass) {
    serve::QueryService service(db, ServeOpts(1));
    for (size_t i = 0; i < seq.size(); ++i) {
      const std::string& text = seq[i];
      const double wait_before = HistSum(reg, "serve_queue_wait_seconds");
      serve::QueryService::Response resp;
      t->request_s += TimeSeconds([&] { resp = service.Execute(text); });
      t->queue_wait_s +=
          HistSum(reg, "serve_queue_wait_seconds") - wait_before;
      checker->Expect(resp.status.ok() && resp.rows == oracle[i],
                      "replay (serve): " + text);

      const auto snap = db->snapshot();
      const sparql::Executor::Options options = db->options();
      sedge::Result<sparql::Query> parsed = sparql::Query();
      const double parse =
          TimeSeconds([&] { parsed = sparql::ParseQuery(text); });
      SEDGE_CHECK(parsed.ok()) << parsed.status().ToString();
      const sparql::Query& query = parsed.value();
      std::vector<size_t> order;
      const double plan = TimeSeconds([&] {
        const sparql::Executor planner(snap, options);
        order = planner.PlanOrder(query.where.triples);
      });
      // Decode is Execute minus ExecuteEncoded; the two run in alternating
      // order so warm-up favours neither side of the difference.
      sedge::Result<sparql::BindingTable> table = sparql::BindingTable();
      sedge::Result<sparql::QueryResult> result = sparql::QueryResult();
      double execute = 0, full = 0;
      const auto run_encoded = [&] {
        execute = TimeSeconds([&] {
          sparql::Executor executor(snap, options);
          executor.set_plan_hint(&order);
          table = executor.ExecuteEncoded(query);
        });
      };
      const auto run_full = [&] {
        full = TimeSeconds([&] {
          sparql::Executor executor(snap, options);
          executor.set_plan_hint(&order);
          result = executor.Execute(query);
        });
      };
      if (i % 2 == 0) {
        run_encoded();
        run_full();
      } else {
        run_full();
        run_encoded();
      }
      checker->Expect(table.ok() && table.value().rows.size() == oracle[i] &&
                          result.ok() && result.value().size() == oracle[i],
                      "replay (layer calls): " + text);

      // Tracing overhead: ExplainQuery (span recording) against QueryCount,
      // the same parse → plan → ExecuteEncoded pipeline without spans.
      sedge::Result<obs::QueryProfile> profile = obs::QueryProfile();
      sedge::Result<uint64_t> count = uint64_t{0};
      double traced = 0, untraced = 0;
      const auto run_traced = [&] {
        traced = TimeSeconds([&] { profile = db->ExplainQuery(text); });
      };
      const auto run_untraced = [&] {
        untraced = TimeSeconds([&] { count = db->QueryCount(text); });
      };
      if (i % 2 == 0) {
        run_traced();
        run_untraced();
      } else {
        run_untraced();
        run_traced();
      }
      checker->Expect(profile.ok() && profile.value().rows == oracle[i] &&
                          count.ok() && count.value() == oracle[i],
                      "replay (ExplainQuery / QueryCount): " + text);
      if (profile.ok()) SumPatternSpans(profile.value().root, t);

      t->parse_s += parse;
      t->plan_s += plan;
      t->execute_s += execute;
      t->decode_s += full - execute;
      t->result_rows += static_cast<double>(oracle[i]);
      t->traced_ms.push_back(traced * 1e3);
      t->untraced_ms.push_back(untraced * 1e3);
      ++t->requests;
    }
  }
}

void AddReplaySingle(const ReplayTotals& t, RunResult* res) {
  const double n = static_cast<double>(std::max<size_t>(t.requests, 1));
  res->layer["sparql.parse_ms"] = t.parse_s / n * 1e3;
  res->layer["sparql.plan_ms"] = t.plan_s / n * 1e3;
  res->layer["sparql.execute_ms"] = t.execute_s / n * 1e3;
  res->layer["sparql.decode_ms"] = t.decode_s / n * 1e3;
  res->layer["sparql.intermediate_rows_per_result"] =
      Ratio(t.intermediate_rows, t.result_rows);
  res->layer["store.tp_merge_join_ms"] = t.tp_merge_join_s / n * 1e3;
  res->layer["store.tp_row_ms"] = t.tp_row_s / n * 1e3;
  res->layer["store.tp_type_ms"] = t.tp_type_s / n * 1e3;
  res->layer["bench.layer_coverage_frac"] =
      Ratio(t.queue_wait_s + t.parse_s + t.plan_s + t.execute_s + t.decode_s,
            t.request_s);
  res->layer["bench.trace_overhead_frac"] =
      Ratio(Median(t.traced_ms), Median(t.untraced_ms)) - 1.0;
}

// --------------------------------------------------------- lubm_cold_read

std::unique_ptr<Database> BuildSingle(const sedge::ontology::Ontology& onto,
                                      const rdf::Graph& graph) {
  auto db = std::make_unique<Database>();
  db->set_build_threads(kBuildThreads);
  db->set_reasoning(true);
  db->LoadOntology(onto);
  const Status st = db->LoadData(graph);
  SEDGE_CHECK(st.ok()) << st.ToString();
  return db;
}

RunResult RunColdRead(const Args& args, Checker* checker) {
  RunResult res;
  const rdf::Graph graph = LubmGraph(args.seed);
  const auto onto = sedge::workloads::LubmGenerator::BuildOntology();

  std::unique_ptr<Database> db;
  std::vector<double> setups;
  for (int k = 0; k < kSetupRepeats; ++k) {
    db.reset();
    setups.push_back(TimeSeconds([&] { db = BuildSingle(onto, graph); }));
  }
  res.e2e["setup_s"] = Median(setups);

  const auto seq = ColdReadSequence(graph, args.seed, kSequenceSize);
  const auto oracle = OracleCounts(*db, seq);
  db->reset_query_stats();

  const ReadLog log = RunClosedLoop(db.get(), seq, oracle, args.seconds,
                                    checker);
  AddReadMetrics(log, Median(log.round_qps), &res);
  res.info["rounds"] = static_cast<double>(log.round_qps.size());
  AddServeLayer(db->metrics(), &res);
  AddMergeJoinShare({db->query_stats()}, &res);
  const auto snap = db->snapshot();
  AddStoreBytes({&snap->store()}, &res);

  if (args.trace) {
    ReplayTotals totals;
    ReplaySingle(db.get(), seq, oracle, 1, checker, &totals);
    AddReplaySingle(totals, &res);
  }
  return res;
}

// ------------------------------------------------------ lubm_sharded_read

std::unique_ptr<ShardedDatabase> BuildSharded(
    const sedge::ontology::Ontology& onto, const rdf::Graph& graph) {
  auto db = std::make_unique<ShardedDatabase>(kShards);
  for (int i = 0; i < db->num_shards(); ++i) {
    db->shard(i).set_build_threads(kBuildThreads);
  }
  db->set_reasoning(true);
  db->LoadOntology(onto);
  const Status st = db->LoadData(graph);
  SEDGE_CHECK(st.ok()) << st.ToString();
  return db;
}

RunResult RunShardedRead(const Args& args, Checker* checker) {
  RunResult res;
  const rdf::Graph graph = LubmGraph(args.seed);
  const auto onto = sedge::workloads::LubmGenerator::BuildOntology();

  std::unique_ptr<ShardedDatabase> db;
  std::vector<double> setups;
  for (int k = 0; k < kSetupRepeats; ++k) {
    db.reset();
    setups.push_back(TimeSeconds([&] { db = BuildSharded(onto, graph); }));
  }
  res.e2e["setup_s"] = Median(setups);

  // The oracle is the single store: every sharded answer must match it.
  const auto seq = ColdReadSequence(graph, args.seed, kSequenceSize);
  const auto oracle = OracleCounts(*BuildSingle(onto, graph), seq);

  const obs::MetricsRegistry& reg = db->metrics();
  const ReadLog log = RunClosedLoop(db.get(), seq, oracle, args.seconds,
                                    checker);
  AddReadMetrics(log, Median(log.round_qps), &res);
  res.info["rounds"] = static_cast<double>(log.round_qps.size());
  AddServeLayer(reg, &res);

  std::vector<sparql::ExecutorStats> stats;
  std::vector<std::shared_ptr<const sedge::store::StoreGeneration>> snaps;
  std::vector<const sedge::store::TripleStore*> stores;
  for (int i = 0; i < db->num_shards(); ++i) {
    stats.push_back(db->shard(i).query_stats());
    snaps.push_back(db->shard(i).snapshot());
    stores.push_back(&snaps.back()->store());
  }
  AddMergeJoinShare(stats, &res);
  AddStoreBytes(stores, &res);

  const double queries = CounterValue(reg, "dist_queries_total");
  const obs::Histogram* fanout = reg.FindHistogram("dist_fanout_shards");
  res.layer["dist.query_ms_p50"] = HistMs(reg, "dist_query_seconds", 50);
  res.layer["dist.join_ms_p50"] = HistMs(reg, "dist_join_seconds", 50);
  res.layer["dist.fanout_mean"] =
      fanout == nullptr ? 0.0
                        : Ratio(fanout->sum(), static_cast<double>(
                                                   fanout->count()));
  res.layer["dist.subqueries_per_query"] =
      Ratio(CounterValue(reg, "dist_subqueries_total"), queries);
  const obs::Gauge* pushdown = reg.FindGauge("dist_pushdown_ratio");
  res.layer["dist.pushdown_ratio"] =
      pushdown == nullptr ? 0.0 : pushdown->value();

  if (args.trace) {
    // Sharded replay: the request total through the service, then the
    // coordinator's public calls. The coordinator is its own layer here;
    // its time inside a served request is the dist_query_seconds delta.
    ReplayTotals t;
    double coordinator_s = 0, join_s = 0;
    serve::QueryService service(db.get(), ServeOpts(1));
    for (size_t i = 0; i < seq.size(); ++i) {
      const std::string& text = seq[i];
      const double wait0 = HistSum(reg, "serve_queue_wait_seconds");
      const double dist0 = HistSum(reg, "dist_query_seconds");
      serve::QueryService::Response resp;
      t.request_s += TimeSeconds([&] { resp = service.Execute(text); });
      t.queue_wait_s += HistSum(reg, "serve_queue_wait_seconds") - wait0;
      t.execute_s += HistSum(reg, "dist_query_seconds") - dist0;
      checker->Expect(resp.status.ok() && resp.rows == oracle[i],
                      "replay (serve): " + text);

      t.parse_s += TimeSeconds([&] {
        SEDGE_CHECK(sparql::ParseQuery(text).ok());
      });
      // The plain count, and the same count wrapped in the registry reads
      // that attribute its time to the coordinator and its join. The
      // service ran the request on a reader thread, so one untimed call
      // warms this thread first; the order then alternates.
      sedge::Result<uint64_t> count = db->QueryCount(text);
      double untraced = 0, traced = 0;
      const auto run_untraced = [&] {
        untraced = TimeSeconds([&] { count = db->QueryCount(text); });
      };
      const auto run_traced = [&] {
        traced = TimeSeconds([&] {
          const double query0 = HistSum(reg, "dist_query_seconds");
          const double join0 = HistSum(reg, "dist_join_seconds");
          count = db->QueryCount(text);
          coordinator_s += HistSum(reg, "dist_query_seconds") - query0;
          join_s += HistSum(reg, "dist_join_seconds") - join0;
        });
      };
      if (i % 2 == 0) {
        run_untraced();
        run_traced();
      } else {
        run_traced();
        run_untraced();
      }
      checker->Expect(count.ok() && count.value() == oracle[i],
                      "replay (coordinator calls): " + text);
      t.untraced_ms.push_back(untraced * 1e3);
      t.traced_ms.push_back(traced * 1e3);
      ++t.requests;
    }
    const double n = static_cast<double>(t.requests);
    res.layer["sparql.parse_ms"] = t.parse_s / n * 1e3;
    res.layer["bench.layer_coverage_frac"] =
        Ratio(t.queue_wait_s + t.execute_s, t.request_s);
    res.layer["bench.trace_overhead_frac"] =
        Ratio(Median(t.traced_ms), Median(t.untraced_ms)) - 1.0;
    res.info["replay_join_share"] = Ratio(join_s, coordinator_s);
  }
  return res;
}

// --------------------------------------------------- sensor_mixed_durable

struct DurableStore {
  std::unique_ptr<sedge::io::SimulatedBlockDevice> device;
  std::unique_ptr<Database> db;
};

Database::OpenOptions DeviceOptions(const sedge::ontology::Ontology& onto) {
  Database::OpenOptions options;
  options.bootstrap_ontology = onto;
  return options;
}

/// Format a fresh device, build the base, write the first checkpoint.
DurableStore BuildDurable(const sedge::ontology::Ontology& onto,
                          const rdf::Graph& graph) {
  DurableStore s;
  s.device = std::make_unique<sedge::io::SimulatedBlockDevice>();
  auto opened = Database::Open(s.device.get(), DeviceOptions(onto));
  SEDGE_CHECK(opened.ok()) << opened.status().ToString();
  s.db = std::move(opened).value();
  s.db->set_build_threads(kBuildThreads);
  s.db->set_reasoning(true);
  s.db->set_compaction_ratio(0);  // the writer schedules folds itself
  Status st = s.db->LoadData(graph);
  SEDGE_CHECK(st.ok()) << st.ToString();
  st = s.db->Checkpoint();
  SEDGE_CHECK(st.ok()) << st.ToString();
  return s;
}

struct PendingRead {
  Clock::time_point due;
  size_t catalog_index;
  std::future<serve::QueryService::Response> response;
};

RunResult RunSensorMixed(const Args& args, Checker* checker) {
  RunResult res;
  const rdf::Graph graph = LubmGraph(args.seed);
  const auto onto = sedge::workloads::LubmGenerator::BuildOntology();

  DurableStore store;
  std::vector<double> setups;
  for (int k = 0; k < kSetupRepeats; ++k) {
    store.db.reset();  // the database before the device it writes to
    store.device.reset();
    setups.push_back(TimeSeconds([&] { store = BuildDurable(onto, graph); }));
  }
  res.e2e["setup_s"] = Median(setups);
  Database* db = store.db.get();
  obs::MetricsRegistry& reg = db->metrics();

  // Inputs: the read catalog with its oracle, the read schedule, and the
  // write batches. Sensor vocabulary never meets the catalog's LUBM
  // patterns, so the oracle counts hold at every write watermark.
  const auto catalog = SensorReadCatalog(graph, args.seed, kCatalogSize);
  const auto oracle = OracleCounts(*db, catalog);
  const size_t num_reads = static_cast<size_t>(args.seconds * kReadRate);
  const int num_batches = static_cast<int>(args.seconds * kWriteRate);
  std::vector<size_t> schedule(num_reads);
  sedge::Rng rng(args.seed * 7919 + 13);
  for (size_t& idx : schedule) idx = rng.Uniform(catalog.size());
  sedge::workloads::SensorConfig sensor;
  sensor.seed = args.seed;
  sensor.stations = 2;
  sensor.sensors_per_station = 2;
  sensor.observations_per_sensor = 2;
  std::vector<rdf::Graph> batches;
  const int total_batches =
      num_batches + kReplayFolds * kFoldEvery + kTailBatches;
  for (int b = 0; b < total_batches; ++b) {
    batches.push_back(
        sedge::workloads::SensorGraphGenerator::GenerateObservationBatch(
            sensor, b));
  }

  db->reset_query_stats();
  // The set-up's checkpoints must not count in the timed phase's figures.
  ResetHistograms(reg, {"snapshot_isolation_fork_seconds", "wal_sync_seconds",
                        "checkpoint_seconds"});
  const uint64_t blocks0 = CounterValue(reg, "block_device_writes_total");
  const uint64_t wal_bytes0 = CounterValue(reg, "wal_bytes_appended_total");
  const uint64_t folds0 = CounterValue(reg, "async_compactions_total");

  // ---- timed phase: open-loop reads on this thread, writes on another.
  serve::QueryService service(db, ServeOpts(kReaders));
  std::vector<double> write_ms, insert_ms;
  std::vector<int> inserted;  // batch indexes that were acknowledged
  uint64_t write_failed = 0;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  const auto write_period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kWriteRate));
  const auto read_period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kReadRate));

  std::thread writer([&] {
    for (int b = 0; b < num_batches; ++b) {
      const Clock::time_point due = start + write_period * b;
      std::this_thread::sleep_until(due);
      const Clock::time_point call = Clock::now();
      const Status st = db->Insert(batches[b]);
      const Clock::time_point done = Clock::now();
      if (!st.ok()) {
        ++write_failed;
        continue;
      }
      inserted.push_back(b);
      write_ms.push_back(MillisBetween(due, done));
      insert_ms.push_back(MillisBetween(call, done));
      if ((b + 1) % kFoldEvery == 0) {
        const Status fold = db->CompactAsync();
        checker->Expect(fold.ok(), "CompactAsync: " + fold.ToString());
      }
    }
  });

  ReadLog reads;
  reads.windows.resize(
      static_cast<size_t>(std::ceil(args.seconds / kWindowSeconds)));
  std::vector<double> late_ms;
  std::deque<PendingRead> pending;
  const auto complete = [&](PendingRead& p) {
    const serve::QueryService::Response resp = p.response.get();
    const double ms = MillisBetween(p.due, Clock::now());
    ++reads.attempted;
    reads.latency_ms.push_back(ms);
    reads.windows[static_cast<size_t>(SecondsBetween(start, p.due) /
                                      kWindowSeconds)]
        .push_back(ms);
    if (!resp.status.ok()) {
      ++reads.failed;
      return;
    }
    checker->Expect(resp.rows == oracle[p.catalog_index],
                    "open-loop read returned " + std::to_string(resp.rows) +
                        " rows, oracle " +
                        std::to_string(oracle[p.catalog_index]) + "\n" +
                        catalog[p.catalog_index]);
    if (resp.rows == oracle[p.catalog_index] && ms <= kReadLimitMs) {
      ++reads.within_limit;
    }
  };
  // The generator polls instead of sleeping: it submits each read the
  // moment it falls due and stamps every response the moment it lands, in
  // whatever order responses arrive. A sleeping generator would add its own
  // wake-up delays, which on a virtual machine dominate sub-millisecond
  // latencies. It costs one busy thread.
  size_t i = 0;
  while (i < num_reads || !pending.empty()) {
    for (auto it = pending.begin(); it != pending.end();) {
      if (it->response.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        complete(*it);
        it = pending.erase(it);
      } else {
        ++it;
      }
    }
    if (i < num_reads && Clock::now() >= start + read_period * i) {
      const Clock::time_point due = start + read_period * i;
      late_ms.push_back(MillisBetween(due, Clock::now()));
      pending.push_back({due, schedule[i],
                         service.Submit(catalog[schedule[i]])});
      ++i;
    }
  }
  const double read_wall = SecondsBetween(start, Clock::now());
  writer.join();
  service.Shutdown();
  {
    const Status st = db->WaitForCompaction();
    checker->Expect(st.ok(), "background fold: " + st.ToString());
  }

  double triples_written = 0;
  for (const int b : inserted) triples_written += batches[b].size();
  AddReadMetrics(reads, Ratio(static_cast<double>(reads.attempted -
                                                  reads.failed),
                              read_wall),
                 &res);
  res.attempted += static_cast<uint64_t>(num_batches);
  res.failed += write_failed;
  AddServeLayer(reg, &res);
  AddMergeJoinShare({db->query_stats()}, &res);
  res.layer["serve.result_cache_invalidations_per_batch"] =
      Ratio(CounterValue(reg, "serve_result_cache_invalidations_total"),
            static_cast<double>(inserted.size()));
  res.layer["core.insert_ms_p50"] = Percentile(insert_ms, 50);
  res.layer["core.insert_ms_p99"] = Percentile(insert_ms, 99);
  res.layer["core.fork_ms_p50"] =
      HistMs(reg, "snapshot_isolation_fork_seconds", 50);
  res.layer["core.folds"] = static_cast<double>(
      CounterValue(reg, "async_compactions_total") - folds0);
  res.layer["io.wal_sync_ms_p99"] = HistMs(reg, "wal_sync_seconds", 99);
  res.layer["io.wal_bytes_per_triple"] = Ratio(
      CounterValue(reg, "wal_bytes_appended_total") - wal_bytes0,
      triples_written);
  const double blocks = static_cast<double>(
      CounterValue(reg, "block_device_writes_total") - blocks0);
  res.layer["io.device_blocks_written"] = blocks;
  res.layer["device_bytes_per_triple"] =
      Ratio(blocks * sedge::io::kBlockSize, triples_written);
  res.layer["io.checkpoint_s"] =
      HistogramPercentile(reg.FindHistogram("checkpoint_seconds"), 50);
  res.layer["write_p50_ms"] = Percentile(write_ms, 50);
  res.layer["write_p99_ms"] = Percentile(write_ms, 99);
  res.layer["bench.write_samples"] = static_cast<double>(write_ms.size());
  res.layer["bench.gen_late_ms_p99"] = Percentile(late_ms, 99);
  res.layer["store.overlay_bytes"] = static_cast<double>(
      db->snapshot()->store().DeltaSizeInBytes());

  int next_batch = num_batches;
  if (args.trace) {
    ReplayTotals totals;
    ReplaySingle(db, catalog, oracle, kReplayCatalogPasses, checker, &totals);
    AddReplaySingle(totals, &res);
    // Write replay: kFoldEvery batches, then one fold timed from
    // CompactAsync until WaitForCompaction returns.
    std::vector<double> folds;
    for (int f = 0; f < kReplayFolds; ++f) {
      for (int b = 0; b < kFoldEvery; ++b) {
        const Status st = db->Insert(batches[next_batch]);
        checker->Expect(st.ok(), "replay insert: " + st.ToString());
        if (st.ok()) inserted.push_back(next_batch);
        ++next_batch;
      }
      folds.push_back(TimeSeconds([&] {
        checker->Expect(db->CompactAsync().ok(), "replay CompactAsync");
        checker->Expect(db->WaitForCompaction().ok(), "replay fold");
      }));
    }
    res.layer["core.fold_s"] = Median(folds);
  }

  // Fold what is left, so the size figures describe the same store on
  // every run of a seed (whether the last in-run fold was skipped depends
  // on timing).
  {
    const Status st = db->Compact();
    checker->Expect(st.ok(), "final fold: " + st.ToString());
    const auto snap = db->snapshot();
    const double overlay = res.layer["store.overlay_bytes"];
    AddStoreBytes({&snap->store()}, &res);
    res.layer["store.overlay_bytes"] = overlay;
  }
  // A WAL tail past the last checkpoint, for the reopen to replay.
  for (int b = 0; b < kTailBatches; ++b, ++next_batch) {
    const Status st = db->Insert(batches[next_batch]);
    checker->Expect(st.ok(), "tail insert: " + st.ToString());
    if (st.ok()) inserted.push_back(next_batch);
  }

  // ---- recovery: close, reopen from the device, re-check everything.
  std::unordered_set<std::string> live;
  for (const rdf::Triple& t : graph.triples()) live.insert(t.ToNTriples());
  for (const int b : inserted) {
    for (const rdf::Triple& t : batches[b].triples()) {
      live.insert(t.ToNTriples());
    }
  }
  checker->Expect(db->num_triples() == live.size(),
                  "live triples before close: " +
                      std::to_string(db->num_triples()) + ", expected " +
                      std::to_string(live.size()));
  store.db.reset();
  std::vector<double> recovers;
  for (int k = 0; k < kRecoverRepeats; ++k) {
    std::unique_ptr<Database> reopened;
    recovers.push_back(TimeSeconds([&] {
      auto opened = Database::Open(store.device.get(), DeviceOptions(onto));
      SEDGE_CHECK(opened.ok()) << opened.status().ToString();
      reopened = std::move(opened).value();
    }));
    checker->Expect(reopened->num_triples() == live.size(),
                    "live triples after reopen: " +
                        std::to_string(reopened->num_triples()) +
                        ", expected " + std::to_string(live.size()));
    reopened->set_reasoning(true);
    const auto recovered = OracleCounts(*reopened, catalog);
    for (size_t i = 0; i < catalog.size(); ++i) {
      checker->Expect(recovered[i] == oracle[i],
                      "after reopen: " + catalog[i]);
    }
  }
  res.layer["recover_s"] = Median(recovers);
  res.info["batches"] = static_cast<double>(inserted.size());
  res.info["triples_written"] = triples_written;
  return res;
}

// ------------------------------------------------------------------- main

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

std::string Emit(const std::vector<std::pair<std::string, std::string>>& names,
                 const std::map<std::string, double>& values) {
  Report report;
  for (const auto& [name, unit] : names) {
    const auto it = values.find(name);
    report.Add(name, it == values.end() ? 0.0 : it->second, unit);
  }
  return report.Json();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: edgebench --workload <lubm_cold_read|"
                 "sensor_mixed_durable|lubm_sharded_read> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  Checker checker;
  RunResult res;
  if (args.workload == "lubm_cold_read") {
    res = RunColdRead(args, &checker);
  } else if (args.workload == "sensor_mixed_durable") {
    res = RunSensorMixed(args, &checker);
  } else if (args.workload == "lubm_sharded_read") {
    res = RunShardedRead(args, &checker);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  res.layer["failed_frac"] = Ratio(static_cast<double>(res.failed),
                                   static_cast<double>(res.attempted));

  std::string info = "{\"info\": {\"workload\": \"" + args.workload +
                     "\", \"seed\": " + std::to_string(args.seed) +
                     ", \"compiler\": \"" PERFBENCH_COMPILER
                     "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE
                     "\", \"hardware_threads\": " +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ", \"engine_build_threads\": " +
                     std::to_string(kBuildThreads) +
                     ", \"readers\": " + std::to_string(kReaders) +
                     ", \"wrong\": " + std::to_string(checker.wrong());
  for (const auto& [key, value] : res.info) {
    info += ", \"" + key + "\": " + std::to_string(value);
  }
  std::printf("%s}}\n", info.c_str());

  const bool correct = checker.wrong() == 0;
  if (!correct) {
    std::fprintf(stderr, "WRONG ANSWER (%llu in total); first:\n%s\n",
                 static_cast<unsigned long long>(checker.wrong()),
                 checker.first().c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed),
              Emit(args.trace ? kPerLayer : kEndToEnd,
                   args.trace ? res.layer : res.e2e)
                  .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
