// Observability-layer tests: histogram percentile correctness against a
// known-distribution oracle, registry export round-trips (JSON parse +
// Prometheus line format), span timing monotonicity, concurrent recording
// (the TSan job runs this binary), and end-to-end query profiles /
// Prometheus series over real engine workloads.

#include <atomic>
#include <cctype>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "io/block_device.h"
#include "obs/metrics.h"
#include "obs/query_profile.h"
#include "workloads/lubm_generator.h"
#include "workloads/lubm_queries.h"

namespace sedge {
namespace {

// ------------------------------------------------------- JSON validation

// Minimal recursive-descent JSON parser: accepts exactly the RFC 8259
// grammar shape (values, objects, arrays, strings with the escapes the
// exporter emits, numbers). Returns true iff `text` is one valid value.
class JsonValidator {
 public:
  explicit JsonValidator(std::string text) : s_(std::move(text)) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek('}')) return true;
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (!Expect(':')) return false;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek('}')) return true;
      if (!Expect(',')) return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek(']')) return true;
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek(']')) return true;
      if (!Expect(',')) return false;
    }
  }

  bool String() {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      ++pos_;
    }
    return Expect('"');
  }

  bool Number() {
    const size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '-' || s_[pos_] == '+')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const char* lit) {
    const std::string expect(lit);
    if (s_.compare(pos_, expect.size(), expect) != 0) return false;
    pos_ += expect.size();
    return true;
  }

  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool Peek(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Expect(char c) { return Peek(c); }

  const std::string s_;
  size_t pos_ = 0;
};

// --------------------------------------------------------------- histogram

TEST(Histogram, KnownDistributionOracle) {
  obs::Histogram h(obs::Histogram::Unit::kCount);
  // Uniform 1..10000: every percentile of the oracle is p * 100.
  for (uint64_t v = 1; v <= 10000; ++v) h.RecordValue(v);
#ifndef SEDGE_OBS_DISABLED
  EXPECT_EQ(h.count(), 10000u);
  EXPECT_DOUBLE_EQ(h.sum(), 10000.0 * 10001.0 / 2.0);
  EXPECT_DOUBLE_EQ(h.max(), 10000.0);
  // 8 sub-buckets per octave bound the relative quantization error of any
  // reported percentile by 1/8; allow that plus interpolation slack.
  EXPECT_NEAR(h.Percentile(50), 5000.0, 5000.0 * 0.15);
  EXPECT_NEAR(h.Percentile(90), 9000.0, 9000.0 * 0.15);
  EXPECT_NEAR(h.Percentile(99), 9900.0, 9900.0 * 0.15);
  EXPECT_LE(h.Percentile(100), h.max());
  EXPECT_GE(h.Percentile(99), h.Percentile(90));
  EXPECT_GE(h.Percentile(90), h.Percentile(50));
#endif
}

TEST(Histogram, SecondsUnitRoundTrip) {
  obs::Histogram h(obs::Histogram::Unit::kSeconds);
  for (int i = 0; i < 100; ++i) h.RecordSeconds(0.001);  // 1 ms
#ifndef SEDGE_OBS_DISABLED
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.sum(), 0.1, 1e-6);
  EXPECT_NEAR(h.Percentile(50), 0.001, 0.001 * 0.15);
  EXPECT_NEAR(h.max(), 0.001, 1e-6);
#endif
}

TEST(Histogram, ZeroAndHugeValuesDoNotMisfile) {
  obs::Histogram h(obs::Histogram::Unit::kCount);
  h.RecordValue(0);
  h.RecordValue(1);
  h.RecordValue(UINT64_MAX);
#ifndef SEDGE_OBS_DISABLED
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.max(), static_cast<double>(UINT64_MAX));
  const auto buckets = h.SnapshotNonEmpty();
  ASSERT_FALSE(buckets.empty());
  EXPECT_EQ(buckets.back().cumulative_count, 3u);
#endif
}

TEST(Histogram, ConcurrentRecordingStaysConsistent) {
  obs::MetricsRegistry registry;
  obs::Histogram* h = registry.GetHistogram("concurrent_seconds");
  obs::Counter* c = registry.GetCounter("concurrent_total");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::atomic<bool> stop{false};
  // One exporter thread racing the recorders: relaxed-atomic cells make
  // the snapshot torn-but-data-race-free; TSan runs this binary.
  std::thread exporter([&registry, &stop]() {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string json = registry.ExportJson();
      ASSERT_FALSE(json.empty());
      (void)registry.ExportPrometheus();
    }
  });
  std::vector<std::thread> recorders;
  recorders.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    recorders.emplace_back([h, c]() {
      for (int i = 1; i <= kPerThread; ++i) {
        h->RecordSeconds(1e-6 * static_cast<double>(i % 1000 + 1));
        c->Increment();
      }
    });
  }
  for (auto& th : recorders) th.join();
  stop.store(true);
  exporter.join();
  EXPECT_EQ(c->value(), static_cast<uint64_t>(kThreads) * kPerThread);
#ifndef SEDGE_OBS_DISABLED
  EXPECT_EQ(h->count(), static_cast<uint64_t>(kThreads) * kPerThread);
#endif
}

// ---------------------------------------------------------------- registry

TEST(MetricsRegistry, HandlesAreStableAndLabelled) {
  obs::MetricsRegistry registry;
  obs::Counter* a = registry.GetCounter("x_total");
  EXPECT_EQ(a, registry.GetCounter("x_total"));
  // Labels are part of the identity.
  obs::Histogram* serialize = registry.GetHistogram(
      "phase_seconds", obs::Histogram::Unit::kSeconds, "phase=\"a\"");
  obs::Histogram* flip = registry.GetHistogram(
      "phase_seconds", obs::Histogram::Unit::kSeconds, "phase=\"b\"");
  EXPECT_NE(serialize, flip);
  EXPECT_EQ(registry.FindHistogram("phase_seconds", "phase=\"a\""),
            serialize);
  EXPECT_EQ(registry.FindHistogram("phase_seconds", "phase=\"zzz\""),
            nullptr);
  EXPECT_EQ(registry.FindCounter("never_created_total"), nullptr);
}

TEST(MetricsRegistry, ExportJsonParsesAndCarriesValues) {
  obs::MetricsRegistry registry;
  registry.GetCounter("wal_syncs_total")->Add(7);
  registry.GetGauge("delta_overlay_entries")->Set(42.5);
  obs::Histogram* h = registry.GetHistogram("wal_sync_seconds");
  for (int i = 0; i < 10; ++i) h->RecordSeconds(0.002);
  const std::string json = registry.ExportJson();
  JsonValidator validator(json);
  EXPECT_TRUE(validator.Valid()) << json;
  EXPECT_NE(json.find("\"wal_syncs_total\":7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"delta_overlay_entries\":42.5"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"wal_sync_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(MetricsRegistry, ExportPrometheusLineFormat) {
  obs::MetricsRegistry registry;
  registry.GetCounter("wal_syncs_total")->Add(3);
  registry.GetGauge("base_triples")->Set(1000);
  obs::Histogram* h = registry.GetHistogram("wal_sync_seconds");
  h->RecordSeconds(0.001);
  h->RecordSeconds(0.004);
  obs::Histogram* phase = registry.GetHistogram(
      "checkpoint_phase_seconds", obs::Histogram::Unit::kSeconds,
      "phase=\"extent_write\"");
  phase->RecordSeconds(0.01);
  const std::string text = registry.ExportPrometheus();

  EXPECT_NE(text.find("# TYPE wal_syncs_total counter"), std::string::npos);
  EXPECT_NE(text.find("wal_syncs_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE base_triples gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE wal_sync_seconds histogram"),
            std::string::npos);
  EXPECT_NE(
      text.find("checkpoint_phase_seconds_bucket{phase=\"extent_write\","),
      std::string::npos)
      << text;
#ifndef SEDGE_OBS_DISABLED
  EXPECT_NE(text.find("wal_sync_seconds_bucket{le=\""), std::string::npos);
  EXPECT_NE(text.find("wal_sync_seconds_count 2"), std::string::npos);
#endif

  // Every line is a comment or `name[{labels}] value`.
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    if (line[0] == '#') {
      EXPECT_EQ(line.rfind("# TYPE ", 0), 0u) << line;
      continue;
    }
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string name = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    EXPECT_FALSE(name.empty()) << line;
    EXPECT_TRUE(std::isalpha(static_cast<unsigned char>(name[0])) ||
                name[0] == '_')
        << line;
    EXPECT_FALSE(value.empty()) << line;
    // Value parses as a number.
    size_t parsed = 0;
    EXPECT_NO_THROW({ (void)std::stod(value, &parsed); }) << line;
    EXPECT_EQ(parsed, value.size()) << line;
  }
}

// ------------------------------------------------------------------- spans

TEST(ScopedSpan, TimingIsMonotonicAndNested) {
  obs::MetricsRegistry registry;
  obs::Histogram* outer_h = registry.GetHistogram("outer_seconds");
  obs::Histogram* inner_h = registry.GetHistogram("inner_seconds");
  obs::ScopedSpan outer(outer_h);
  double inner_seconds = 0;
  {
    obs::ScopedSpan inner(inner_h);
    // Deterministic work instead of a sleep.
    volatile uint64_t sink = 0;
    for (uint64_t i = 0; i < 200000; ++i) sink += i;
    inner_seconds = inner.Stop();
  }
  const double outer_seconds = outer.Stop();
#ifndef SEDGE_OBS_DISABLED
  EXPECT_GE(inner_seconds, 0.0);
  EXPECT_GE(outer_seconds, inner_seconds);  // outer encloses inner
  EXPECT_EQ(outer_h->count(), 1u);
  EXPECT_EQ(inner_h->count(), 1u);
  EXPECT_NEAR(outer_h->sum(), outer_seconds, outer_seconds * 0.2 + 1e-6);
  // A stopped span does not double-record at scope exit.
  EXPECT_EQ(outer.Stop(), 0.0);
  EXPECT_EQ(outer_h->count(), 1u);
#else
  EXPECT_EQ(outer_seconds, 0.0);
  EXPECT_EQ(inner_seconds, 0.0);
#endif
  // Null histogram → inert span.
  obs::ScopedSpan inert(nullptr);
  EXPECT_EQ(inert.Stop(), 0.0);
}

TEST(ScopedSpan, MacroRecordsIntoRegistry) {
  obs::MetricsRegistry registry;
  obs::MetricsRegistry* reg = &registry;
  {
    SEDGE_SPAN(reg, "wal.sync");
    volatile int sink = 0;
    for (int i = 0; i < 1000; ++i) sink += i;
  }
#ifndef SEDGE_OBS_DISABLED
  const obs::Histogram* h = registry.FindHistogram("wal.sync");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 1u);
#endif
  obs::MetricsRegistry* null_registry = nullptr;
  {
    SEDGE_SPAN(null_registry, "never");  // must be inert, not crash
  }
}

// --------------------------------------------------------- query profiles

class QueryProfileLubmTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workloads::LubmConfig config;
    config.departments_per_university = 2;  // ~10K triples: fast, complete
    graph_ = new rdf::Graph(workloads::LubmGenerator::Generate(config));
    db_ = new Database();
    db_->LoadOntology(workloads::LubmGenerator::BuildOntology());
    ASSERT_TRUE(db_->LoadData(*graph_).ok());
  }
  static void TearDownTestSuite() {
    delete db_;
    delete graph_;
    db_ = nullptr;
    graph_ = nullptr;
  }

  static rdf::Graph* graph_;
  static Database* db_;
};

rdf::Graph* QueryProfileLubmTest::graph_ = nullptr;
Database* QueryProfileLubmTest::db_ = nullptr;

TEST_F(QueryProfileLubmTest, AllStandard14QueriesProduceSpanTrees) {
  const auto queries = workloads::LubmQueries::Standard14(*graph_);
  ASSERT_EQ(queries.size(), 14u);
  for (const auto& spec : queries) {
    db_->set_reasoning(spec.reasoning);
    auto profile = db_->ExplainQuery(spec.sparql);
    ASSERT_TRUE(profile.ok()) << spec.id << ": "
                              << profile.status().ToString();
    const obs::QueryProfile& p = profile.value();
    EXPECT_EQ(p.root.name, "query") << spec.id;
    EXPECT_GT(p.root.seconds, 0.0) << spec.id;
    const obs::ProfileNode* parse = p.root.Find("parse");
    const obs::ProfileNode* execute = p.root.Find("execute");
    ASSERT_NE(parse, nullptr) << spec.id;
    ASSERT_NE(execute, nullptr) << spec.id;
    // Stage times are sub-intervals of the root span.
    EXPECT_LE(parse->seconds + execute->seconds,
              p.root.seconds + 0.005)
        << spec.id;
    // The executor recorded planning and one span per pattern, each with
    // path attribution in its name and rows in its stats.
    EXPECT_NE(execute->Find("optimize"), nullptr) << spec.id;
    uint64_t tp_nodes = 0;
    for (const auto& child : execute->children) {
      if (child->name.rfind("tp/", 0) != 0) continue;
      ++tp_nodes;
      EXPECT_GE(child->StatOr("rows_out", -1), 0)
          << spec.id << " " << child->detail;
    }
    EXPECT_GT(tp_nodes, 0u) << spec.id;
    EXPECT_GE(execute->StatOr("rows", -1), 0) << spec.id;
    // Renderings stay well-formed.
    EXPECT_NE(p.ToString().find("query"), std::string::npos);
    JsonValidator validator(p.ToJson());
    EXPECT_TRUE(validator.Valid()) << spec.id << "\n" << p.ToJson();
  }
  db_->set_reasoning(true);
}

TEST_F(QueryProfileLubmTest, Q2ProfileShowsMergeJoinExtends) {
  const auto queries = workloads::LubmQueries::Standard14(*graph_);
  const auto& q2 = queries[1];
  ASSERT_EQ(q2.id, "Q2");
  db_->set_reasoning(q2.reasoning);
  auto profile = db_->ExplainQuery(q2.sparql);
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  const obs::ProfileNode* execute = profile.value().root.Find("execute");
  ASSERT_NE(execute, nullptr);
  EXPECT_GT(execute->StatOr("merge_join_extends", 0), 0)
      << profile.value().ToString();
  // At least one pattern span is attributed to the merge-join path.
  EXPECT_NE(execute->Find("tp/merge_join"), nullptr)
      << profile.value().ToString();
  db_->set_reasoning(true);
}

TEST_F(QueryProfileLubmTest, ProfiledRowsMatchQueryCount) {
  const auto queries = workloads::LubmQueries::Standard14(*graph_);
  for (const auto& spec : queries) {
    db_->set_reasoning(spec.reasoning);
    auto profile = db_->ExplainQuery(spec.sparql);
    auto count = db_->QueryCount(spec.sparql);
    ASSERT_TRUE(profile.ok() && count.ok()) << spec.id;
    EXPECT_EQ(profile.value().rows, count.value()) << spec.id;
  }
  db_->set_reasoning(true);
}

// Each tp span carries the planner's estimate next to the rows it
// produced. For a lone (?s, p, o) pattern the estimate is the exact
// wavelet-rank count summed over the same routes the scan takes, so the
// two must agree — with and without LiteMat reasoning (memberOf expands
// to worksFor and headOf; degreeFrom has no direct triples at all).
TEST_F(QueryProfileLubmTest, ObjectBoundPatternEstimateIsExact) {
  const auto object_of = [](const std::string& local) {
    for (const rdf::Triple& t : graph_->triples()) {
      if (t.predicate.lexical() == workloads::kLubmNs + local) {
        return t.object.lexical();
      }
    }
    return std::string();
  };
  const std::pair<const char*, std::string> probes[] = {
      {"memberOf", object_of("worksFor")},
      {"takesCourse", object_of("takesCourse")},
      {"degreeFrom", object_of("undergraduateDegreeFrom")},
  };
  for (const bool reasoning : {true, false}) {
    db_->set_reasoning(reasoning);
    for (const auto& [local, object] : probes) {
      ASSERT_FALSE(object.empty()) << local;
      auto profile = db_->ExplainQuery(
          "SELECT ?X WHERE { ?X <" + std::string(workloads::kLubmNs) + local +
          "> <" + object + "> }");
      ASSERT_TRUE(profile.ok()) << profile.status().ToString();
      const obs::ProfileNode* execute = profile.value().root.Find("execute");
      ASSERT_NE(execute, nullptr);
      const obs::ProfileNode* tp = nullptr;
      for (const auto& child : execute->children) {
        if (child->name.rfind("tp/", 0) == 0) tp = child.get();
      }
      ASSERT_NE(tp, nullptr) << profile.value().ToString();
      EXPECT_EQ(tp->StatOr("est_rows", -1), tp->StatOr("rows_out", -2))
          << local << " reasoning=" << reasoning << "\n"
          << profile.value().ToString();
      if (reasoning) {
        EXPECT_GT(tp->StatOr("rows_out", 0), 0) << local;
      }
    }
  }
  db_->set_reasoning(true);
}

TEST_F(QueryProfileLubmTest, EveryQ2PatternSpanCarriesEstimate) {
  const auto queries = workloads::LubmQueries::Standard14(*graph_);
  const auto& q2 = queries[1];
  ASSERT_EQ(q2.id, "Q2");
  db_->set_reasoning(q2.reasoning);
  auto profile = db_->ExplainQuery(q2.sparql);
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  const obs::ProfileNode* execute = profile.value().root.Find("execute");
  ASSERT_NE(execute, nullptr);
  uint64_t tp_nodes = 0;
  for (const auto& child : execute->children) {
    if (child->name.rfind("tp/", 0) != 0) continue;
    ++tp_nodes;
    EXPECT_GE(child->StatOr("est_rows", -1), 0) << child->detail;
  }
  EXPECT_GT(tp_nodes, 0u);
  db_->set_reasoning(true);
}

// ----------------------------------------------- end-to-end engine metrics

TEST(EngineMetrics, WalInsertCompactQueryWorkloadExportsSeries) {
  io::SimulatedBlockDevice device;
  auto opened = Database::Open(&device);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Database> db = std::move(opened).value();
  db->set_compaction_ratio(0);  // explicit folds only

  for (int batch = 0; batch < 20; ++batch) {
    rdf::Graph g;
    for (int i = 0; i < 25; ++i) {
      const int n = batch * 25 + i;
      g.Add(rdf::Term::Iri("http://e.org/s" + std::to_string(n)),
            rdf::Term::Iri("http://e.org/p" + std::to_string(n % 5)),
            rdf::Term::Literal(std::to_string(n)));
    }
    ASSERT_TRUE(db->Insert(g).ok());
  }
  ASSERT_TRUE(db->Compact().ok());
  auto count = db->QueryCount(
      "SELECT ?s ?o WHERE { ?s <http://e.org/p0> ?o }");
  ASSERT_TRUE(count.ok());
  EXPECT_GT(count.value(), 0u);

  const obs::MetricsRegistry& metrics = db->metrics();
#ifndef SEDGE_OBS_DISABLED
  const obs::Histogram* wal_sync = metrics.FindHistogram("wal_sync_seconds");
  ASSERT_NE(wal_sync, nullptr);
  EXPECT_GT(wal_sync->count(), 0u);
  EXPECT_GT(wal_sync->Percentile(99), 0.0);
  const obs::Histogram* fold =
      metrics.FindHistogram("compaction_fold_seconds");
  ASSERT_NE(fold, nullptr);
  EXPECT_GT(fold->count(), 0u);
  const obs::Histogram* extent = metrics.FindHistogram(
      "checkpoint_phase_seconds", "phase=\"extent_write\"");
  const obs::Histogram* flip = metrics.FindHistogram(
      "checkpoint_phase_seconds", "phase=\"superblock_flip\"");
  ASSERT_NE(extent, nullptr);
  ASSERT_NE(flip, nullptr);
  EXPECT_GT(extent->count(), 0u);
  EXPECT_GT(flip->count(), 0u);
#endif
  // Counters stay live in both build flavours.
  const obs::Counter* syncs = metrics.FindCounter("wal_syncs_total");
  ASSERT_NE(syncs, nullptr);
  EXPECT_GT(syncs->value(), 0u);
  EXPECT_GT(metrics.FindCounter("compactions_total")->value(), 0u);
  EXPECT_GT(metrics.FindCounter("checkpoints_total")->value(), 0u);
  EXPECT_GT(metrics.FindCounter("queries_total")->value(), 0u);
  EXPECT_GT(metrics.FindCounter("block_device_writes_total")->value(), 0u);

  // The acceptance series are present in the Prometheus exposition.
  const std::string prom = metrics.ExportPrometheus();
  EXPECT_NE(prom.find("wal_sync_seconds"), std::string::npos);
  EXPECT_NE(prom.find("checkpoint_phase_seconds"), std::string::npos);
  EXPECT_NE(prom.find("compaction_fold_seconds"), std::string::npos);
#ifndef SEDGE_OBS_DISABLED
  EXPECT_NE(prom.find("wal_sync_seconds_bucket"), std::string::npos);
#endif
  const std::string json = metrics.ExportJson();
  JsonValidator validator(json);
  EXPECT_TRUE(validator.Valid());

  // Gauges track the folded state: overlay drained, base populated.
  EXPECT_EQ(metrics.FindGauge("delta_overlay_entries")->value(), 0.0);
  EXPECT_GT(metrics.FindGauge("base_triples")->value(), 0.0);
}

TEST(EngineMetrics, QueryStatsRideTheRegistry) {
  Database db;
  rdf::Graph g;
  for (int s = 0; s < 4; ++s) {
    for (int p = 0; p < 3; ++p) {
      g.Add(rdf::Term::Iri("http://e.org/s" + std::to_string(s)),
            rdf::Term::Iri("http://e.org/p" + std::to_string(p)),
            rdf::Term::Iri("http://e.org/o" + std::to_string(s * 3 + p)));
    }
  }
  ASSERT_TRUE(db.LoadData(g).ok());
  ASSERT_TRUE(db.QueryCount("SELECT ?s ?a ?b WHERE { ?s "
                            "<http://e.org/p0> ?a . ?s "
                            "<http://e.org/p1> ?b }")
                  .ok());
  const auto stats = db.query_stats();
  EXPECT_GT(stats.merge_join_extends + stats.row_extends, 0u);
  EXPECT_EQ(
      stats.merge_join_extends,
      db.metrics().FindCounter("query_merge_join_extends_total")->value());
  db.reset_query_stats();
  EXPECT_EQ(db.query_stats().merge_join_extends, 0u);
  EXPECT_EQ(db.query_stats().row_extends, 0u);
}

}  // namespace
}  // namespace sedge
