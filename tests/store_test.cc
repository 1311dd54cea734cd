// Tests for the SuccinctEdge store layer: PSO index (Algorithms 2-4),
// datatype store, RDFType store, and the TripleStore facade.

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "ontology/ontology.h"
#include "rdf/rdf_parser.h"
#include "rdf/vocabulary.h"
#include "store/datatype_store.h"
#include "store/pso_index.h"
#include "store/rdftype_store.h"
#include "store/triple_store.h"
#include "util/rng.h"

namespace sedge::store {
namespace {

using TripleVec = std::vector<PsoIndex::Triple>;

// ----------------------------------------------------------------- PsoIndex

TEST(PsoIndex, PaperFigure5Example) {
  // Figure 5(a): p1 connects s1->{o1}, s2->{o1}, s4->{o2};
  // p2 connects s1->{o2, o3}. Ids: s1..s4 = 1..4, o1..o3 = 5..7, p1=1, p2=2.
  const TripleVec triples = {
      {1, 1, 5}, {1, 2, 5}, {1, 4, 6}, {2, 1, 6}, {2, 1, 7}};
  const PsoIndex index = PsoIndex::Build(triples);
  EXPECT_EQ(index.num_triples(), 5u);
  EXPECT_EQ(index.num_pairs(), 4u);
  EXPECT_EQ(index.num_predicates(), 2u);

  // Algorithm 2: triple counts per predicate.
  EXPECT_EQ(index.CountForPredicate(1), 3u);
  EXPECT_EQ(index.CountForPredicate(2), 2u);
  EXPECT_EQ(index.CountForPredicate(99), 0u);
  EXPECT_EQ(index.CountSubjectsForPredicate(1), 3u);
  EXPECT_EQ(index.CountSubjectsForPredicate(2), 1u);

  // Algorithm 3: (s1, p2, ?o) = {o2, o3}.
  std::vector<uint64_t> objects;
  index.ScanSP(2, 1, [&](uint64_t, uint64_t o) {
    objects.push_back(o);
    return true;
  });
  EXPECT_EQ(objects, (std::vector<uint64_t>{6, 7}));

  // Algorithm 4: (?s, p1, o1) = {s1, s2}.
  std::vector<uint64_t> subjects;
  index.ScanPO(1, 5, [&](uint64_t s, uint64_t) {
    subjects.push_back(s);
    return true;
  });
  EXPECT_EQ(subjects, (std::vector<uint64_t>{1, 2}));

  // Membership.
  EXPECT_TRUE(index.Contains(1, 4, 6));
  EXPECT_FALSE(index.Contains(1, 4, 5));
  EXPECT_FALSE(index.Contains(2, 4, 6));
}

struct PsoParam {
  uint64_t n;
  uint64_t num_p, num_s, num_o;
  uint64_t seed;
};

class PsoIndexProperty : public ::testing::TestWithParam<PsoParam> {};

TEST_P(PsoIndexProperty, AllScansMatchNaiveReference) {
  const auto [n, num_p, num_s, num_o, seed] = GetParam();
  Rng rng(seed);
  TripleVec triples;
  std::set<std::tuple<uint64_t, uint64_t, uint64_t>> unique_pso;
  for (uint64_t i = 0; i < n; ++i) {
    PsoIndex::Triple t{rng.Uniform(num_p) + 1, rng.Uniform(num_s) + 1,
                       rng.Uniform(num_o) + 1};
    triples.push_back(t);
    unique_pso.insert({t.p, t.s, t.o});
  }
  const PsoIndex index = PsoIndex::Build(triples);
  ASSERT_EQ(index.num_triples(), unique_pso.size());

  // ScanAll reproduces the sorted unique triple set.
  using Pso = std::tuple<uint64_t, uint64_t, uint64_t>;
  std::vector<Pso> scanned;
  index.ScanAll([&](uint64_t p, uint64_t s, uint64_t o) {
    scanned.push_back({p, s, o});
    return true;
  });
  const std::vector<Pso> expect_all(unique_pso.begin(), unique_pso.end());
  EXPECT_EQ(scanned, expect_all);

  // Per-pattern cross-checks on random probes.
  for (int trial = 0; trial < 200; ++trial) {
    const uint64_t p = rng.Uniform(num_p + 2);  // probe absent ids too
    const uint64_t s = rng.Uniform(num_s + 2);
    const uint64_t o = rng.Uniform(num_o + 2);

    std::vector<std::pair<uint64_t, uint64_t>> expect_sp;   // (s,o) for (s,p,?o)
    std::vector<std::pair<uint64_t, uint64_t>> expect_po;   // for (?s,p,o)
    std::vector<std::pair<uint64_t, uint64_t>> expect_p;    // for (?s,p,?o)
    uint64_t count_p = 0;
    for (const auto& [tp, ts, to] : unique_pso) {
      if (tp != p) continue;
      ++count_p;
      expect_p.push_back({ts, to});
      if (ts == s) expect_sp.push_back({ts, to});
      if (to == o) expect_po.push_back({ts, to});
    }
    std::vector<std::pair<uint64_t, uint64_t>> got;
    const auto collect = [&got](uint64_t s2, uint64_t o2) {
      got.push_back({s2, o2});
      return true;
    };
    got.clear();
    index.ScanSP(p, s, collect);
    ASSERT_EQ(got, expect_sp) << "ScanSP p=" << p << " s=" << s;
    got.clear();
    index.ScanPO(p, o, collect);
    std::sort(got.begin(), got.end());
    std::sort(expect_po.begin(), expect_po.end());
    ASSERT_EQ(got, expect_po) << "ScanPO p=" << p << " o=" << o;
    got.clear();
    index.ScanP(p, collect);
    ASSERT_EQ(got, expect_p) << "ScanP p=" << p;
    ASSERT_EQ(index.CountForPredicate(p), count_p);
    ASSERT_EQ(index.Contains(p, s, o), unique_pso.count({p, s, o}) > 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PsoIndexProperty,
    ::testing::Values(PsoParam{0, 3, 5, 5, 1}, PsoParam{1, 1, 1, 1, 2},
                      PsoParam{50, 2, 5, 5, 3}, PsoParam{500, 5, 40, 40, 4},
                      PsoParam{5000, 20, 100, 200, 5},
                      PsoParam{20000, 7, 1000, 1000, 6}));

TEST(PsoIndex, CountPOEqualsScanPOHitsForEveryPair) {
  Rng rng(7);
  TripleVec triples;
  for (int i = 0; i < 600; ++i) {
    triples.push_back(
        {rng.Uniform(6) + 1, rng.Uniform(50) + 1, rng.Uniform(30) + 1});
  }
  const PsoIndex index = PsoIndex::Build(triples);
  for (uint64_t p = 0; p < 9; ++p) {  // absent ids 0, 7, 8 included
    for (uint64_t o = 0; o < 33; ++o) {
      uint64_t hits = 0;
      index.ScanPO(p, o, [&hits](uint64_t, uint64_t) {
        ++hits;
        return true;
      });
      ASSERT_EQ(index.CountPO(p, o), hits) << "p=" << p << " o=" << o;
    }
  }
}

TEST(PsoIndex, OrderingGuaranteesForMergeJoin) {
  Rng rng(11);
  TripleVec triples;
  for (int i = 0; i < 3000; ++i) {
    triples.push_back({rng.Uniform(4) + 1, rng.Uniform(50), rng.Uniform(50)});
  }
  const PsoIndex index = PsoIndex::Build(triples);
  // Within a predicate run, subjects ascend; per subject, objects ascend.
  for (uint64_t p = 1; p <= 4; ++p) {
    uint64_t last_s = 0;
    uint64_t last_o = 0;
    bool first = true;
    index.ScanP(p, [&](uint64_t s, uint64_t o) {
      if (!first) {
        EXPECT_TRUE(s > last_s || (s == last_s && o > last_o))
            << "order violated at p=" << p;
      }
      first = false;
      last_s = s;
      last_o = o;
      return true;
    });
  }
}

TEST(PsoIndex, PredicateIntervalEnumeration) {
  // Predicates 8..11 present; LiteMat-style interval [9, 11) picks {9, 10}.
  TripleVec triples = {{8, 1, 1}, {9, 1, 1}, {10, 1, 1}, {11, 1, 1}};
  const PsoIndex index = PsoIndex::Build(triples);
  std::vector<uint64_t> ps;
  index.ForEachPredicateIn(9, 11, [&](uint64_t p) { ps.push_back(p); });
  EXPECT_EQ(ps, (std::vector<uint64_t>{9, 10}));
}

TEST(PsoIndex, EarlyTerminationStopsScan) {
  TripleVec triples = {{1, 1, 1}, {1, 1, 2}, {1, 2, 1}, {1, 2, 2}};
  const PsoIndex index = PsoIndex::Build(triples);
  int seen = 0;
  const bool completed = index.ScanP(1, [&](uint64_t, uint64_t) {
    return ++seen < 2;
  });
  EXPECT_FALSE(completed);
  EXPECT_EQ(seen, 2);
}

// ------------------------------------------------------------ DatatypeStore

TEST(DatatypeStore, StoresAndReconstructsLiterals) {
  std::vector<DatatypeStore::Triple> triples = {
      {1, 10, rdf::Term::Literal("3.5", rdf::kXsdDecimal)},
      {1, 10, rdf::Term::Literal("4.5", rdf::kXsdDecimal)},
      {1, 11, rdf::Term::Literal("3.5", rdf::kXsdDecimal)},  // redundancy OK
      {2, 10, rdf::Term::Literal("hello", "", "en")},
      {2, 12, rdf::Term::Literal("2020-01-01T00:00:00", rdf::kXsdDateTime)},
  };
  const DatatypeStore store = DatatypeStore::Build(triples);
  EXPECT_EQ(store.num_triples(), 5u);

  // (s=10, p=1, ?o) yields both values, reconstructed exactly.
  std::vector<rdf::Term> lits;
  store.ScanSP(1, 10, [&](uint64_t, uint64_t pos) {
    lits.push_back(store.LiteralAt(pos));
    return true;
  });
  ASSERT_EQ(lits.size(), 2u);
  EXPECT_EQ(lits[0], rdf::Term::Literal("3.5", rdf::kXsdDecimal));
  EXPECT_EQ(lits[1], rdf::Term::Literal("4.5", rdf::kXsdDecimal));

  // Numeric cache.
  store.ScanSP(1, 10, [&](uint64_t, uint64_t pos) {
    EXPECT_TRUE(store.NumericAt(pos).has_value());
    return true;
  });
  store.ScanSP(2, 10, [&](uint64_t, uint64_t pos) {
    EXPECT_FALSE(store.NumericAt(pos).has_value());
    EXPECT_EQ(store.LexicalAt(pos), "hello");
    return true;
  });

  // (?s, p=1, "3.5"^^decimal) finds subjects 10 and 11.
  std::vector<uint64_t> subjects;
  store.ScanPO(1, rdf::Term::Literal("3.5", rdf::kXsdDecimal),
               [&](uint64_t s, uint64_t) {
                 subjects.push_back(s);
                 return true;
               });
  EXPECT_EQ(subjects, (std::vector<uint64_t>{10, 11}));

  EXPECT_TRUE(store.Contains(1, 10, rdf::Term::Literal("4.5", rdf::kXsdDecimal)));
  EXPECT_FALSE(store.Contains(1, 10, rdf::Term::Literal("4.5")));  // plain != decimal
  EXPECT_EQ(store.CountForPredicate(1), 3u);
  EXPECT_EQ(store.CountSubjectsForPredicate(2), 2u);
}

TEST(DatatypeStore, RandomizedAgainstNaive) {
  Rng rng(77);
  std::vector<DatatypeStore::Triple> triples;
  std::set<std::tuple<uint64_t, uint64_t, std::string>> naive;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t p = rng.Uniform(5) + 1;
    const uint64_t s = rng.Uniform(50);
    const std::string lex = std::to_string(rng.Uniform(30));
    triples.push_back({p, s, rdf::Term::Literal(lex, rdf::kXsdInteger)});
    naive.insert({p, s, lex});
  }
  const DatatypeStore store = DatatypeStore::Build(triples);
  ASSERT_EQ(store.num_triples(), naive.size());
  uint64_t scanned = 0;
  store.ScanAll([&](uint64_t p, uint64_t s, uint64_t pos) {
    ++scanned;
    EXPECT_TRUE(naive.count({p, s, store.LexicalAt(pos)}) > 0);
    return true;
  });
  EXPECT_EQ(scanned, naive.size());
  // Counts per predicate agree.
  for (uint64_t p = 1; p <= 5; ++p) {
    uint64_t expect = 0;
    for (const auto& [tp, ts, lex] : naive) {
      (void)ts;
      (void)lex;
      if (tp == p) ++expect;
    }
    EXPECT_EQ(store.CountForPredicate(p), expect);
  }
}

// ------------------------------------------------------------- RdfTypeStore

TEST(RdfTypeStore, BidirectionalLookups) {
  RdfTypeStore store;
  store.Add(1, 100);
  store.Add(1, 200);
  store.Add(2, 100);
  store.Add(2, 100);  // duplicate collapses
  store.Finalize();
  EXPECT_EQ(store.num_triples(), 3u);

  ASSERT_NE(store.ConceptsOf(1), nullptr);
  EXPECT_EQ(*store.ConceptsOf(1), (std::vector<uint64_t>{100, 200}));
  ASSERT_NE(store.SubjectsOf(100), nullptr);
  EXPECT_EQ(*store.SubjectsOf(100), (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(store.ConceptsOf(99), nullptr);
  EXPECT_TRUE(store.Contains(1, 200));
  EXPECT_FALSE(store.Contains(2, 200));
}

TEST(RdfTypeStore, IntervalScanServesLiteMatReasoning) {
  RdfTypeStore store;
  // Concepts 16..23 = an 8-wide LiteMat interval; concept 24 outside.
  store.Add(1, 16);
  store.Add(2, 18);
  store.Add(3, 23);
  store.Add(4, 24);
  store.Add(2, 24);
  store.Finalize();
  std::vector<std::pair<uint64_t, uint64_t>> hits;
  store.ForEachSubjectTypedIn(16, 24, [&](uint64_t s, uint64_t c) {
    hits.push_back({s, c});
  });
  EXPECT_EQ(hits, (std::vector<std::pair<uint64_t, uint64_t>>{
                      {1, 16}, {2, 18}, {3, 23}}));
  EXPECT_EQ(store.CountTypedIn(16, 24), 3u);
  EXPECT_EQ(store.CountTypedIn(0, 100), 5u);
}

// -------------------------------------------------------------- TripleStore

TEST(TripleStore, RoutesTriplesToTheRightLayout) {
  const auto onto_graph = rdf::ParseTurtle(R"(
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix owl: <http://www.w3.org/2002/07/owl#> .
@prefix ex: <http://example.org/> .
ex:Sensor a owl:Class .
ex:PressureSensor rdfs:subClassOf ex:Sensor .
ex:hosts a owl:ObjectProperty .
ex:value a owl:DatatypeProperty .
)");
  ASSERT_TRUE(onto_graph.ok());
  const auto onto = ontology::Ontology::FromGraph(onto_graph.value());
  ASSERT_TRUE(onto.ok());

  const auto data = rdf::ParseTurtle(R"(
@prefix ex: <http://example.org/> .
ex:p1 ex:hosts ex:s1 .
ex:p1 ex:hosts ex:s2 .
ex:s1 a ex:PressureSensor .
ex:s2 a ex:Sensor .
ex:s1 ex:value 3.1 .
ex:s1 ex:value 3.2 .
ex:s2 ex:value 3.1 .
)");
  ASSERT_TRUE(data.ok());

  const auto store_result = TripleStore::Build(onto.value(), data.value());
  ASSERT_TRUE(store_result.ok()) << store_result.status().ToString();
  const TripleStore& store = store_result.value();

  EXPECT_EQ(store.object_store().num_triples(), 2u);
  EXPECT_EQ(store.datatype_store().num_triples(), 3u);
  EXPECT_EQ(store.type_store().num_triples(), 2u);
  EXPECT_EQ(store.num_triples(), 7u);
  EXPECT_EQ(store.skipped_triples(), 0u);

  // Reasoning path: subjects typed within ex:Sensor's interval = s1 and s2.
  const auto interval =
      store.dict().ConceptInterval("http://example.org/Sensor").value();
  std::set<uint64_t> typed;
  store.type_store().ForEachSubjectTypedIn(
      interval.first, interval.second,
      [&](uint64_t s, uint64_t) { typed.insert(s); });
  EXPECT_EQ(typed.size(), 2u);

  // Decode round-trip: instance term back from its id.
  const rdf::Term s1 = rdf::Term::Iri("http://example.org/s1");
  const auto encoded = store.EncodeInstance(s1);
  ASSERT_TRUE(encoded.has_value());
  EXPECT_EQ(store.DecodeTerm(*encoded), s1);

  // Statistics: ex:Sensor aggregates its subclass typings.
  EXPECT_EQ(store.dict().ConceptCountAggregated("http://example.org/Sensor"),
            2u);
  EXPECT_EQ(store.dict().PropertyCountAggregated("http://example.org/value"),
            3u);
}

TEST(TripleStore, SkipsMalformedTriples) {
  ontology::Ontology onto;
  rdf::Graph data;
  // Literal subject, literal rdf:type object: both skipped.
  data.Add(rdf::Term::Literal("x"), rdf::Term::Iri("http://e/p"),
           rdf::Term::Iri("http://e/o"));
  data.Add(rdf::Term::Iri("http://e/s"), rdf::Term::Iri(rdf::kRdfType),
           rdf::Term::Literal("NotAClass"));
  data.Add(rdf::Term::Iri("http://e/s"), rdf::Term::Iri("http://e/p"),
           rdf::Term::Iri("http://e/o"));
  const auto store = TripleStore::Build(onto, data);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store.value().skipped_triples(), 2u);
  EXPECT_EQ(store.value().num_triples(), 1u);
}

TEST(TripleStore, MixedUsePropertyLandsInBothSpaces) {
  ontology::Ontology onto;
  rdf::Graph data;
  const rdf::Term p = rdf::Term::Iri("http://e/mixed");
  data.Add(rdf::Term::Iri("http://e/a"), p, rdf::Term::Iri("http://e/b"));
  data.Add(rdf::Term::Iri("http://e/a"), p, rdf::Term::Literal("42"));
  const auto store = TripleStore::Build(onto, data);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(store.value().object_store().num_triples(), 1u);
  EXPECT_EQ(store.value().datatype_store().num_triples(), 1u);
}

TEST(TripleStore, SizeAccountingIsNonTrivial) {
  ontology::Ontology onto;
  rdf::Graph data;
  for (int i = 0; i < 500; ++i) {
    data.Add(rdf::Term::Iri("http://e/s" + std::to_string(i % 50)),
             rdf::Term::Iri("http://e/p" + std::to_string(i % 5)),
             rdf::Term::Iri("http://e/o" + std::to_string(i % 25)));
  }
  const auto store = TripleStore::Build(onto, data);
  ASSERT_TRUE(store.ok());
  EXPECT_GT(store.value().TriplesSizeInBytes(), 0u);
  EXPECT_GT(store.value().DictionarySizeInBytes(), 0u);
  EXPECT_EQ(store.value().SizeInBytes(),
            store.value().TriplesSizeInBytes() +
                store.value().DictionarySizeInBytes());
}

}  // namespace
}  // namespace sedge::store
