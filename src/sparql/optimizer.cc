#include "sparql/optimizer.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "rdf/vocabulary.h"

namespace sedge::sparql {
namespace {

bool IsTypePredicate(const TriplePattern& tp) {
  return !IsVar(tp.predicate) && AsTerm(tp.predicate).is_iri() &&
         AsTerm(tp.predicate).lexical() == rdf::kRdfType;
}

}  // namespace

int HeuristicClass(const TriplePattern& tp) {
  const bool s_var = IsVar(tp.subject);
  const bool p_var = IsVar(tp.predicate);
  const bool o_var = IsVar(tp.object);
  if (p_var) return 7;
  if (IsTypePredicate(tp)) {
    if (!s_var && !o_var) return 0;  // (s, type, o)
    if (!s_var) return 1;            // (s, type, ?o)
    if (!o_var) return 2;            // (?s, type, o)
    return 8;                        // (?s, type, ?o): "not relevant" case
  }
  if (!s_var && !o_var) return 3;  // (s, p, o)
  if (!s_var) return 4;            // (s, p, ?o)
  if (!o_var) return 5;            // (?s, p, o): PSO makes this costlier
  return 6;                        // (?s, p, ?o)
}

std::vector<size_t> OrderTriplePatterns(
    const std::vector<TriplePattern>& triples,
    const CardinalityEstimator& estimator) {
  const size_t n = triples.size();
  std::vector<size_t> order;
  if (n == 0) return order;
  order.reserve(n);
  const QueryGraph graph(triples);

  std::vector<uint64_t> estimate(n);
  for (size_t i = 0; i < n; ++i) estimate[i] = estimator.Estimate(triples[i]);

  std::vector<bool> used(n, false);

  // First pattern: the smallest estimate, Heuristic 1 breaking ties.
  const auto rank = [&](size_t i) {
    return std::make_pair(estimate[i], HeuristicClass(triples[i]));
  };
  size_t first = 0;
  for (size_t i = 1; i < n; ++i) {
    if (rank(i) < rank(first)) first = i;
  }
  order.push_back(first);
  used[first] = true;

  // Algorithm 1 loop: repeatedly pick the best pattern connected to the
  // ordered prefix (join rank, then heuristic class, then statistics).
  while (order.size() < n) {
    size_t best = n;
    int best_join = std::numeric_limits<int>::max();
    for (size_t cand = 0; cand < n; ++cand) {
      if (used[cand]) continue;
      int join_rank = std::numeric_limits<int>::max();
      for (const QueryGraphEdge& e : graph.EdgesOf(cand)) {
        const size_t other = e.a == cand ? e.b : e.a;
        if (!used[other]) continue;
        // Join type as seen from the new pattern's slot.
        const SlotPos cand_pos = e.a == cand ? e.pos_in_a : e.pos_in_b;
        const SlotPos other_pos = e.a == cand ? e.pos_in_b : e.pos_in_a;
        const QueryGraphEdge oriented{0, 1, e.var, cand_pos, other_pos};
        join_rank = std::min(join_rank, QueryGraph::JoinRank(oriented.type()));
      }
      if (best == n) {
        best = cand;
        best_join = join_rank;
        continue;
      }
      // Connected beats unconnected; then join rank; then heuristics; then
      // statistics.
      const bool cand_conn = join_rank != std::numeric_limits<int>::max();
      const bool best_conn = best_join != std::numeric_limits<int>::max();
      if (cand_conn != best_conn) {
        if (cand_conn) {
          best = cand;
          best_join = join_rank;
        }
        continue;
      }
      if (join_rank != best_join) {
        if (join_rank < best_join) {
          best = cand;
          best_join = join_rank;
        }
        continue;
      }
      const int cc = HeuristicClass(triples[cand]);
      const int cb = HeuristicClass(triples[best]);
      if (cc != cb) {
        if (cc < cb) {
          best = cand;
          best_join = join_rank;
        }
        continue;
      }
      if (estimate[cand] < estimate[best]) {
        best = cand;
        best_join = join_rank;
      }
    }
    order.push_back(best);
    used[best] = true;
  }
  return order;
}

}  // namespace sedge::sparql
