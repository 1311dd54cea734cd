// Join-order optimizer: the paper's Algorithm 1, with a cost-based start.
//
// Produces a left-deep execution order over the BGP's triple patterns by
// combining two static heuristics with per-pattern cardinality estimates:
//
//   Heuristic 1 (adapted from Tsialiamanis et al., re-ordered for the PSO
//   access paths):  (s,t,o) > (s,t,?o) > (?s,t,o) > (s,p,o) > (s,p,?o) >
//                   (?s,p,o) > (?s,p,?o) > var-predicate > (?s,t,?o)
//   Heuristic 2: SS joins are preferred over SO/OS, then OO, then joins
//   through the predicate position.
//
// The first pattern is the one with the smallest estimate, Heuristic 1
// breaking ties. This departs from Algorithm 1 line 2, which always opens
// with the most selective rdf:type pattern that has an SS join. The paper's
// rule enumerates a whole LiteMat class interval even when the same
// variable is pinned by a constant object: `?x a Student . ?x takesCourse
// <c>` walks every student to keep the few taking <c>. The executor's
// estimator counts such object-bound patterns exactly from the PSO
// index's wavelet ranks (and class intervals from the rdf:type store), so
// the cheaper start is known before any row is produced.
//
// Each following pattern is the best candidate connected to the patterns
// already ordered: join rank, then Heuristic 1, then the estimate.

#ifndef SEDGE_SPARQL_OPTIMIZER_H_
#define SEDGE_SPARQL_OPTIMIZER_H_

#include <cstdint>
#include <vector>

#include "sparql/ast.h"
#include "sparql/query_graph.h"

namespace sedge::sparql {

/// \brief Engine-supplied per-pattern cardinality estimate (the
/// dictionary statistics of Section 5.1, exact counts where the index
/// answers them directly).
class CardinalityEstimator {
 public:
  virtual ~CardinalityEstimator() = default;
  virtual uint64_t Estimate(const TriplePattern& tp) const = 0;
};

/// Heuristic-1 rank of a pattern; lower executes earlier. Exposed for the
/// optimizer tests.
int HeuristicClass(const TriplePattern& tp);

/// Returns the execution order as indices into `triples`.
std::vector<size_t> OrderTriplePatterns(
    const std::vector<TriplePattern>& triples,
    const CardinalityEstimator& estimator);

}  // namespace sedge::sparql

#endif  // SEDGE_SPARQL_OPTIMIZER_H_
