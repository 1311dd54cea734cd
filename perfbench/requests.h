// Request sequences for the end-to-end benchmark.
//
// The read workloads draw SPARQL texts from parameterized templates in the
// style of the LUBM Standard14 / M / R queries. Constants rotate over the
// generated graph's instances (students, faculty, courses, publications,
// departments, universities, research groups), so a sequence of a few
// thousand requests repeats no text: the serve result and plan caches
// cannot help, and the executor, store, sds and LiteMat layers do the work.
//
// Everything here is a pure function of (graph, seed): the same seed gives
// the same sequence, byte for byte.

#ifndef PERFBENCH_REQUESTS_H_
#define PERFBENCH_REQUESTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "rdf/triple.h"

namespace perfbench {

/// `n` distinct read requests over `graph`, templates interleaved in a
/// seeded order with fixed per-template weights.
std::vector<std::string> ColdReadSequence(const sedge::rdf::Graph& graph,
                                          uint64_t seed, size_t n);

/// The small fixed catalog the open-loop reader of the mixed workload
/// draws from: light point and star queries whose answers the sensor
/// write stream cannot change (disjoint vocabulary).
std::vector<std::string> SensorReadCatalog(const sedge::rdf::Graph& graph,
                                           uint64_t seed, size_t n);

}  // namespace perfbench

#endif  // PERFBENCH_REQUESTS_H_
