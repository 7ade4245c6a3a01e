// Batch execution: the synchronous face of `SolveService`
// (solve/service.hpp), kept as the name call sites reach for when they have
// a vector of requests and want a vector of results.
//
// `solve_all` gives each request its own deterministic RNG stream derived
// from (request seed, request index), so a pooled batch returns bit-for-bit
// the same mappings as a sequential loop — the property the sweep runner
// and the sharded/cached execution layers build on. Single-flight dedup,
// cache population and error isolation come with the service.
#pragma once

#include "solve/service.hpp"

namespace mf::solve {

using BatchSolver = SolveService;

}  // namespace mf::solve
