// Exact specialized-mapping solver by combinatorial branch-and-bound.
//
// The specialized mapping problem is NP-hard even for linear chains
// (Section 5.2), so exact solving is exponential; the paper uses a CPLEX
// MIP on small instances (Figures 10-12). This solver plays that role:
// it explores task-to-machine assignments in the same backward order as the
// heuristics, pruning with three lower bounds:
//   (1) the largest committed machine load (loads only grow),
//   (2) an average bound: (committed load + optimistic remaining work) / m,
//   (3) the best placement of any single remaining task on an empty machine.
// "Optimistic" uses per-task minima over machines of both the failure factor
// and the processing time — an underestimate of any completion. The
// incumbent starts from the best of H2/H4w, so pruning bites immediately.
//
// A node's cost is kept low without changing which nodes are visited: on
// chains an O(1) screen from per-solve suffix sums rules out most bound
// prunes before the O(n) walk for (2) and (3) runs, a branch whose load
// already reaches the incumbent is dropped when the node lists its
// branches, and the machines a task may take are read from bit masks of
// the free and dedicated machines (docs/performance.md, "Exact
// branch-and-bound").
//
// A node budget mirrors the paper's observation that the exact approach
// stops being usable past ~15 tasks: when the budget is exhausted the best
// incumbent is returned with proven_optimal = false.
#pragma once

#include <cstdint>
#include <optional>

#include "core/evaluation.hpp"
#include "core/mapping.hpp"
#include "core/platform.hpp"

namespace mf::exact {

struct BnBOptions {
  std::uint64_t max_nodes = 50'000'000;  ///< exploration budget (0 = unlimited)
  bool seed_with_heuristics = true;      ///< warm-start incumbent from H2/H4w
};

struct BnBResult {
  std::optional<core::Mapping> mapping;  ///< best mapping found (nullopt if infeasible)
  double period = 0.0;                   ///< core::period of `mapping`
  bool proven_optimal = false;  ///< search space exhausted within budget
  /// Nodes visited, leaves and pruned nodes included. A search that runs
  /// out of budget reports max_nodes + 1: the node it refused is counted.
  std::uint64_t nodes = 0;
};

/// Minimum-period *specialized* mapping. Requires p <= m for feasibility
/// (otherwise returns an empty result with proven_optimal = true, mirroring
/// "no specialized mapping exists").
[[nodiscard]] BnBResult solve_specialized_optimal(const core::Problem& problem,
                                                  const BnBOptions& options = {});

}  // namespace mf::exact
