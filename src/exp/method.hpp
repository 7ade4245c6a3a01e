// A "method" is a named column of a figure sweep: a solver id from the
// unified registry (solve/registry.hpp) plus the display name and
// parameters the paper uses for it. It is a thin data wrapper — all actual
// solving goes through the `mf::solve` facade, so anything registered
// there (including "+ls" composites and runtime-registered solvers) can
// appear in a sweep.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "solve/solver.hpp"

namespace mf::exp {

struct Method {
  std::string name;       ///< column/series label, e.g. "H2", "OtO", "MIP"
  std::string solver_id;  ///< registry id the method resolves to
  solve::SolveParams params;
  /// Count a trial only when the solver *proves* optimality — the paper's
  /// protocol for the exact methods ("results are reported only if ... the
  /// MIP" succeeds); mirrors its CPLEX timeouts on larger instances.
  bool require_proof = false;

  /// The sweep protocol: whether a solve counts as a successful trial
  /// (a mapping exists and, with `require_proof`, optimality was proven).
  [[nodiscard]] bool counts(const solve::SolveResult& result) const;
};

/// Builds a method for any registered solver id; `display_name` defaults
/// to the id itself. Throws std::invalid_argument (listing the known ids)
/// for unknown solvers.
[[nodiscard]] Method method_for(const std::string& solver_id, std::string display_name = {},
                                solve::SolveParams params = {});

/// All six heuristics as methods, in paper order.
[[nodiscard]] std::vector<Method> all_heuristic_methods();

/// Subset by paper names, e.g. {"H2", "H3", "H4w"}.
[[nodiscard]] std::vector<Method> heuristic_methods(const std::vector<std::string>& names);

/// Optimal one-to-one mapping for machine-independent failures ("OtO").
[[nodiscard]] Method method_optimal_one_to_one();

/// Exact specialized mapping via branch-and-bound ("MIP"). A trial does not
/// count when the node budget is exhausted without an optimality proof,
/// mirroring the paper's CPLEX timeouts on larger instances.
[[nodiscard]] Method method_exact_specialized(std::uint64_t max_nodes);

}  // namespace mf::exp
