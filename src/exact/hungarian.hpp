// Linear sum assignment (the Hungarian method).
//
// Theorem 1 reduces the optimal one-to-one mapping of a linear chain on
// homogeneous machines to a minimum-weight perfect matching in the bipartite
// task/machine graph with edge costs -log(1 - f_{i,u}); this solver provides
// that matching. The implementation is the O(n^2 m) shortest-augmenting-path
// formulation with dual potentials (Jonker-Volgenant style), supporting
// rectangular instances with rows <= cols (every row is matched, columns may
// stay free). Each solve allocates its own O(n + m) scratch: the one library
// caller, exact::optimal_one_to_one_homogeneous, is not on any figure or
// daemon path.
#pragma once

#include <cstddef>
#include <vector>

#include "support/matrix.hpp"

namespace mf::exact {

struct AssignmentResult {
  /// row_to_col[r] = column matched to row r.
  std::vector<std::size_t> row_to_col;
  double total_cost = 0.0;
};

/// Minimum-cost assignment of every row to a distinct column.
/// Requires cost.rows() >= 1 and cost.rows() <= cost.cols(); all costs must
/// be finite.
[[nodiscard]] AssignmentResult solve_assignment(const support::Matrix& cost);

}  // namespace mf::exact
