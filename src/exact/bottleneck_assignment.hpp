// Linear bottleneck assignment: match every row to a distinct column
// minimizing the *maximum* selected cost (not the sum).
//
// This is the exact structure of the one-to-one mapping problem when the
// failure rates do not depend on the machine (f_{i,u} = f_i, the Section 7.2
// setting): the x_i are then mapping-independent and the period of a
// one-to-one mapping is max_i x_i * w_{i,u} — a bottleneck assignment on
// costs c(i,u) = x_i * w_{i,u}. The answer is the smallest cost whose
// threshold graph has a perfect matching. The solver probes the row-min
// lower bound max_r min_c c(r,c) with Hopcroft-Karp, then, while that
// matching is short, augments it along the alternating path whose largest
// edge is smallest (a minimax search over the dense matrix, O(n·m) each)
// and raises the threshold to that edge. Each augmentation keeps the
// threshold at or below the answer, and the perfect matching at the end
// proves it, so the threshold is the answer. The returned matching is the
// one Hopcroft-Karp finds at that threshold: the bound's probe when no
// augmentation ran, otherwise one final probe.
#pragma once

#include <cstddef>
#include <vector>

#include "support/matrix.hpp"

namespace mf::exact {

struct BottleneckResult {
  std::vector<std::size_t> row_to_col;
  double bottleneck_cost = 0.0;  ///< the minimized maximum edge cost
};

/// Requires cost.rows() <= cost.cols(); all costs finite.
[[nodiscard]] BottleneckResult solve_bottleneck_assignment(const support::Matrix& cost);

}  // namespace mf::exact
