// Linear bottleneck assignment: match every row to a distinct column
// minimizing the *maximum* selected cost (not the sum).
//
// This is the exact structure of the one-to-one mapping problem when the
// failure rates do not depend on the machine (f_{i,u} = f_i, the Section 7.2
// setting): the x_i are then mapping-independent and the period of a
// one-to-one mapping is max_i x_i * w_{i,a(i)} — a bottleneck assignment on
// costs c(i,u) = x_i * w_{i,u}. The answer is the smallest cost whose
// threshold graph has a perfect matching, so the solver searches upward
// from the row-min lower bound max_r min_c c(r,c): it sorts growing batches
// of the smallest costs at or above it, probes each batch's largest value
// with Hopcroft-Karp, and bisects inside the first batch that passes. The
// probes of one solve share one graph and one set of matching buffers. The
// returned matching is the one Hopcroft-Karp finds at that threshold.
#pragma once

#include "exact/hungarian.hpp"
#include "support/matrix.hpp"

namespace mf::exact {

struct BottleneckResult {
  std::vector<std::size_t> row_to_col;
  double bottleneck_cost = 0.0;  ///< the minimized maximum edge cost
};

/// Requires cost.rows() <= cost.cols(); all costs finite.
[[nodiscard]] BottleneckResult solve_bottleneck_assignment(const support::Matrix& cost);

}  // namespace mf::exact
