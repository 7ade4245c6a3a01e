#include "exact/hungarian.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "support/check.hpp"

namespace mf::exact {

AssignmentResult solve_assignment(const support::Matrix& cost) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t n = cost.rows();
  const std::size_t m = cost.cols();
  MF_REQUIRE(n >= 1, "assignment needs at least one row");
  MF_REQUIRE(n <= m, "assignment requires rows <= cols");
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < m; ++c) {
      MF_REQUIRE(std::isfinite(cost.at(r, c)), "assignment costs must be finite");
    }
  }

  // Solver scratch, all 1-based: index 0 is the classical sentinel
  // column/row.
  std::vector<double> u(n + 1, 0.0);         // row potentials
  std::vector<double> v(m + 1, 0.0);         // column potentials
  std::vector<double> min_v(m + 1);          // best reduced cost per column
  std::vector<char> used(m + 1);             // columns on the alternating tree
  std::vector<std::size_t> way(m + 1, 0);    // augmenting-path back-pointers
  std::vector<std::size_t> match(m + 1, 0);  // match[c] = row on column c

  for (std::size_t r = 1; r <= n; ++r) {
    match[0] = r;
    std::size_t j0 = 0;  // current column on the alternating path
    std::fill(min_v.begin(), min_v.end(), kInf);
    std::fill(used.begin(), used.end(), 0);
    do {
      used[j0] = 1;
      const std::size_t i0 = match[j0];
      // Row reduction, the O(n·m²) inner loop of the whole algorithm. The
      // strict < keeps the first unused column attaining the minimum.
      const std::span<const double> cost_row = cost.row_data(i0 - 1);
      double delta = kInf;
      std::size_t j1 = 0;
      for (std::size_t j = 1; j <= m; ++j) {
        if (used[j]) continue;
        const double reduced = (cost_row[j - 1] - u[i0]) - v[j];
        if (reduced < min_v[j]) {
          min_v[j] = reduced;
          way[j] = j0;
        }
        if (min_v[j] < delta) {
          delta = min_v[j];
          j1 = j;
        }
      }
      MF_CHECK(j1 != 0, "no augmenting path found");
      // Dual update. The used columns are matched to pairwise distinct
      // rows, so each row potential moves at most once.
      for (std::size_t j = 0; j <= m; ++j) {
        if (used[j]) {
          u[match[j]] += delta;
          v[j] -= delta;
        } else {
          min_v[j] -= delta;
        }
      }
      j0 = j1;
    } while (match[j0] != 0);
    // Unwind the alternating path.
    do {
      const std::size_t j1 = way[j0];
      match[j0] = match[j1];
      j0 = j1;
    } while (j0 != 0);
  }

  AssignmentResult result;
  result.row_to_col.assign(n, 0);
  for (std::size_t j = 1; j <= m; ++j) {
    if (match[j] != 0) result.row_to_col[match[j] - 1] = j - 1;
  }
  for (std::size_t r = 0; r < n; ++r) {
    result.total_cost += cost.at(r, result.row_to_col[r]);
  }
  return result;
}

}  // namespace mf::exact
