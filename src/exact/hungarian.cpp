#include "exact/hungarian.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "support/check.hpp"

namespace mf::exact {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Reusable scratch for the shortest-augmenting-path solver. All arrays
/// are 1-based (index 0 is the classical sentinel column/row). prepare()
/// reuses capacity, so repeated solves of same-or-smaller shapes never
/// touch the heap.
struct HungarianWorkspace {
  std::vector<double> u;            // n + 1 row potentials
  std::vector<double> v;            // m + 1 column potentials
  std::vector<double> min_v;        // m + 1 best reduced cost per column
  std::vector<char> used;           // m + 1 columns on the alternating tree
  std::vector<std::size_t> way;     // m + 1 augmenting-path back-pointers
  std::vector<std::size_t> match;   // m + 1, match[c] = row on column c

  void prepare(std::size_t n, std::size_t m) {
    u.assign(n + 1, 0.0);
    v.assign(m + 1, 0.0);
    match.assign(m + 1, 0);
    way.assign(m + 1, 0);
    min_v.resize(m + 1);
    used.resize(m + 1);
  }
};

HungarianWorkspace& workspace() {
  thread_local HungarianWorkspace ws;
  return ws;
}

}  // namespace

double solve_assignment_into(const support::Matrix& cost,
                             std::span<std::size_t> row_to_col) {
  const std::size_t n = cost.rows();
  const std::size_t m = cost.cols();
  MF_REQUIRE(n >= 1, "assignment needs at least one row");
  MF_REQUIRE(n <= m, "assignment requires rows <= cols");
  MF_REQUIRE(row_to_col.size() == n, "row_to_col size mismatch");
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < m; ++c) {
      MF_REQUIRE(std::isfinite(cost.at(r, c)), "assignment costs must be finite");
    }
  }

  HungarianWorkspace& ws = workspace();
  ws.prepare(n, m);

  for (std::size_t r = 1; r <= n; ++r) {
    ws.match[0] = r;
    std::size_t j0 = 0;  // current column on the alternating path
    std::fill(ws.min_v.begin(), ws.min_v.end(), kInf);
    std::fill(ws.used.begin(), ws.used.end(), 0);
    do {
      ws.used[j0] = 1;
      const std::size_t i0 = ws.match[j0];
      // Row reduction, the O(n·m²) inner loop of the whole algorithm. The
      // strict < keeps the first unused column attaining the minimum.
      const std::span<const double> cost_row = cost.row_data(i0 - 1);
      double delta = kInf;
      std::size_t j1 = 0;
      for (std::size_t j = 1; j <= m; ++j) {
        if (ws.used[j]) continue;
        const double reduced = (cost_row[j - 1] - ws.u[i0]) - ws.v[j];
        if (reduced < ws.min_v[j]) {
          ws.min_v[j] = reduced;
          ws.way[j] = j0;
        }
        if (ws.min_v[j] < delta) {
          delta = ws.min_v[j];
          j1 = j;
        }
      }
      MF_CHECK(j1 != 0, "no augmenting path found");
      // Dual update. The used columns are matched to pairwise distinct
      // rows, so each row potential moves at most once.
      for (std::size_t j = 0; j <= m; ++j) {
        if (ws.used[j]) {
          ws.u[ws.match[j]] += delta;
          ws.v[j] -= delta;
        } else {
          ws.min_v[j] -= delta;
        }
      }
      j0 = j1;
    } while (ws.match[j0] != 0);
    // Unwind the alternating path.
    do {
      const std::size_t j1 = ws.way[j0];
      ws.match[j0] = ws.match[j1];
      j0 = j1;
    } while (j0 != 0);
  }

  for (std::size_t j = 1; j <= m; ++j) {
    if (ws.match[j] != 0) row_to_col[ws.match[j] - 1] = j - 1;
  }
  double total_cost = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    total_cost += cost.at(r, row_to_col[r]);
  }
  return total_cost;
}

AssignmentResult solve_assignment(const support::Matrix& cost) {
  AssignmentResult result;
  result.row_to_col.assign(cost.rows(), 0);
  result.total_cost = solve_assignment_into(cost, result.row_to_col);
  return result;
}

}  // namespace mf::exact
