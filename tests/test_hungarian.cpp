// Tests for the Hungarian (linear sum assignment) solver, validated against
// brute-force enumeration of permutations on random matrices and pinned to
// a golden table of exact matchings.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "exact/hungarian.hpp"
#include "support/matrix.hpp"
#include "support/rng.hpp"

namespace mf::exact {
namespace {

double brute_force_min_cost(const support::Matrix& cost) {
  const std::size_t n = cost.rows();
  const std::size_t m = cost.cols();
  std::vector<std::size_t> cols(m);
  std::iota(cols.begin(), cols.end(), 0u);
  double best = std::numeric_limits<double>::infinity();
  // Enumerate all injections rows -> cols via permutations of columns.
  std::sort(cols.begin(), cols.end());
  do {
    double total = 0.0;
    for (std::size_t r = 0; r < n; ++r) total += cost.at(r, cols[r]);
    best = std::min(best, total);
  } while (std::next_permutation(cols.begin(), cols.end()));
  return best;
}

TEST(Hungarian, OneByOne) {
  support::Matrix cost(1, 1);
  cost.at(0, 0) = 42.0;
  const AssignmentResult result = solve_assignment(cost);
  EXPECT_EQ(result.row_to_col[0], 0u);
  EXPECT_DOUBLE_EQ(result.total_cost, 42.0);
}

TEST(Hungarian, KnownThreeByThree) {
  // Classic example: optimal is the anti-diagonal with cost 1+2+3? Verify
  // by hand: rows pick (0,2)=1, (1,1)=2, (2,0)=3 -> 6.
  support::Matrix cost(3, 3);
  const double values[3][3] = {{5, 9, 1}, {10, 2, 8}, {3, 7, 4}};
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) cost.at(r, c) = values[r][c];
  }
  const AssignmentResult result = solve_assignment(cost);
  EXPECT_DOUBLE_EQ(result.total_cost, 6.0);
  EXPECT_EQ(result.row_to_col[0], 2u);
  EXPECT_EQ(result.row_to_col[1], 1u);
  EXPECT_EQ(result.row_to_col[2], 0u);
}

TEST(Hungarian, AssignmentIsInjective) {
  support::Rng rng(5);
  support::Matrix cost(6, 6);
  for (std::size_t r = 0; r < 6; ++r) {
    for (std::size_t c = 0; c < 6; ++c) cost.at(r, c) = rng.uniform(0.0, 100.0);
  }
  const AssignmentResult result = solve_assignment(cost);
  std::vector<bool> used(6, false);
  for (std::size_t col : result.row_to_col) {
    EXPECT_FALSE(used[col]) << "column assigned twice";
    used[col] = true;
  }
}

TEST(Hungarian, RectangularLeavesColumnsFree) {
  support::Matrix cost(2, 4);
  const double values[2][4] = {{9, 1, 5, 7}, {2, 8, 3, 6}};
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 4; ++c) cost.at(r, c) = values[r][c];
  }
  const AssignmentResult result = solve_assignment(cost);
  EXPECT_DOUBLE_EQ(result.total_cost, 3.0);  // (0,1)=1 and (1,0)=2
}

TEST(Hungarian, RejectsBadShapes) {
  support::Matrix wide(3, 2, 1.0);
  EXPECT_THROW(solve_assignment(wide), std::invalid_argument);
  support::Matrix inf_cost(1, 1, std::numeric_limits<double>::infinity());
  EXPECT_THROW(solve_assignment(inf_cost), std::invalid_argument);
}

TEST(Hungarian, TiesStillProduceOptimal) {
  support::Matrix cost(3, 3, 1.0);  // all equal: any permutation optimal
  const AssignmentResult result = solve_assignment(cost);
  EXPECT_DOUBLE_EQ(result.total_cost, 3.0);
}

TEST(Hungarian, TieRuleKeepsFirstMinimalColumn) {
  // Both comparisons in the row scan are strict, so the first column with
  // the minimal reduced cost wins and an equal path never replaces the one
  // already recorded. Traced by hand: one row over {2, 1, 1} takes column
  // 1, not 2. Two rows over equal costs keep the identity matching; a
  // non-strict back-pointer update would route row 1 through column 0 and
  // swap the pair, and a last-index argmin would start row 0 on column 2.
  support::Matrix one_row(1, 3);
  one_row.at(0, 0) = 2.0;
  one_row.at(0, 1) = 1.0;
  one_row.at(0, 2) = 1.0;
  EXPECT_EQ(solve_assignment(one_row).row_to_col, (std::vector<std::size_t>{1}));

  const support::Matrix flat(2, 3, 1.0);
  EXPECT_EQ(solve_assignment(flat).row_to_col, (std::vector<std::size_t>{0, 1}));
}

class HungarianRandomTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::uint64_t>> {};

TEST_P(HungarianRandomTest, MatchesBruteForce) {
  const auto& [rows, cols, seed] = GetParam();
  support::Rng rng(seed);
  support::Matrix cost(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      cost.at(r, c) = std::floor(rng.uniform(0.0, 50.0));  // ties likely
    }
  }
  const AssignmentResult result = solve_assignment(cost);
  EXPECT_NEAR(result.total_cost, brute_force_min_cost(cost), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, HungarianRandomTest,
    ::testing::Combine(::testing::Values<std::size_t>(2, 3, 4, 5, 6),
                       ::testing::Values<std::size_t>(6, 7),
                       ::testing::Values<std::uint64_t>(1, 2, 3, 4)));

/// Cost generators of a golden row: integers 0-9 (ties everywhere, so the
/// solver's tie rule decides the matching), continuous costs, and Theorem
/// 1's -log(1 - f) at the paper's default failure rates.
enum CostKind { kIntegerTies, kContinuous, kTheorem1 };

struct GoldenHungarian {
  CostKind kind;
  std::size_t rows;
  std::size_t cols;
  std::uint64_t seed;
  double total_cost;  // hexfloat-captured, compared bit-exactly
  std::vector<std::size_t> row_to_col;
};

support::Matrix golden_cost(CostKind kind, std::size_t rows, std::size_t cols,
                            std::uint64_t seed) {
  support::Rng rng(seed);
  support::Matrix cost(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      switch (kind) {
        case kIntegerTies:
          cost.at(r, c) = static_cast<double>(rng.uniform_u64(0, 9));
          break;
        case kContinuous:
          cost.at(r, c) = rng.uniform(0.0, 5.0);
          break;
        case kTheorem1:
          cost.at(r, c) = -std::log(1.0 - rng.uniform(0.005, 0.02));
          break;
      }
    }
  }
  return cost;
}

TEST(HungarianGolden, SameAssignmentsAndCostsAsPreRewriteCapture) {
  // Captured from the solver that ran its row scan and dual update through
  // the SIMD kernel table. Equal-cost matchings are common here, and only
  // the exact matching shows whether a rewrite kept the first-index tie
  // rule. Rows 1-20, up to six spare columns.
  static const std::vector<GoldenHungarian> entries{
#include "golden_hungarian.inc"
  };
  ASSERT_EQ(entries.size(), 48u);
  for (const GoldenHungarian& entry : entries) {
    SCOPED_TRACE("kind=" + std::to_string(entry.kind) + " rows=" + std::to_string(entry.rows) +
                 " cols=" + std::to_string(entry.cols) + " seed=" + std::to_string(entry.seed));
    const support::Matrix cost = golden_cost(entry.kind, entry.rows, entry.cols, entry.seed);
    const AssignmentResult result = solve_assignment(cost);
    EXPECT_EQ(result.row_to_col, entry.row_to_col);
    EXPECT_EQ(result.total_cost, entry.total_cost);
  }
}

}  // namespace
}  // namespace mf::exact
