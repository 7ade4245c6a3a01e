// Tests for Hopcroft-Karp maximum matching and the bottleneck assignment
// solver built on top of it, including a golden table of exact thresholds
// and matchings.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/failure.hpp"
#include "exact/bottleneck_assignment.hpp"
#include "exact/hopcroft_karp.hpp"
#include "exp/scenario.hpp"
#include "support/rng.hpp"

namespace mf::exact {
namespace {

/// One maximum matching from fresh buffers.
MatchingResult match(const BipartiteGraph& graph) {
  MatchingWorkspace workspace;
  MatchingResult result;
  maximum_matching(graph, workspace, result);
  return result;
}

TEST(HopcroftKarp, PerfectMatchingOnCompleteGraph) {
  BipartiteGraph graph(4, 4);
  for (std::size_t l = 0; l < 4; ++l) {
    for (std::size_t r = 0; r < 4; ++r) graph.add_edge(l, r);
  }
  const MatchingResult result = match(graph);
  EXPECT_EQ(result.size, 4u);
}

TEST(HopcroftKarp, EmptyGraphHasNoMatching) {
  BipartiteGraph graph(3, 3);
  EXPECT_EQ(match(graph).size, 0u);
}

TEST(HopcroftKarp, AugmentingPathNeeded) {
  // L0-{R0}, L1-{R0,R1}: greedy L0->R0 must be augmented for both to match.
  BipartiteGraph graph(2, 2);
  graph.add_edge(0, 0);
  graph.add_edge(1, 0);
  graph.add_edge(1, 1);
  const MatchingResult result = match(graph);
  EXPECT_EQ(result.size, 2u);
  EXPECT_EQ(result.left_match[0], 0u);
  EXPECT_EQ(result.left_match[1], 1u);
}

TEST(HopcroftKarp, BottleneckStructure) {
  // A star: 3 left vertices all only connected to R0 -> matching size 1.
  BipartiteGraph graph(3, 2);
  graph.add_edge(0, 0);
  graph.add_edge(1, 0);
  graph.add_edge(2, 0);
  EXPECT_EQ(match(graph).size, 1u);
}

TEST(HopcroftKarp, MatchingIsConsistent) {
  support::Rng rng(3);
  BipartiteGraph graph(8, 10);
  for (std::size_t l = 0; l < 8; ++l) {
    for (std::size_t r = 0; r < 10; ++r) {
      if (rng.bernoulli(0.3)) graph.add_edge(l, r);
    }
  }
  const MatchingResult result = match(graph);
  std::size_t matched = 0;
  for (std::size_t l = 0; l < 8; ++l) {
    if (result.left_match[l] == MatchingResult::npos) continue;
    ++matched;
    EXPECT_EQ(result.right_match[result.left_match[l]], l) << "inverse pointers must agree";
  }
  EXPECT_EQ(matched, result.size);
}

TEST(HopcroftKarp, EdgeValidation) {
  BipartiteGraph graph(2, 2);
  EXPECT_THROW(graph.add_edge(2, 0), std::invalid_argument);
  EXPECT_THROW(graph.add_edge(0, 2), std::invalid_argument);
  // Edges enter row by row: none may go below the last left vertex.
  graph.add_edge(1, 0);
  EXPECT_THROW(graph.add_edge(0, 1), std::invalid_argument);
}

TEST(HopcroftKarp, ResetGraphMatchesFreshGraph) {
  // One graph, workspace and result reused across graphs that grow and
  // shrink on both sides must match exactly what fresh buffers find.
  support::Rng rng(11);
  BipartiteGraph reused(1, 1);
  MatchingWorkspace workspace;
  MatchingResult result;
  for (int round = 0; round < 60; ++round) {
    const std::size_t left = rng.uniform_u64(1, 40);
    const std::size_t right = rng.uniform_u64(1, 40);
    const double density = rng.uniform(0.02, 0.5);
    reused.reset(left, right);
    BipartiteGraph fresh(left, right);
    for (std::size_t l = 0; l < left; ++l) {
      for (std::size_t r = 0; r < right; ++r) {
        if (!rng.bernoulli(density)) continue;
        reused.add_edge(l, r);
        fresh.add_edge(l, r);
      }
    }
    maximum_matching(reused, workspace, result);
    const MatchingResult expected = match(fresh);
    SCOPED_TRACE("round " + std::to_string(round));
    EXPECT_EQ(result.size, expected.size);
    EXPECT_EQ(result.left_match, expected.left_match);
    EXPECT_EQ(result.right_match, expected.right_match);
  }
}

double brute_force_bottleneck(const support::Matrix& cost) {
  const std::size_t n = cost.rows();
  const std::size_t m = cost.cols();
  std::vector<std::size_t> cols(m);
  std::iota(cols.begin(), cols.end(), 0u);
  double best = std::numeric_limits<double>::infinity();
  do {
    double worst = 0.0;
    for (std::size_t r = 0; r < n; ++r) worst = std::max(worst, cost.at(r, cols[r]));
    best = std::min(best, worst);
  } while (std::next_permutation(cols.begin(), cols.end()));
  return best;
}

TEST(Bottleneck, SingleCell) {
  support::Matrix cost(1, 1, 5.0);
  const BottleneckResult result = solve_bottleneck_assignment(cost);
  EXPECT_DOUBLE_EQ(result.bottleneck_cost, 5.0);
}

TEST(Bottleneck, KnownExample) {
  // min-max differs from min-sum here: sum-optimal is (0,0)=1,(1,1)=100
  // with max 100; bottleneck-optimal is (0,1)=50,(1,0)=60 with max 60.
  support::Matrix cost(2, 2);
  cost.at(0, 0) = 1.0;
  cost.at(0, 1) = 50.0;
  cost.at(1, 0) = 60.0;
  cost.at(1, 1) = 100.0;
  const BottleneckResult result = solve_bottleneck_assignment(cost);
  EXPECT_DOUBLE_EQ(result.bottleneck_cost, 60.0);
  EXPECT_EQ(result.row_to_col[0], 1u);
  EXPECT_EQ(result.row_to_col[1], 0u);
}

TEST(Bottleneck, RejectsBadShapes) {
  support::Matrix wide(3, 2, 1.0);
  EXPECT_THROW(solve_bottleneck_assignment(wide), std::invalid_argument);
}

class BottleneckRandomTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::uint64_t>> {};

TEST_P(BottleneckRandomTest, MatchesBruteForce) {
  const auto& [rows, cols, seed] = GetParam();
  support::Rng rng(seed);
  support::Matrix cost(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      cost.at(r, c) = std::floor(rng.uniform(0.0, 30.0));
    }
  }
  const BottleneckResult result = solve_bottleneck_assignment(cost);
  EXPECT_DOUBLE_EQ(result.bottleneck_cost, brute_force_bottleneck(cost));
  // The returned assignment actually achieves the bottleneck.
  double worst = 0.0;
  std::vector<bool> used(cols, false);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t c = result.row_to_col[r];
    EXPECT_FALSE(used[c]);
    used[c] = true;
    worst = std::max(worst, cost.at(r, c));
  }
  EXPECT_DOUBLE_EQ(worst, result.bottleneck_cost);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BottleneckRandomTest,
    ::testing::Combine(::testing::Values<std::size_t>(2, 3, 4, 5),
                       ::testing::Values<std::size_t>(5, 6, 7),
                       ::testing::Values<std::uint64_t>(1, 2, 3)));

/// Cost generators of a golden row. The kOto* kinds are oto's own costs
/// x_i * w_{i,u} on Figure 9's generator (f_{i,u} = f_i): integer w in
/// [100, 1000], tie-heavy integer w in [100, 102] and non-integer w. The
/// rest are hand-built: every row's minimum is the answer (kAtBound), over
/// a thousand distinct costs between the row-min bound and the answer
/// (kWide), one cost everywhere (kAllEqual), a matching within the bound
/// that leaves `param` rows unmatched, with ties at the answer (kShort), an
/// answer in a column that holds no row's minimum (kOffMinimum, n < m),
/// and bench_kernels' "wide" matrix itself (kBenchWide).
enum BottleneckKind {
  kOtoPaper,
  kOtoTies,
  kOtoFractional,
  kAtBound,
  kWide,
  kAllEqual,
  kShort,
  kOffMinimum,
  kBenchWide
};

struct GoldenBottleneck {
  BottleneckKind kind;
  std::size_t rows;
  std::size_t cols;
  std::size_t param;  // kOto* kinds: the type count p; kShort: the unmatched rows
  std::uint64_t seed;
  double bottleneck_cost;  // hexfloat-captured, compared bit-exactly
  std::vector<std::size_t> row_to_col;
};

/// The cost matrix optimal_one_to_one_task_failures hands the solver.
support::Matrix oto_cost(const core::Problem& problem) {
  std::vector<double> x(problem.task_count(), 0.0);
  for (core::TaskIndex i : problem.app.backward_order()) {
    const core::TaskIndex succ = problem.app.successor(i);
    const double downstream = succ == core::kNoTask ? 1.0 : x[succ];
    x[i] = downstream * core::survival_inverse(problem.platform.failure(i, 0));
  }
  support::Matrix cost(problem.task_count(), problem.machine_count());
  for (core::TaskIndex i = 0; i < problem.task_count(); ++i) {
    for (core::MachineIndex u = 0; u < problem.machine_count(); ++u) {
      cost.at(i, u) = x[i] * problem.platform.time(i, u);
    }
  }
  return cost;
}

/// A uniformly random arrangement of 0..size-1 (Fisher-Yates).
std::vector<std::size_t> shuffled(std::size_t size, support::Rng& rng) {
  std::vector<std::size_t> order(size);
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t k = size; k > 1; --k) {
    std::swap(order[k - 1], order[rng.uniform_u64(0, k - 1)]);
  }
  return order;
}

support::Matrix golden_bottleneck_cost(const GoldenBottleneck& entry) {
  const std::size_t rows = entry.rows;
  const std::size_t cols = entry.cols;
  if (entry.kind == kOtoPaper || entry.kind == kOtoTies || entry.kind == kOtoFractional) {
    exp::Scenario scenario;
    scenario.tasks = rows;
    scenario.machines = cols;
    scenario.types = entry.param;
    scenario.failure_attachment = exp::FailureAttachment::kTaskOnly;
    if (entry.kind == kOtoTies) {
      scenario.time_min_ms = 100.0;
      scenario.time_max_ms = 102.0;
    }
    if (entry.kind == kOtoFractional) scenario.integer_times = false;
    return oto_cost(exp::generate(scenario, entry.seed));
  }
  support::Rng rng(entry.seed);
  support::Matrix cost(rows, cols, 2.5);
  if (entry.kind == kAtBound) {
    // Integers 4..9 everywhere and a 4 at (r, sigma(r)): every row's
    // minimum is 4, and sigma already matches every row within it.
    const std::vector<std::size_t> sigma = shuffled(cols, rng);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        cost.at(r, c) = static_cast<double>(rng.uniform_u64(4, 9));
      }
      cost.at(r, sigma[r]) = 4.0;
    }
  } else if (entry.kind == kWide || entry.kind == kBenchWide) {
    if (entry.kind == kBenchWide) {
      // bench_kernels draws its "at bound" matrix from the same generator
      // first: a shuffle and rows x cols integers.
      (void)shuffled(cols, rng);
      for (std::size_t k = 0; k < rows * cols; ++k) (void)rng.uniform_u64(4, 9);
    }
    // Column 0 holds each row's minimum, 1..rows, but only one row can take
    // it; every other cost is distinct and above 1000. Rows and columns are
    // then shuffled.
    const std::vector<std::size_t> row_of = shuffled(rows, rng);
    const std::vector<std::size_t> col_of = shuffled(cols, rng);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        cost.at(row_of[r], col_of[c]) = c == 0 ? static_cast<double>(r + 1)
                                               : 1000.0 + static_cast<double>(r * cols + c);
      }
    }
  } else if (entry.kind == kShort) {
    // The first rows - param columns are cheap: each of the first
    // rows - param rows holds a 4 in its own cheap column, and each other
    // row a 4 in a random one, so the matching within the bound 4 leaves
    // exactly `param` rows unmatched. Cheap columns cost 5..9 elsewhere.
    // The spare columns cost the matched rows 5 or 6 and the others 8 or 9,
    // so the cheapest augmenting paths run through matched rows and tie.
    const std::size_t matched = rows - entry.param;
    const std::vector<std::size_t> row_of = shuffled(rows, rng);
    const std::vector<std::size_t> col_of = shuffled(cols, rng);
    for (std::size_t r = 0; r < rows; ++r) {
      const bool unmatched = r >= matched;
      for (std::size_t c = 0; c < cols; ++c) {
        const std::uint64_t value = c < matched ? rng.uniform_u64(5, 9)
                                    : unmatched ? rng.uniform_u64(8, 9)
                                                : rng.uniform_u64(5, 6);
        cost.at(row_of[r], col_of[c]) = static_cast<double>(value);
      }
      const std::size_t own = unmatched ? rng.uniform_u64(0, matched - 1) : r;
      cost.at(row_of[r], col_of[own]) = 4.0;
    }
  } else if (entry.kind == kOffMinimum) {
    // Every row's minimum, 1 or 2, lies in one of the first rows / 2
    // columns, which cost 25..30 elsewhere; every other column costs 6..20.
    // Half the rows find no free minimum, and they do better in the other
    // columns, none of which holds a row's minimum.
    const std::size_t half = std::max<std::size_t>(1, rows / 2);
    const std::vector<std::size_t> col_of = shuffled(cols, rng);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        const std::uint64_t value = c == r % half ? rng.uniform_u64(1, 2)
                                    : c < half    ? rng.uniform_u64(25, 30)
                                                  : rng.uniform_u64(6, 20);
        cost.at(r, col_of[c]) = static_cast<double>(value);
      }
    }
  }
  return cost;
}

/// Maximum matching on the edges with cost <= threshold, each row's edges
/// added in column order, from fresh buffers.
MatchingResult probe_at(const support::Matrix& cost, double threshold) {
  BipartiteGraph graph(cost.rows(), cost.cols());
  for (std::size_t r = 0; r < cost.rows(); ++r) {
    for (std::size_t c = 0; c < cost.cols(); ++c) {
      if (cost.at(r, c) <= threshold) graph.add_edge(r, c);
    }
  }
  return match(graph);
}

/// max_r min_c cost(r, c): no threshold below it leaves every row an edge.
double row_min_bound(const support::Matrix& cost) {
  double bound = -std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < cost.rows(); ++r) {
    const std::span<const double> row = cost.row_data(r);
    bound = std::max(bound, *std::min_element(row.begin(), row.end()));
  }
  return bound;
}

TEST(BottleneckGolden, SameThresholdAndMatchingAsPreRewriteCapture) {
  // Captured from the solver that sorted all n*m costs and bisected over
  // them, and the kShort, kOffMinimum and kBenchWide rows from the one that
  // searched sorted batches of them. The threshold is unique, but the
  // matching is whichever one Hopcroft-Karp finds on that threshold's
  // graph, so only the exact matching shows that a rewrite still ends with
  // the same final probe.
  static const std::vector<GoldenBottleneck> entries{
#include "golden_bottleneck.inc"
  };
  ASSERT_EQ(entries.size(), 44u);
  for (const GoldenBottleneck& entry : entries) {
    SCOPED_TRACE("kind=" + std::to_string(entry.kind) + " rows=" + std::to_string(entry.rows) +
                 " cols=" + std::to_string(entry.cols) + " param=" +
                 std::to_string(entry.param) + " seed=" + std::to_string(entry.seed));
    const support::Matrix cost = golden_bottleneck_cost(entry);
    const double bound = row_min_bound(cost);
    // Rows the matching within the bound leaves unmatched.
    const std::size_t shortfall = entry.rows - probe_at(cost, bound).size;
    // Each hand-built row covers the case it is named for.
    if (entry.kind == kAtBound || entry.kind == kAllEqual) {
      EXPECT_EQ(entry.bottleneck_cost, bound);
    }
    if (entry.kind == kWide || entry.kind == kBenchWide) {
      EXPECT_EQ(shortfall, entry.rows - 1);
      std::vector<double> between;
      for (std::size_t r = 0; r < cost.rows(); ++r) {
        for (double c : cost.row_data(r)) {
          if (c >= bound && c < entry.bottleneck_cost) between.push_back(c);
        }
      }
      std::sort(between.begin(), between.end());
      between.erase(std::unique(between.begin(), between.end()), between.end());
      EXPECT_GT(between.size(), 1000u);
    }
    if (entry.kind == kShort) {
      EXPECT_EQ(shortfall, entry.param);
      std::size_t at_answer = 0;
      for (std::size_t r = 0; r < cost.rows(); ++r) {
        for (double c : cost.row_data(r)) at_answer += c == entry.bottleneck_cost ? 1 : 0;
      }
      EXPECT_GT(at_answer, 1u) << "ties at the answer";
    }
    if (entry.kind == kOffMinimum) {
      EXPECT_LT(entry.rows, entry.cols);
      for (std::size_t r = 0; r < entry.rows; ++r) {
        const std::size_t c = entry.row_to_col[r];
        if (cost.at(r, c) != entry.bottleneck_cost) continue;
        for (std::size_t other = 0; other < entry.rows; ++other) {
          const std::span<const double> row = cost.row_data(other);
          EXPECT_GT(row[c], *std::min_element(row.begin(), row.end()))
              << "column " << c << " holds row " << other << "'s minimum";
        }
      }
    }
    const BottleneckResult result = solve_bottleneck_assignment(cost);
    EXPECT_EQ(result.bottleneck_cost, entry.bottleneck_cost);
    EXPECT_EQ(result.row_to_col, entry.row_to_col);
  }
}

TEST(Bottleneck, MinimaxSearchMatchesAscendingProbes) {
  // The reference probes every distinct cost at or above the row-min bound
  // in ascending order, each with fresh buffers, and stops at the first
  // perfect matching: its threshold is the answer, and its matching the
  // one the solver must return. Narrow integer ranges force ties; cheap
  // first columns, which hold most rows' minima, leave many rows unmatched
  // at the bound; and equal costs put the answer on the bound.
  support::Rng rng(3434);
  std::size_t above_bound = 0;
  for (int k = 0; k < 2500; ++k) {
    const std::size_t rows = rng.uniform_u64(1, 40);
    const std::size_t cols = rng.uniform_u64(rows, 40);
    SCOPED_TRACE("matrix " + std::to_string(k) + ": " + std::to_string(rows) + "x" +
                 std::to_string(cols));
    support::Matrix cost(rows, cols);
    const double equal = std::floor(rng.uniform(1.0, 100.0));
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        const bool cheap = 3 * c < cols;
        switch (k % 5) {
          case 0:  // integers 0..3, and 3..6 outside the cheap columns
            cost.at(r, c) = static_cast<double>(rng.uniform_u64(0, 3) + (cheap ? 0 : 3));
            break;
          case 1:
            cost.at(r, c) = static_cast<double>(rng.uniform_u64(0, 60));
            break;
          case 2:
            cost.at(r, c) = rng.uniform(0.0, 1000.0);
            break;
          case 3:  // fractional, and 500 more outside the cheap columns
            cost.at(r, c) = rng.uniform(0.0, 1000.0) + (cheap ? 0.0 : 500.0);
            break;
          default:
            cost.at(r, c) = equal;
            break;
        }
      }
    }
    const double bound = row_min_bound(cost);
    std::vector<double> values;
    for (std::size_t r = 0; r < rows; ++r) {
      for (double c : cost.row_data(r)) {
        if (c >= bound) values.push_back(c);
      }
    }
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    double threshold = std::numeric_limits<double>::quiet_NaN();
    MatchingResult expected;
    for (const double value : values) {
      expected = probe_at(cost, value);
      if (expected.size == rows) {
        threshold = value;
        break;
      }
    }
    ASSERT_EQ(expected.size, rows);
    above_bound += threshold > bound ? 1 : 0;
    const BottleneckResult result = solve_bottleneck_assignment(cost);
    EXPECT_EQ(result.bottleneck_cost, threshold);
    EXPECT_EQ(result.row_to_col, expected.left_match);
  }
  // Both ways out of the search are taken often.
  EXPECT_GT(above_bound, 800u);
  EXPECT_LT(above_bound, 1700u);
}

}  // namespace
}  // namespace mf::exact
