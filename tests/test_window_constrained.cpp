// Tests for probabilistic input planning: exact binomial tails, required
// batch sizes and the window-constrained loss bound.
#include <gtest/gtest.h>

#include <cmath>

#include "core/evaluation.hpp"
#include "extensions/window_constrained.hpp"
#include "test_helpers.hpp"

namespace mf::ext {
namespace {

using core::Mapping;
using core::Problem;

TEST(BinomialTail, EdgeCases) {
  EXPECT_DOUBLE_EQ(binomial_tail_at_least(10, 0.5, 0), 1.0);
  EXPECT_DOUBLE_EQ(binomial_tail_at_least(10, 0.5, 11), 0.0);
  EXPECT_DOUBLE_EQ(binomial_tail_at_least(10, 0.0, 1), 0.0);
  EXPECT_DOUBLE_EQ(binomial_tail_at_least(10, 1.0, 10), 1.0);
}

TEST(BinomialTail, MatchesDirectComputation) {
  // P(Bin(5, 0.3) >= 2) computed directly.
  const double p = 0.3;
  double expected = 0.0;
  for (int k = 2; k <= 5; ++k) {
    double choose = 1.0;
    for (int j = 0; j < k; ++j) choose = choose * (5 - j) / (j + 1);
    expected += choose * std::pow(p, k) * std::pow(1 - p, 5 - k);
  }
  EXPECT_NEAR(binomial_tail_at_least(5, p, 2), expected, 1e-12);
}

TEST(BinomialTail, MonotoneInN) {
  for (std::uint64_t n = 10; n < 40; ++n) {
    EXPECT_LE(binomial_tail_at_least(n, 0.9, 10), binomial_tail_at_least(n + 1, 0.9, 10));
  }
}

TEST(BinomialTail, ComplementConsistency) {
  // P(X >= k) + P(X <= k-1) == 1.
  const double upper = binomial_tail_at_least(20, 0.4, 8);
  double lower = 0.0;
  for (std::uint64_t j = 0; j < 8; ++j) {
    double choose = 1.0;
    for (std::uint64_t i = 0; i < j; ++i) {
      choose = choose * static_cast<double>(20 - i) / static_cast<double>(i + 1);
    }
    lower += choose * std::pow(0.4, static_cast<double>(j)) *
             std::pow(0.6, static_cast<double>(20 - j));
  }
  EXPECT_NEAR(upper + lower, 1.0, 1e-9);
}

TEST(Survival, MatchesProductOfStages) {
  const Problem problem = test::tiny_chain_problem();
  const Mapping mapping{{0, 1, 0}};
  // f = 0.01 (T0 on M0), 0.01 (T1 on M1), 0.01 (T2 on M0).
  EXPECT_NEAR(chain_survival_probability(problem, mapping), 0.99 * 0.99 * 0.99, 1e-12);
}

TEST(RequiredInputs, AtLeastExpectationBased) {
  const Problem problem = test::tiny_chain_problem();
  const Mapping mapping{{0, 1, 0}};
  const double q = chain_survival_probability(problem, mapping);
  const std::uint64_t expectation =
      static_cast<std::uint64_t>(std::ceil(100.0 / q));
  const std::uint64_t guaranteed = required_inputs(problem, mapping, 100, 0.95);
  EXPECT_GE(guaranteed, 100u);
  // A 95% guarantee needs at least (roughly) the expectation-based batch.
  EXPECT_GE(guaranteed + 1, expectation);
  // And the guarantee actually holds at the returned batch size but not
  // below (minimality).
  EXPECT_GE(binomial_tail_at_least(guaranteed, q, 100), 0.95);
  EXPECT_LT(binomial_tail_at_least(guaranteed - 1, q, 100), 0.95);
}

TEST(RequiredInputs, MonotoneInConfidence) {
  const Problem problem = test::tiny_chain_problem();
  const Mapping mapping{{0, 1, 0}};
  const std::uint64_t lax = required_inputs(problem, mapping, 50, 0.5);
  const std::uint64_t strict = required_inputs(problem, mapping, 50, 0.999);
  EXPECT_LE(lax, strict);
}

TEST(RequiredInputs, ZeroTargetNeedsNothing) {
  const Problem problem = test::tiny_chain_problem();
  EXPECT_EQ(required_inputs(problem, Mapping{{0, 1, 0}}, 0, 0.9), 0u);
}

TEST(RequiredInputs, Validation) {
  const Problem problem = test::tiny_chain_problem();
  const Mapping mapping{{0, 1, 0}};
  EXPECT_THROW((void)required_inputs(problem, mapping, 10, 0.0), std::invalid_argument);
  EXPECT_THROW((void)required_inputs(problem, mapping, 10, 1.0), std::invalid_argument);
}

TEST(WindowLoss, PerfectLineLosesNothing) {
  const Problem problem = test::uniform_problem({0, 1}, 2, 100.0, 0.0);
  EXPECT_EQ(window_loss_bound(problem, Mapping{{0, 1}}, 100, 0.999), 0u);
}

TEST(WindowLoss, BoundGrowsWithWindow) {
  const Problem problem = test::tiny_chain_problem();
  const Mapping mapping{{0, 1, 0}};
  const std::uint64_t small = window_loss_bound(problem, mapping, 50, 0.95);
  const std::uint64_t large = window_loss_bound(problem, mapping, 500, 0.95);
  EXPECT_LE(small, large);
  // Sanity: with ~3% loss probability per product, a 500-window should
  // bound losses well below 100 at 95% confidence.
  EXPECT_LT(large, 100u);
  EXPECT_GT(large, 0u);
}

TEST(WindowLoss, Validation) {
  const Problem problem = test::tiny_chain_problem();
  const Mapping mapping{{0, 1, 0}};
  EXPECT_THROW((void)window_loss_bound(problem, mapping, 0, 0.9), std::invalid_argument);
  EXPECT_THROW((void)window_loss_bound(problem, mapping, 10, 1.0), std::invalid_argument);
}

TEST(Survival, RequiresLinearChain) {
  core::Application app = core::Application::from_successors({0, 1, 0}, {2, 2, core::kNoTask});
  core::Platform platform = test::make_platform(
      {{100, 100, 100}, {100, 100, 100}, {100, 100, 100}},
      {{0.01, 0.01, 0.01}, {0.01, 0.01, 0.01}, {0.01, 0.01, 0.01}});
  const Problem problem{std::move(app), std::move(platform)};
  EXPECT_THROW((void)chain_survival_probability(problem, Mapping{{0, 1, 2}}),
               std::invalid_argument);
}

}  // namespace
}  // namespace mf::ext
