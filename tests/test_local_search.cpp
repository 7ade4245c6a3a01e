// Tests for the local-search refinement extension: monotonicity, validity
// preservation, convergence reporting and closing of the optimality gap.
#include <gtest/gtest.h>

#include <limits>

#include "core/evaluation.hpp"
#include "exact/specialized_bnb.hpp"
#include "exp/scenario.hpp"
#include "extensions/local_search.hpp"
#include "heuristics/heuristic.hpp"
#include "test_helpers.hpp"

namespace mf::ext {
namespace {

using core::Mapping;
using core::MappingRule;
using core::Problem;

TEST(LocalSearch, RejectsInvalidInput) {
  const Problem problem = test::tiny_chain_problem();  // types 0,1,0
  const Mapping not_specialized{{0, 0, 1}};
  EXPECT_THROW(refine_mapping(problem, not_specialized), std::invalid_argument);
  RefinementOptions options;
  options.max_passes = 0;
  EXPECT_THROW(refine_mapping(problem, Mapping{{0, 1, 0}}, options), std::invalid_argument);
  // The gain must lie in [0, 1): below 0 every pass takes a move that
  // does not lower the period, and NaN fails every comparison.
  for (const double gain : {-1e-9, -std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN(), 1.0}) {
    RefinementOptions bad_gain;
    bad_gain.min_relative_gain = gain;
    EXPECT_THROW(refine_mapping(problem, Mapping{{0, 1, 0}}, bad_gain), std::invalid_argument)
        << "min_relative_gain " << gain;
  }
  RefinementOptions zero_gain;
  zero_gain.min_relative_gain = 0.0;
  EXPECT_NO_THROW(refine_mapping(problem, Mapping{{0, 1, 0}}, zero_gain));
}

TEST(LocalSearch, AlreadyOptimalStaysPut) {
  const Problem problem = test::tiny_chain_problem();
  const exact::BnBResult optimal = exact::solve_specialized_optimal(problem);
  ASSERT_TRUE(optimal.mapping.has_value());
  const RefinementResult result = refine_mapping(problem, *optimal.mapping);
  EXPECT_TRUE(result.converged);
  EXPECT_DOUBLE_EQ(result.period, optimal.period);
  EXPECT_EQ(result.moves_applied, 0u);
}

TEST(LocalSearch, ImprovesDeliberatelyBadMapping) {
  // All tasks of type 0 piled on the slowest machine: relocation must help.
  const Problem problem = test::uniform_problem({0, 0, 0, 0}, 4, 100.0, 0.0);
  const Mapping awful{{0, 0, 0, 0}};
  const RefinementResult result = refine_mapping(problem, awful);
  EXPECT_LT(result.period, result.initial_period);
  EXPECT_GT(result.moves_applied, 0u);
  // With 4 identical machines and 4 identical tasks, the optimum spreads
  // them out: period = 100 * x = 100.
  EXPECT_NEAR(result.period, 100.0, 1e-9);
}

TEST(LocalSearch, ResultStaysSpecialized) {
  exp::Scenario scenario;
  scenario.tasks = 20;
  scenario.machines = 6;
  scenario.types = 3;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Problem problem = exp::generate(scenario, seed);
    support::Rng rng(seed);
    const auto start = heuristics::heuristic_by_name("H1")->run(problem, rng);
    ASSERT_TRUE(start.has_value());
    const RefinementResult result = refine_mapping(problem, *start);
    EXPECT_TRUE(result.mapping.complies_with(MappingRule::kSpecialized, problem.app,
                                             problem.machine_count()));
    EXPECT_LE(result.period, result.initial_period + 1e-9);
    EXPECT_NEAR(result.period, core::period(problem, result.mapping), 1e-9);
  }
}

TEST(LocalSearch, NeverBeatsTheExactOptimum) {
  exp::Scenario scenario;
  scenario.tasks = 8;
  scenario.machines = 4;
  scenario.types = 2;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Problem problem = exp::generate(scenario, seed);
    support::Rng rng(seed);
    const auto start = heuristics::heuristic_by_name("H4w")->run(problem, rng);
    const RefinementResult refined = refine_mapping(problem, *start);
    const exact::BnBResult optimal = exact::solve_specialized_optimal(problem);
    ASSERT_TRUE(optimal.proven_optimal);
    EXPECT_GE(refined.period, optimal.period - 1e-9);
  }
}

TEST(LocalSearch, ClosesPartOfTheOptimalityGap) {
  // Averaged over instances, refinement should recover a meaningful part
  // of the H1-vs-optimal gap (H1 starts far from optimal).
  exp::Scenario scenario;
  scenario.tasks = 10;
  scenario.machines = 5;
  scenario.types = 2;
  double gap_before = 0.0;
  double gap_after = 0.0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Problem problem = exp::generate(scenario, seed);
    support::Rng rng(seed);
    const auto start = heuristics::heuristic_by_name("H1")->run(problem, rng);
    const RefinementResult refined = refine_mapping(problem, *start);
    const exact::BnBResult optimal = exact::solve_specialized_optimal(problem);
    ASSERT_TRUE(optimal.proven_optimal);
    gap_before += refined.initial_period / optimal.period - 1.0;
    gap_after += refined.period / optimal.period - 1.0;
  }
  EXPECT_LT(gap_after, gap_before * 0.5)
      << "refinement should close at least half of H1's optimality gap";
}

TEST(LocalSearch, SwapEscapesRelocationLocalOptimum) {
  // Two distinct types, one machine each (m == p == 2): relocation can
  // never move anything (the other machine always serves the other type),
  // but swapping the two singleton tasks can.
  core::Application app = core::Application::linear_chain({0, 1});
  core::Platform platform = test::make_platform(
      // M0 is fast for type 1's task, M1 fast for type 0's task — the
      // "crossed" assignment is strictly better.
      {{500, 100}, {100, 500}}, {{0.0, 0.0}, {0.0, 0.0}});
  const Problem problem{std::move(app), std::move(platform)};
  const Mapping crossed_badly{{0, 1}};  // T0 on its slow machine, T1 too

  RefinementOptions no_swaps;
  no_swaps.allow_swaps = false;
  const RefinementResult stuck = refine_mapping(problem, crossed_badly, no_swaps);
  EXPECT_DOUBLE_EQ(stuck.period, stuck.initial_period) << "relocation alone cannot fix this";

  const RefinementResult swapped = refine_mapping(problem, crossed_badly);
  EXPECT_NEAR(swapped.period, 100.0, 1e-9) << "one swap reaches the optimum";
}

TEST(LocalSearch, FirstImprovementAlsoMonotone) {
  exp::Scenario scenario;
  scenario.tasks = 15;
  scenario.machines = 5;
  scenario.types = 3;
  const Problem problem = exp::generate(scenario, 3);
  support::Rng rng(3);
  const auto start = heuristics::heuristic_by_name("H1")->run(problem, rng);
  RefinementOptions options;
  options.first_improvement = true;
  const RefinementResult result = refine_mapping(problem, *start, options);
  EXPECT_LE(result.period, result.initial_period + 1e-9);
  EXPECT_TRUE(result.mapping.complies_with(MappingRule::kSpecialized, problem.app,
                                           problem.machine_count()));
}

TEST(LocalSearch, PassBudgetRespected) {
  exp::Scenario scenario;
  scenario.tasks = 25;
  scenario.machines = 8;
  scenario.types = 2;
  const Problem problem = exp::generate(scenario, 5);
  support::Rng rng(5);
  const auto start = heuristics::heuristic_by_name("H1")->run(problem, rng);
  RefinementOptions options;
  options.max_passes = 1;
  const RefinementResult result = refine_mapping(problem, *start, options);
  EXPECT_LE(result.passes, 1u);
  EXPECT_LE(result.moves_applied, 1u);
}

/// Property sweep: refinement of every heuristic's output stays valid and
/// monotone across shapes and seeds.
class RefineAllHeuristicsTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {};

TEST_P(RefineAllHeuristicsTest, MonotoneAndValid) {
  const auto& [name, seed] = GetParam();
  exp::Scenario scenario;
  scenario.tasks = 14;
  scenario.machines = 6;
  scenario.types = 3;
  const Problem problem = exp::generate(scenario, seed);
  support::Rng rng(seed);
  const auto start = heuristics::heuristic_by_name(name)->run(problem, rng);
  ASSERT_TRUE(start.has_value());
  const RefinementResult result = refine_mapping(problem, *start);
  EXPECT_LE(result.period, result.initial_period + 1e-9);
  EXPECT_TRUE(result.mapping.complies_with(MappingRule::kSpecialized, problem.app,
                                           problem.machine_count()));
  EXPECT_TRUE(result.converged);
}

INSTANTIATE_TEST_SUITE_P(
    HeuristicsAndSeeds, RefineAllHeuristicsTest,
    ::testing::Combine(::testing::Values("H1", "H2", "H3", "H4", "H4w", "H4f"),
                       ::testing::Values<std::uint64_t>(1, 2, 3)));

}  // namespace
}  // namespace mf::ext
