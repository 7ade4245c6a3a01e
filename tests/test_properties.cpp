// Cross-cutting property suite: invariants that tie the whole library
// together, checked exhaustively on small instances and by sampling on
// larger ones.
#include <gtest/gtest.h>

#include "core/evaluation.hpp"
#include "core/io.hpp"
#include "exact/brute_force.hpp"
#include "exact/specialized_bnb.hpp"
#include "exp/scenario.hpp"
#include "extensions/local_search.hpp"
#include "exp/method.hpp"
#include "heuristics/binary_search.hpp"
#include "heuristics/h4_family.hpp"
#include "solve/solver.hpp"
#include "sim/simulator.hpp"

namespace mf {
namespace {

using core::MappingRule;
using core::Problem;

exp::Scenario small_scenario(std::size_t n, std::size_t m, std::size_t p) {
  exp::Scenario scenario;
  scenario.tasks = n;
  scenario.machines = m;
  scenario.types = p;
  return scenario;
}

/// Relaxing the mapping rules can only improve the optimal period:
/// optimal(one-to-one) >= optimal(specialized) >= optimal(general).
class RuleRelaxationTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RuleRelaxationTest, OptimaOrderedByRuleStrength) {
  const Problem problem = exp::generate(small_scenario(4, 4, 2), GetParam());
  const auto oto = exact::brute_force_optimal(problem, MappingRule::kOneToOne);
  const auto spec = exact::brute_force_optimal(problem, MappingRule::kSpecialized);
  const auto general = exact::brute_force_optimal(problem, MappingRule::kGeneral);
  ASSERT_TRUE(oto.mapping.has_value());
  ASSERT_TRUE(spec.mapping.has_value());
  ASSERT_TRUE(general.mapping.has_value());
  EXPECT_GE(oto.period, spec.period - 1e-9);
  EXPECT_GE(spec.period, general.period - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RuleRelaxationTest, ::testing::Range<std::uint64_t>(1, 13));

/// Every heuristic's period lies between the specialized optimum and the
/// trivial upper bound, on every instance.
class HeuristicSandwichTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {};

TEST_P(HeuristicSandwichTest, PeriodBetweenOptimumAndUpperBound) {
  const auto& [name, seed] = GetParam();
  const Problem problem = exp::generate(small_scenario(8, 4, 2), seed);
  const auto mapping = solve::run(problem, name, {.seed = seed}).mapping;
  ASSERT_TRUE(mapping.has_value());
  const double period = core::period(problem, *mapping);
  const auto optimal = exact::solve_specialized_optimal(problem);
  ASSERT_TRUE(optimal.proven_optimal);
  EXPECT_GE(period, optimal.period - 1e-9);
  EXPECT_LE(period, core::period_upper_bound(problem) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllHeuristics, HeuristicSandwichTest,
    ::testing::Combine(::testing::Values("H1", "H2", "H3", "H4", "H4w", "H4f"),
                       ::testing::Values<std::uint64_t>(11, 22, 33)));

/// Serialization round trips preserve every observable quantity, for both
/// chains and in-trees, across random instances.
class IoRoundTripPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IoRoundTripPropertyTest, PeriodsSurviveRoundTrip) {
  const std::uint64_t seed = GetParam();
  const Problem chain = exp::generate(small_scenario(10, 5, 3), seed);
  const Problem tree = exp::generate_in_tree(small_scenario(10, 5, 3), 0.4, seed);
  for (const Problem* problem : {&chain, &tree}) {
    const Problem loaded = core::problem_from_text(core::to_text(*problem));
    const auto mapping = heuristics::h4w(*problem);
    ASSERT_TRUE(mapping.has_value());
    EXPECT_DOUBLE_EQ(core::period(*problem, *mapping), core::period(loaded, *mapping));
    const core::Mapping mapping_copy =
        core::mapping_from_text(core::to_text(*mapping));
    EXPECT_EQ(mapping_copy, *mapping);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IoRoundTripPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 9));

/// Refining the optimal mapping is a no-op; refining anything else never
/// crosses below the optimum (exhaustive check on small instances).
TEST(Properties, LocalSearchBracketedByOptimum) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Problem problem = exp::generate(small_scenario(7, 3, 2), seed);
    const auto optimal = exact::solve_specialized_optimal(problem);
    ASSERT_TRUE(optimal.mapping.has_value());
    for (const exp::Method& method : exp::all_heuristic_methods()) {
      const auto start = solve::run(problem, method.solver_id, {.seed = seed}).mapping;
      ASSERT_TRUE(start.has_value());
      const auto refined = ext::refine_mapping(problem, *start);
      EXPECT_GE(refined.period, optimal.period - 1e-9) << method.solver_id;
    }
    const auto noop = ext::refine_mapping(problem, *optimal.mapping);
    EXPECT_DOUBLE_EQ(noop.period, optimal.period);
  }
}

/// The simulator is a pure function of (problem, mapping, config): two
/// runs with identical inputs agree event-for-event, and changing only
/// the seed changes the sample but not the structural accounting
/// (attempts = successes + losses + in-flight).
TEST(Properties, SimulatorAccountingIdentity) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Problem problem = exp::generate(small_scenario(9, 4, 2), seed);
    const auto mapping = heuristics::h2(problem);
    ASSERT_TRUE(mapping.has_value());
    sim::SimulationConfig config;
    config.seed = seed * 7;
    config.target_outputs = 400;
    config.warmup_outputs = 40;
    const auto report = sim::Simulator(problem, *mapping).run(config);
    ASSERT_TRUE(report.reached_target);
    for (std::size_t i = 0; i < report.per_task.size(); ++i) {
      const auto& c = report.per_task[i];
      EXPECT_GE(c.attempts, c.successes + c.losses) << "task " << i;
      EXPECT_LE(c.attempts - c.successes - c.losses, 1u)
          << "at most one product in flight per task at termination";
    }
    // Busy time never exceeds the horizon.
    for (double busy : report.machine_busy_time) {
      EXPECT_LE(busy, report.end_time + 1000.0 /* one in-flight product */);
    }
  }
}

/// Generating with the same (scenario, seed) across *different* sweep
/// orders yields identical instances — the property the paired design of
/// the experiment runner relies on.
TEST(Properties, ScenarioGenerationIsPure) {
  const exp::Scenario scenario = small_scenario(12, 6, 3);
  const Problem a = exp::generate(scenario, 77);
  // Interleave unrelated generations.
  (void)exp::generate(small_scenario(5, 2, 2), 1);
  const Problem b = exp::generate(scenario, 77);
  for (core::TaskIndex i = 0; i < a.task_count(); ++i) {
    for (core::MachineIndex u = 0; u < a.machine_count(); ++u) {
      ASSERT_DOUBLE_EQ(a.platform.time(i, u), b.platform.time(i, u));
      ASSERT_DOUBLE_EQ(a.platform.failure(i, u), b.platform.failure(i, u));
    }
  }
}

/// Throughput and period are exact inverses, and the critical machines
/// are exactly the argmax of the machine periods.
TEST(Properties, EvaluationIdentities) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Problem problem = exp::generate(small_scenario(15, 6, 3), seed);
    const auto mapping = heuristics::h3(problem);
    ASSERT_TRUE(mapping.has_value());
    const double p = core::period(problem, *mapping);
    EXPECT_DOUBLE_EQ(core::throughput(problem, *mapping), 1.0 / p);
    const auto periods = core::machine_periods(problem, *mapping);
    for (core::MachineIndex u : core::critical_machines(problem, *mapping)) {
      EXPECT_DOUBLE_EQ(periods[u], p);
    }
  }
}

}  // namespace
}  // namespace mf
