// Tests for the reconfiguration-cost extension: switch counting, the
// augmented period and the crossover threshold that justifies the paper's
// restriction to specialized mappings.
#include <gtest/gtest.h>

#include "core/evaluation.hpp"
#include "exp/scenario.hpp"
#include "extensions/reconfiguration.hpp"
#include "heuristics/heuristic.hpp"
#include "test_helpers.hpp"

namespace mf::ext {
namespace {

using core::Mapping;
using core::Problem;

TEST(Reconfiguration, SwitchCounting) {
  const Problem problem = test::tiny_chain_problem();  // types 0,1,0
  // Machine 0 serves types 0 and 1 -> 2 switches; machine 1 idle; machine 2
  // serves a single type -> 0 switches.
  const Mapping general{{0, 0, 2}};
  const auto switches = type_switches_per_cycle(problem, general);
  EXPECT_EQ(switches[0], 2u);
  EXPECT_EQ(switches[1], 0u);
  EXPECT_EQ(switches[2], 0u);
}

TEST(Reconfiguration, SpecializedMappingsPayNothing) {
  const Problem problem = test::tiny_chain_problem();
  const Mapping specialized{{0, 1, 0}};
  for (std::size_t s : type_switches_per_cycle(problem, specialized)) EXPECT_EQ(s, 0u);
  EXPECT_DOUBLE_EQ(period_with_reconfiguration(problem, specialized, 500.0),
                   core::period(problem, specialized));
}

TEST(Reconfiguration, ZeroCostEqualsPlainPeriod) {
  const Problem problem = test::tiny_chain_problem();
  const Mapping general{{0, 0, 1}};
  EXPECT_DOUBLE_EQ(period_with_reconfiguration(problem, general, 0.0),
                   core::period(problem, general));
}

TEST(Reconfiguration, PeriodGrowsLinearlyInCost) {
  const Problem problem = test::tiny_chain_problem();
  const Mapping general{{0, 0, 0}};  // one machine, two types -> 2 switches
  const double p0 = period_with_reconfiguration(problem, general, 0.0);
  const double p100 = period_with_reconfiguration(problem, general, 100.0);
  const double p200 = period_with_reconfiguration(problem, general, 200.0);
  EXPECT_NEAR(p100 - p0, 200.0, 1e-9);
  EXPECT_NEAR(p200 - p100, 200.0, 1e-9);
}

TEST(Reconfiguration, NegativeCostRejected) {
  const Problem problem = test::tiny_chain_problem();
  EXPECT_THROW((void)period_with_reconfiguration(problem, Mapping{{0, 1, 0}}, -1.0),
               std::invalid_argument);
}

TEST(GreedyGeneral, ProducesCompleteMapping) {
  exp::Scenario scenario;
  scenario.tasks = 20;
  scenario.machines = 5;
  scenario.types = 3;
  const Problem problem = exp::generate(scenario, 2);
  const Mapping general = greedy_general_mapping(problem);
  EXPECT_TRUE(general.is_complete(problem.machine_count()));
  EXPECT_TRUE(
      general.complies_with(core::MappingRule::kGeneral, problem.app, problem.machine_count()));
}

TEST(GreedyGeneral, AtLeastAsGoodAsSpecializedWithoutReconfigCosts) {
  // Removing the specialization constraint can only help when switching is
  // free: compare against H4w on instances where mixing types pays off.
  exp::Scenario scenario;
  scenario.tasks = 12;
  scenario.machines = 3;
  scenario.types = 3;
  double general_total = 0.0;
  double specialized_total = 0.0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Problem problem = exp::generate(scenario, seed);
    support::Rng rng(seed);
    const auto spec = heuristics::heuristic_by_name("H4w")->run(problem, rng);
    ASSERT_TRUE(spec.has_value());
    general_total += core::period(problem, greedy_general_mapping(problem));
    specialized_total += core::period(problem, *spec);
  }
  EXPECT_LE(general_total, specialized_total * 1.05)
      << "with free switching, the general greedy should be competitive";
}

TEST(Crossover, ZeroWhenSpecializedAlreadyWins) {
  exp::Scenario scenario;
  scenario.tasks = 8;
  scenario.machines = 6;
  scenario.types = 2;
  const Problem problem = exp::generate(scenario, 7);
  support::Rng rng(7);
  const auto spec = heuristics::heuristic_by_name("H4w")->run(problem, rng);
  ASSERT_TRUE(spec.has_value());
  // A deliberately terrible general mapping: everything on machine 0.
  const Mapping awful{std::vector<core::MachineIndex>(problem.task_count(), 0)};
  EXPECT_DOUBLE_EQ(reconfiguration_crossover(problem, *spec, awful), 0.0);
}

TEST(Crossover, ThresholdMakesPeriodsCross) {
  exp::Scenario scenario;
  scenario.tasks = 12;
  scenario.machines = 3;
  scenario.types = 3;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Problem problem = exp::generate(scenario, seed);
    support::Rng rng(seed);
    const auto spec = heuristics::heuristic_by_name("H4w")->run(problem, rng);
    ASSERT_TRUE(spec.has_value());
    const Mapping general = greedy_general_mapping(problem);
    const double r = reconfiguration_crossover(problem, *spec, general);
    if (r == 0.0) continue;  // specialized already won
    const double spec_period = core::period(problem, *spec);
    // Just below the crossover the general mapping still wins; at the
    // crossover the specialized mapping is at least tied.
    EXPECT_LT(period_with_reconfiguration(problem, general, r * 0.99), spec_period);
    EXPECT_GE(period_with_reconfiguration(problem, general, r * 1.01), spec_period * 0.999);
  }
}

TEST(Crossover, RequiresSpecializedFirstArgument) {
  const Problem problem = test::tiny_chain_problem();
  const Mapping not_specialized{{0, 0, 1}};
  EXPECT_THROW((void)reconfiguration_crossover(problem, not_specialized, not_specialized),
               std::invalid_argument);
}

}  // namespace
}  // namespace mf::ext
