// Tests for the divisible-task extension: the water-filling primitive and
// the end-to-end divisible scheduler (the paper's future-work feature).
#include <gtest/gtest.h>

#include <numeric>

#include "core/evaluation.hpp"
#include "exp/scenario.hpp"
#include "extensions/divisible.hpp"
#include "heuristics/h4_family.hpp"
#include "test_helpers.hpp"

namespace mf::ext {
namespace {

using core::Problem;

TEST(WaterFill, SingleMachineTakesEverything) {
  const auto units = water_fill({0.0}, {2.0}, 10.0);
  ASSERT_EQ(units.size(), 1u);
  EXPECT_DOUBLE_EQ(units[0], 10.0);
}

TEST(WaterFill, EqualMachinesSplitEvenly) {
  const auto units = water_fill({0.0, 0.0}, {1.0, 1.0}, 10.0);
  EXPECT_DOUBLE_EQ(units[0], 5.0);
  EXPECT_DOUBLE_EQ(units[1], 5.0);
}

TEST(WaterFill, FasterMachineGetsMore) {
  // Machine 0 costs 1 ms/unit, machine 1 costs 3 ms/unit: levels equalize
  // at T with T/1 + T/3 = 12 -> T = 9: units (9, 3).
  const auto units = water_fill({0.0, 0.0}, {1.0, 3.0}, 12.0);
  EXPECT_NEAR(units[0], 9.0, 1e-9);
  EXPECT_NEAR(units[1], 3.0, 1e-9);
}

TEST(WaterFill, PreloadedMachineJoinsLater) {
  // Machine 0 already at load 10; machine 1 empty, both rate 1. Demand 4
  // fills machine 1 only (level reaches 4 < 10).
  const auto units = water_fill({10.0, 0.0}, {1.0, 1.0}, 4.0);
  EXPECT_DOUBLE_EQ(units[0], 0.0);
  EXPECT_DOUBLE_EQ(units[1], 4.0);
  // Demand 16: level reaches 13 -> machine 0 takes 3, machine 1 takes 13.
  const auto more = water_fill({10.0, 0.0}, {1.0, 1.0}, 16.0);
  EXPECT_NEAR(more[0], 3.0, 1e-9);
  EXPECT_NEAR(more[1], 13.0, 1e-9);
}

TEST(WaterFill, FinalLevelsAreEqualAcrossUsedMachines) {
  const std::vector<double> loads{5.0, 2.0, 9.0};
  const std::vector<double> rates{1.5, 2.0, 0.8};
  const double demand = 20.0;
  const auto units = water_fill(loads, rates, demand);
  EXPECT_NEAR(std::accumulate(units.begin(), units.end(), 0.0), demand, 1e-9);
  double used_level = -1.0;
  for (std::size_t u = 0; u < loads.size(); ++u) {
    if (units[u] <= 1e-12) continue;
    const double level = loads[u] + units[u] * rates[u];
    if (used_level < 0.0) {
      used_level = level;
    } else {
      EXPECT_NEAR(level, used_level, 1e-6);
    }
  }
  // Unused machines must already sit above the water level.
  for (std::size_t u = 0; u < loads.size(); ++u) {
    if (units[u] <= 1e-12) EXPECT_GE(loads[u] + 1e-9, used_level);
  }
}

TEST(WaterFill, SkipsUnusableMachines) {
  const auto units = water_fill({0.0, 0.0}, {0.0, 1.0}, 6.0);
  EXPECT_DOUBLE_EQ(units[0], 0.0);
  EXPECT_DOUBLE_EQ(units[1], 6.0);
}

TEST(WaterFill, Validation) {
  EXPECT_THROW(water_fill({0.0}, {1.0, 2.0}, 1.0), std::invalid_argument);
  EXPECT_THROW(water_fill({0.0}, {1.0}, -1.0), std::invalid_argument);
  EXPECT_THROW(water_fill({0.0}, {0.0}, 1.0), std::invalid_argument);
  EXPECT_TRUE(water_fill({0.0}, {1.0}, 0.0)[0] == 0.0);
}

TEST(Divisible, NeverWorseThanSeedMapping) {
  exp::Scenario scenario;
  scenario.tasks = 20;
  scenario.machines = 8;
  scenario.types = 3;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Problem problem = exp::generate(scenario, seed);
    const auto seed_mapping = heuristics::h4w(problem);
    ASSERT_TRUE(seed_mapping.has_value());
    const DivisibleSchedule schedule = divide_workload(problem, *seed_mapping);
    const double seed_period = core::period(problem, *seed_mapping);
    EXPECT_LE(schedule.period, seed_period + 1e-6)
        << "splitting streams must not hurt (seed " << seed << ")";
  }
}

TEST(Divisible, SharesSumToDemand) {
  exp::Scenario scenario;
  scenario.tasks = 12;
  scenario.machines = 6;
  scenario.types = 2;
  const Problem problem = exp::generate(scenario, 3);
  const auto schedule = divisible_schedule(problem);
  ASSERT_TRUE(schedule.has_value());
  for (core::TaskIndex i = 0; i < problem.task_count(); ++i) {
    double total = 0.0;
    for (core::MachineIndex u = 0; u < problem.machine_count(); ++u) {
      total += schedule->shares.at(i, u);
    }
    EXPECT_NEAR(total, schedule->demand[i], 1e-6 * schedule->demand[i]) << "task " << i;
  }
}

TEST(Divisible, DemandGrowsUpstream) {
  exp::Scenario scenario;
  scenario.tasks = 10;
  scenario.machines = 5;
  scenario.types = 2;
  scenario.failure_min = 0.05;
  scenario.failure_max = 0.10;
  const Problem problem = exp::generate(scenario, 4);
  const auto schedule = divisible_schedule(problem);
  ASSERT_TRUE(schedule.has_value());
  // Chain: demand of task i is the attempts of task i+1, so it must grow
  // strictly with upstream position under positive failure rates.
  for (core::TaskIndex i = 0; i + 1 < problem.task_count(); ++i) {
    EXPECT_GT(schedule->demand[i], schedule->demand[i + 1]);
  }
  EXPECT_DOUBLE_EQ(schedule->demand[problem.task_count() - 1], 1.0);
}

TEST(Divisible, SharesRespectSpecialization) {
  exp::Scenario scenario;
  scenario.tasks = 15;
  scenario.machines = 6;
  scenario.types = 3;
  const Problem problem = exp::generate(scenario, 5);
  const auto seed_mapping = heuristics::h4w(problem);
  ASSERT_TRUE(seed_mapping.has_value());
  const DivisibleSchedule schedule = divide_workload(problem, *seed_mapping);

  // A machine only receives stream shares of the single type it serves.
  std::vector<core::TypeIndex> machine_type(problem.machine_count(), core::kNoTask);
  for (core::TaskIndex i = 0; i < problem.task_count(); ++i) {
    for (core::MachineIndex u = 0; u < problem.machine_count(); ++u) {
      if (schedule.shares.at(i, u) <= 0.0) continue;
      const core::TypeIndex t = problem.app.type_of(i);
      if (machine_type[u] == core::kNoTask) {
        machine_type[u] = t;
      } else {
        EXPECT_EQ(machine_type[u], t) << "machine " << u << " serves two types";
      }
    }
  }
}

TEST(Divisible, InfeasibleWhenTypesExceedMachines) {
  const Problem problem = test::uniform_problem({0, 1, 2}, 2);
  EXPECT_FALSE(divisible_schedule(problem).has_value());
}

TEST(Divisible, RejectsNonSpecializedSeed) {
  const Problem problem = test::tiny_chain_problem();  // types 0,1,0
  const core::Mapping bad{{0, 0, 1}};                  // machine 0 serves 2 types
  EXPECT_THROW(divide_workload(problem, bad), std::invalid_argument);
}

}  // namespace
}  // namespace mf::ext
