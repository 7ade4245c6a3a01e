// Tests for the discrete-event simulator: determinism, exact behaviour in
// the zero-failure case, convergence of the empirical period and x_i to the
// analytic model, join semantics, and trace hooks.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/evaluation.hpp"
#include "core/failure_model.hpp"
#include "exp/scenario.hpp"
#include "heuristics/heuristic.hpp"
#include "sim/simulator.hpp"
#include "test_helpers.hpp"

namespace mf::sim {
namespace {

using core::Mapping;
using core::Problem;

/// The same mean up/repair phases on every machine: how the downtime tests
/// drive machine breakdowns.
core::DowntimeFailureModel uniform_downtime(std::size_t machines, double mean_uptime_ms,
                                            double mean_repair_ms) {
  return core::DowntimeFailureModel(std::vector<double>(machines, mean_uptime_ms),
                                    std::vector<double>(machines, mean_repair_ms));
}

TEST(Simulator, DeterministicForSameSeed) {
  const Problem problem = test::tiny_chain_problem();
  const Mapping mapping{{0, 1, 0}};
  const Simulator simulator(problem, mapping);
  SimulationConfig config;
  config.seed = 17;
  config.target_outputs = 200;
  config.warmup_outputs = 20;
  const SimulationReport a = simulator.run(config);
  const SimulationReport b = simulator.run(config);
  EXPECT_EQ(a.finished_products, b.finished_products);
  EXPECT_DOUBLE_EQ(a.end_time, b.end_time);
  EXPECT_DOUBLE_EQ(a.measured_period, b.measured_period);
}

TEST(Simulator, ZeroFailureChainMatchesAnalyticExactly) {
  // No failures: every machine period is deterministic; the measured
  // steady-state period must equal the analytic bottleneck exactly.
  const Problem problem = test::uniform_problem({0, 1, 2}, 3, 100.0, 0.0);
  const Mapping mapping{{0, 1, 2}};
  SimulationConfig config;
  config.target_outputs = 500;
  config.warmup_outputs = 50;
  const SimulationReport report = Simulator(problem, mapping).run(config);
  EXPECT_TRUE(report.reached_target);
  EXPECT_NEAR(report.measured_period, core::period(problem, mapping), 1e-9);
  // No losses anywhere; attempts may exceed successes by at most the one
  // product still in flight on each machine when the run stopped.
  for (const TaskCounters& counters : report.per_task) {
    EXPECT_EQ(counters.losses, 0u);
    EXPECT_GE(counters.attempts, counters.successes);
    EXPECT_LE(counters.attempts - counters.successes, 1u);
  }
}

TEST(Simulator, SharedMachineSerializesTasks) {
  // Both tasks on one machine, zero failures: period = w0 + w1.
  core::Application app = core::Application::linear_chain({0, 0});
  core::Platform platform = test::make_platform({{100.0}, {100.0}}, {{0.0}, {0.0}});
  const Problem problem{std::move(app), std::move(platform)};
  const Mapping mapping{{0, 0}};
  SimulationConfig config;
  config.target_outputs = 100;
  config.warmup_outputs = 10;
  const SimulationReport report = Simulator(problem, mapping).run(config);
  EXPECT_NEAR(report.measured_period, 200.0, 1e-9);
  EXPECT_NEAR(report.machine_utilization[0], 1.0, 1e-6);
}

TEST(Simulator, LossesIncreaseUpstreamAttempts) {
  // Middle task fails 50% of the time: the upstream task must attempt about
  // twice as much as the downstream one finishes.
  core::Application app = core::Application::linear_chain({0, 1});
  core::Platform platform =
      test::make_platform({{100.0, 100.0}, {100.0, 100.0}}, {{0.0, 0.0}, {0.5, 0.5}});
  const Problem problem{std::move(app), std::move(platform)};
  const Mapping mapping{{0, 1}};
  SimulationConfig config;
  config.seed = 5;
  config.target_outputs = 4000;
  config.warmup_outputs = 200;
  const SimulationReport report = Simulator(problem, mapping).run(config);
  const auto x = report.empirical_products_per_output();
  EXPECT_NEAR(x[1], 2.0, 0.1);  // 1/(1-0.5)
  EXPECT_NEAR(x[0], 2.0, 0.1);  // source feeds the lossy stage
}

TEST(Simulator, JoinConsumesFromBothBranches) {
  // T0 -> T2 <- T1, no failures, all on separate machines.
  core::Application app = core::Application::from_successors({0, 1, 2}, {2, 2, core::kNoTask});
  core::Platform platform = test::make_platform(
      {{100, 100, 100}, {100, 100, 100}, {100, 100, 100}},
      {{0, 0, 0}, {0, 0, 0}, {0, 0, 0}});
  const Problem problem{std::move(app), std::move(platform)};
  const Mapping mapping{{0, 1, 2}};
  SimulationConfig config;
  config.target_outputs = 200;
  config.warmup_outputs = 20;
  const SimulationReport report = Simulator(problem, mapping).run(config);
  EXPECT_TRUE(report.reached_target);
  // Each output consumed one product from each branch.
  EXPECT_NEAR(static_cast<double>(report.per_task[0].successes) /
                  static_cast<double>(report.finished_products),
              1.0, 0.15);
  EXPECT_NEAR(static_cast<double>(report.per_task[1].successes) /
                  static_cast<double>(report.finished_products),
              1.0, 0.15);
}

TEST(Simulator, MaxTimeCapStopsRun) {
  const Problem problem = test::uniform_problem({0}, 1, 100.0, 0.0);
  const Mapping mapping{{0}};
  SimulationConfig config;
  config.target_outputs = 1'000'000;
  config.warmup_outputs = 0;
  config.max_time = 10'000.0;  // only ~100 products fit
  const SimulationReport report = Simulator(problem, mapping).run(config);
  EXPECT_FALSE(report.reached_target);
  EXPECT_LE(report.end_time, 10'000.0 + 1e-9);
  EXPECT_NEAR(static_cast<double>(report.finished_products), 100.0, 2.0);
}

TEST(Simulator, TraceHookSeesLifecycle) {
  const Problem problem = test::uniform_problem({0}, 1, 100.0, 0.0);
  const Mapping mapping{{0}};
  SimulationConfig config;
  config.target_outputs = 3;
  config.warmup_outputs = 0;
  std::vector<TraceEvent::Kind> kinds;
  (void)Simulator(problem, mapping).run(config, [&](const TraceEvent& event) {
    kinds.push_back(event.kind);
  });
  // start, success, output repeated three times.
  ASSERT_GE(kinds.size(), 9u);
  EXPECT_EQ(kinds[0], TraceEvent::Kind::kStart);
  EXPECT_EQ(kinds[1], TraceEvent::Kind::kSuccess);
  EXPECT_EQ(kinds[2], TraceEvent::Kind::kOutput);
}

TEST(Simulator, RejectsBadConfigs) {
  const Problem problem = test::uniform_problem({0}, 1);
  const Mapping mapping{{0}};
  const Simulator simulator(problem, mapping);
  SimulationConfig config;
  config.target_outputs = 10;
  config.warmup_outputs = 10;  // warmup must be < target
  EXPECT_THROW(simulator.run(config), std::invalid_argument);
  EXPECT_THROW(Simulator(problem, Mapping{{5}}), std::invalid_argument);
}

TEST(Simulator, InTreeWithSharedMachinesMakesProgress) {
  // Regression: without a WIP cap, a machine hosting both a join's
  // well-fed feeder and the *source* of the join's other branch starves
  // the source forever (deepest-first always picks the feeder), so the
  // line never outputs. The bounded buffers must prevent that.
  exp::Scenario scenario;
  scenario.tasks = 20;
  scenario.machines = 8;
  scenario.types = 4;
  const Problem problem = exp::generate_in_tree(scenario, 0.4, 13);
  support::Rng rng(1);
  const auto mapping = heuristics::heuristic_by_name("H4w")->run(problem, rng);
  ASSERT_TRUE(mapping.has_value());
  SimulationConfig config;
  config.target_outputs = 500;
  config.warmup_outputs = 50;
  config.max_time = 1e9;  // backstop so a regression fails instead of hanging
  const SimulationReport report = Simulator(problem, *mapping).run(config);
  EXPECT_TRUE(report.reached_target) << "in-tree line must produce output";
  // Every task participated (no starved branch).
  for (std::size_t i = 0; i < report.per_task.size(); ++i) {
    EXPECT_GT(report.per_task[i].attempts, 0u) << "task " << i << " starved";
  }
}

TEST(Simulator, WipCapBoundsBuffers) {
  // Fast producer, slow consumer on separate machines: with a cap the
  // producer blocks instead of racing ahead, so its attempt count stays
  // within cap + in-flight of the consumer's.
  core::Application app = core::Application::linear_chain({0, 1});
  core::Platform platform =
      test::make_platform({{10.0, 10.0}, {1000.0, 1000.0}}, {{0.0, 0.0}, {0.0, 0.0}});
  const Problem problem{std::move(app), std::move(platform)};
  const Mapping mapping{{0, 1}};
  SimulationConfig config;
  config.target_outputs = 50;
  config.warmup_outputs = 5;
  config.max_wip_per_edge = 4;
  const SimulationReport report = Simulator(problem, mapping).run(config);
  ASSERT_TRUE(report.reached_target);
  EXPECT_LE(report.per_task[0].attempts, report.per_task[1].attempts + 4 + 1);
  // Throughput is still governed by the slow stage.
  EXPECT_NEAR(report.measured_period, 1000.0, 1e-6);
}

TEST(Simulator, DowntimeStallsButNeverDestroysProducts) {
  // Single perfect machine with 50% availability (uptime == repair): the
  // measured period roughly doubles, and not a single product is lost.
  const Problem problem = test::uniform_problem({0}, 1, 100.0, 0.0);
  const Mapping mapping{{0}};
  SimulationConfig config;
  config.seed = 3;
  config.target_outputs = 3'000;
  config.warmup_outputs = 300;
  const core::DowntimeFailureModel downtime =
      uniform_downtime(problem.machine_count(), 1'000.0, 1'000.0);
  config.failure_model = &downtime;
  const SimulationReport report = Simulator(problem, mapping).run(config);
  ASSERT_TRUE(report.reached_target);
  EXPECT_EQ(report.per_task[0].losses, 0u);
  // Availability 0.5 => effective rate halves => period ~ 200 ms.
  EXPECT_NEAR(report.measured_period, 200.0, 30.0);
  EXPECT_GT(report.machine_down_time[0], 0.0);
}

TEST(Simulator, DowntimeDisabledByDefault) {
  const Problem problem = test::uniform_problem({0}, 1, 100.0, 0.0);
  const Mapping mapping{{0}};
  SimulationConfig config;
  config.target_outputs = 100;
  config.warmup_outputs = 10;
  const SimulationReport report = Simulator(problem, mapping).run(config);
  EXPECT_DOUBLE_EQ(report.machine_down_time[0], 0.0);
  EXPECT_NEAR(report.measured_period, 100.0, 1e-9);
}

TEST(Simulator, DowntimeOnlyDelaysTheAffectedMachine) {
  // Two-stage chain where only the (much faster) second machine breaks
  // down occasionally; the first machine remains the bottleneck and the
  // period stays put.
  core::Application app = core::Application::linear_chain({0, 1});
  core::Platform platform =
      test::make_platform({{500.0, 500.0}, {50.0, 50.0}}, {{0.0, 0.0}, {0.0, 0.0}});
  const Problem problem{std::move(app), std::move(platform)};
  const Mapping mapping{{0, 1}};
  SimulationConfig config;
  config.seed = 9;
  config.target_outputs = 2'000;
  config.warmup_outputs = 200;
  // ~2% unavailability on a 10x-fast stage.
  const core::DowntimeFailureModel downtime =
      uniform_downtime(problem.machine_count(), 5'000.0, 100.0);
  config.failure_model = &downtime;
  const SimulationReport report = Simulator(problem, mapping).run(config);
  EXPECT_NEAR(report.measured_period, 500.0, 25.0);
}

TEST(Simulator, TruncationClipsBusyAndDownTimeToHorizon) {
  // Regression: busy/down phases used to be booked in full at phase *start*,
  // so a run truncated by max_time mid-attempt (or mid-repair) reported
  // busy_time > end_time — utilization above 1. Phases now accrue at
  // completion and are clipped at termination.
  const Problem problem = test::uniform_problem({0}, 1, 100.0, 0.0);
  const Mapping mapping{{0}};
  SimulationConfig config;
  config.seed = 11;
  config.target_outputs = 1'000'000;
  config.warmup_outputs = 0;
  const core::DowntimeFailureModel downtime =
      uniform_downtime(problem.machine_count(), 300.0, 300.0);
  config.failure_model = &downtime;
  config.max_time = 1'050.0;  // cuts mid-attempt or mid-repair almost surely
  const SimulationReport report = Simulator(problem, mapping).run(config);
  ASSERT_FALSE(report.reached_target);
  EXPECT_LE(report.end_time, config.max_time + 1e-9);
  EXPECT_LE(report.machine_busy_time[0], report.end_time + 1e-9);
  EXPECT_LE(report.machine_down_time[0], report.end_time + 1e-9);
  EXPECT_LE(report.machine_busy_time[0] + report.machine_down_time[0],
            report.end_time + 1e-9);
  EXPECT_LE(report.machine_utilization[0], 1.0 + 1e-12);
}

TEST(Simulator, IdleMachinesBreakDownOnTime) {
  // A machine with nothing to do still ages: give machine 1 no mapped tasks
  // and short up phases — its breakdowns must be *scheduled* events, not
  // lazy checks at the next start (which never comes).
  const Problem problem = test::uniform_problem({0}, 2, 100.0, 0.0);
  const Mapping mapping{{0}};  // machine 1 is idle forever
  SimulationConfig config;
  config.seed = 4;
  config.target_outputs = 100;
  config.warmup_outputs = 10;
  const core::DowntimeFailureModel downtime =
      uniform_downtime(problem.machine_count(), 200.0, 50.0);
  config.failure_model = &downtime;
  const SimulationReport report = Simulator(problem, mapping).run(config);
  ASSERT_TRUE(report.reached_target);
  EXPECT_GT(report.machine_failures, 0u);
  EXPECT_GT(report.machine_repairs, 0u);
  // The idle machine accrued repair time even though it never processed.
  EXPECT_GT(report.machine_down_time[1], 0.0);
  EXPECT_DOUBLE_EQ(report.machine_busy_time[1], 0.0);
}

TEST(Simulator, UptimePhasesNeverCollapse) {
  // Every up/down cycle is its own pair of scheduled events: over a fixed
  // horizon the failure count concentrates around horizon / (up + repair)
  // per machine, which lazily-collapsed cycles would undershoot wildly.
  const Problem problem = test::uniform_problem({0}, 1, 10.0, 0.0);
  const Mapping mapping{{0}};
  SimulationConfig config;
  config.seed = 8;
  config.target_outputs = 0;
  config.warmup_outputs = 0;
  const core::DowntimeFailureModel downtime =
      uniform_downtime(problem.machine_count(), 100.0, 100.0);
  config.failure_model = &downtime;
  config.max_time = 200'000.0;  // ~1000 expected cycles
  const SimulationReport report = Simulator(problem, mapping).run(config);
  EXPECT_NEAR(static_cast<double>(report.machine_failures), 1'000.0, 150.0);
  // Repairs trail failures by at most the one cycle open at the horizon.
  EXPECT_LE(report.machine_failures - report.machine_repairs, 1u);
  // Half the horizon is repair time, within noise.
  EXPECT_NEAR(report.machine_down_time[0], 100'000.0, 15'000.0);
}

TEST(Simulator, CorrelatedLossesFollowTheComposedRate) {
  // One loss coin per attempt at the correlated model's composed rate: on a
  // lossy chain, each task's empirical loss ratio lies within 4 sigma of
  // 1 - (1 - f)(1 - s) for its task rate f and its machine's shock s.
  core::Application app = core::Application::linear_chain({0, 1, 2});
  core::Platform platform = test::make_platform(
      {{100, 100, 100}, {120, 120, 120}, {80, 80, 80}},
      {{0.05, 0.05, 0.05}, {0.10, 0.10, 0.10}, {0.02, 0.02, 0.02}});
  const Problem problem{std::move(app), std::move(platform)};
  const Mapping mapping{{0, 1, 2}};
  const std::vector<double> shock{0.10, 0.05, 0.20};
  const core::CorrelatedFailureModel model(shock);
  SimulationConfig config;
  config.seed = 31;
  config.target_outputs = 20'000;
  config.warmup_outputs = 100;
  config.failure_model = &model;
  const SimulationReport report = Simulator(problem, mapping).run(config);
  ASSERT_TRUE(report.reached_target);
  for (core::TaskIndex i = 0; i < problem.task_count(); ++i) {
    const TaskCounters& counters = report.per_task[i];
    ASSERT_GT(counters.attempts, 10'000u);
    const double f = problem.platform.failure(i, i);
    const double composed = 1.0 - (1.0 - f) * (1.0 - shock[i]);
    const double attempts = static_cast<double>(counters.attempts);
    const double sigma = std::sqrt(composed * (1.0 - composed) / attempts);
    EXPECT_NEAR(static_cast<double>(counters.losses) / attempts, composed, 4.0 * sigma)
        << "task " << i;
  }
}

TEST(Simulator, TaxonomyCountersAreConsistent) {
  // events_processed covers every processed pop; attempts equal the number
  // of kAttemptComplete events when the run ends on its output target.
  const Problem problem = test::uniform_problem({0, 1}, 2, 100.0, 0.02);
  const Mapping mapping{{0, 1}};
  SimulationConfig config;
  config.seed = 14;
  config.target_outputs = 300;
  config.warmup_outputs = 30;
  const core::DowntimeFailureModel downtime =
      uniform_downtime(problem.machine_count(), 5'000.0, 200.0);
  config.failure_model = &downtime;
  const SimulationReport report = Simulator(problem, mapping).run(config);
  ASSERT_TRUE(report.reached_target);
  std::uint64_t attempts = 0;
  for (const TaskCounters& counters : report.per_task) attempts += counters.attempts;
  // Started attempts whose completion never popped (run ended) are the only
  // shortfall, bounded by the machine count.
  EXPECT_LE(attempts - (report.events_processed - report.machine_failures -
                        report.machine_repairs),
            problem.machine_count());
  EXPECT_GT(report.machine_failures, 0u);
  EXPECT_GE(report.machine_failures, report.machine_repairs);
}

TEST(Simulator, BatchModeDrainsFiniteSupply) {
  // Feed exactly 100 products into a 2-stage lossless chain: all 100 exit
  // and the line stops on its own.
  const Problem problem = test::uniform_problem({0, 1}, 2, 100.0, 0.0);
  const Mapping mapping{{0, 1}};
  SimulationConfig config;
  config.target_outputs = 0;  // run to drain
  config.warmup_outputs = 0;
  config.source_supply = 100;
  const SimulationReport report = Simulator(problem, mapping).run(config);
  EXPECT_EQ(report.finished_products, 100u);
  EXPECT_EQ(report.per_task[0].attempts, 100u);
  EXPECT_EQ(report.per_task[1].attempts, 100u);
}

/// The central validation property, part 1: in saturation mode the DES
/// steady-state period converges to the analytic period. When several
/// machine loads tie for the maximum the convergence is slow (null-recurrent
/// buffering), so the tight assertion applies only when the critical machine
/// is strictly dominant.
class SimulatorConvergenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimulatorConvergenceTest, PeriodMatchesAnalyticModel) {
  exp::Scenario scenario;
  scenario.tasks = 8;
  scenario.machines = 4;
  scenario.types = 2;
  const Problem problem = exp::generate(scenario, GetParam());

  support::Rng rng(GetParam());
  const auto mapping = heuristics::heuristic_by_name("H4w")->run(problem, rng);
  ASSERT_TRUE(mapping.has_value());

  SimulationConfig config;
  config.seed = GetParam() * 31 + 7;
  config.target_outputs = 5'000;
  config.warmup_outputs = 500;
  const SimulationReport report = Simulator(problem, *mapping).run(config);
  ASSERT_TRUE(report.reached_target);

  const double analytic = core::period(problem, *mapping);
  // How dominant is the critical machine?
  auto loads = core::machine_periods(problem, *mapping);
  std::sort(loads.begin(), loads.end());
  const double runner_up = loads[loads.size() - 2];
  if (runner_up < 0.95 * analytic) {
    EXPECT_NEAR(report.measured_period, analytic, 0.05 * analytic)
        << "measured steady-state period should approach the analytic period";
  } else {
    // Near-tied machines: the measured period still brackets the analytic
    // value but with slack for slow mixing.
    EXPECT_GT(report.measured_period, 0.90 * analytic);
    EXPECT_LT(report.measured_period, 1.20 * analytic);
  }
  // Throughput can never beat the analytic bound by more than noise.
  EXPECT_GT(report.measured_period, analytic * (1.0 - 0.03));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorConvergenceTest,
                         ::testing::Range<std::uint64_t>(1, 9));

/// Part 2: in *batch* mode (finite supply, run to drain) the per-task
/// attempt counts divided by finished products converge to the x_i of
/// Section 4.1 — the empirical validation of the paper's central recursion.
class SimulatorXRecursionTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimulatorXRecursionTest, EmpiricalXMatchesRecursion) {
  exp::Scenario scenario;
  scenario.tasks = 6;
  scenario.machines = 3;
  scenario.types = 2;
  scenario.failure_min = 0.02;  // higher rates: more signal per product
  scenario.failure_max = 0.10;
  const Problem problem = exp::generate(scenario, GetParam());

  support::Rng rng(GetParam());
  const auto mapping = heuristics::heuristic_by_name("H4w")->run(problem, rng);
  ASSERT_TRUE(mapping.has_value());
  const auto analytic_x = core::expected_products(problem, *mapping);

  SimulationConfig config;
  config.seed = GetParam() * 13 + 3;
  config.target_outputs = 0;  // drain the batch completely
  config.warmup_outputs = 0;
  config.source_supply = 20'000;
  const SimulationReport report = Simulator(problem, *mapping).run(config);
  ASSERT_GT(report.finished_products, 10'000u);

  // attempts[0] is exactly the supply; downstream ratios follow x_i/x_0.
  const auto empirical_x = report.empirical_products_per_output();
  for (std::size_t i = 0; i < analytic_x.size(); ++i) {
    EXPECT_NEAR(empirical_x[i], analytic_x[i], 0.04 * analytic_x[i]) << "task " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorXRecursionTest,
                         ::testing::Range<std::uint64_t>(1, 7));

}  // namespace
}  // namespace mf::sim
