// Determinism tests for the discrete-event simulator: every
// (seed, scenario family, topology, shock mode) produces a bit-identical
// SimulationReport across repeated runs — the property the statistical
// gates, the result cache and CI reproducibility all lean on — plus a
// pinned-seed golden trace for one common-mode shock scenario that pins the
// exact event sequence, not just the aggregates.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/failure_model.hpp"
#include "exp/scenario.hpp"
#include "exp/scenario_registry.hpp"
#include "heuristics/heuristic.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"
#include "test_helpers.hpp"

namespace mf::sim {
namespace {

using core::Mapping;
using core::Problem;

/// Field-by-field bit equality of two reports (EXPECT_DOUBLE_EQ is bitwise
/// for equal values; NaNs never appear).
void expect_bit_identical(const SimulationReport& a, const SimulationReport& b) {
  EXPECT_EQ(a.reached_target, b.reached_target);
  EXPECT_EQ(a.finished_products, b.finished_products);
  EXPECT_DOUBLE_EQ(a.end_time, b.end_time);
  EXPECT_DOUBLE_EQ(a.measured_period, b.measured_period);
  EXPECT_DOUBLE_EQ(a.measured_throughput, b.measured_throughput);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.machine_failures, b.machine_failures);
  EXPECT_EQ(a.machine_repairs, b.machine_repairs);
  EXPECT_EQ(a.shock_arrivals, b.shock_arrivals);
  EXPECT_EQ(a.shock_losses, b.shock_losses);
  ASSERT_EQ(a.per_task.size(), b.per_task.size());
  for (std::size_t i = 0; i < a.per_task.size(); ++i) {
    EXPECT_EQ(a.per_task[i].attempts, b.per_task[i].attempts);
    EXPECT_EQ(a.per_task[i].successes, b.per_task[i].successes);
    EXPECT_EQ(a.per_task[i].losses, b.per_task[i].losses);
  }
  ASSERT_EQ(a.machine_busy_time.size(), b.machine_busy_time.size());
  for (std::size_t u = 0; u < a.machine_busy_time.size(); ++u) {
    EXPECT_DOUBLE_EQ(a.machine_busy_time[u], b.machine_busy_time[u]);
    EXPECT_DOUBLE_EQ(a.machine_down_time[u], b.machine_down_time[u]);
    EXPECT_DOUBLE_EQ(a.machine_utilization[u], b.machine_utilization[u]);
  }
}

struct Case {
  std::string scenario_id;
  bool in_tree;
  ShockMode shock_mode;
};

class SimDeterminism : public ::testing::TestWithParam<Case> {};

TEST_P(SimDeterminism, ReportsAreBitIdenticalAcrossRuns) {
  const Case& c = GetParam();
  exp::Scenario scenario;
  scenario.tasks = 8;
  scenario.machines = 4;
  scenario.types = 2;
  const exp::Instance instance = exp::generate_instance(c.scenario_id, scenario, 5);
  const Problem problem =
      c.in_tree ? exp::generate_in_tree(scenario, 0.35, 5) : *instance.problem;
  const Problem effective = instance.model->is_identity()
                                ? problem
                                : instance.model->effective_problem(problem);
  support::Rng rng(5);
  const auto mapping = heuristics::heuristic_by_name("H4w")->run(effective, rng);
  ASSERT_TRUE(mapping.has_value());

  SimulationConfig config;
  config.seed = 42;
  config.target_outputs = 2'000;
  config.warmup_outputs = 200;
  config.failure_model = instance.model.get();
  config.shock_mode = c.shock_mode;
  const Simulator simulator(problem, *mapping);
  const SimulationReport first = simulator.run(config);
  const SimulationReport second = simulator.run(config);
  const SimulationReport third = simulator.run(config);
  ASSERT_TRUE(first.reached_target);
  expect_bit_identical(first, second);
  expect_bit_identical(first, third);
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  std::string name = info.param.scenario_id;
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  name += info.param.in_tree ? "_intree" : "_chain";
  if (info.param.shock_mode == ShockMode::kArrivalProcess) name += "_arrival";
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Families, SimDeterminism,
    ::testing::Values(Case{"iid", false, ShockMode::kPerAttempt},
                      Case{"iid", true, ShockMode::kPerAttempt},
                      Case{"correlated", false, ShockMode::kPerAttempt},
                      Case{"correlated", false, ShockMode::kArrivalProcess},
                      Case{"correlated", true, ShockMode::kArrivalProcess},
                      Case{"time-varying", false, ShockMode::kPerAttempt},
                      Case{"time-varying", true, ShockMode::kPerAttempt},
                      Case{"downtime", false, ShockMode::kPerAttempt},
                      Case{"downtime", true, ShockMode::kPerAttempt}),
    case_name);

TEST(SimDeterminism, TraceIsBitIdenticalAcrossRuns) {
  // Stronger than report equality: the full event trace — every kind, time,
  // task and machine — must repeat exactly.
  exp::Scenario scenario;
  scenario.tasks = 8;
  scenario.machines = 4;
  scenario.types = 2;
  const exp::Instance instance = exp::generate_instance("correlated", scenario, 3);
  support::Rng rng(3);
  const auto mapping =
      heuristics::heuristic_by_name("H4w")->run(*instance.effective, rng);
  ASSERT_TRUE(mapping.has_value());

  SimulationConfig config;
  config.seed = 7;
  config.target_outputs = 300;
  config.warmup_outputs = 30;
  config.failure_model = instance.model.get();
  config.shock_mode = ShockMode::kArrivalProcess;
  const Simulator simulator(*instance.problem, *mapping);
  auto record = [&] {
    std::vector<TraceEvent> trace;
    (void)simulator.run(config, [&](const TraceEvent& event) { trace.push_back(event); });
    return trace;
  };
  const std::vector<TraceEvent> first = record();
  const std::vector<TraceEvent> second = record();
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t k = 0; k < first.size(); ++k) {
    EXPECT_EQ(first[k].kind, second[k].kind) << "event " << k;
    EXPECT_DOUBLE_EQ(first[k].time, second[k].time) << "event " << k;
    EXPECT_EQ(first[k].task, second[k].task) << "event " << k;
    EXPECT_EQ(first[k].machine, second[k].machine) << "event " << k;
  }
}

TEST(SimDeterminism, GoldenTraceForPinnedShockScenario) {
  // Golden trace: a tiny two-task chain under a large common-mode shock at
  // a pinned seed. Pins the exact head of the event sequence — any change
  // to RNG substream assignment, event ordering, FIFO tie-breaking or the
  // shock calibration shows up here as a diff, not a statistical drift.
  core::Application app = core::Application::linear_chain({0, 1});
  core::Platform platform =
      test::make_platform({{100.0, 100.0}, {100.0, 100.0}}, {{0.0, 0.0}, {0.0, 0.0}});
  const Problem problem{std::move(app), std::move(platform)};
  const Mapping mapping{{0, 1}};
  const core::CorrelatedFailureModel model({0.2, 0.2});

  SimulationConfig config;
  config.seed = 1234;
  config.target_outputs = 50;
  config.warmup_outputs = 5;
  config.failure_model = &model;
  config.shock_mode = ShockMode::kArrivalProcess;

  std::vector<TraceEvent> trace;
  const SimulationReport report = Simulator(problem, mapping).run(config, [&](const TraceEvent& e) {
    trace.push_back(e);
  });
  ASSERT_TRUE(report.reached_target);

  // Aggregates pinned for seed 1234 (regenerate by printing on change —
  // any diff here is a determinism break or an intentional semantic change
  // that must be called out in review).
  EXPECT_EQ(report.finished_products, 50u);
  EXPECT_EQ(report.events_processed, 168u);
  EXPECT_EQ(report.shock_arrivals, 18u);
  EXPECT_EQ(report.shock_losses, 34u);
  EXPECT_EQ(report.per_task[0].attempts, 85u);
  EXPECT_EQ(report.per_task[1].attempts, 66u);
  EXPECT_DOUBLE_EQ(report.end_time, 8500.0);

  // The exact head of the trace at this seed: machine 0 starts at t=0; the
  // first shock tick lands mid-attempt and dooms it, so the first
  // completion at t=100 is a kLoss; the retry starts immediately.
  ASSERT_GE(trace.size(), 5u);
  EXPECT_EQ(trace[0].kind, TraceEvent::Kind::kStart);
  EXPECT_DOUBLE_EQ(trace[0].time, 0.0);
  EXPECT_EQ(trace[0].task, 0u);
  EXPECT_EQ(trace[0].machine, 0u);
  EXPECT_EQ(trace[1].kind, TraceEvent::Kind::kShock);
  EXPECT_EQ(trace[1].machine, kNoMachineTrace);
  EXPECT_GT(trace[1].time, 0.0);
  EXPECT_LT(trace[1].time, 100.0);
  EXPECT_EQ(trace[2].kind, TraceEvent::Kind::kLoss);
  EXPECT_DOUBLE_EQ(trace[2].time, 100.0);
  EXPECT_EQ(trace[2].task, 0u);
  EXPECT_EQ(trace[3].kind, TraceEvent::Kind::kStart);
  EXPECT_DOUBLE_EQ(trace[3].time, 100.0);
  EXPECT_EQ(trace[4].kind, TraceEvent::Kind::kSuccess);
  EXPECT_DOUBLE_EQ(trace[4].time, 200.0);
}

}  // namespace
}  // namespace mf::sim
