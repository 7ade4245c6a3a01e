// Determinism tests for the discrete-event simulator: every
// (seed, scenario family, topology) produces a bit-identical
// SimulationReport and event trace across repeated runs — the property the
// statistical gates, the result cache and CI reproducibility all lean on —
// plus pinned-seed golden traces for a correlated and a downtime scenario
// that pin the exact event sequence, not just the aggregates.
#include <gtest/gtest.h>

#include <algorithm>
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
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Families, SimDeterminism,
    ::testing::Values(Case{"iid", false}, Case{"iid", true}, Case{"correlated", false},
                      Case{"correlated", true}, Case{"time-varying", false},
                      Case{"time-varying", true}, Case{"downtime", false},
                      Case{"downtime", true}),
    case_name);

/// Stronger than report equality: the full event trace (every kind, time,
/// task and machine) of a chain campaign must repeat exactly. One case per
/// failure regime, so the downtime case also covers the fail/repair events
/// and the phase substream at trace level.
class SimTraceDeterminism : public ::testing::TestWithParam<std::string> {};

TEST_P(SimTraceDeterminism, TraceIsBitIdenticalAcrossRuns) {
  exp::Scenario scenario;
  scenario.tasks = 8;
  scenario.machines = 4;
  scenario.types = 2;
  const exp::Instance instance = exp::generate_instance(GetParam(), scenario, 3);
  support::Rng rng(3);
  const auto mapping =
      heuristics::heuristic_by_name("H4w")->run(*instance.effective, rng);
  ASSERT_TRUE(mapping.has_value());

  SimulationConfig config;
  config.seed = 7;
  config.target_outputs = 300;
  config.warmup_outputs = 30;
  config.failure_model = instance.model.get();
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
  const bool has_phases = instance.model->downtime(0).mean_uptime_ms > 0.0;
  const bool traced_phases =
      std::any_of(first.begin(), first.end(), [](const TraceEvent& event) {
        return event.kind == TraceEvent::Kind::kMachineFail;
      });
  EXPECT_EQ(traced_phases, has_phases) << "fail/repair events appear exactly under downtime";
}

std::string regime_name(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Regimes, SimTraceDeterminism,
                         ::testing::ValuesIn(exp::scenario_ids()), regime_name);

/// One expected trace event; the golden tests compare a trace's head row by
/// row.
struct Expected {
  TraceEvent::Kind kind;
  double time;
  core::TaskIndex task;
  core::MachineIndex machine;
};

void expect_trace_rows(const std::vector<TraceEvent>& trace, std::size_t first,
                       const std::vector<Expected>& rows) {
  ASSERT_GE(trace.size(), first + rows.size());
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const TraceEvent& event = trace[first + k];
    EXPECT_EQ(event.kind, rows[k].kind) << "event " << first + k;
    EXPECT_DOUBLE_EQ(event.time, rows[k].time) << "event " << first + k;
    EXPECT_EQ(event.task, rows[k].task) << "event " << first + k;
    EXPECT_EQ(event.machine, rows[k].machine) << "event " << first + k;
  }
}

/// The golden scenarios' line: a two-task chain, w = 100 ms everywhere, no
/// base losses, task i mapped on machine i.
Problem golden_chain() {
  core::Application app = core::Application::linear_chain({0, 1});
  core::Platform platform =
      test::make_platform({{100.0, 100.0}, {100.0, 100.0}}, {{0.0, 0.0}, {0.0, 0.0}});
  return Problem{std::move(app), std::move(platform)};
}

SimulationConfig golden_config(const core::FailureModel& model) {
  SimulationConfig config;
  config.seed = 1234;
  config.target_outputs = 50;
  config.warmup_outputs = 5;
  config.failure_model = &model;
  return config;
}

using Kind = TraceEvent::Kind;

TEST(SimDeterminism, GoldenTraceForPinnedCorrelatedScenario) {
  // Golden trace at a pinned seed: a 20% machine shock on both machines,
  // sampled as one loss coin per attempt. Pins the loss-coin substream,
  // event order and FIFO tie-breaking: any change to them shows up here as
  // a diff, not a statistical drift. (Regenerate by printing on change;
  // any diff is a determinism break or an intentional semantic change that
  // must be called out in review.)
  const Problem problem = golden_chain();
  const Mapping mapping{{0, 1}};
  const core::CorrelatedFailureModel model({0.2, 0.2});

  std::vector<TraceEvent> trace;
  const SimulationReport report =
      Simulator(problem, mapping).run(golden_config(model), [&](const TraceEvent& e) {
        trace.push_back(e);
      });
  ASSERT_TRUE(report.reached_target);

  EXPECT_EQ(report.finished_products, 50u);
  EXPECT_EQ(report.events_processed, 131u);
  EXPECT_EQ(report.per_task[0].attempts, 75u);
  EXPECT_EQ(report.per_task[0].losses, 17u);
  EXPECT_EQ(report.per_task[1].attempts, 57u);
  EXPECT_EQ(report.per_task[1].losses, 7u);
  EXPECT_EQ(report.machine_failures, 0u);
  EXPECT_DOUBLE_EQ(report.end_time, 7500.0);
  EXPECT_DOUBLE_EQ(report.measured_period, 6900.0 / 45.0);
  EXPECT_EQ(trace.size(), 313u);

  // Machine 0 starts at t=0; each completion hands the product on and the
  // machine restarts at the same instant, in push order.
  expect_trace_rows(trace, 0,
                    {{Kind::kStart, 0.0, 0, 0},
                     {Kind::kSuccess, 100.0, 0, 0},
                     {Kind::kStart, 100.0, 1, 1},
                     {Kind::kStart, 100.0, 0, 0},
                     {Kind::kSuccess, 200.0, 1, 1},
                     {Kind::kOutput, 200.0, 1, 1},
                     {Kind::kSuccess, 200.0, 0, 0},
                     {Kind::kStart, 200.0, 1, 1},
                     {Kind::kStart, 200.0, 0, 0}});
  // The first loss coins to come up: both attempts that complete at t=700.
  expect_trace_rows(trace, 29,
                    {{Kind::kLoss, 700.0, 1, 1},
                     {Kind::kLoss, 700.0, 0, 0},
                     {Kind::kStart, 700.0, 0, 0}});
  expect_trace_rows(trace, 37, {{Kind::kLoss, 900.0, 0, 0}});
}

TEST(SimDeterminism, GoldenTraceForPinnedDowntimeScenario) {
  // Golden trace at a pinned seed under short up/repair phases (mean 150 /
  // 50 ms against 100 ms attempts), so breakdowns and repairs interleave
  // with attempts from the first events on. Pins the phase substream: an
  // idle machine breaking down on time, a busy one deferring its repair,
  // and a repaired machine starting its waiting product at once.
  const Problem problem = golden_chain();
  const Mapping mapping{{0, 1}};
  const core::DowntimeFailureModel model({150.0, 150.0}, {50.0, 50.0});

  std::vector<TraceEvent> trace;
  const SimulationReport report =
      Simulator(problem, mapping).run(golden_config(model), [&](const TraceEvent& e) {
        trace.push_back(e);
      });
  ASSERT_TRUE(report.reached_target);

  EXPECT_EQ(report.finished_products, 50u);
  EXPECT_EQ(report.events_processed, 186u);
  EXPECT_EQ(report.machine_failures, 43u);
  EXPECT_EQ(report.machine_repairs, 42u);
  EXPECT_EQ(report.per_task[0].attempts, 51u);
  EXPECT_EQ(report.per_task[0].losses, 0u);
  EXPECT_EQ(report.per_task[1].attempts, 50u);
  EXPECT_EQ(report.per_task[1].losses, 0u);
  EXPECT_DOUBLE_EQ(report.end_time, 0x1.728b6d332cf1fp+12);
  EXPECT_DOUBLE_EQ(report.machine_down_time[0], 948.87680116957927);
  EXPECT_DOUBLE_EQ(report.machine_down_time[1], 721.85640041099464);
  EXPECT_EQ(trace.size(), 337u);

  const core::TaskIndex none = core::kNoTask;
  expect_trace_rows(trace, 0,
                    {{Kind::kStart, 0.0, 0, 0},
                     {Kind::kMachineFail, 0x1.5b7bb79fbef41p+4, none, 1},
                     {Kind::kMachineRepair, 0x1.c909e6e7dd4f8p+4, none, 1},
                     {Kind::kMachineFail, 0x1.38ffe8a0653c6p+6, none, 1},
                     {Kind::kSuccess, 100.0, 0, 0},
                     {Kind::kStart, 100.0, 0, 0},
                     {Kind::kMachineRepair, 0x1.a056487047eaep+6, none, 1},
                     {Kind::kStart, 0x1.a056487047eaep+6, 1, 1},
                     {Kind::kSuccess, 200.0, 0, 0},
                     {Kind::kStart, 200.0, 0, 0},
                     {Kind::kSuccess, 0x1.982b243823f57p+7, 1, 1},
                     {Kind::kOutput, 0x1.982b243823f57p+7, 1, 1},
                     {Kind::kStart, 0x1.982b243823f57p+7, 1, 1}});
}

}  // namespace
}  // namespace mf::sim
