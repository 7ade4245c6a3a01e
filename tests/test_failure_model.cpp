// Tests for the pluggable failure models (core/failure_model.hpp): the
// effective-rate arithmetic of each built-in model, the model-extended
// digest, and — the load-bearing part — Monte-Carlo agreement between the
// discrete-event simulator sampling a model and the model's analytic
// period reduction.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/evaluation.hpp"
#include "core/failure_model.hpp"
#include "exp/scenario.hpp"
#include "exp/scenario_registry.hpp"
#include "sim/simulator.hpp"
#include "solve/solver.hpp"
#include "support/matrix.hpp"

namespace mf::core {
namespace {

Problem tiny_problem() {
  Application app = Application::linear_chain({0, 1});
  support::Matrix w(2, 2);
  w.at(0, 0) = 100.0;
  w.at(0, 1) = 200.0;
  w.at(1, 0) = 300.0;
  w.at(1, 1) = 400.0;
  support::Matrix f(2, 2);
  f.at(0, 0) = 0.01;
  f.at(0, 1) = 0.02;
  f.at(1, 0) = 0.05;
  f.at(1, 1) = 0.10;
  return Problem{std::move(app), Platform{std::move(w), std::move(f)}};
}

TEST(FailureModel, IidIsTheIdentity) {
  const Problem problem = tiny_problem();
  const IidFailureModel model;
  EXPECT_TRUE(model.is_identity());
  for (TaskIndex i = 0; i < 2; ++i) {
    for (MachineIndex u = 0; u < 2; ++u) {
      EXPECT_DOUBLE_EQ(model.effective_failure(problem, i, u), problem.platform.failure(i, u));
      EXPECT_DOUBLE_EQ(model.effective_time(problem, i, u), problem.platform.time(i, u));
      EXPECT_DOUBLE_EQ(model.loss_probability(problem, i, u, 12345.0),
                       problem.platform.failure(i, u));
    }
  }
  // The identity model keeps the plain problem digest — scenario "iid"
  // instances stay content-addressed exactly as before the registry.
  EXPECT_EQ(digest(problem, model), digest(problem));
}

TEST(FailureModel, CorrelatedCombinesTaskAndMachineShock) {
  const Problem problem = tiny_problem();
  const CorrelatedFailureModel model({0.10, 0.0});
  // Machine 0: independent task failure and machine shock compose.
  EXPECT_DOUBLE_EQ(model.effective_failure(problem, 0, 0), 1.0 - (1.0 - 0.01) * 0.90);
  EXPECT_DOUBLE_EQ(model.effective_failure(problem, 1, 0), 1.0 - (1.0 - 0.05) * 0.90);
  // Machine 1: zero shock leaves the base rates untouched (up to the
  // 1-(1-f) round-trip of the composition formula).
  EXPECT_NEAR(model.effective_failure(problem, 0, 1), 0.02, 1e-15);
  // Times are never touched by a rate-only model.
  EXPECT_DOUBLE_EQ(model.effective_time(problem, 1, 1), 400.0);

  const Problem effective = model.effective_problem(problem);
  EXPECT_DOUBLE_EQ(effective.platform.failure(0, 0), 1.0 - (1.0 - 0.01) * 0.90);
  EXPECT_DOUBLE_EQ(effective.platform.time(0, 0), 100.0);
}

TEST(FailureModel, TimeVaryingPlansForTheWorstWindow) {
  const Problem problem = tiny_problem();
  const TimeVaryingFailureModel model({0.5, 2.0, 1.0}, 1000.0);
  // Static planning assumes the worst factor.
  EXPECT_DOUBLE_EQ(model.effective_failure(problem, 0, 0), 0.01 * 2.0);
  // The sampled rate follows the cycling windows by start time.
  EXPECT_DOUBLE_EQ(model.factor_at(0.0), 0.5);
  EXPECT_DOUBLE_EQ(model.factor_at(1500.0), 2.0);
  EXPECT_DOUBLE_EQ(model.factor_at(2500.0), 1.0);
  EXPECT_DOUBLE_EQ(model.factor_at(3500.0), 0.5);  // next cycle
  EXPECT_DOUBLE_EQ(model.loss_probability(problem, 0, 0, 1500.0), 0.02);
}

TEST(FailureModel, TimeVaryingPeriodCombinesWindowsHarmonically) {
  // One task on one machine: P_k = w / (1 - f_k), and the cycle yields
  // window_ms / P_k products per window.
  Application app = Application::linear_chain({0});
  support::Matrix w(1, 1);
  w.at(0, 0) = 100.0;
  support::Matrix f(1, 1);
  f.at(0, 0) = 0.10;
  const Problem problem{std::move(app), Platform{std::move(w), std::move(f)}};
  const TimeVaryingFailureModel model({1.0, 5.0}, 1000.0);
  const Mapping mapping{std::vector<MachineIndex>{0}};
  const Problem effective = model.effective_problem(problem);
  const double p0 = 100.0 / (1.0 - 0.10);
  const double p1 = 100.0 / (1.0 - 0.50);
  const double expected = 2000.0 / (1000.0 / p0 + 1000.0 / p1);
  EXPECT_NEAR(model.period(problem, effective, mapping), expected, 1e-9);
  // The conservative static plan (worst window everywhere) is an upper
  // bound on the model period.
  EXPECT_GE(core::period(effective, mapping), model.period(problem, effective, mapping));
}

TEST(FailureModel, DowntimeInflatesEffectiveTimesByAvailability) {
  const Problem problem = tiny_problem();
  const DowntimeFailureModel model({9000.0, 5000.0}, {1000.0, 0.0});
  EXPECT_DOUBLE_EQ(model.availability(0), 0.9);
  EXPECT_DOUBLE_EQ(model.availability(1), 1.0);
  EXPECT_DOUBLE_EQ(model.effective_time(problem, 0, 0), 100.0 / 0.9);
  EXPECT_DOUBLE_EQ(model.effective_time(problem, 0, 1), 200.0);
  // Repairs stall the line but never destroy products.
  EXPECT_DOUBLE_EQ(model.effective_failure(problem, 1, 0), 0.05);
  EXPECT_DOUBLE_EQ(model.downtime(0).mean_uptime_ms, 9000.0);
  EXPECT_DOUBLE_EQ(model.downtime(1).mean_repair_ms, 0.0);
}

TEST(FailureModel, EffectiveRatesStayBelowOneUnderExtremeModulation) {
  const Problem problem = tiny_problem();
  const TimeVaryingFailureModel model({1e9}, 1000.0);
  for (TaskIndex i = 0; i < 2; ++i) {
    for (MachineIndex u = 0; u < 2; ++u) {
      EXPECT_LT(model.effective_failure(problem, i, u), 1.0);
    }
  }
  // The clamped effective problem still passes Platform validation.
  EXPECT_NO_THROW((void)model.effective_problem(problem));
}

TEST(FailureModel, DigestCoversModelParameters) {
  const Problem problem = tiny_problem();
  const CorrelatedFailureModel a({0.10, 0.0});
  const CorrelatedFailureModel b({0.10, 0.0});
  const CorrelatedFailureModel c({0.10, 0.001});
  EXPECT_EQ(digest(problem, a), digest(problem, b));
  EXPECT_NE(digest(problem, a), digest(problem, c));
  EXPECT_NE(digest(problem, a), digest(problem)) << "model parameters must be covered";
  // Different model families never collide, even with equal parameters.
  const TimeVaryingFailureModel tv({0.10, 0.0}, 1000.0);
  EXPECT_NE(digest(problem, a), digest(problem, tv));
}

TEST(FailureModel, ConstructorsValidateParameters) {
  EXPECT_THROW(CorrelatedFailureModel({}), std::invalid_argument);
  EXPECT_THROW(CorrelatedFailureModel({1.0}), std::invalid_argument);
  EXPECT_THROW(TimeVaryingFailureModel({}, 1000.0), std::invalid_argument);
  EXPECT_THROW(TimeVaryingFailureModel({1.0}, 0.0), std::invalid_argument);
  EXPECT_THROW(TimeVaryingFailureModel({-1.0}, 1000.0), std::invalid_argument);
  EXPECT_THROW(DowntimeFailureModel({}, {}), std::invalid_argument);
  EXPECT_THROW(DowntimeFailureModel({0.0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(DowntimeFailureModel({1000.0}, {-1.0}), std::invalid_argument);
}

// --- Monte-Carlo agreement: the simulator samples each model and must
// --- reproduce its analytic period reduction.

struct AgreementFixture {
  std::shared_ptr<const core::Problem> problem;
  std::shared_ptr<const core::FailureModel> model;
  std::shared_ptr<const core::Problem> effective;
  Mapping mapping;
  double analytic = 0.0;
};

/// Generates a mid-size chain under `scenario_id`, maps it with H4w on the
/// effective problem (exactly what the sweep runner does), and returns the
/// model's analytic period of that mapping.
AgreementFixture make_fixture(const std::string& scenario_id, exp::Scenario scenario,
                              std::uint64_t seed) {
  scenario.tasks = 8;
  scenario.machines = 4;
  scenario.types = 2;
  const exp::Instance instance = exp::generate_instance(scenario_id, scenario, seed);
  const solve::SolveResult solved = solve::run(*instance.effective, "H4w");
  AgreementFixture fixture;
  fixture.problem = instance.problem;
  fixture.model = instance.model;
  fixture.effective = instance.effective;
  fixture.mapping = *solved.mapping;
  fixture.analytic =
      instance.model->period(*instance.problem, *instance.effective, fixture.mapping);
  return fixture;
}

double simulate_with_model(const AgreementFixture& fixture, std::uint64_t seed,
                           std::uint64_t outputs = 20'000) {
  sim::SimulationConfig config;
  config.seed = seed;
  config.target_outputs = outputs;
  config.warmup_outputs = outputs / 10;
  config.failure_model = fixture.model.get();
  return sim::simulate_period(*fixture.problem, fixture.mapping, config);
}

TEST(FailureModelAgreement, IidModelHookIsBitIdenticalToBaseSampling) {
  const AgreementFixture fixture = make_fixture("iid", exp::Scenario{}, 41);
  sim::SimulationConfig config;
  config.seed = 7;
  config.target_outputs = 5'000;
  config.warmup_outputs = 500;
  const double bare = sim::simulate_period(*fixture.problem, fixture.mapping, config);
  config.failure_model = fixture.model.get();
  const double hooked = sim::simulate_period(*fixture.problem, fixture.mapping, config);
  // Same rates, same RNG stream: the identity model must not perturb a
  // single draw.
  EXPECT_DOUBLE_EQ(bare, hooked);
  EXPECT_NEAR(hooked, fixture.analytic, 0.05 * fixture.analytic);
}

TEST(FailureModelAgreement, CorrelatedSimulationMatchesAnalyticPeriod) {
  exp::Scenario scenario;
  scenario.shock_min = 0.02;
  scenario.shock_max = 0.08;  // strong enough to separate from iid clearly
  const AgreementFixture fixture = make_fixture("correlated", scenario, 42);
  const double measured = simulate_with_model(fixture, 7);
  EXPECT_NEAR(measured, fixture.analytic, 0.10 * fixture.analytic);
  // The shocks must actually bite: the base-rate analytic period is
  // noticeably smaller than the shock-adjusted one.
  EXPECT_GT(fixture.analytic, core::period(*fixture.problem, fixture.mapping) * 1.01);
}

TEST(FailureModelAgreement, TimeVaryingSimulationMatchesHarmonicPeriod) {
  exp::Scenario scenario;
  scenario.window_count = 3;
  scenario.window_ms = 20'000.0;
  scenario.factor_min = 0.5;
  scenario.factor_max = 3.0;
  const AgreementFixture fixture = make_fixture("time-varying", scenario, 43);
  const double measured = simulate_with_model(fixture, 7, 40'000);
  EXPECT_NEAR(measured, fixture.analytic, 0.10 * fixture.analytic);
  // Worst-window planning is conservative: the static effective period
  // bounds the realized one from above.
  EXPECT_LE(fixture.analytic,
            core::period(*fixture.effective, fixture.mapping) * (1.0 + 1e-9));
}

TEST(FailureModelAgreement, DowntimeSimulationMatchesAvailabilityInflation) {
  exp::Scenario scenario;
  scenario.mean_uptime_ms = 40'000.0;
  scenario.mean_repair_ms = 8'000.0;  // availability ~0.83: inflation is visible
  const AgreementFixture fixture = make_fixture("downtime", scenario, 44);
  const double measured = simulate_with_model(fixture, 7, 40'000);
  EXPECT_NEAR(measured, fixture.analytic, 0.12 * fixture.analytic);
  // Repairs must actually stall the line relative to the base problem.
  EXPECT_GT(measured, core::period(*fixture.problem, fixture.mapping) * 1.05);
}

}  // namespace
}  // namespace mf::core
