// Tests for the failure-regime table (exp/scenario_registry.hpp): the
// sorted ids, deterministic generation per id, the paired base instance
// across failure regimes, "iid" bit-compatibility with the legacy
// generator, and per-scenario sweeps through the runner.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/digest.hpp"
#include "exp/figures.hpp"
#include "exp/method.hpp"
#include "exp/runner.hpp"
#include "exp/scenario_registry.hpp"

namespace mf::exp {
namespace {

Scenario small_scenario() {
  Scenario scenario;
  scenario.tasks = 12;
  scenario.machines = 5;
  scenario.types = 3;
  return scenario;
}

TEST(ScenarioRegistry, BuiltinsAreRegistered) {
  const std::vector<std::string> expected{"correlated", "downtime", "iid", "time-varying"};
  EXPECT_EQ(scenario_ids(), expected);
  for (const std::string& id : scenario_ids()) {
    EXPECT_FALSE(scenario_description(id).empty()) << id;
    EXPECT_EQ(generate_instance(id, small_scenario(), 1).model->id(), id);
  }
}

TEST(ScenarioRegistry, ResolveUnknownListsTheRegisteredIds) {
  const std::string expected =
      "unknown scenario 'nope'; available scenarios: correlated, downtime, iid, time-varying";
  const auto message_of = [](const auto& lookup) -> std::string {
    try {
      lookup();
    } catch (const std::invalid_argument& error) {
      return error.what();
    }
    return "no exception";
  };
  EXPECT_EQ(message_of([] { (void)scenario_description("nope"); }), expected);
  EXPECT_EQ(message_of([] { (void)generate_instance("nope", small_scenario(), 1); }), expected);
}

TEST(ScenarioRegistry, IidInstanceIsBitIdenticalToLegacyGenerate) {
  const Scenario scenario = small_scenario();
  const Instance instance = generate_instance("iid", scenario, 77);
  const core::Problem legacy = generate(scenario, 77);
  EXPECT_EQ(core::digest(*instance.problem), core::digest(legacy));
  // The identity model does not re-materialize matrices: solvers see the
  // very same problem object, and the content digest is the plain digest.
  EXPECT_TRUE(instance.model_is_identity());
  EXPECT_EQ(instance.problem.get(), instance.effective.get());
  EXPECT_EQ(instance.content_digest(), core::digest(legacy));
}

TEST(ScenarioRegistry, InstancesMatchPreTableCapture) {
  // Every regime's instances at three seeds, pinned: a change to any
  // regime's draws (base problem or model parameters) moves a row, and
  // with it every cache key and figure of that regime.
  struct Row {
    const char* id;
    std::uint64_t seed;
    const char* content;
    const char* effective;
  };
  const Row rows[] = {
      {"correlated", 1, "05c831720e82014e1827272ca2488ac5", "3e02f79f8a182eab77c39ec20fe85242"},
      {"correlated", 77, "6da2b738e51508f12f57dbf9f6004192", "6eee51803b4d724ab526b81bb1b36883"},
      {"correlated", 123456789, "57385086947b765753e3e5687722e768",
       "a464c9538dd75e40845b9e88097418f1"},
      {"downtime", 1, "3bb264de20bdad2e03861574e500a6f7", "8f1014feddf3c1ece635ab736530d175"},
      {"downtime", 77, "e24f23ddb05c1d5b661ece383424a982", "a3a4965a0c2254067608a596787f3b0f"},
      {"downtime", 123456789, "2d62fee15cde071b57589453c93c2236",
       "518bd9652ac1b512e3677e9235a2bcaf"},
      {"iid", 1, "2819f02b0f255969d7004c0dc4ec98e8", "2819f02b0f255969d7004c0dc4ec98e8"},
      {"iid", 77, "958660c2295996cee9de81dfae4e0e47", "958660c2295996cee9de81dfae4e0e47"},
      {"iid", 123456789, "dabfdda3ef91df535a9e9c66d35eeafe", "dabfdda3ef91df535a9e9c66d35eeafe"},
      {"time-varying", 1, "823fad1ab4f9635b9d2b4c23433eb652",
       "627b048f74767d35fb246f54233ea3b8"},
      {"time-varying", 77, "a8ecd7a29b6d7ac9c9abf1b3587df3e8",
       "722759fba5663f66d5fe0bc543bbdd4f"},
      {"time-varying", 123456789, "010447f1e1b385a7cf6a4bb1aaf45902",
       "1f6d25777ca9952d059abbf43fc176b4"},
  };
  const Scenario scenario = small_scenario();
  for (const Row& row : rows) {
    const Instance instance = generate_instance(row.id, scenario, row.seed);
    EXPECT_EQ(core::to_string(instance.content_digest()), row.content)
        << row.id << " seed " << row.seed;
    EXPECT_EQ(core::to_string(core::digest(*instance.effective)), row.effective)
        << row.id << " seed " << row.seed;
  }
}

TEST(ScenarioRegistry, GenerationIsDeterministicPerId) {
  const Scenario scenario = small_scenario();
  for (const std::string& id : scenario_ids()) {
    const Instance a = generate_instance(id, scenario, 123);
    const Instance b = generate_instance(id, scenario, 123);
    EXPECT_EQ(a.content_digest(), b.content_digest()) << id;
    EXPECT_EQ(core::digest(*a.effective), core::digest(*b.effective)) << id;
    const Instance c = generate_instance(id, scenario, 124);
    EXPECT_NE(c.content_digest(), a.content_digest()) << id;
  }
}

TEST(ScenarioRegistry, AllScenariosShareOnePairedBaseInstance) {
  // Every regime draws the base problem from the same (scenario, seed)
  // stream, so failure regimes are compared on identical factories — the
  // cross-scenario analogue of the paper's paired design across methods.
  const Scenario scenario = small_scenario();
  const core::Digest base = core::digest(*generate_instance("iid", scenario, 9).problem);
  for (const std::string& id : scenario_ids()) {
    const Instance instance = generate_instance(id, scenario, 9);
    EXPECT_EQ(core::digest(*instance.problem), base) << id;
  }
}

TEST(ScenarioRegistry, NonIidModelsTransformTheEffectiveProblem) {
  const Scenario scenario = small_scenario();
  for (const std::string& id : scenario_ids()) {
    if (id == "iid") continue;
    const Instance instance = generate_instance(id, scenario, 5);
    EXPECT_FALSE(instance.model_is_identity()) << id;
    EXPECT_NE(core::digest(*instance.effective), core::digest(*instance.problem)) << id;
    EXPECT_NE(instance.content_digest(), core::digest(*instance.problem)) << id;
    EXPECT_EQ(instance.model->id(), id);
  }
}

TEST(ScenarioRegistry, SweepRunsUnderEveryScenario) {
  for (const std::string& id : scenario_ids()) {
    SweepSpec spec;
    spec.name = "tiny-" + id;
    spec.scenario_id = id;
    spec.base.machines = 4;
    spec.base.types = 2;
    spec.values = {6, 8};
    spec.methods = heuristic_methods({"H2", "H4w"});
    spec.trials = 4;
    spec.max_trials = 4;
    spec.base_seed = 321;
    const SweepResult result = run_sweep(spec);
    ASSERT_EQ(result.points.size(), 2u) << id;
    for (const PointResult& point : result.points) {
      EXPECT_EQ(point.successes, 4u) << id;
      for (const auto& [name, summary] : point.period_by_method) {
        EXPECT_GT(summary.mean, 0.0) << id << "/" << name;
      }
    }
  }
}

TEST(ScenarioRegistry, HarsherRegimesRaiseTheRecordedPeriods) {
  // Same base instances, same methods, same seeds — only the failure regime
  // changes. Downtime inflates every effective w, so the recorded mean
  // period must exceed iid's on every point (correlated adds shocks on top
  // of the base rates, same direction).
  auto sweep_for = [](const std::string& id) {
    SweepSpec spec;
    spec.name = "cmp-" + id;
    spec.scenario_id = id;
    spec.base.machines = 4;
    spec.base.types = 2;
    spec.values = {10};
    spec.methods = heuristic_methods({"H4w"});
    spec.trials = 6;
    spec.max_trials = 6;
    spec.base_seed = 654;
    return run_sweep(spec).points[0].period_by_method.at("H4w").mean;
  };
  const double iid = sweep_for("iid");
  EXPECT_GT(sweep_for("downtime"), iid);
  EXPECT_GT(sweep_for("correlated"), iid);
}

TEST(ScenarioRegistry, RunSweepRejectsUnknownScenarioIds) {
  SweepSpec spec;
  spec.name = "bad";
  spec.scenario_id = "nope";
  spec.base.machines = 4;
  spec.base.types = 2;
  spec.values = {6};
  spec.methods = heuristic_methods({"H2"});
  spec.trials = 1;
  spec.max_trials = 1;
  EXPECT_THROW((void)run_sweep(spec), std::invalid_argument);
}

TEST(ScenarioRegistry, ScenarioFigureSpecsAreRegistered) {
  for (const std::string& name : {"scn-correlated", "scn-time-varying", "scn-downtime"}) {
    const auto spec = figure_spec_by_name(name);
    ASSERT_TRUE(spec.has_value()) << name;
    EXPECT_EQ("scn-" + spec->scenario_id, name);
    EXPECT_NO_THROW((void)scenario_description(spec->scenario_id)) << name;
  }
}

}  // namespace
}  // namespace mf::exp
