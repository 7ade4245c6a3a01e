// Tests for the sweep runner and figure specifications: paired trials,
// aggregation, failure protocol, waves (one solve_all per protocol round
// across points, under a cap on cells), tables/charts/ratios, and that each
// figure spec encodes the paper's parameters.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <vector>

#include "core/evaluation.hpp"
#include "exp/figures.hpp"
#include "exp/method.hpp"
#include "exp/runner.hpp"
#include "solve/adapters.hpp"
#include "solve/registry.hpp"
#include "solve/service.hpp"
#include "sweep_helpers.hpp"

namespace mf::exp {
namespace {

SweepSpec tiny_spec() {
  SweepSpec spec;
  spec.name = "tiny";
  spec.base.machines = 4;
  spec.base.types = 2;
  spec.variable = SweepVariable::kTasks;
  spec.values = {4, 6};
  spec.methods = heuristic_methods({"H2", "H4w"});
  spec.trials = 5;
  spec.max_trials = 5;
  spec.base_seed = 99;
  return spec;
}

TEST(Runner, ProducesOnePointPerValue) {
  const SweepResult result = run_sweep(tiny_spec());
  ASSERT_EQ(result.points.size(), 2u);
  EXPECT_EQ(result.points[0].sweep_value, 4u);
  EXPECT_EQ(result.points[1].sweep_value, 6u);
  for (const PointResult& point : result.points) {
    EXPECT_EQ(point.successes, 5u);
    for (const auto& [name, summary] : point.period_by_method) {
      EXPECT_EQ(summary.count, 5u) << name;
      EXPECT_GT(summary.mean, 0.0) << name;
    }
  }
}

TEST(Runner, DeterministicAcrossRuns) {
  test::expect_identical(run_sweep(test::flaky_spec()), run_sweep(test::flaky_spec()));
}

TEST(Runner, ParallelMatchesSerial) {
  const SweepResult serial = run_sweep(test::flaky_spec());
  support::ThreadPool pool(4);
  test::expect_identical(serial, run_sweep(test::flaky_spec(), &pool));
}

TEST(Runner, OneBarrierPerProtocolRound) {
  // Round r of every unfinished point goes to one solve_all, so a sweep
  // waits at as many barriers as its longest point has rounds.
  const SweepSpec spec = test::flaky_spec();
  solve::SolveService service;
  test::CountingExecutor counting(service);
  SweepOptions options;
  options.executor = &counting;
  const SweepResult waves = run_sweep(spec, options);

  // Each point's rounds, replayed over the merged shards' outcomes: round 0
  // draws `trials`, each later one the missing successes, up to max_trials.
  const std::vector<SweepResult> shards = test::run_shards(spec, 3);
  std::size_t longest = 0;
  std::size_t total = 0;
  for (std::size_t p = 0; p < spec.values.size(); ++p) {
    std::map<std::size_t, TrialOutcome> outcomes;
    for (const SweepResult& shard : shards) {
      outcomes.insert(shard.points[p].trial_outcomes.begin(),
                      shard.points[p].trial_outcomes.end());
    }
    ASSERT_EQ(outcomes.size(), spec.max_trials);
    std::size_t drawn = 0;
    std::size_t successes = 0;
    std::size_t rounds = 0;
    for (std::size_t round = spec.trials; round > 0;) {
      ++rounds;
      for (const std::size_t end = drawn + round; drawn < end; ++drawn) {
        successes += outcomes.at(drawn).success ? 1 : 0;
      }
      round = successes >= spec.trials
                  ? 0
                  : std::min(spec.trials - successes, spec.max_trials - drawn);
    }
    longest = std::max(longest, rounds);
    total += rounds;
  }
  EXPECT_GT(longest, 1u) << "fixture never exercised the retry protocol";
  EXPECT_EQ(counting.calls.size(), longest) << total << " rounds over all points";
  test::expect_identical(merge(shards), waves);
}

TEST(Runner, WavesStayWithinTheCellCap) {
  // Each point's one round holds 50 instances of 128 x 64 = 409,600
  // w-matrix cells. A wave takes whole rounds while it holds at most 2^20
  // cells, so two rounds share a call and a third does not fit.
  constexpr std::size_t kWaveCells = std::size_t{1} << 20;
  SweepSpec spec;
  spec.name = "wide";
  spec.base.tasks = 128;
  spec.base.machines = 64;
  spec.variable = SweepVariable::kTypes;
  spec.values = {2, 3, 4, 5};
  spec.methods = heuristic_methods({"H4w"});
  spec.trials = 50;
  spec.max_trials = 50;
  spec.base_seed = 7;
  solve::SolveService service;
  test::CountingExecutor counting(service);
  SweepOptions options;
  options.executor = &counting;
  const SweepResult result = run_sweep(spec, options);

  EXPECT_LT(counting.calls.size(), spec.values.size());
  for (const auto& call : counting.calls) {
    std::set<std::size_t> rounds;  // the points differ in p, one round each
    std::size_t cells = 0;
    for (const test::CountingExecutor::Shape& shape : call) {
      rounds.insert(shape.types);
      cells += shape.tasks * shape.machines;
    }
    cells /= spec.methods.size();
    EXPECT_TRUE(cells <= kWaveCells || rounds.size() == 1)
        << cells << " cells in " << rounds.size() << " rounds";
  }
  for (const PointResult& point : result.points) EXPECT_EQ(point.successes, 50u);
}

TEST(Runner, PairedDesignGivesIdenticalPeriodsForIdenticalMethods) {
  SweepSpec spec = tiny_spec();
  // The same deterministic heuristic twice under different names: with a
  // paired design both columns must agree exactly on every point.
  spec.methods = heuristic_methods({"H4w"});
  spec.methods.push_back(method_for("H4w", "H4w-clone"));
  const SweepResult result = run_sweep(spec);
  for (const PointResult& point : result.points) {
    EXPECT_DOUBLE_EQ(point.period_by_method.at("H4w").mean,
                     point.period_by_method.at("H4w-clone").mean);
  }
}

TEST(Runner, FailingMethodTriggersRetryProtocol) {
  SweepSpec spec = tiny_spec();
  spec.trials = 3;
  spec.max_trials = 9;
  // A method that fails on every instance: no successes, attempts maxed.
  // Registered through the solver registry like any other method, which
  // doubles as a check that runtime-registered solvers are sweepable.
  auto& registry = solve::SolverRegistry::instance();
  if (!registry.contains("never")) {
    registry.register_solver(solve::make_function_solver(
        "never", "test solver that always reports infeasible",
        [](const core::Problem&, const solve::SolveParams&) { return solve::SolveResult{}; }));
  }
  spec.methods.push_back(method_for("never"));
  const SweepResult result = run_sweep(spec);
  for (const PointResult& point : result.points) {
    EXPECT_EQ(point.successes, 0u);
    EXPECT_EQ(point.attempts, 9u);
  }
}

TEST(Runner, TableAndChartRender) {
  const SweepResult result = run_sweep(tiny_spec());
  const support::Table table = result.to_table();
  EXPECT_EQ(table.rows(), 2u);
  const std::string chart = result.to_chart();
  EXPECT_NE(chart.find("H2"), std::string::npos);
  EXPECT_NE(chart.find("H4w"), std::string::npos);
}

TEST(Runner, RatiosAgainstReference) {
  SweepSpec spec = tiny_spec();
  spec.methods = heuristic_methods({"H1", "H4w"});
  const SweepResult result = run_sweep(spec);
  const auto ratios = result.mean_ratio_to("H4w");
  ASSERT_TRUE(ratios.count("H1"));
  EXPECT_GT(ratios.at("H1"), 1.0) << "H1 should be worse than H4w on average";
}

/// A per-point summary that counted trials at the given mean period.
support::Summary counted(double mean) {
  support::Summary summary;
  summary.count = 3;
  summary.mean = mean;
  return summary;
}

TEST(Runner, RatioTableSkipsPointsWithoutReferenceAndMarksEmptyCells) {
  SweepResult result;
  result.spec.variable = SweepVariable::kTasks;
  for (const char* name : {"H2", "MIP", "H3"}) result.spec.methods.emplace_back().name = name;
  PointResult first;
  first.sweep_value = 10;
  first.period_by_method = {
      {"H2", counted(150.0)}, {"MIP", counted(100.0)}, {"H3", support::Summary{}}};
  PointResult unproven;  // the reference counted no trial: no row
  unproven.sweep_value = 20;
  unproven.period_by_method = {
      {"H2", counted(150.0)}, {"MIP", support::Summary{}}, {"H3", counted(120.0)}};
  PointResult last;
  last.sweep_value = 30;
  last.period_by_method = {{"H2", counted(400.0)}, {"MIP", counted(300.0)}, {"H3", counted(250.0)}};
  result.points = {first, unproven, last};

  support::Table expected({"number of tasks", "H2 / MIP", "H3 / MIP"});
  expected.add_row({"10", "1.50", "-"});
  expected.add_row({"30", "1.33", "0.83"});
  EXPECT_EQ(result.ratio_table("MIP").to_string(), expected.to_string());
}

TEST(Runner, Validation) {
  SweepSpec spec = tiny_spec();
  spec.methods.clear();
  EXPECT_THROW(run_sweep(spec), std::invalid_argument);
  spec = tiny_spec();
  spec.values.clear();
  EXPECT_THROW(run_sweep(spec), std::invalid_argument);
  spec = tiny_spec();
  spec.max_trials = 1;  // < trials
  EXPECT_THROW(run_sweep(spec), std::invalid_argument);
}

TEST(Figures, SpecsMatchPaperParameters) {
  const SweepSpec f5 = figure5_spec();
  EXPECT_EQ(f5.base.machines, 50u);
  EXPECT_EQ(f5.base.types, 5u);
  EXPECT_EQ(f5.values.front(), 50u);
  EXPECT_EQ(f5.values.back(), 150u);
  EXPECT_EQ(f5.methods.size(), 6u);
  EXPECT_EQ(f5.trials, 30u);

  const SweepSpec f8 = figure8_spec();
  EXPECT_DOUBLE_EQ(f8.base.failure_min, 0.0);
  EXPECT_DOUBLE_EQ(f8.base.failure_max, 0.10);

  const SweepSpec f9 = figure9_spec();
  EXPECT_EQ(f9.base.machines, 100u);
  EXPECT_EQ(f9.base.tasks, 100u);
  EXPECT_EQ(f9.variable, SweepVariable::kTypes);
  EXPECT_EQ(f9.base.failure_attachment, FailureAttachment::kTaskOnly);
  EXPECT_EQ(f9.methods.back().name, "OtO");
  EXPECT_EQ(f9.trials, 100u);

  const SweepSpec f10 = figure10_spec();
  EXPECT_EQ(f10.base.machines, 5u);
  EXPECT_EQ(f10.base.types, 2u);
  EXPECT_EQ(f10.max_trials, 60u) << "the 30-of-60 MIP success protocol";
  EXPECT_EQ(f10.methods.back().name, "MIP");

  const SweepSpec f12 = figure12_spec();
  EXPECT_EQ(f12.base.machines, 9u);
  EXPECT_EQ(f12.base.types, 4u);

  // Seven paper figures plus one scenario sweep per non-iid failure model.
  EXPECT_EQ(all_figure_specs().size(), 10u);
  for (const SweepSpec& spec : all_figure_specs()) {
    if (spec.name.starts_with("scn-")) {
      EXPECT_EQ(spec.name, "scn-" + spec.scenario_id);
    } else {
      EXPECT_EQ(spec.scenario_id, "iid") << spec.name;
    }
  }
}

TEST(Figures, ScaledDownReducesTrials) {
  const SweepSpec scaled = scaled_down(figure5_spec(), 10);
  EXPECT_EQ(scaled.trials, 3u);
  const SweepSpec floor = scaled_down(figure5_spec(), 1000);
  EXPECT_EQ(floor.trials, 1u);
}

TEST(Figures, SummaryTableMarksMethodsMissingFromASweep) {
  SweepResult fig09;
  PointResult one_to_one;
  one_to_one.period_by_method = {
      {"H2", counted(200.0)}, {"H3", counted(150.0)}, {"OtO", counted(100.0)}};
  fig09.points = {one_to_one};
  SweepResult fig10;
  PointResult exact;
  exact.period_by_method = {
      {"H2", counted(110.0)}, {"H4w", counted(120.0)}, {"MIP", counted(100.0)}};
  fig10.points = {exact};

  support::Table expected({"method", "vs OtO (paper)", "vs OtO (measured)", "vs MIP (paper)",
                           "vs MIP (measured)"});
  expected.add_row({"H2", "1.84", "2.00", "1.73", "1.10"});
  expected.add_row({"H3", "1.75", "1.50", "1.58", "-"});
  expected.add_row({"H4w", "1.28", "-", "1.33", "1.20"});
  EXPECT_EQ(summary_table(fig09, fig10).to_string(), expected.to_string());
}

TEST(Figures, Fig10SearchCountsArePinned) {
  // fig10's table prints one decimal at m=5, p=2, so a B&B that searched
  // another tree could print the same table; its counts would move. Every
  // point proves its 30 trials in the first round.
  solve::SolveService service;
  test::CountingExecutor counting(service);
  SweepOptions options;
  options.executor = &counting;
  const SweepResult result = run_sweep(figure10_spec(), options);
  std::size_t drawn = 0;
  for (const PointResult& point : result.points) drawn += point.attempts;
  EXPECT_EQ(drawn, 240u);
  EXPECT_EQ(counting.bnb.size(), 240u);
  EXPECT_EQ(counting.bnb_nodes, 6'513'590u);
}

/// The exact column's certificate: runs `spec` up to `max_tasks` and
/// re-solves every bnb trial with brute. At these sizes every drawn trial
/// counts. bnb's period must be within 4 ulps of brute's; the trials that
/// are not bit-equal are counted and printed.
void certify_exact_column(SweepSpec spec, std::size_t max_tasks, std::size_t trials) {
  std::erase_if(spec.values, [&](std::size_t tasks) { return tasks > max_tasks; });
  support::ThreadPool pool;
  solve::SolveService service(&pool);
  test::CountingExecutor counting(service);
  SweepOptions options;
  options.executor = &counting;
  const SweepResult result = run_sweep(spec, options);
  for (const PointResult& point : result.points) {
    EXPECT_EQ(point.attempts, spec.trials) << "n=" << point.sweep_value;
    EXPECT_EQ(point.successes, spec.trials) << "n=" << point.sweep_value;
  }
  ASSERT_EQ(counting.bnb.size(), trials);

  std::vector<solve::SolveRequest> brute(trials);
  for (std::size_t k = 0; k < trials; ++k) {
    brute[k].problem = counting.bnb[k].first;
    brute[k].solver_id = "brute";
    brute[k].params.cache = solve::CachePolicy::kOff;
  }
  const std::vector<solve::SolveResult> optimal = service.solve_all(brute);
  std::size_t not_bit_equal = 0;
  for (std::size_t k = 0; k < trials; ++k) {
    const solve::SolveResult& bnb = counting.bnb[k].second;
    ASSERT_EQ(bnb.status, solve::Status::kOptimal) << "trial " << k;
    ASSERT_EQ(optimal[k].status, solve::Status::kOptimal) << "trial " << k;
    const std::int64_t ulps = std::bit_cast<std::int64_t>(bnb.period) -
                              std::bit_cast<std::int64_t>(optimal[k].period);
    if (ulps != 0) ++not_bit_equal;
    EXPECT_LE(std::abs(ulps), 4) << "trial " << k << " n=" << bnb.mapping->task_count();
  }
  std::printf("%s up to n=%zu: %zu of %zu bnb periods are not bit-equal to brute's\n",
              spec.name.c_str(), max_tasks, not_bit_equal, trials);
}

// The certificate for fig10's and fig12's "MIP" columns, whose proofs hold
// only up to rounding: the search compares running loads, not core::period.
// About 90 s of CPU in all, so tier-1 skips them; CI runs them in their own
// step with --gtest_also_run_disabled_tests.
TEST(ExactCertificate, DISABLED_Fig10UpTo14TasksMatchesBruteForce) {
  certify_exact_column(figure10_spec(), 14, 210);
}

TEST(ExactCertificate, DISABLED_Fig12UpTo8TasksMatchesBruteForce) {
  certify_exact_column(figure12_spec(), 8, 90);
}

/// Smoke-run a miniature version of a heuristics-only figure end to end.
TEST(Figures, MiniatureFigure6RunsEndToEnd) {
  SweepSpec spec = scaled_down(figure6_spec(), 10);  // 3 trials
  spec.values = {10, 20};
  const SweepResult result = run_sweep(spec);
  ASSERT_EQ(result.points.size(), 2u);
  for (const PointResult& point : result.points) {
    EXPECT_EQ(point.successes, 3u);
  }
}

}  // namespace
}  // namespace mf::exp
