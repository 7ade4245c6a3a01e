// Cross-module integration tests: the full pipeline from scenario
// generation through heuristics / exact solvers to analytic evaluation and
// discrete-event simulation, plus the qualitative claims of Section 7 on
// miniature versions of the paper's experiments.
#include <gtest/gtest.h>

#include "core/evaluation.hpp"
#include "exact/one_to_one.hpp"
#include "exact/specialized_bnb.hpp"
#include "exp/figures.hpp"
#include "exp/method.hpp"
#include "exp/runner.hpp"
#include "extensions/divisible.hpp"
#include "heuristics/h4_family.hpp"
#include "lp/specialized_mip.hpp"
#include "sim/simulator.hpp"
#include "solve/solver.hpp"

namespace mf {
namespace {

TEST(Integration, FullPipelineOnOneInstance) {
  exp::Scenario scenario;
  scenario.tasks = 10;
  scenario.machines = 5;
  scenario.types = 2;
  const core::Problem problem = exp::generate(scenario, 2024);

  // 1. All heuristics produce valid specialized mappings.
  double best_heuristic = std::numeric_limits<double>::infinity();
  for (const exp::Method& method : exp::all_heuristic_methods()) {
    const auto mapping = solve::run(problem, method.solver_id).mapping;
    ASSERT_TRUE(mapping.has_value()) << method.solver_id;
    best_heuristic = std::min(best_heuristic, core::period(problem, *mapping));
  }

  // 2. The exact solver dominates them all.
  const exact::BnBResult exact_result = exact::solve_specialized_optimal(problem);
  ASSERT_TRUE(exact_result.proven_optimal);
  ASSERT_TRUE(exact_result.mapping.has_value());
  EXPECT_LE(exact_result.period, best_heuristic + 1e-9);

  // 3. The LP MIP agrees with the combinatorial solver. The simplex-based
  // path is only practical on small models (mirroring the paper's CPLEX
  // limits), so the agreement check runs on a smaller sibling instance.
  exp::Scenario small = scenario;
  small.tasks = 6;
  small.machines = 3;
  const core::Problem small_problem = exp::generate(small, 2025);
  const lp::MipScheduleResult mip = lp::solve_specialized_mip(small_problem);
  ASSERT_EQ(mip.status, lp::MipStatus::kOptimal);
  const exact::BnBResult small_exact = exact::solve_specialized_optimal(small_problem);
  ASSERT_TRUE(small_exact.proven_optimal);
  EXPECT_NEAR(mip.period, small_exact.period, 1e-6 * small_exact.period);

  // 4. The simulator confirms the optimal mapping's analytic period.
  sim::SimulationConfig config;
  config.seed = 99;
  config.target_outputs = 4'000;
  config.warmup_outputs = 400;
  const sim::SimulationReport report =
      sim::Simulator(problem, *exact_result.mapping).run(config);
  ASSERT_TRUE(report.reached_target);
  EXPECT_NEAR(report.measured_period, exact_result.period, 0.10 * exact_result.period);

  // 5. Divisible streams (future work) improve on the rigid optimum or tie.
  const auto divisible = ext::divisible_schedule(problem);
  ASSERT_TRUE(divisible.has_value());
  EXPECT_GT(divisible->period, 0.0);
}

TEST(Integration, SectionSevenOneQualitative) {
  // Miniature Figure 5: informed heuristics beat H1 and H4f at m=50-like
  // shapes (scaled to m=12 to keep the test fast).
  exp::SweepSpec spec;
  spec.name = "mini-fig5";
  spec.base.machines = 12;
  spec.base.types = 4;
  spec.variable = exp::SweepVariable::kTasks;
  spec.values = {24, 36};
  spec.methods = exp::all_heuristic_methods();
  spec.trials = 8;
  spec.max_trials = 8;
  spec.base_seed = 7;
  const exp::SweepResult result = exp::run_sweep(spec);

  for (const exp::PointResult& point : result.points) {
    const double h1 = point.period_by_method.at("H1").mean;
    const double h4f = point.period_by_method.at("H4f").mean;
    const double h4w = point.period_by_method.at("H4w").mean;
    const double h2 = point.period_by_method.at("H2").mean;
    EXPECT_LT(h4w, h1) << "H4w must beat the random baseline (Figure 5 shape)";
    EXPECT_LT(h2, h1) << "H2 must beat the random baseline (Figure 5 shape)";
    EXPECT_LT(h4w, h4f) << "speed beats pure reliability at low failure rates";
  }
}

TEST(Integration, SectionSevenTwoQualitative) {
  // Miniature Figure 9: heuristics near but above the one-to-one optimum;
  // convergence of heuristics as p approaches m.
  exp::SweepSpec spec;
  spec.name = "mini-fig9";
  spec.base.machines = 20;
  spec.base.tasks = 20;
  spec.base.failure_attachment = exp::FailureAttachment::kTaskOnly;
  spec.variable = exp::SweepVariable::kTypes;
  spec.values = {5, 20};
  spec.methods = exp::heuristic_methods({"H2", "H3", "H4w"});
  spec.methods.push_back(exp::method_optimal_one_to_one());
  spec.trials = 12;
  spec.max_trials = 12;
  spec.base_seed = 17;
  const exp::SweepResult result = exp::run_sweep(spec);

  // At p == m every specialized mapping is (essentially) one-to-one, so no
  // heuristic can beat the optimal one-to-one there. (At p << m grouped
  // specialized mappings may legitimately beat the best *bijection*, so no
  // such bound holds on the first point.)
  const exp::PointResult& p_equals_m = result.points.back();
  ASSERT_EQ(p_equals_m.sweep_value, 20u);
  const double oto = p_equals_m.period_by_method.at("OtO").mean;
  for (const std::string name : {"H2", "H3", "H4w"}) {
    EXPECT_GE(p_equals_m.period_by_method.at(name).mean, oto * 0.999)
        << name << " cannot beat the one-to-one optimum when p == m";
  }
  // All heuristics stay within a bounded factor of OtO (Fig 9's shape).
  const auto ratios = result.mean_ratio_to("OtO");
  for (const std::string name : {"H2", "H3", "H4w"}) {
    EXPECT_LT(ratios.at(name), 2.5) << name;
  }
}

TEST(Integration, SectionSevenThreeQualitative) {
  // Miniature Figures 10/11: H4w within a modest factor of the exact
  // optimum; every heuristic is >= the optimum on every point.
  exp::SweepSpec spec = exp::figure10_spec();
  spec.values = {4, 8};
  spec.trials = 8;
  spec.max_trials = 16;
  const exp::SweepResult result = exp::run_sweep(spec);

  for (const exp::PointResult& point : result.points) {
    ASSERT_GT(point.successes, 0u);
    const double optimal = point.period_by_method.at("MIP").mean;
    for (const auto& [name, summary] : point.period_by_method) {
      EXPECT_GE(summary.mean, optimal * 0.999) << name;
    }
  }
  const auto ratios = result.mean_ratio_to("MIP");
  EXPECT_LT(ratios.at("H4w"), 1.8) << "H4w should stay within ~1.3-1.8x of optimal";
  EXPECT_LT(ratios.at("H4w"), ratios.at("H1")) << "H4w far closer to optimal than random";
}

TEST(Integration, OtOBeatenByNoSpecializedSolutionWhenNEqualsM) {
  // With p == n == m every heuristic is forced into (near) one-to-one
  // mappings, so their periods converge toward the OtO optimum (Fig 9's
  // right edge).
  exp::Scenario scenario;
  scenario.tasks = 12;
  scenario.machines = 12;
  scenario.types = 12;
  scenario.failure_attachment = exp::FailureAttachment::kTaskOnly;
  double gap_total = 0.0;
  int count = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const core::Problem problem = exp::generate(scenario, seed);
    const auto oto = exact::optimal_one_to_one_task_failures(problem);
    const auto h4w = heuristics::h4w(problem);
    ASSERT_TRUE(h4w.has_value());
    const double h4w_period = core::period(problem, *h4w);
    EXPECT_GE(h4w_period, oto.period * 0.999)
        << "with p == n == m the heuristic is a bijection, so OtO bounds it";
    gap_total += h4w_period / oto.period;
    ++count;
  }
  EXPECT_LT(gap_total / count, 2.0) << "heuristics stay within 2x of OtO when p == m";
}

}  // namespace
}  // namespace mf
