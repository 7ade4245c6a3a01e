// Ablation tables for the design choices behind the heuristics, plus the
// extension studies:
//   1. H4/H4f failure-factor interpretation: F = 1/(1-f) (Section 5.1's
//      notation) vs the literal "failure rate" f of the Algorithm 4/6
//      captions — both reproduce the paper's ranking, shown side by side.
//   2. Divisible streams (Section 8 future work): how much period the
//      water-filling split recovers over the rigid H4w mapping.
//   3. Reconfiguration crossover (Section 6's motivation for specialized
//      mappings): the switch cost at which a general mapping loses.
//   4. Local-search refinement: how much of each heuristic's optimality gap
//      one refinement pass closes (the paper's heuristics are one-shot
//      constructive; this quantifies the headroom an iterative improver
//      adds).
//
//   ./ablations
#include <cstdio>

#include "core/evaluation.hpp"
#include "exact/specialized_bnb.hpp"
#include "exp/scenario.hpp"
#include "extensions/divisible.hpp"
#include "extensions/local_search.hpp"
#include "extensions/reconfiguration.hpp"
#include "heuristics/h4_family.hpp"
#include "heuristics/heuristic.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace {

using mf::core::Problem;

void print_failure_factor_ablation() {
  std::printf("=== Ablation 1: H4/H4f failure-factor interpretation ===\n");
  mf::exp::Scenario scenario;
  scenario.tasks = 60;
  scenario.machines = 15;
  scenario.types = 5;
  mf::support::RunningStats h4_inv, h4_raw, h4f_inv, h4f_raw, h4w_ref;
  const mf::heuristics::H4BestPerformance h4_attempts{
      mf::heuristics::FailureFactor::kAttemptsPerSuccess};
  const mf::heuristics::H4BestPerformance h4_rate{mf::heuristics::FailureFactor::kRawRate};
  const mf::heuristics::H4fReliableMachine h4f_attempts{
      mf::heuristics::FailureFactor::kAttemptsPerSuccess};
  const mf::heuristics::H4fReliableMachine h4f_rate{mf::heuristics::FailureFactor::kRawRate};
  const mf::heuristics::H4wFastestMachine h4w;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const Problem problem = mf::exp::generate(scenario, seed);
    mf::support::Rng rng(seed);
    h4_inv.add(mf::core::period(problem, *h4_attempts.run(problem, rng)));
    h4_raw.add(mf::core::period(problem, *h4_rate.run(problem, rng)));
    h4f_inv.add(mf::core::period(problem, *h4f_attempts.run(problem, rng)));
    h4f_raw.add(mf::core::period(problem, *h4f_rate.run(problem, rng)));
    h4w_ref.add(mf::core::period(problem, *h4w.run(problem, rng)));
  }
  mf::support::Table table({"variant", "mean period (ms)"});
  table.add_row({"H4  with F=1/(1-f)", mf::support::format_double(h4_inv.mean(), 1)});
  table.add_row({"H4  with F=f (literal)", mf::support::format_double(h4_raw.mean(), 1)});
  table.add_row({"H4f with F=1/(1-f)", mf::support::format_double(h4f_inv.mean(), 1)});
  table.add_row({"H4f with F=f (literal)", mf::support::format_double(h4f_raw.mean(), 1)});
  table.add_row({"H4w (reference)", mf::support::format_double(h4w_ref.mean(), 1)});
  std::printf("%s\n", table.to_string().c_str());
}

void print_divisible_ablation() {
  std::printf("=== Ablation 2: divisible streams vs rigid H4w mapping ===\n");
  mf::support::Table table({"n", "m", "p", "rigid period", "divisible period", "gain %"});
  const struct {
    std::size_t n, m, p;
  } shapes[] = {{20, 8, 2}, {30, 12, 3}, {60, 20, 5}, {100, 50, 5}};
  for (const auto& shape : shapes) {
    mf::exp::Scenario scenario;
    scenario.tasks = shape.n;
    scenario.machines = shape.m;
    scenario.types = shape.p;
    mf::support::RunningStats rigid_stats, divisible_stats, gain;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      const Problem problem = mf::exp::generate(scenario, seed);
      mf::support::Rng rng(seed);
      const auto seed_mapping = mf::heuristics::heuristic_by_name("H4w")->run(problem, rng);
      const double rigid = mf::core::period(problem, *seed_mapping);
      const auto schedule = mf::ext::divide_workload(problem, *seed_mapping);
      rigid_stats.add(rigid);
      divisible_stats.add(schedule.period);
      gain.add(100.0 * (rigid - schedule.period) / rigid);
    }
    table.add_row({std::to_string(shape.n), std::to_string(shape.m), std::to_string(shape.p),
                   mf::support::format_double(rigid_stats.mean(), 1),
                   mf::support::format_double(divisible_stats.mean(), 1),
                   mf::support::format_double(gain.mean(), 1)});
  }
  std::printf("%s\n", table.to_string().c_str());
}

void print_reconfiguration_ablation() {
  std::printf("=== Ablation 3: reconfiguration cost crossover ===\n");
  std::printf("(smallest per-switch cost, in ms, at which the specialized H4w mapping\n");
  std::printf(" beats the unconstrained greedy general mapping; 0 = wins already)\n\n");
  mf::support::Table table({"n", "m", "p", "mean crossover (ms)", "general wins at r=0 (%)"});
  const struct {
    std::size_t n, m, p;
  } shapes[] = {{12, 3, 3}, {20, 5, 4}, {30, 8, 5}};
  for (const auto& shape : shapes) {
    mf::exp::Scenario scenario;
    scenario.tasks = shape.n;
    scenario.machines = shape.m;
    scenario.types = shape.p;
    mf::support::RunningStats crossover;
    int general_wins = 0;
    const int trials = 20;
    for (std::uint64_t seed = 1; seed <= trials; ++seed) {
      const Problem problem = mf::exp::generate(scenario, seed);
      mf::support::Rng rng(seed);
      const auto spec = mf::heuristics::heuristic_by_name("H4w")->run(problem, rng);
      const auto general = mf::ext::greedy_general_mapping(problem);
      const double r = mf::ext::reconfiguration_crossover(problem, *spec, general);
      crossover.add(r);
      general_wins += r > 0.0 ? 1 : 0;
    }
    table.add_row({std::to_string(shape.n), std::to_string(shape.m), std::to_string(shape.p),
                   mf::support::format_double(crossover.mean(), 1),
                   mf::support::format_double(100.0 * general_wins / trials, 0)});
  }
  std::printf("%s\n", table.to_string().c_str());
}

void print_refinement_ablation() {
  std::printf("=== Ablation: local-search refinement of the paper's heuristics ===\n");
  std::printf("(m=5, p=2, n=12 instances where the exact optimum is computable;\n");
  std::printf(" 'gap' = mean period / optimal period - 1, before and after refining)\n\n");

  mf::exp::Scenario scenario;
  scenario.tasks = 12;
  scenario.machines = 5;
  scenario.types = 2;
  constexpr std::uint64_t kTrials = 20;

  mf::support::Table table(
      {"heuristic", "gap before %", "gap after %", "mean moves", "local optimum %"});
  for (const auto& heuristic : mf::heuristics::all_heuristics()) {
    mf::support::RunningStats before, after, moves;
    int converged = 0;
    for (std::uint64_t seed = 1; seed <= kTrials; ++seed) {
      const Problem problem = mf::exp::generate(scenario, seed);
      const mf::exact::BnBResult optimal = mf::exact::solve_specialized_optimal(problem);
      if (!optimal.proven_optimal || !optimal.mapping.has_value()) continue;
      mf::support::Rng rng(seed);
      const auto start = heuristic->run(problem, rng);
      if (!start.has_value()) continue;
      const mf::ext::RefinementResult refined = mf::ext::refine_mapping(problem, *start);
      before.add(100.0 * (refined.initial_period / optimal.period - 1.0));
      after.add(100.0 * (refined.period / optimal.period - 1.0));
      moves.add(static_cast<double>(refined.moves_applied));
      converged += refined.converged ? 1 : 0;
    }
    table.add_row({heuristic->name(), mf::support::format_double(before.mean(), 1),
                   mf::support::format_double(after.mean(), 1),
                   mf::support::format_double(moves.mean(), 1),
                   mf::support::format_double(100.0 * converged / kTrials, 0)});
  }
  std::printf("%s\n", table.to_string().c_str());
}

}  // namespace

int main() {
  print_failure_factor_ablation();
  print_divisible_ablation();
  print_reconfiguration_ablation();
  print_refinement_ablation();
  return 0;
}
