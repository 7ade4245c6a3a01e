// Equivalence suite for the data-oriented evaluation kernels
// (core/eval_kernels.hpp). The whole point of IncrementalEvaluator is
// that it is *bit-identical* to the readable reference implementation in
// core/evaluation.hpp — not approximately equal, EXPECT_EQ-on-doubles
// equal — so every test here compares exact doubles:
//
//   * EvalWorkspace's tables vs the problem, and its DFS layout vs the
//     transitive predecessor sets the probes' subtree walks rely on;
//   * IncrementalEvaluator's full evaluation (construction, reset, apply)
//     vs core's x, loads and period, emptied machines included, and the
//     state applied moves leave vs one built fresh;
//   * IncrementalEvaluator probes vs copy-mutate-and-fully-reevaluate,
//     over long random relocate/swap sequences with interleaved applies,
//     and the probes' cutoff contract (exact below the cutoff, at least
//     the cutoff otherwise) on the same walks;
//   * the refactored local search vs pre-refactor golden mappings
//     (tests/golden_local_search.inc, captured from the
//     copy-and-recompute implementation): byte-identical assignments and
//     bit-equal periods for pinned seeds across H1..H4f; and
//     tests/golden_local_search_shapes.inc, captured before the probes
//     took a cutoff, which also pins move and pass counts on in-trees,
//     m > 64 and every refinement option; and
//     tests/golden_local_search_edges.inc, captured before the chain
//     probes decided from prefix sums, on m = 64, 65 and 130, w scaled by
//     2^-960 and 2^960, F up to 2^52 and f up to 0.9;
//   * the Platform's construction-time attempts cache vs survival_inverse.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/eval_kernels.hpp"
#include "core/evaluation.hpp"
#include "core/failure.hpp"
#include "exp/scenario.hpp"
#include "exp/scenario_registry.hpp"
#include "extensions/local_search.hpp"
#include "heuristics/heuristic.hpp"
#include "support/rng.hpp"
#include "test_helpers.hpp"

namespace mf {
namespace {

using core::MachineIndex;
using core::TaskIndex;

/// A uniformly random complete assignment (no specialization constraint:
/// the kernels evaluate any complete mapping).
std::vector<MachineIndex> random_assignment(const core::Problem& problem,
                                            support::Rng& rng) {
  std::vector<MachineIndex> assignment(problem.task_count());
  for (TaskIndex i = 0; i < problem.task_count(); ++i) {
    assignment[i] = rng.uniform_u64(0, problem.machine_count() - 1);
  }
  return assignment;
}

/// The pre-refactor probe: copy the assignment, mutate, fully re-evaluate.
double full_eval_period(const core::Problem& problem,
                        std::vector<MachineIndex> assignment, TaskIndex i,
                        MachineIndex v) {
  assignment[i] = v;
  return core::period(problem, core::Mapping{assignment});
}

double full_eval_swap_period(const core::Problem& problem,
                             std::vector<MachineIndex> assignment, TaskIndex i,
                             TaskIndex j) {
  std::swap(assignment[i], assignment[j]);
  return core::period(problem, core::Mapping{assignment});
}

enum Topology { kChain, kInTree };

/// kWideRates draws every f from [0.5%, 90%], so a move's F ratio is far
/// from 1; kSteepRates sets every odd machine's f to 1 - 2^-52 (F = 2^52),
/// so the product of each task's largest F overflows.
enum Rates { kPaperRates, kWideRates, kSteepRates };

/// An n-task, m-machine, p-type chain or in-tree (join probability 0.4)
/// with every w multiplied by 2^scale and the failure rates `rates` names.
core::Problem edge_problem(Topology topology, std::size_t n, std::size_t m, std::size_t p,
                           std::uint64_t seed, int scale, Rates rates) {
  exp::Scenario scenario;
  scenario.tasks = n;
  scenario.machines = m;
  scenario.types = p;
  if (rates == kWideRates) scenario.failure_max = 0.9;
  const core::Problem base = topology == kChain ? exp::generate(scenario, seed)
                                                : exp::generate_in_tree(scenario, 0.4, seed);
  support::Matrix w(n, m);
  support::Matrix f(n, m);
  for (TaskIndex i = 0; i < n; ++i) {
    for (MachineIndex u = 0; u < m; ++u) {
      w.at(i, u) = std::ldexp(base.platform.time_row(i)[u], scale);
      f.at(i, u) = rates == kSteepRates && u % 2 == 1 ? 1.0 - 0x1p-52
                                                       : base.platform.failure_row(i)[u];
    }
  }
  return core::Problem{base.app, core::Platform{std::move(w), std::move(f)}};
}

/// Reversed labels (the sink becomes task 0) and a shuffle.
std::vector<std::vector<TaskIndex>> off_path_labels(std::size_t n) {
  std::vector<TaskIndex> reversed(n);
  std::vector<TaskIndex> shuffled(n);
  for (TaskIndex i = 0; i < n; ++i) {
    reversed[i] = n - 1 - i;
    shuffled[i] = (13 * i + 5) % n;  // a permutation while gcd(13, n) = 1
  }
  return {reversed, shuffled};
}

/// Drives a long random probe/apply sequence and checks every number the
/// incremental evaluator produces against the reference implementation.
void check_incremental_equivalence(const core::Problem& problem, std::uint64_t seed,
                                   std::size_t steps) {
  support::Rng rng(seed);
  core::EvalWorkspace workspace(problem);
  std::vector<MachineIndex> assignment = random_assignment(problem, rng);
  core::IncrementalEvaluator eval(workspace, assignment);

  ASSERT_EQ(eval.period(), core::period(problem, core::Mapping{assignment}));

  for (std::size_t step = 0; step < steps; ++step) {
    const TaskIndex i = rng.uniform_u64(0, problem.task_count() - 1);
    if (rng.uniform_u64(0, 1) == 0) {
      const MachineIndex v = rng.uniform_u64(0, problem.machine_count() - 1);
      const double probed = eval.period_if_relocated(i, v);
      ASSERT_EQ(probed, full_eval_period(problem, assignment, i, v))
          << "relocate probe diverged at step " << step;
      if (rng.uniform_u64(0, 3) == 0) {
        eval.apply_relocate(i, v);
        assignment[i] = v;
      }
    } else {
      TaskIndex j = rng.uniform_u64(0, problem.task_count() - 1);
      if (j == i) j = (j + 1) % problem.task_count();  // probes need i != j
      const double probed = eval.period_if_swapped(i, j);
      ASSERT_EQ(probed, full_eval_swap_period(problem, assignment, i, j))
          << "swap probe diverged at step " << step;
      if (rng.uniform_u64(0, 3) == 0) {
        eval.apply_swap(i, j);
        std::swap(assignment[i], assignment[j]);
      }
    }
    // Probes must not disturb the committed state; applies must restore
    // the full-evaluation invariants exactly.
    ASSERT_EQ(eval.period(), core::period(problem, core::Mapping{assignment}))
        << "committed period diverged at step " << step;
  }

  // After the whole walk, every cached quantity still matches the
  // reference, element for element.
  const core::Mapping mapping{assignment};
  const std::vector<double> ref_x = core::expected_products(problem, mapping);
  const std::vector<double> ref_loads = core::machine_periods(problem, mapping);
  ASSERT_EQ(eval.expected_products().size(), ref_x.size());
  for (TaskIndex i = 0; i < ref_x.size(); ++i) {
    EXPECT_EQ(eval.expected_products()[i], ref_x[i]) << "x[" << i << "]";
  }
  ASSERT_EQ(eval.loads().size(), ref_loads.size());
  for (MachineIndex u = 0; u < ref_loads.size(); ++u) {
    EXPECT_EQ(eval.loads()[u], ref_loads[u]) << "load[" << u << "]";
  }
}

TEST(PlatformAttemptsCache, BitEqualsSurvivalInverse) {
  exp::Scenario scenario;
  scenario.tasks = 25;
  scenario.machines = 8;
  scenario.types = 4;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const core::Problem problem = exp::generate(scenario, seed);
    for (TaskIndex i = 0; i < problem.task_count(); ++i) {
      const std::span<const double> row = problem.platform.attempts_row(i);
      for (MachineIndex u = 0; u < problem.machine_count(); ++u) {
        const double reference = core::survival_inverse(problem.platform.failure(i, u));
        EXPECT_EQ(problem.platform.attempts_per_success(i, u), reference);
        EXPECT_EQ(row[u], reference);
      }
    }
  }
}

TEST(PlatformAttemptsCache, EdgeRatesKeepSurvivalInverseSemantics) {
  // survival_inverse keeps its f -> 1 => +inf edge; the Platform itself
  // rejects f = 1 by precondition, so the cache only ever holds the same
  // finite doubles survival_inverse produces on [0, 1) — including the
  // near-certain-failure extreme.
  EXPECT_TRUE(std::isinf(core::survival_inverse(1.0)));
  support::Matrix times(1, 2);
  times.at(0, 0) = 100.0;
  times.at(0, 1) = 200.0;
  support::Matrix failures(1, 2);
  failures.at(0, 0) = 0.0;
  const double near_one = 1.0 - 1e-12;
  failures.at(0, 1) = near_one;
  const core::Platform platform(std::move(times), std::move(failures));
  EXPECT_EQ(platform.attempts_per_success(0, 0), 1.0);
  EXPECT_EQ(platform.attempts_per_success(0, 1), core::survival_inverse(near_one));
}

TEST(EvalWorkspace, SubtreeLayoutMatchesTransitivePredecessors) {
  exp::Scenario scenario;
  scenario.tasks = 24;
  scenario.machines = 6;
  scenario.types = 3;
  const core::Problem problem = exp::generate_in_tree(scenario, 0.4, 11);
  core::EvalWorkspace workspace(problem);

  // Reference transitive-predecessor sets by fixpoint over the successor
  // relation: j is in subtree(i) iff following successors from j reaches i.
  for (TaskIndex i = 0; i < problem.task_count(); ++i) {
    std::vector<bool> expected(problem.task_count(), false);
    for (TaskIndex j = 0; j < problem.task_count(); ++j) {
      TaskIndex walk = j;
      while (walk != core::kNoTask) {
        if (walk == i) {
          expected[j] = true;
          break;
        }
        walk = problem.app.successor(walk);
      }
    }
    std::vector<bool> actual(problem.task_count(), false);
    for (const TaskIndex j : workspace.subtree(i)) actual[j] = true;
    EXPECT_EQ(actual, expected) << "subtree(" << i << ")";
    EXPECT_EQ(workspace.subtree(i).front(), i) << "subtree root must lead";
    for (TaskIndex j = 0; j < problem.task_count(); ++j) {
      EXPECT_EQ(workspace.in_subtree(i, j), expected[j] && j != i)
          << "in_subtree(" << i << ", " << j << ")";
    }
  }
}

TEST(EvalWorkspace, TablesMirrorTheProblem) {
  // The probes read the workspace in place of the problem: its w and F
  // rows must be the platform's doubles, its successors the application's,
  // and its chain flag the application's topology.
  exp::Scenario scenario;
  scenario.tasks = 20;
  scenario.machines = 6;
  scenario.types = 3;
  for (const bool in_tree : {false, true}) {
    SCOPED_TRACE(in_tree ? "in-tree" : "chain");
    const core::Problem problem =
        in_tree ? exp::generate_in_tree(scenario, 0.4, 8) : exp::generate(scenario, 8);
    const core::EvalWorkspace workspace(problem);
    ASSERT_EQ(workspace.task_count(), problem.task_count());
    ASSERT_EQ(workspace.machine_count(), problem.machine_count());
    EXPECT_EQ(workspace.is_chain(), problem.app.is_linear_chain());
    ASSERT_EQ(workspace.successors().size(), problem.task_count());
    for (TaskIndex i = 0; i < problem.task_count(); ++i) {
      EXPECT_EQ(workspace.successors()[i], problem.app.successor(i)) << "task " << i;
      ASSERT_EQ(workspace.time_row(i).size(), problem.machine_count());
      ASSERT_EQ(workspace.attempts_row(i).size(), problem.machine_count());
      for (MachineIndex u = 0; u < problem.machine_count(); ++u) {
        EXPECT_EQ(workspace.time_row(i)[u], problem.platform.time(i, u))
            << "w(" << i << ", " << u << ")";
        EXPECT_EQ(workspace.attempts_row(i)[u], problem.platform.attempts_per_success(i, u))
            << "F(" << i << ", " << u << ")";
      }
    }
  }
}

TEST(EvalWorkspace, PrefixScreenGuardReadsTheInputOnly) {
  // The screen runs on path-labelled chains whose every x, x·w and load
  // stays normal: the product of each task's largest F below 2^900, every
  // w at least 2^-900, and n times that product times the largest w below
  // 2^900. Each extreme input fails one of the three.
  EXPECT_TRUE(core::EvalWorkspace(edge_problem(kChain, 100, 65, 4, 1, 0, kPaperRates))
                  .has_prefix_screen());
  EXPECT_TRUE(core::EvalWorkspace(edge_problem(kChain, 100, 65, 4, 1, 0, kWideRates))
                  .has_prefix_screen());
  EXPECT_FALSE(core::EvalWorkspace(edge_problem(kInTree, 100, 65, 4, 1, 0, kPaperRates))
                   .has_prefix_screen());
  for (const auto& [scale, rates] :
       {std::pair{-960, kPaperRates}, {960, kPaperRates}, {0, kSteepRates}}) {
    EXPECT_FALSE(core::EvalWorkspace(edge_problem(kChain, 30, 65, 4, 1, scale, rates))
                     .has_prefix_screen())
        << "scale " << scale << " rates " << rates;
  }
  const core::Problem chain = edge_problem(kChain, 12, 5, 2, 1, 0, kPaperRates);
  EXPECT_FALSE(
      core::EvalWorkspace(test::relabelled(chain, off_path_labels(12)[0])).has_prefix_screen());
}

/// rebuild() is the one full evaluation local search runs: on
/// construction, on every reset and after every applied move. Checks that
/// x, every machine load and the period it leaves are core's doubles, for
/// the constructor and then for `resets` random assignments.
void check_fresh_evaluation(const core::Problem& problem, std::uint64_t seed, int resets) {
  core::EvalWorkspace workspace(problem);
  support::Rng rng(seed);
  std::vector<MachineIndex> assignment = random_assignment(problem, rng);
  core::IncrementalEvaluator eval(workspace, assignment);
  for (int trial = 0; trial <= resets; ++trial) {
    if (trial > 0) {
      assignment = random_assignment(problem, rng);
      eval.reset(assignment);
    }
    const core::Mapping mapping{assignment};
    const std::vector<double> ref_x = core::expected_products(problem, mapping);
    const std::vector<double> ref_loads = core::machine_periods(problem, mapping);
    ASSERT_EQ(eval.expected_products().size(), ref_x.size());
    for (TaskIndex i = 0; i < ref_x.size(); ++i) {
      EXPECT_EQ(eval.expected_products()[i], ref_x[i]) << "trial " << trial << " x[" << i << "]";
    }
    ASSERT_EQ(eval.loads().size(), ref_loads.size());
    for (MachineIndex u = 0; u < ref_loads.size(); ++u) {
      EXPECT_EQ(eval.loads()[u], ref_loads[u]) << "trial " << trial << " load[" << u << "]";
    }
    EXPECT_EQ(eval.period(), core::period(problem, mapping)) << "trial " << trial;
  }
}

TEST(IncrementalEvaluator, FreshEvaluationBitIdenticalOnEveryScenarioFamily) {
  for (const std::string& id : exp::scenario_ids()) {
    exp::Scenario scenario;
    scenario.tasks = 30;
    scenario.machines = 7;
    scenario.types = 3;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const exp::Instance instance = exp::generate_instance(id, scenario, seed);
      SCOPED_TRACE("scenario " + id + " seed " + std::to_string(seed));
      check_fresh_evaluation(*instance.effective, seed * 97 + 13, 7);
    }
  }
}

TEST(IncrementalEvaluator, FreshEvaluationBitIdenticalOnInTrees) {
  exp::Scenario scenario;
  scenario.tasks = 32;
  scenario.machines = 8;
  scenario.types = 4;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("in-tree seed " + std::to_string(seed));
    check_fresh_evaluation(exp::generate_in_tree(scenario, 0.35, seed), seed * 53 + 29, 7);
  }
}

TEST(IncrementalEvaluator, EmptiedMachinesLoadExactlyZero) {
  // With more machines than tasks most machines own nothing, and moving a
  // machine's last task away empties its member list: its load must fall
  // to exactly 0.0, as core::machine_periods gives an idle machine. m = 70
  // also takes the bound tables' machine masks past one word.
  exp::Scenario scenario;
  scenario.tasks = 12;
  scenario.machines = 70;
  scenario.types = 4;
  for (const bool in_tree : {false, true}) {
    SCOPED_TRACE(in_tree ? "in-tree" : "chain");
    const core::Problem problem =
        in_tree ? exp::generate_in_tree(scenario, 0.4, 5) : exp::generate(scenario, 5);
    core::EvalWorkspace workspace(problem);
    support::Rng rng(in_tree ? 77 : 76);
    std::vector<MachineIndex> assignment = random_assignment(problem, rng);
    core::IncrementalEvaluator eval(workspace, assignment);
    std::size_t emptied = 0;
    for (int step = 0; step < 40; ++step) {
      const TaskIndex i = rng.uniform_u64(0, problem.task_count() - 1);
      const MachineIndex from = assignment[i];
      MachineIndex to = rng.uniform_u64(0, problem.machine_count() - 1);
      if (to == from) to = (to + 1) % problem.machine_count();
      eval.apply_relocate(i, to);
      assignment[i] = to;
      if (std::find(assignment.begin(), assignment.end(), from) == assignment.end()) {
        EXPECT_EQ(eval.loads()[from], 0.0) << "step " << step;
        ++emptied;
      }
      const core::Mapping mapping{assignment};
      const std::vector<double> ref = core::machine_periods(problem, mapping);
      for (MachineIndex u = 0; u < ref.size(); ++u) {
        ASSERT_EQ(eval.loads()[u], ref[u]) << "step " << step << " load[" << u << "]";
      }
      ASSERT_EQ(eval.period(), core::period(problem, mapping)) << "step " << step;
    }
    EXPECT_GT(emptied, 0u);
  }
}

TEST(IncrementalEvaluator, AppliedMovesLeaveTheStateAFreshEvaluatorBuilds) {
  // An applied move rebuilds every table from the new assignment: the
  // loads, and the bound tables (per-task machine masks, machines by
  // load) that let a cutoff probe stop early. A stale bound table still
  // honours the cutoff contract, so only a comparison with an evaluator
  // built fresh on the same assignment shows it: both must answer every
  // probe, with and without a cutoff, with the same bits.
  exp::Scenario scenario;
  scenario.tasks = 32;
  scenario.machines = 8;
  scenario.types = 4;
  const double inf = std::numeric_limits<double>::infinity();
  for (const bool in_tree : {false, true}) {
    SCOPED_TRACE(in_tree ? "in-tree" : "chain");
    const core::Problem problem =
        in_tree ? exp::generate_in_tree(scenario, 0.35, 6) : exp::generate(scenario, 6);
    core::EvalWorkspace workspace(problem);
    support::Rng rng(in_tree ? 313 : 311);
    std::vector<MachineIndex> assignment = random_assignment(problem, rng);
    core::IncrementalEvaluator walked(workspace, assignment);
    auto random_task = [&] { return rng.uniform_u64(0, problem.task_count() - 1); };
    auto other_task = [&](TaskIndex i) {
      TaskIndex j = random_task();
      return j == i ? (j + 1) % problem.task_count() : j;  // probes need i != j
    };
    for (int step = 0; step < 30; ++step) {
      const TaskIndex i = random_task();
      if (rng.uniform_u64(0, 1) == 0) {
        const MachineIndex v = rng.uniform_u64(0, problem.machine_count() - 1);
        walked.apply_relocate(i, v);
        assignment[i] = v;
      } else {
        const TaskIndex j = other_task(i);
        walked.apply_swap(i, j);
        std::swap(assignment[i], assignment[j]);
      }
      core::IncrementalEvaluator fresh(workspace, assignment);
      ASSERT_EQ(walked.period(), fresh.period()) << "step " << step;
      for (int probe = 0; probe < 8; ++probe) {
        const TaskIndex a = random_task();
        const MachineIndex v = rng.uniform_u64(0, problem.machine_count() - 1);
        const TaskIndex b = other_task(a);
        const std::span<const double> loads = fresh.loads();
        for (const double cutoff :
             {inf, fresh.period(), loads[rng.uniform_u64(0, problem.machine_count() - 1)]}) {
          EXPECT_EQ(walked.period_if_relocated(a, v, cutoff),
                    fresh.period_if_relocated(a, v, cutoff))
              << "step " << step << " relocate " << a << "->" << v << " cutoff " << cutoff;
          EXPECT_EQ(walked.period_if_swapped(a, b, cutoff), fresh.period_if_swapped(a, b, cutoff))
              << "step " << step << " swap " << a << "<->" << b << " cutoff " << cutoff;
        }
      }
    }
  }
}

TEST(IncrementalEvaluator, RandomWalkMatchesFullEvalOnEveryScenarioFamily) {
  for (const std::string& id : exp::scenario_ids()) {
    exp::Scenario scenario;
    scenario.tasks = 26;
    scenario.machines = 6;
    scenario.types = 3;
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      const exp::Instance instance = exp::generate_instance(id, scenario, seed);
      SCOPED_TRACE("scenario " + id + " seed " + std::to_string(seed));
      check_incremental_equivalence(*instance.effective, seed * 1009 + 7, 150);
    }
  }
}

TEST(IncrementalEvaluator, RandomWalkMatchesFullEvalOnInTrees) {
  exp::Scenario scenario;
  scenario.tasks = 32;
  scenario.machines = 8;
  scenario.types = 4;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const core::Problem problem = exp::generate_in_tree(scenario, 0.35, seed);
    SCOPED_TRACE("in-tree seed " + std::to_string(seed));
    check_incremental_equivalence(problem, seed * 271 + 3, 200);
  }
}

/// Drives a random probe/apply walk and calls every probe again under a
/// spread of cutoffs: the exact value and one ulp either side, half and
/// twice it, the exact value scaled by 1 - (8n+16)·2^-52 (how far below
/// the exact load a rounding-bounded screen may read) and one ulp either
/// side, just under the committed period, and committed loads. Below the
/// cutoff the result must be the exact probe's bits; at or above it, any
/// value at or above the cutoff and at or below the exact period. Each
/// step also probes the two no-op moves of task i: relocating it to its
/// own machine, and swapping it with another task on that machine. Counts
/// the probes that stopped short of the exact value in `stopped_short`, so
/// callers can check that the bounds engaged.
void check_cutoff_contract(const core::Problem& problem, std::uint64_t seed, std::size_t steps,
                           std::size_t& stopped_short) {
  support::Rng rng(seed);
  core::EvalWorkspace workspace(problem);
  std::vector<MachineIndex> assignment = random_assignment(problem, rng);
  core::IncrementalEvaluator eval(workspace, assignment);
  const double inf = std::numeric_limits<double>::infinity();
  const std::size_t n = problem.task_count();
  const double screen_scale = 1.0 - static_cast<double>(8 * n + 16) * 0x1p-52;

  for (std::size_t step = 0; step < steps; ++step) {
    const TaskIndex i = rng.uniform_u64(0, problem.task_count() - 1);
    const bool relocate = rng.uniform_u64(0, 1) == 0;
    MachineIndex v = 0;
    TaskIndex j = 0;
    if (relocate) {
      v = rng.uniform_u64(0, problem.machine_count() - 1);
    } else {
      j = rng.uniform_u64(0, problem.task_count() - 1);
      if (j == i) j = (j + 1) % problem.task_count();  // probes need i != j
    }
    const std::span<const double> loads = eval.loads();
    const double some_load = loads[rng.uniform_u64(0, problem.machine_count() - 1)];
    auto check = [&](const char* kind, const auto& probe) {
      const double exact = probe(inf);
      const double edge = exact * screen_scale;
      const double cutoffs[] = {exact,
                                std::nextafter(exact, -inf),
                                std::nextafter(exact, inf),
                                exact / 2.0,
                                exact * 2.0,
                                edge,
                                std::nextafter(edge, -inf),
                                std::nextafter(edge, inf),
                                eval.period() * (1.0 - 1e-9),
                                loads[eval.machine_of(i)],
                                some_load,
                                *std::min_element(loads.begin(), loads.end())};
      for (const double cutoff : cutoffs) {
        const double got = probe(cutoff);
        if (exact < cutoff) {
          ASSERT_EQ(got, exact) << kind << " below cutoff " << cutoff << " at step " << step;
        } else {
          ASSERT_GE(got, cutoff) << kind << " at or above cutoff " << cutoff << " at step "
                                 << step;
          ASSERT_LE(got, exact) << kind << " at or above cutoff " << cutoff << " at step "
                                << step;
          if (got != exact) ++stopped_short;
        }
      }
    };
    if (relocate) {
      check("relocate", [&](double cutoff) { return eval.period_if_relocated(i, v, cutoff); });
    } else {
      check("swap", [&](double cutoff) { return eval.period_if_swapped(i, j, cutoff); });
    }
    ASSERT_FALSE(::testing::Test::HasFatalFailure());

    // A no-op move leaves the period as it is.
    const MachineIndex own = eval.machine_of(i);
    ASSERT_EQ(eval.period_if_relocated(i, own), eval.period()) << "no-op relocate, step " << step;
    check("no-op relocate",
          [&](double cutoff) { return eval.period_if_relocated(i, own, cutoff); });
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    for (TaskIndex k = 1; k < n; ++k) {
      const TaskIndex mate = (i + k) % n;
      if (eval.machine_of(mate) != own) continue;
      ASSERT_EQ(eval.period_if_swapped(i, mate), eval.period()) << "no-op swap, step " << step;
      check("no-op swap", [&](double cutoff) { return eval.period_if_swapped(i, mate, cutoff); });
      ASSERT_FALSE(::testing::Test::HasFatalFailure());
      break;
    }

    if (rng.uniform_u64(0, 3) == 0) {
      if (relocate) {
        eval.apply_relocate(i, v);
        assignment[i] = v;
      } else {
        eval.apply_swap(i, j);
        std::swap(assignment[i], assignment[j]);
      }
    }
    // Cutoff probes leave the committed state alone.
    ASSERT_EQ(eval.period(), core::period(problem, core::Mapping{assignment}))
        << "committed period diverged at step " << step;
  }
}

TEST(IncrementalEvaluator, CutoffProbesExactBelowAndBoundedAtOrAbove) {
  for (const std::string& id : exp::scenario_ids()) {
    exp::Scenario scenario;
    scenario.tasks = 26;
    scenario.machines = 6;
    scenario.types = 3;
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      const exp::Instance instance = exp::generate_instance(id, scenario, seed);
      SCOPED_TRACE("scenario " + id + " seed " + std::to_string(seed));
      std::size_t stopped_short = 0;
      check_cutoff_contract(*instance.effective, seed * 613 + 5, 150, stopped_short);
      EXPECT_GT(stopped_short, 0u);
    }
  }
  exp::Scenario tree;
  tree.tasks = 32;
  tree.machines = 8;
  tree.types = 4;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("in-tree seed " + std::to_string(seed));
    std::size_t stopped_short = 0;
    check_cutoff_contract(exp::generate_in_tree(tree, 0.35, seed), seed * 89 + 1, 200,
                          stopped_short);
    EXPECT_GT(stopped_short, 0u);
  }
  // m > 64: the machine masks take two words.
  exp::Scenario wide;
  wide.tasks = 70;
  wide.machines = 66;
  wide.types = 8;
  for (const bool in_tree : {false, true}) {
    SCOPED_TRACE(in_tree ? "n=70 m=66 in-tree" : "n=70 m=66 chain");
    std::size_t stopped_short = 0;
    check_cutoff_contract(in_tree ? exp::generate_in_tree(wide, 0.4, 3) : exp::generate(wide, 3),
                          in_tree ? 4243 : 4242, 200, stopped_short);
    EXPECT_GT(stopped_short, 0u);
  }
  // f up to 90% (F ratios far from 1), and the inputs a rounding-bounded
  // screen must refuse: every w scaled by 2^-960 or 2^960, or every odd
  // machine at F = 2^52.
  const std::pair<int, Rates> extremes[] = {
      {0, kWideRates}, {-960, kPaperRates}, {960, kPaperRates}, {0, kSteepRates}};
  for (const Topology topology : {kChain, kInTree}) {
    for (const auto& [scale, rates] : extremes) {
      SCOPED_TRACE(std::string(topology == kChain ? "chain" : "in-tree") + " n=30 m=65 scale=" +
                   std::to_string(scale) + " rates=" + std::to_string(rates));
      std::size_t stopped_short = 0;
      check_cutoff_contract(edge_problem(topology, 30, 65, 4, 2, scale, rates), 977, 150,
                            stopped_short);
      EXPECT_GT(stopped_short, 0u);
    }
  }
}

TEST(IncrementalEvaluator, ChainsLabelledOffThePathProbeLikeFullEval) {
  // A problem text may list a chain's tasks in any order. The chain fast
  // path walks tasks by label, so such a chain must take the DFS path,
  // and every probe must still equal core::period on the moved mapping.
  for (const auto& [n, m] : {std::pair<std::size_t, std::size_t>{12, 5}, {50, 10}}) {
    exp::Scenario scenario;
    scenario.tasks = n;
    scenario.machines = m;
    scenario.types = 2;
    scenario.failure_max = 0.3;
    const core::Problem chain = exp::generate(scenario, 5);
    ASSERT_TRUE(core::EvalWorkspace(chain).is_chain());
    for (const std::vector<TaskIndex>& label : off_path_labels(n)) {
      SCOPED_TRACE("n=" + std::to_string(n) + " label[0]=" + std::to_string(label[0]));
      const core::Problem problem = test::relabelled(chain, label);
      ASSERT_TRUE(problem.app.is_linear_chain());
      EXPECT_FALSE(core::EvalWorkspace(problem).is_chain());
      check_incremental_equivalence(problem, 31 * n + label[0], 200);
      std::size_t stopped_short = 0;
      check_cutoff_contract(problem, 37 * n + label[0], 100, stopped_short);
      EXPECT_GT(stopped_short, 0u);
    }
  }
}

TEST(LocalSearch, ChainsLabelledOffThePathRefineWithoutThrowing) {
  // serve-mixed's n=50, m=10, p=2 chain from H4w under reversed and
  // shuffled labels: refinement stays monotone (it checks that itself and
  // throws otherwise) and reports the period of the mapping it returns.
  exp::Scenario scenario;
  scenario.tasks = 50;
  scenario.machines = 10;
  scenario.types = 2;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const core::Problem chain = exp::generate(scenario, seed);
    for (const std::vector<TaskIndex>& label : off_path_labels(scenario.tasks)) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " label[0]=" + std::to_string(label[0]));
      const core::Problem problem = test::relabelled(chain, label);
      support::Rng rng(seed);
      const auto start = heuristics::heuristic_by_name("H4w")->run(problem, rng);
      ASSERT_TRUE(start.has_value());
      ext::RefinementResult refined;
      ASSERT_NO_THROW(refined = ext::refine_mapping(problem, *start));
      EXPECT_LE(refined.period, refined.initial_period);
      EXPECT_EQ(refined.period, core::period(problem, refined.mapping));
    }
  }
}

TEST(IncrementalEvaluator, ResetRebindsWithoutStaleState) {
  exp::Scenario scenario;
  scenario.tasks = 15;
  scenario.machines = 5;
  scenario.types = 2;
  const core::Problem problem = exp::generate(scenario, 4);
  core::EvalWorkspace workspace(problem);
  support::Rng rng(99);
  const std::vector<MachineIndex> first = random_assignment(problem, rng);
  const std::vector<MachineIndex> second = random_assignment(problem, rng);
  core::IncrementalEvaluator eval(workspace, first);
  (void)eval.period_if_relocated(0, 1);  // dirty the probe scratch
  eval.reset(second);
  EXPECT_EQ(eval.period(), core::period(problem, core::Mapping{second}));
  const std::vector<double> ref = core::machine_periods(problem, core::Mapping{second});
  for (MachineIndex u = 0; u < ref.size(); ++u) EXPECT_EQ(eval.loads()[u], ref[u]);
}

// --- Pinned-seed local-search bit-identity ---------------------------------

struct GoldenEntry {
  const char* method;
  std::size_t tasks;
  std::size_t machines;
  std::size_t types;
  std::uint64_t seed;
  double period;  // hexfloat-captured, compared bit-exactly
  std::vector<MachineIndex> assignment;
};

const std::vector<GoldenEntry>& golden_entries() {
  static const std::vector<GoldenEntry> entries{
#include "golden_local_search.inc"
  };
  return entries;
}

TEST(LocalSearchGolden, RefinedMappingsByteIdenticalToPreRefactorCapture) {
  // The golden table was captured from the pre-refactor local search
  // (copy-assignment + full core::period per candidate). The incremental
  // implementation must reproduce every mapping byte for byte and every
  // period bit for bit, across H1..H4f x three shapes x three seeds.
  const auto& entries = golden_entries();
  ASSERT_EQ(entries.size(), 54u);
  for (const GoldenEntry& entry : entries) {
    SCOPED_TRACE(std::string(entry.method) + " n=" + std::to_string(entry.tasks) +
                 " seed=" + std::to_string(entry.seed));
    exp::Scenario scenario;
    scenario.tasks = entry.tasks;
    scenario.machines = entry.machines;
    scenario.types = entry.types;
    const core::Problem problem = exp::generate(scenario, entry.seed);
    support::Rng rng(entry.seed);
    const auto start = heuristics::heuristic_by_name(entry.method)->run(problem, rng);
    ASSERT_TRUE(start.has_value());
    const ext::RefinementResult refined = ext::refine_mapping(problem, *start);
    EXPECT_EQ(refined.period, entry.period);
    ASSERT_EQ(refined.mapping.task_count(), entry.assignment.size());
    for (TaskIndex i = 0; i < entry.assignment.size(); ++i) {
      EXPECT_EQ(refined.mapping.machine_of(i), entry.assignment[i])
          << "assignment[" << i << "]";
    }
  }
}

struct ShapeGoldenEntry {
  const char* topology;  // chain, tree, chain-ties, tree-ties
  std::size_t tasks;
  std::size_t machines;
  std::size_t types;
  std::uint64_t seed;
  const char* start;
  const char* options;  // default, first, noswap, gain0, pass3
  double initial_period;
  double period;
  std::size_t moves_applied;
  std::size_t passes;
  bool converged;
  std::vector<MachineIndex> assignment;
};

const std::vector<ShapeGoldenEntry>& shape_golden_entries() {
  static const std::vector<ShapeGoldenEntry> entries{
#include "golden_local_search_shapes.inc"
  };
  return entries;
}

ext::RefinementOptions refinement_options_named(const std::string& name) {
  ext::RefinementOptions options;
  if (name == "first") options.first_improvement = true;
  if (name == "noswap") options.allow_swaps = false;
  if (name == "gain0") options.min_relative_gain = 0.0;
  if (name == "pass3") options.max_passes = 3;
  return options;
}

TEST(LocalSearchGolden, ShapesAndOptionsMatchPreCutoffCapture) {
  // Pins every output of refine_mapping on the shapes and options the
  // bounded probes branch on: serve-mixed's n=50, m=10, p=2 chain from
  // H4w, in-trees (the generic subtree walk) from H1 and H4w, m = 66 (two
  // mask words), tie-heavy platforms (the tie-breaks), and each option
  // that changes which moves a pass takes or when it stops.
  const auto& entries = shape_golden_entries();
  ASSERT_EQ(entries.size(), 36u);
  for (const ShapeGoldenEntry& entry : entries) {
    const std::string topology = entry.topology;
    SCOPED_TRACE(topology + " n=" + std::to_string(entry.tasks) + " m=" +
                 std::to_string(entry.machines) + " seed=" + std::to_string(entry.seed) + " " +
                 entry.start + " " + entry.options);
    exp::Scenario scenario;
    scenario.tasks = entry.tasks;
    scenario.machines = entry.machines;
    scenario.types = entry.types;
    if (topology.ends_with("-ties")) {
      scenario.time_min_ms = 100.0;
      scenario.time_max_ms = 102.0;
      scenario.failure_min = 0.0;
      scenario.failure_max = 0.0;
    }
    const core::Problem problem = topology.starts_with("tree")
                                      ? exp::generate_in_tree(scenario, 0.4, entry.seed)
                                      : exp::generate(scenario, entry.seed);
    support::Rng rng(entry.seed);
    const auto start = heuristics::heuristic_by_name(entry.start)->run(problem, rng);
    ASSERT_TRUE(start.has_value());
    const ext::RefinementResult refined =
        ext::refine_mapping(problem, *start, refinement_options_named(entry.options));
    EXPECT_EQ(refined.initial_period, entry.initial_period);
    EXPECT_EQ(refined.period, entry.period);
    EXPECT_EQ(refined.moves_applied, entry.moves_applied);
    EXPECT_EQ(refined.passes, entry.passes);
    EXPECT_EQ(refined.converged, entry.converged);
    ASSERT_EQ(refined.mapping.task_count(), entry.assignment.size());
    for (TaskIndex i = 0; i < entry.assignment.size(); ++i) {
      EXPECT_EQ(refined.mapping.machine_of(i), entry.assignment[i])
          << "assignment[" << i << "]";
    }
  }
}


// --- Edge shapes: wide platforms, extreme w and F ---------------------------

/// A period in the table whose loads overflowed.
constexpr double kInf = std::numeric_limits<double>::infinity();

struct EdgeGoldenEntry {
  Topology topology;
  std::size_t tasks;
  std::size_t machines;
  std::size_t types;
  std::uint64_t seed;
  int scale;  // every w multiplied by 2^scale
  Rates rates;
  const char* start;
  const char* options;  // default, first, noswap, noswap-first
  double initial_period;
  double period;
  std::size_t moves_applied;
  std::size_t passes;
  bool converged;
  std::vector<MachineIndex> assignment;
};

TEST(LocalSearchGolden, EdgeShapesAndExtremeInputsMatchPreScreenCapture) {
  // Chains and in-trees at m = 64, 65 and 130 (one, two and three mask
  // words) and n = 30 and 100, with f up to 90% under every combination
  // of allow_swaps and first_improvement, and with every w scaled by
  // 2^-960 or 2^960 or every odd machine at F = 2^52: inputs a screen
  // built on rounding bounds must not run on. Every row refines without
  // throwing.
  static const std::vector<EdgeGoldenEntry> entries{
#include "golden_local_search_edges.inc"
  };
  ASSERT_EQ(entries.size(), 132u);
  for (const EdgeGoldenEntry& entry : entries) {
    SCOPED_TRACE(std::string(entry.topology == kChain ? "chain" : "in-tree") +
                 " n=" + std::to_string(entry.tasks) + " m=" + std::to_string(entry.machines) +
                 " scale=" + std::to_string(entry.scale) + " rates=" +
                 std::to_string(entry.rates) + " " + entry.start + " " + entry.options);
    const core::Problem problem = edge_problem(entry.topology, entry.tasks, entry.machines,
                                               entry.types, entry.seed, entry.scale, entry.rates);
    support::Rng rng(entry.seed);
    const auto start = heuristics::heuristic_by_name(entry.start)->run(problem, rng);
    ASSERT_TRUE(start.has_value());
    ext::RefinementOptions options;
    options.first_improvement =
        std::string(entry.options) == "first" || std::string(entry.options) == "noswap-first";
    options.allow_swaps =
        std::string(entry.options) != "noswap" && std::string(entry.options) != "noswap-first";
    const ext::RefinementResult refined = ext::refine_mapping(problem, *start, options);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(refined.initial_period),
              std::bit_cast<std::uint64_t>(entry.initial_period));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(refined.period),
              std::bit_cast<std::uint64_t>(entry.period));
    EXPECT_EQ(refined.moves_applied, entry.moves_applied);
    EXPECT_EQ(refined.passes, entry.passes);
    EXPECT_EQ(refined.converged, entry.converged);
    ASSERT_EQ(refined.mapping.task_count(), entry.assignment.size());
    for (TaskIndex i = 0; i < entry.assignment.size(); ++i) {
      EXPECT_EQ(refined.mapping.machine_of(i), entry.assignment[i])
          << "assignment[" << i << "]";
    }
  }
}

}  // namespace
}  // namespace mf
