// Tests for the combinatorial branch-and-bound: optimality against brute
// force, dominance over every heuristic, budget behaviour and edge cases.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/evaluation.hpp"
#include "exact/brute_force.hpp"
#include "exact/specialized_bnb.hpp"
#include "exp/scenario.hpp"
#include "exp/method.hpp"
#include "solve/solver.hpp"
#include "test_helpers.hpp"

namespace mf::exact {
namespace {

using core::MappingRule;
using core::Problem;

TEST(SpecializedBnB, InfeasibleWhenTypesExceedMachines) {
  const Problem problem = test::uniform_problem({0, 1, 2}, 2);
  const BnBResult result = solve_specialized_optimal(problem);
  EXPECT_FALSE(result.mapping.has_value());
  EXPECT_TRUE(result.proven_optimal);
}

TEST(SpecializedBnB, TrivialSingleTask) {
  core::Application app = core::Application::linear_chain({0});
  core::Platform platform = test::make_platform({{300, 100}}, {{0.0, 0.0}});
  const Problem problem{std::move(app), std::move(platform)};
  const BnBResult result = solve_specialized_optimal(problem);
  ASSERT_TRUE(result.mapping.has_value());
  EXPECT_EQ(result.mapping->machine_of(0), 1u);
  EXPECT_DOUBLE_EQ(result.period, 100.0);
  EXPECT_TRUE(result.proven_optimal);
}

TEST(SpecializedBnB, HandComputedTinyChain) {
  const Problem problem = test::tiny_chain_problem();
  const BnBResult result = solve_specialized_optimal(problem);
  ASSERT_TRUE(result.mapping.has_value());
  const BruteForceResult reference = brute_force_optimal(problem, MappingRule::kSpecialized);
  EXPECT_NEAR(result.period, reference.period, 1e-9);
  EXPECT_TRUE(result.proven_optimal);
}

TEST(SpecializedBnB, BudgetExhaustionReportsNotProven) {
  exp::Scenario scenario;
  scenario.tasks = 12;
  scenario.machines = 5;
  scenario.types = 2;
  const Problem problem = exp::generate(scenario, 3);
  BnBOptions options;
  options.max_nodes = 5;  // absurdly small
  const BnBResult result = solve_specialized_optimal(problem, options);
  EXPECT_FALSE(result.proven_optimal);
  // Every visited node counts, the refused sixth one included.
  EXPECT_EQ(result.nodes, 6u);
  // The heuristic warm start still provides a mapping.
  ASSERT_TRUE(result.mapping.has_value());
  EXPECT_TRUE(result.mapping->complies_with(MappingRule::kSpecialized, problem.app,
                                            problem.machine_count()));
}

TEST(SpecializedBnB, WithoutWarmStartStillOptimal) {
  const Problem problem = test::tiny_chain_problem();
  BnBOptions options;
  options.seed_with_heuristics = false;
  const BnBResult result = solve_specialized_optimal(problem, options);
  const BruteForceResult reference = brute_force_optimal(problem, MappingRule::kSpecialized);
  ASSERT_TRUE(result.mapping.has_value());
  EXPECT_NEAR(result.period, reference.period, 1e-9);
}

struct BnBCase {
  std::size_t tasks;
  std::size_t machines;
  std::size_t types;
};

class BnBBruteForceTest
    : public ::testing::TestWithParam<std::tuple<BnBCase, std::uint64_t>> {};

TEST_P(BnBBruteForceTest, MatchesExhaustiveEnumeration) {
  const auto& [dims, seed] = GetParam();
  exp::Scenario scenario;
  scenario.tasks = dims.tasks;
  scenario.machines = dims.machines;
  scenario.types = dims.types;
  const Problem problem = exp::generate(scenario, seed);

  const BnBResult bnb = solve_specialized_optimal(problem);
  const BruteForceResult reference = brute_force_optimal(problem, MappingRule::kSpecialized);
  ASSERT_TRUE(bnb.mapping.has_value());
  ASSERT_TRUE(reference.mapping.has_value());
  ASSERT_TRUE(bnb.proven_optimal);
  EXPECT_NEAR(bnb.period, reference.period, 1e-9 * reference.period);
  EXPECT_TRUE(bnb.mapping->complies_with(MappingRule::kSpecialized, problem.app,
                                         problem.machine_count()));
}

INSTANTIATE_TEST_SUITE_P(
    SmallInstances, BnBBruteForceTest,
    ::testing::Combine(::testing::Values(BnBCase{4, 3, 2}, BnBCase{5, 3, 3},
                                         BnBCase{6, 4, 2}, BnBCase{7, 3, 2},
                                         BnBCase{6, 5, 4}),
                       ::testing::Values<std::uint64_t>(1, 2, 3, 4, 5)));

class BnBDominanceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BnBDominanceTest, NeverWorseThanAnyHeuristic) {
  exp::Scenario scenario;
  scenario.tasks = 10;
  scenario.machines = 5;
  scenario.types = 2;
  const Problem problem = exp::generate(scenario, GetParam());
  const BnBResult bnb = solve_specialized_optimal(problem);
  ASSERT_TRUE(bnb.mapping.has_value());
  ASSERT_TRUE(bnb.proven_optimal);
  for (const exp::Method& method : exp::all_heuristic_methods()) {
    const auto mapping = solve::run(problem, method.solver_id, {.seed = GetParam()}).mapping;
    ASSERT_TRUE(mapping.has_value());
    EXPECT_LE(bnb.period, core::period(problem, *mapping) + 1e-9)
        << "optimal must dominate " << method.solver_id;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BnBDominanceTest, ::testing::Range<std::uint64_t>(1, 16));

TEST(SpecializedBnB, PaperScaleInstanceSolves) {
  // The Figure 10 regime: m=5, p=2, n up to ~15.
  exp::Scenario scenario;
  scenario.tasks = 12;
  scenario.machines = 5;
  scenario.types = 2;
  const Problem problem = exp::generate(scenario, 11);
  const BnBResult result = solve_specialized_optimal(problem);
  ASSERT_TRUE(result.mapping.has_value());
  EXPECT_TRUE(result.proven_optimal);
  EXPECT_GT(result.nodes, 0u);
}

/// The same chain under other task labels: task i becomes task
/// (13·i + 5) mod n, with its type, successor and platform rows moved along.
/// n must be coprime to 13 for that to be a permutation.
struct Relabelled {
  Problem problem;
  std::vector<core::TaskIndex> label;  ///< label[i]: task i's new index
};

Relabelled relabel_chain(const Problem& chain) {
  const std::size_t n = chain.task_count();
  std::vector<core::TaskIndex> label(n);
  for (std::size_t i = 0; i < n; ++i) label[i] = (13 * i + 5) % n;
  return {test::relabelled(chain, label), std::move(label)};
}

TEST(SpecializedBnB, ChainSearchDoesNotDependOnTaskLabels) {
  // The golden table's chains number their tasks along the path. A chain
  // built from successors under shuffled labels is the same problem, so
  // the search must visit the same nodes and end on the same mapping,
  // relabelled, with the same period bits. Failure rates up to 30% spread
  // the downstream products far apart, so a bound that read another
  // task's product would prune differently.
  for (const auto& [n, m, p] : {std::array<std::size_t, 3>{10, 5, 2}, {14, 9, 4}, {20, 9, 4}}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      for (const bool warm : {true, false}) {
        SCOPED_TRACE("n=" + std::to_string(n) + " m=" + std::to_string(m) +
                     " seed=" + std::to_string(seed) + (warm ? " warm" : " cold"));
        exp::Scenario scenario;
        scenario.tasks = n;
        scenario.machines = m;
        scenario.types = p;
        scenario.failure_min = 0.05;
        scenario.failure_max = 0.3;
        const Problem chain = exp::generate(scenario, seed);
        const Relabelled shuffled = relabel_chain(chain);
        ASSERT_TRUE(shuffled.problem.app.is_linear_chain());
        ASSERT_NE(shuffled.problem.app.backward_order(), chain.app.backward_order());

        BnBOptions options;
        options.max_nodes = 20'000;
        options.seed_with_heuristics = warm;
        const BnBResult expected = solve_specialized_optimal(chain, options);
        const BnBResult result = solve_specialized_optimal(shuffled.problem, options);
        EXPECT_EQ(result.nodes, expected.nodes);
        EXPECT_EQ(result.proven_optimal, expected.proven_optimal);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(result.period),
                  std::bit_cast<std::uint64_t>(expected.period));
        ASSERT_TRUE(result.mapping.has_value());
        ASSERT_TRUE(expected.mapping.has_value());
        for (core::TaskIndex i = 0; i < n; ++i) {
          EXPECT_EQ(result.mapping->machine_of(shuffled.label[i]), expected.mapping->machine_of(i))
              << "task " << i;
        }
      }
    }
  }
}

// --- Pinned-seed node-for-node identity ------------------------------------

enum Topology { kChain, kInTree };

/// The reported period is core::period of the reported mapping, bit for bit.
void expect_period_of_mapping(const Problem& problem, const BnBResult& result) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.period),
            std::bit_cast<std::uint64_t>(core::period(problem, *result.mapping)));
}

struct GoldenBnB {
  Topology topology;
  std::size_t tasks;
  std::size_t machines;
  std::size_t types;
  std::uint64_t seed;
  bool seed_with_heuristics;
  std::uint64_t nodes;
  bool proven_optimal;
  double period;  // hexfloat-captured, compared bit-exactly
  std::vector<core::MachineIndex> assignment;
};

const std::vector<GoldenBnB>& golden_bnb_entries() {
  static const std::vector<GoldenBnB> entries{
#include "golden_bnb.inc"
  };
  return entries;
}

TEST(SpecializedBnBGolden, SameNodesPeriodsAndMappingsAsPreRewriteCapture) {
  // Captured from the B&B before its per-node allocations were removed.
  // The node count pins the visit order and every prune, and the mapping
  // the search kept; the period is core::period of that mapping, bit for
  // bit (the search's own running loads drift from it). Chains and
  // in-trees at the Figure 10 (m=5, p=2) and Figure 12 (m=9, p=4) shapes,
  // with and without the H2/H4w warm start; the n=14/20 rows mostly run out
  // of the 20,000-node budget.
  const auto& entries = golden_bnb_entries();
  ASSERT_EQ(entries.size(), 64u);
  std::size_t exhausted = 0;
  for (const GoldenBnB& entry : entries) {
    SCOPED_TRACE(std::string(entry.topology == kChain ? "chain" : "in-tree") +
                 " n=" + std::to_string(entry.tasks) + " m=" + std::to_string(entry.machines) +
                 " seed=" + std::to_string(entry.seed) +
                 (entry.seed_with_heuristics ? " warm" : " cold"));
    exp::Scenario scenario;
    scenario.tasks = entry.tasks;
    scenario.machines = entry.machines;
    scenario.types = entry.types;
    const Problem problem = entry.topology == kChain
                                ? exp::generate(scenario, entry.seed)
                                : exp::generate_in_tree(scenario, 0.4, entry.seed);
    BnBOptions options;
    options.max_nodes = 20'000;
    options.seed_with_heuristics = entry.seed_with_heuristics;
    const BnBResult result = solve_specialized_optimal(problem, options);
    EXPECT_EQ(result.nodes, entry.nodes);
    EXPECT_EQ(result.proven_optimal, entry.proven_optimal);
    EXPECT_EQ(result.period, entry.period);
    ASSERT_TRUE(result.mapping.has_value());
    expect_period_of_mapping(problem, result);
    ASSERT_EQ(result.mapping->task_count(), entry.assignment.size());
    for (core::TaskIndex i = 0; i < entry.assignment.size(); ++i) {
      EXPECT_EQ(result.mapping->machine_of(i), entry.assignment[i]) << "assignment[" << i << "]";
    }
    if (!entry.proven_optimal) ++exhausted;
  }
  // Both outcomes stay covered: the budget cut and a completed proof.
  EXPECT_GT(exhausted, 0u);
  EXPECT_LT(exhausted, entries.size());
}

// --- Edge shapes: several mask words, extreme w and F ------------------------

/// kWideRates draws every f from [0.5%, 1 - 2^-52]; kSteepRates sets every
/// odd machine's f to 1 - 2^-52 (F = 2^52), so on a 20-task chain the
/// product of each task's largest F overflows.
enum Rates { kPaperRates, kWideRates, kSteepRates };

struct GoldenBnBEdge {
  Topology topology;
  std::size_t tasks;
  std::size_t machines;
  std::size_t types;
  std::uint64_t seed;
  int scale;  // every w multiplied by 2^scale
  Rates rates;
  bool seed_with_heuristics;
  std::uint64_t nodes;
  bool proven_optimal;
  double period;
  std::vector<core::MachineIndex> assignment;
};

Problem edge_problem(const GoldenBnBEdge& entry) {
  exp::Scenario scenario;
  scenario.tasks = entry.tasks;
  scenario.machines = entry.machines;
  scenario.types = entry.types;
  if (entry.rates == kWideRates) scenario.failure_max = 1.0 - 0x1p-52;
  const Problem base = entry.topology == kChain
                           ? exp::generate(scenario, entry.seed)
                           : exp::generate_in_tree(scenario, 0.4, entry.seed);
  support::Matrix w(entry.tasks, entry.machines);
  support::Matrix f(entry.tasks, entry.machines);
  for (core::TaskIndex i = 0; i < entry.tasks; ++i) {
    for (core::MachineIndex u = 0; u < entry.machines; ++u) {
      w.at(i, u) = std::ldexp(base.platform.time_row(i)[u], entry.scale);
      f.at(i, u) = entry.rates == kSteepRates && u % 2 == 1 ? 1.0 - 0x1p-52
                                                             : base.platform.failure_row(i)[u];
    }
  }
  return Problem{base.app, core::Platform{std::move(w), std::move(f)}};
}

TEST(SpecializedBnBGolden, SameNodesOnWidePlatformsAndExtremeInputs) {
  // Captured with the golden table's rules on the shapes it does not
  // reach: m = 64, 65 and 130 (one, two and three mask words); chains
  // and in-trees with every w scaled by 2^-960 or 2^960, which the search
  // treats like the unscaled instance but the chain screen must not run
  // on; and failure rates up to 1 - 2^-52, where x spans many binades.
  static const std::vector<GoldenBnBEdge> entries{
#include "golden_bnb_edges.inc"
  };
  ASSERT_EQ(entries.size(), 60u);
  for (const GoldenBnBEdge& entry : entries) {
    SCOPED_TRACE(std::string(entry.topology == kChain ? "chain" : "in-tree") +
                 " n=" + std::to_string(entry.tasks) + " m=" + std::to_string(entry.machines) +
                 " seed=" + std::to_string(entry.seed) + " scale=" + std::to_string(entry.scale) +
                 " rates=" + std::to_string(entry.rates) +
                 (entry.seed_with_heuristics ? " warm" : " cold"));
    BnBOptions options;
    options.max_nodes = 20'000;
    options.seed_with_heuristics = entry.seed_with_heuristics;
    const Problem problem = edge_problem(entry);
    const BnBResult result = solve_specialized_optimal(problem, options);
    EXPECT_EQ(result.nodes, entry.nodes);
    EXPECT_EQ(result.proven_optimal, entry.proven_optimal);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(result.period),
              std::bit_cast<std::uint64_t>(entry.period));
    ASSERT_TRUE(result.mapping.has_value());
    expect_period_of_mapping(problem, result);
    ASSERT_EQ(result.mapping->task_count(), entry.assignment.size());
    for (core::TaskIndex i = 0; i < entry.assignment.size(); ++i) {
      EXPECT_EQ(result.mapping->machine_of(i), entry.assignment[i]) << "assignment[" << i << "]";
    }
  }
}


TEST(SpecializedBnBGolden, OverflowingLoadsStillYieldAMapping) {
  // Every w scaled by 2^960 and every odd machine at F = 2^52. The warm
  // start threw here (H4w found no machine once every score was +inf);
  // it now searches the same nodes as the cold search and ends on the
  // same mapping. On the n=14 in-tree every branch's bound or load
  // overflows, so the search keeps no mapping: it now answers with H4w's
  // mapping and its +inf period instead of "infeasible".
  const double inf = std::numeric_limits<double>::infinity();
  static const std::vector<GoldenBnBEdge> entries{
      {kChain, 10, 9, 3, 1ULL, 960, kSteepRates, true, 479ULL, true, 0x1.d3d387ceb752dp+969,
       {2, 2, 8, 4, 2, 0, 0, 0, 6, 6}},
      {kChain, 14, 9, 3, 1ULL, 960, kSteepRates, true, 3257ULL, true, 0x1.1d39c7c3730fp+970,
       {8, 8, 2, 8, 4, 8, 6, 2, 6, 0, 8, 6, 8, 0}},
      {kChain, 14, 9, 3, 1ULL, 960, kSteepRates, false, 3257ULL, true, 0x1.1d39c7c3730fp+970,
       {8, 8, 2, 8, 4, 8, 6, 2, 6, 0, 8, 6, 8, 0}},
      {kInTree, 10, 9, 3, 1ULL, 960, kSteepRates, true, 402ULL, true, 0x1.e2bd488d79aa4p+969,
       {6, 8, 8, 2, 2, 6, 0, 6, 4, 2}},
      {kInTree, 14, 9, 3, 1ULL, 960, kSteepRates, true, 150ULL, true, inf,
       {7, 1, 1, 1, 2, 2, 3, 1, 0, 0, 0, 2, 0, 1}},
      {kInTree, 14, 9, 3, 1ULL, 960, kSteepRates, false, 150ULL, true, inf,
       {7, 1, 1, 1, 2, 2, 3, 1, 0, 0, 0, 2, 0, 1}},
  };
  for (const GoldenBnBEdge& entry : entries) {
    SCOPED_TRACE(std::string(entry.topology == kChain ? "chain" : "in-tree") +
                 " n=" + std::to_string(entry.tasks) +
                 (entry.seed_with_heuristics ? " warm" : " cold"));
    BnBOptions options;
    options.max_nodes = 20'000;
    options.seed_with_heuristics = entry.seed_with_heuristics;
    const Problem problem = edge_problem(entry);
    BnBResult result;
    ASSERT_NO_THROW(result = solve_specialized_optimal(problem, options));
    EXPECT_EQ(result.nodes, entry.nodes);
    EXPECT_EQ(result.proven_optimal, entry.proven_optimal);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(result.period),
              std::bit_cast<std::uint64_t>(entry.period));
    ASSERT_TRUE(result.mapping.has_value());
    EXPECT_EQ(result.mapping->assignment(), entry.assignment);
    expect_period_of_mapping(problem, result);
  }
}

}  // namespace
}  // namespace mf::exact
