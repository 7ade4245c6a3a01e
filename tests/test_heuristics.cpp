// Tests for the six paper heuristics: validity of the produced mappings,
// determinism, feasibility limits, binary-search engine behaviour and
// qualitative ordering properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/evaluation.hpp"
#include "exp/method.hpp"
#include "exp/scenario.hpp"
#include "heuristics/binary_search.hpp"
#include "heuristics/h1_random.hpp"
#include "heuristics/h4_family.hpp"
#include "solve/solver.hpp"
#include "support/matrix.hpp"
#include "support/rng.hpp"
#include "test_helpers.hpp"

namespace mf::heuristics {
namespace {

using core::Mapping;
using core::MappingRule;
using core::Problem;

TEST(Heuristics, InfeasibleWhenMoreTypesThanMachines) {
  const Problem problem = test::uniform_problem({0, 1, 2}, 2);
  for (const exp::Method& method : exp::all_heuristic_methods()) {
    EXPECT_FALSE(solve::run(problem, method.solver_id).has_mapping()) << method.solver_id;
  }
}

TEST(Heuristics, SingleTaskSingleMachine) {
  const Problem problem = test::uniform_problem({0}, 1, 100.0, 0.1);
  for (const exp::Method& method : exp::all_heuristic_methods()) {
    const auto mapping = solve::run(problem, method.solver_id).mapping;
    ASSERT_TRUE(mapping.has_value()) << method.solver_id;
    EXPECT_EQ(mapping->machine_of(0), 0u);
  }
}

TEST(Heuristics, DeterministicExceptH1) {
  exp::Scenario scenario;
  scenario.tasks = 12;
  scenario.machines = 6;
  scenario.types = 3;
  const Problem problem = exp::generate(scenario, 7);
  for (const exp::Method& method : exp::all_heuristic_methods()) {
    if (method.solver_id == "H1") continue;
    EXPECT_EQ(solve::run(problem, method.solver_id, {.seed = 1}).mapping,
              solve::run(problem, method.solver_id, {.seed = 999}).mapping)
        << method.solver_id << " must ignore the seed";
  }
}

TEST(Heuristics, H1VariesWithSeed) {
  exp::Scenario scenario;
  scenario.tasks = 20;
  scenario.machines = 10;
  scenario.types = 3;
  const Problem problem = exp::generate(scenario, 7);
  support::Rng rng1(1), rng2(2);
  const auto a = h1(problem, rng1);
  const auto b = h1(problem, rng2);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_NE(*a, *b) << "different seeds should (almost surely) differ";
  // Same seed reproduces exactly.
  support::Rng rng1_again(1);
  EXPECT_EQ(*h1(problem, rng1_again), *a);
}

TEST(BinarySearchEngine, RespectsPeriodBound) {
  const Problem problem = test::tiny_chain_problem();
  const auto mapping = h2(problem);
  ASSERT_TRUE(mapping.has_value());
  // Check H2's mapping is within 1 ms of its binary-search certificate:
  // re-running the assignment pass at (period) must succeed.
  const double achieved = core::period(problem, *mapping);
  EXPECT_LE(achieved, core::period_upper_bound(problem));
}

TEST(BinarySearchEngine, AssignWithinTightBoundFails) {
  const Problem problem = test::tiny_chain_problem();
  class FirstFitSelector final : public MachineSelector {
   public:
    void prepare(const core::Problem& p) override {
      order_.resize(p.machine_count());
      for (std::size_t u = 0; u < order_.size(); ++u) order_[u] = u;
    }
    std::span<const core::MachineIndex> machines_for(core::TaskIndex) const override {
      return order_;
    }

   private:
    std::vector<core::MachineIndex> order_;
  };
  FirstFitSelector selector;
  selector.prepare(problem);
  EXPECT_FALSE(assign_within_period(problem, selector, 1.0).has_value());
  EXPECT_TRUE(
      assign_within_period(problem, selector, core::period_upper_bound(problem)).has_value());
}

TEST(BinarySearchEngine, PeriodBoundPastInt64StillYieldsMapping) {
  // Twelve tasks that each lose 99% of their products: every task upstream
  // needs 100x the products of its successor, so the trivial bound is about
  // 1e26 ms, which no int64 holds. The problem is feasible all the same.
  const Problem problem =
      test::uniform_problem({0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1}, 4, 100.0, 0.99);
  ASSERT_GT(core::period_upper_bound(problem), 0x1p63);
  for (const std::string name : {"H2", "H3"}) {
    const auto mapping = solve::run(problem, name).mapping;
    ASSERT_TRUE(mapping.has_value()) << name;
    EXPECT_TRUE(
        mapping->complies_with(MappingRule::kSpecialized, problem.app, problem.machine_count()))
        << name;
    EXPECT_LE(core::period(problem, *mapping), core::period_upper_bound(problem)) << name;
  }
}

/// A test order policy: a seeded random machine order for every task, or
/// one random order that every task shares (as H3's static order is).
class ShuffledSelector final : public MachineSelector {
 public:
  ShuffledSelector(std::uint64_t seed, bool per_task) : seed_(seed), per_task_(per_task) {}

  void prepare(const Problem& problem) override {
    const std::size_t m = problem.machine_count();
    support::Rng rng(seed_);
    machines_ = m;
    orders_.resize(per_task_ ? problem.task_count() * m : m);
    for (std::size_t begin = 0; begin < orders_.size(); begin += m) {
      core::MachineIndex* row = orders_.data() + begin;
      std::iota(row, row + m, core::MachineIndex{0});
      for (std::size_t k = m; k > 1; --k) std::swap(row[k - 1], row[rng.uniform_u64(0, k - 1)]);
    }
  }

  [[nodiscard]] std::span<const core::MachineIndex> machines_for(
      core::TaskIndex task) const override {
    return std::span<const core::MachineIndex>(orders_).subspan(
        (per_task_ ? task : 0) * machines_, machines_);
  }

 private:
  std::uint64_t seed_;
  bool per_task_;
  std::size_t machines_ = 0;
  std::vector<core::MachineIndex> orders_;
};

/// binary_search_schedule's bisection with one fresh greedy pass per probe:
/// no probe reuses anything an earlier one computed.
std::optional<Mapping> fresh_pass_bisection(const Problem& problem, MachineSelector& selector) {
  if (problem.type_count() > problem.machine_count()) return std::nullopt;
  selector.prepare(problem);
  const double upper = std::ceil(core::period_upper_bound(problem));
  std::optional<Mapping> best = assign_within_period(problem, selector, upper);
  if (!best.has_value()) {
    best = assign_within_period(problem, selector, std::numeric_limits<double>::infinity());
  }
  std::int64_t lo = 0;
  std::int64_t hi = upper < 0x1p63 ? static_cast<std::int64_t>(upper)
                                   : std::numeric_limits<std::int64_t>::max();
  while (hi - lo > 1) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    std::optional<Mapping> mapping =
        assign_within_period(problem, selector, static_cast<double>(mid));
    if (mapping.has_value()) {
      hi = mid;
      best = std::move(mapping);
    } else {
      lo = mid;
    }
  }
  return best;
}

TEST(BinarySearchEngine, ReplayedProbesMatchFreshPasses) {
  // Probes that replay an earlier probe's placements must reach the very
  // mappings that fresh passes reach, and fail on the same inputs.
  std::vector<Problem> problems;
  problems.push_back(
      test::uniform_problem({0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1}, 4, 100.0, 0.99));  // bound > 2^63
  problems.push_back(test::uniform_problem({0, 1, 2}, 2));  // p > m: both refuse
  problems.push_back(test::tiny_chain_problem());
  support::Rng draw(2024);
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    exp::Scenario scenario;
    scenario.machines = draw.uniform_u64(1, 14);
    scenario.tasks = draw.uniform_u64(1, 36);
    scenario.types = draw.uniform_u64(1, std::min(scenario.tasks, scenario.machines));
    switch (seed % 5) {
      case 0:  // tie-heavy: machines tie on their loads often
        scenario.time_min_ms = 100.0;
        scenario.time_max_ms = 102.0;
        break;
      case 1:
        scenario.integer_times = false;
        break;
      case 2:  // high failure rates: x grows fast along the chain
        scenario.failure_min = 0.1;
        scenario.failure_max = 0.6;
        break;
      case 3:
        scenario.failure_attachment = exp::FailureAttachment::kTaskOnly;
        break;
      default:  // no failures and w in [1, 4]: small integer loads that the
                // probes' integer bounds meet exactly
        scenario.time_min_ms = 1.0;
        scenario.time_max_ms = 4.0;
        scenario.failure_min = 0.0;
        scenario.failure_max = 0.0;
        break;
    }
    problems.push_back(seed % 2 == 0 ? exp::generate(scenario, seed)
                                     : exp::generate_in_tree(scenario, 0.4, seed));
  }
  std::size_t mapped = 0;
  for (std::size_t k = 0; k < problems.size(); ++k) {
    const Problem& problem = problems[k];
    for (const bool per_task : {true, false}) {
      SCOPED_TRACE("problem " + std::to_string(k) + (per_task ? " per-task" : " static") +
                   " order");
      ShuffledSelector replaying(k, per_task);
      ShuffledSelector fresh(k, per_task);
      const std::optional<Mapping> expected = fresh_pass_bisection(problem, fresh);
      const std::optional<Mapping> actual = binary_search_schedule(problem, replaying);
      ASSERT_EQ(actual.has_value(), expected.has_value());
      if (!expected.has_value()) continue;
      EXPECT_EQ(actual->assignment(), expected->assignment());
      ++mapped;
    }
  }
  EXPECT_EQ(mapped, 2 * (problems.size() - 1)) << "only the p > m problem goes unmapped";
}

TEST(H4Family, PrefersFastMachineWhenFailuresEqual) {
  // One task, two machines: M0 slow, M1 fast; identical failures.
  core::Application app = core::Application::linear_chain({0});
  core::Platform platform = test::make_platform({{500, 100}}, {{0.01, 0.01}});
  const Problem problem{std::move(app), std::move(platform)};
  for (const std::string name : {"H4", "H4w"}) {
    const auto mapping = solve::run(problem, name).mapping;
    ASSERT_TRUE(mapping.has_value());
    EXPECT_EQ(mapping->machine_of(0), 1u) << name;
  }
}

TEST(H4Family, H4fPrefersReliableMachine) {
  // M0 fast but unreliable, M1 slow but safe: H4f must pick M1.
  core::Application app = core::Application::linear_chain({0});
  core::Platform platform = test::make_platform({{100, 500}}, {{0.2, 0.001}});
  const Problem problem{std::move(app), std::move(platform)};
  const auto mapping = h4f(problem);
  ASSERT_TRUE(mapping.has_value());
  EXPECT_EQ(mapping->machine_of(0), 1u);
  // ...while H4w chases speed.
  const auto fast = h4w(problem);
  EXPECT_EQ(fast->machine_of(0), 0u);
}

TEST(H4Family, RawRatePolicyStillProducesValidMappings) {
  exp::Scenario scenario;
  scenario.tasks = 10;
  scenario.machines = 5;
  scenario.types = 2;
  const Problem problem = exp::generate(scenario, 3);
  const auto mapping = h4(problem, FailureFactor::kRawRate);
  ASSERT_TRUE(mapping.has_value());
  EXPECT_TRUE(
      mapping->complies_with(MappingRule::kSpecialized, problem.app, problem.machine_count()));
}

TEST(H4Family, OverflowingScoresTakeTheFirstAllowedMachine) {
  // Every w scaled by 2^960 and every odd machine at F = 2^52 (f = 1 -
  // 2^-52): once x·w overflows, every allowed machine scores +inf and the
  // scan keeps none, so the task takes the first allowed machine. H4w and
  // H4f threw on these inputs; the pinned mappings are the ones the
  // fallback gives, each a valid specialized mapping.
  struct Row {
    bool in_tree;
    const char* heuristic;
    std::vector<core::MachineIndex> assignment;
  };
  const Row rows[] = {
      {false, "H4w", {0, 1, 1, 0, 1, 0, 1, 1, 0, 2, 1, 1, 0, 0, 2, 1, 3, 0, 4, 5}},
      {false, "H4f", {2, 0, 0, 2, 0, 2, 0, 0, 2, 4, 6, 7, 5, 3, 1, 0, 6, 2, 4, 8}},
      {true, "H4w", {5, 4, 7, 2, 0, 2, 1, 0, 0, 1, 0, 1, 2, 0, 0, 1, 0, 0, 0, 0}},
      {true, "H4f", {4, 0, 8, 7, 0, 1, 6, 0, 2, 4, 2, 8, 3, 2, 5, 6, 2, 2, 2, 0}},
  };
  exp::Scenario scenario;
  scenario.tasks = 20;
  scenario.machines = 9;
  scenario.types = 3;
  for (const Row& row : rows) {
    SCOPED_TRACE(std::string(row.in_tree ? "in-tree " : "chain ") + row.heuristic);
    const Problem base = row.in_tree ? exp::generate_in_tree(scenario, 0.4, 1)
                                     : exp::generate(scenario, 1);
    support::Matrix w(scenario.tasks, scenario.machines);
    support::Matrix f(scenario.tasks, scenario.machines);
    for (core::TaskIndex i = 0; i < scenario.tasks; ++i) {
      for (core::MachineIndex u = 0; u < scenario.machines; ++u) {
        w.at(i, u) = std::ldexp(base.platform.time_row(i)[u], 960);
        f.at(i, u) = u % 2 == 1 ? 1.0 - 0x1p-52 : base.platform.failure_row(i)[u];
      }
    }
    const Problem problem{base.app, core::Platform{std::move(w), std::move(f)}};
    const auto mapping = solve::run(problem, row.heuristic).mapping;
    ASSERT_TRUE(mapping.has_value());
    EXPECT_TRUE(
        mapping->complies_with(MappingRule::kSpecialized, problem.app, problem.machine_count()));
    EXPECT_EQ(mapping->assignment(), row.assignment);
    EXPECT_TRUE(std::isinf(core::period(problem, *mapping)));
  }
}

struct SweepCase {
  std::size_t tasks;
  std::size_t machines;
  std::size_t types;
};

class HeuristicValidityTest
    : public ::testing::TestWithParam<std::tuple<std::string, SweepCase, std::uint64_t>> {};

TEST_P(HeuristicValidityTest, ProducesValidSpecializedMapping) {
  const auto& [name, dims, seed] = GetParam();
  exp::Scenario scenario;
  scenario.tasks = dims.tasks;
  scenario.machines = dims.machines;
  scenario.types = dims.types;
  const Problem problem = exp::generate(scenario, seed);

  const auto mapping = solve::run(problem, name, {.seed = seed}).mapping;
  ASSERT_TRUE(mapping.has_value());
  EXPECT_TRUE(mapping->is_complete(problem.machine_count()));
  EXPECT_TRUE(
      mapping->complies_with(MappingRule::kSpecialized, problem.app, problem.machine_count()));
  const double p = core::period(problem, *mapping);
  EXPECT_GT(p, 0.0);
  EXPECT_LE(p, core::period_upper_bound(problem) + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    AllHeuristicsAllShapes, HeuristicValidityTest,
    ::testing::Combine(::testing::Values("H1", "H2", "H3", "H4", "H4w", "H4f"),
                       ::testing::Values(SweepCase{5, 5, 2}, SweepCase{12, 4, 4},
                                         SweepCase{30, 10, 5}, SweepCase{60, 8, 2},
                                         SweepCase{9, 9, 9}),
                       ::testing::Values(1u, 2u, 3u)));

/// Qualitative property from Section 7.1: informed heuristics should beat
/// the random baseline H1 on average (not necessarily per instance).
TEST(Heuristics, H4wBeatsH1OnAverage) {
  exp::Scenario scenario;
  scenario.tasks = 40;
  scenario.machines = 12;
  scenario.types = 4;
  double h1_total = 0.0;
  double h4w_total = 0.0;
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    const Problem problem = exp::generate(scenario, seed);
    support::Rng rng(seed);
    h1_total += core::period(problem, *h1(problem, rng));
    h4w_total += core::period(problem, *h4w(problem));
  }
  EXPECT_LT(h4w_total, h1_total * 0.8) << "H4w should clearly dominate the random baseline";
}

/// Binary-search heuristics return a mapping whose period certifies the
/// final search interval: rerunning one pass at that period succeeds.
class BinarySearchConsistencyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BinarySearchConsistencyTest, H2PeriodIsAchievedByItsOwnMapping) {
  exp::Scenario scenario;
  scenario.tasks = 25;
  scenario.machines = 8;
  scenario.types = 3;
  const Problem problem = exp::generate(scenario, GetParam());
  const auto by_rank = h2(problem);
  const auto by_heterogeneity = h3(problem);
  ASSERT_TRUE(by_rank.has_value());
  ASSERT_TRUE(by_heterogeneity.has_value());
  // Both comply with the specialized rule and neither is catastrophically
  // worse than the other (same search engine, different orderings).
  EXPECT_TRUE(
      by_rank->complies_with(MappingRule::kSpecialized, problem.app, problem.machine_count()));
  EXPECT_TRUE(by_heterogeneity->complies_with(MappingRule::kSpecialized, problem.app,
                                              problem.machine_count()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BinarySearchConsistencyTest,
                         ::testing::Range<std::uint64_t>(1, 11));

enum Topology { kChain, kInTree };

/// Generator settings of a golden row: the paper's defaults, Figure 8's
/// high failure rates, Figure 9's per-task rates, tie-heavy integer times
/// (w in [100, 102], so ranks and then w tie often), non-integer times,
/// the paper's defaults with one type's tasks split across two w rows
/// (kSplitType, see split_type_times), and the paper's defaults with w
/// redrawn so that every byte of their bit patterns varies (kBinades) or
/// only the lowest (kLowByte, see redrawn_times).
enum Shape { kPaper, kHighFailure, kTaskFailure, kTies, kFractional, kSplitType, kBinades, kLowByte };

/// `base` rebuilt from task x machine matrices, with every second task of
/// type 0 given a second w row drawn in [100, 1000]. Platform documents
/// type-uniform times but does not enforce them, so H2 and H3 must not
/// assume that tasks of one type share a row.
Problem split_type_times(const Problem& base, std::uint64_t seed) {
  const std::size_t n = base.task_count();
  const std::size_t m = base.machine_count();
  support::Matrix times(n, m);
  support::Matrix failures(n, m);
  for (core::TaskIndex i = 0; i < n; ++i) {
    for (core::MachineIndex u = 0; u < m; ++u) {
      times.at(i, u) = base.platform.time(i, u);
      failures.at(i, u) = base.platform.failure(i, u);
    }
  }
  support::Rng rng(seed);
  std::vector<double> second_row(m);
  for (double& w : second_row) w = static_cast<double>(rng.uniform_u64(100, 1000));
  const std::vector<core::TaskIndex>& tasks = base.app.tasks_of_type(0);
  for (std::size_t k = 1; k < tasks.size(); k += 2) {
    for (core::MachineIndex u = 0; u < m; ++u) times.at(tasks[k], u) = second_row[u];
  }
  return Problem{base.app, core::Platform{std::move(times), std::move(failures)}};
}

/// `base` with one new w row per type. kBinades draws each w as a mantissa
/// in [1, 2) times 2^e with e in [-500, 500]; kLowByte draws 300 plus 0 to
/// 31 ulps, so the rows differ only in the lowest byte of their w.
Problem redrawn_times(const Problem& base, Shape shape, std::uint64_t seed) {
  const std::size_t n = base.task_count();
  const std::size_t m = base.machine_count();
  support::Rng rng(seed);
  support::Matrix type_times(base.app.type_count(), m);
  for (std::size_t t = 0; t < type_times.rows(); ++t) {
    for (core::MachineIndex u = 0; u < m; ++u) {
      if (shape == kBinades) {
        // Two statements fix the draw order, exponent first, which the
        // arguments of one call would leave unspecified.
        const int exponent = static_cast<int>(rng.uniform_u64(0, 1000)) - 500;
        type_times.at(t, u) = std::ldexp(rng.uniform(1.0, 2.0), exponent);
      } else {
        type_times.at(t, u) =
            std::bit_cast<double>(std::bit_cast<std::uint64_t>(300.0) + rng.uniform_u64(0, 31));
      }
    }
  }
  support::Matrix times(n, m);
  support::Matrix failures(n, m);
  for (core::TaskIndex i = 0; i < n; ++i) {
    for (core::MachineIndex u = 0; u < m; ++u) {
      times.at(i, u) = type_times.at(base.app.type_of(i), u);
      failures.at(i, u) = base.platform.failure(i, u);
    }
  }
  return Problem{base.app, core::Platform{std::move(times), std::move(failures)}};
}

struct GoldenBinarySearch {
  Topology topology;
  Shape shape;
  std::size_t tasks;
  std::size_t machines;
  std::size_t types;
  std::uint64_t seed;
  std::string heuristic;
  double period;  // hexfloat-captured, compared bit-exactly
  std::vector<core::MachineIndex> assignment;
};

const std::vector<GoldenBinarySearch>& golden_binary_search_entries() {
  static const std::vector<GoldenBinarySearch> entries{
#include "golden_binary_search.inc"
  };
  return entries;
}

TEST(BinarySearchGolden, SameMappingsAndPeriodsAsPreRewriteCapture) {
  // Captured from the engine that re-sorted every task's machines on every
  // probe. The figure tables print one decimal, so only a bit-exact table
  // proves a rewrite still takes the same probes to the same mappings.
  // Chains and in-trees at the Figure 5/6/7/8/9/12 shapes, plus tie-heavy
  // and non-integer times, one type split across two w rows, and w whose
  // bit patterns vary in every byte or only in the lowest, two seeds each,
  // for H2 and H3.
  const auto& entries = golden_binary_search_entries();
  ASSERT_EQ(entries.size(), 136u);
  for (const GoldenBinarySearch& entry : entries) {
    SCOPED_TRACE(entry.heuristic + (entry.topology == kChain ? " chain" : " in-tree") +
                 " shape=" + std::to_string(entry.shape) + " n=" + std::to_string(entry.tasks) +
                 " m=" + std::to_string(entry.machines) + " p=" + std::to_string(entry.types) +
                 " seed=" + std::to_string(entry.seed));
    exp::Scenario scenario;
    scenario.tasks = entry.tasks;
    scenario.machines = entry.machines;
    scenario.types = entry.types;
    switch (entry.shape) {
      case kPaper:
        break;
      case kHighFailure:
        scenario.failure_min = 0.0;
        scenario.failure_max = 0.10;
        break;
      case kTaskFailure:
        scenario.failure_attachment = exp::FailureAttachment::kTaskOnly;
        break;
      case kTies:
        scenario.time_min_ms = 100.0;
        scenario.time_max_ms = 102.0;
        break;
      case kFractional:
        scenario.integer_times = false;
        break;
      case kSplitType:
      case kBinades:
      case kLowByte:
        break;
    }
    const Problem generated = entry.topology == kChain
                                  ? exp::generate(scenario, entry.seed)
                                  : exp::generate_in_tree(scenario, 0.4, entry.seed);
    const Problem problem = entry.shape == kSplitType ? split_type_times(generated, entry.seed)
                            : entry.shape == kBinades || entry.shape == kLowByte
                                ? redrawn_times(generated, entry.shape, entry.seed)
                                : generated;
    if (entry.shape == kSplitType) {
      ASSERT_FALSE(problem.platform.has_type_uniform_times(problem.app));
    }
    if (entry.shape == kBinades || entry.shape == kLowByte) {
      // The rows cover the byte patterns they are named for.
      std::uint64_t varying = 0;
      const std::uint64_t first = std::bit_cast<std::uint64_t>(problem.platform.time(0, 0));
      for (core::TaskIndex i = 0; i < problem.task_count(); ++i) {
        for (const double w : problem.platform.time_row(i)) {
          varying |= std::bit_cast<std::uint64_t>(w) ^ first;
        }
      }
      for (int byte = 0; byte < 8; ++byte) {
        const bool varies = ((varying >> (8 * byte)) & 0xFF) != 0;
        EXPECT_EQ(varies, entry.shape == kBinades || byte == 0) << "byte " << byte;
      }
    }
    const auto mapping = entry.heuristic == "H2" ? h2(problem) : h3(problem);
    ASSERT_TRUE(mapping.has_value());
    EXPECT_EQ(core::period(problem, *mapping), entry.period);
    ASSERT_EQ(mapping->task_count(), entry.assignment.size());
    for (core::TaskIndex i = 0; i < entry.assignment.size(); ++i) {
      EXPECT_EQ(mapping->machine_of(i), entry.assignment[i]) << "assignment[" << i << "]";
    }
  }
}

/// H2's order built as it was before its ranks came from one radix pass:
/// each machine's column of owner w sorted as (w, task) pairs, then dense
/// ranks, then each owner's machines by (rank, w, index).
class PerColumnSortRankSelector final : public MachineSelector {
 public:
  void prepare(const Problem& problem) override {
    const std::size_t n = problem.task_count();
    const std::size_t m = problem.machine_count();
    std::vector<core::TaskIndex> owners;
    std::vector<core::TaskIndex> source(n);
    for (core::TaskIndex i = 0; i < n; ++i) {
      const core::TaskIndex first = problem.app.tasks_of_type(problem.app.type_of(i)).front();
      const std::span<const double> row = problem.platform.time_row(i);
      const std::span<const double> first_row = problem.platform.time_row(first);
      const bool copies = first != i && std::equal(row.begin(), row.end(), first_row.begin());
      source[i] = copies ? first : i;
      if (!copies) owners.push_back(i);
    }
    std::vector<std::size_t> ranks(n * m);
    std::vector<std::pair<double, core::TaskIndex>> by_time(owners.size());
    for (core::MachineIndex u = 0; u < m; ++u) {
      for (std::size_t k = 0; k < owners.size(); ++k) {
        by_time[k] = {problem.platform.time_row(owners[k])[u], owners[k]};
      }
      std::sort(by_time.begin(), by_time.end());
      std::size_t rank = 0;
      for (std::size_t k = 0; k < by_time.size(); ++k) {
        if (k > 0 && by_time[k].first > by_time[k - 1].first) ++rank;
        ranks[by_time[k].second * m + u] = rank;
      }
    }
    machines_ = m;
    order_.resize(n * m);
    for (core::TaskIndex i = 0; i < n; ++i) {
      const core::TaskIndex owner = source[i];
      const std::span<const double> times = problem.platform.time_row(owner);
      const std::size_t* rank_of = ranks.data() + owner * m;
      core::MachineIndex* order = order_.data() + i * m;
      std::iota(order, order + m, core::MachineIndex{0});
      std::sort(order, order + m, [&](core::MachineIndex a, core::MachineIndex b) {
        if (rank_of[a] != rank_of[b]) return rank_of[a] < rank_of[b];
        return times[a] != times[b] ? times[a] < times[b] : a < b;
      });
    }
  }

  [[nodiscard]] std::span<const core::MachineIndex> machines_for(
      core::TaskIndex task) const override {
    return std::span<const core::MachineIndex>(order_).subspan(task * machines_, machines_);
  }

 private:
  std::size_t machines_ = 0;
  std::vector<core::MachineIndex> order_;
};

TEST(BinarySearchEngine, H2RanksMatchPerColumnSorts) {
  // H2 against the engine driven by per-column sorts, on chains and
  // in-trees whose w are integers, non-integers, tie-heavy, spread over a
  // thousand binades, or apart only in their lowest byte, each also with
  // one type split across two w rows.
  support::Rng draw(3434);
  std::size_t mapped = 0;
  for (std::uint64_t seed = 0; seed < 600; ++seed) {
    exp::Scenario scenario;
    scenario.machines = draw.uniform_u64(1, 40);
    scenario.tasks = draw.uniform_u64(1, 60);
    scenario.types = draw.uniform_u64(1, std::min(scenario.tasks, scenario.machines));
    const Shape shape = std::array{kPaper, kFractional, kTies, kBinades, kLowByte}[seed % 5];
    if (shape == kFractional) scenario.integer_times = false;
    if (shape == kTies) {
      scenario.time_min_ms = 100.0;
      scenario.time_max_ms = 102.0;
    }
    const Problem generated = seed % 2 == 0 ? exp::generate(scenario, seed)
                                            : exp::generate_in_tree(scenario, 0.4, seed);
    const Problem retimed = shape == kBinades || shape == kLowByte
                                ? redrawn_times(generated, shape, seed)
                                : generated;
    for (const bool split : {false, true}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + (split ? " split" : ""));
      const Problem problem = split ? split_type_times(retimed, seed) : retimed;
      PerColumnSortRankSelector reference;
      const std::optional<Mapping> expected = binary_search_schedule(problem, reference);
      const std::optional<Mapping> actual = h2(problem);
      ASSERT_EQ(actual.has_value(), expected.has_value());
      if (!expected.has_value()) continue;
      EXPECT_EQ(actual->assignment(), expected->assignment());
      ++mapped;
    }
  }
  EXPECT_EQ(mapped, 1200u) << "p <= m throughout, so every problem is mapped";
}

TEST(BinarySearchEngine, PassPastTheRoundedTrivialBoundStillYieldsMapping) {
  // Seed 543's kBinades in-tree above: 17 tasks of one type on one machine.
  // Past 2^52 the ceiling of the trivial bound adds no slack, and the pass
  // at it sums its loads in another order than the bound does, so rounding
  // pushes it over the bound. The pass at +inf places every task.
  exp::Scenario scenario;
  scenario.tasks = 17;
  scenario.machines = 1;
  scenario.types = 1;
  const Problem problem =
      redrawn_times(exp::generate_in_tree(scenario, 0.4, 543), kBinades, 543);
  const double upper = std::ceil(core::period_upper_bound(problem));
  ASSERT_GE(upper, 0x1p52);
  ShuffledSelector one_machine(0, false);
  one_machine.prepare(problem);
  ASSERT_FALSE(assign_within_period(problem, one_machine, upper).has_value())
      << "the pass at the trivial bound must fail for this case to pin the fallback";
  const std::vector<core::MachineIndex> all_on_the_machine(scenario.tasks, 0);
  for (const std::string name : {"H2", "H3"}) {
    const auto mapping = name == "H2" ? h2(problem) : h3(problem);
    ASSERT_TRUE(mapping.has_value()) << name;
    EXPECT_EQ(mapping->assignment(), all_on_the_machine) << name;
  }
}

}  // namespace
}  // namespace mf::heuristics
