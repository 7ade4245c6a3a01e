// Tests for the unified solver API: registry lookup and error reporting,
// adapter status codes (infeasible, budget-exhausted, optimal), "+ls"
// composition, and BatchSolver determinism across serial and pooled
// execution.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <stdexcept>

#include "core/evaluation.hpp"
#include "exp/method.hpp"
#include "exp/scenario.hpp"
#include "heuristics/heuristic.hpp"
#include "lp/specialized_mip.hpp"
#include "solve/adapters.hpp"
#include "solve/batch.hpp"
#include "solve/registry.hpp"
#include "solve/solver.hpp"
#include "test_helpers.hpp"

namespace mf::solve {
namespace {

core::Problem medium_problem(std::uint64_t seed = 7) {
  exp::Scenario scenario;
  scenario.tasks = 10;
  scenario.machines = 4;
  scenario.types = 2;
  return exp::generate(scenario, seed);
}

TEST(Registry, ListsAllBuiltinSolvers) {
  const auto ids = SolverRegistry::instance().ids();
  for (const char* id : {"H1", "H2", "H3", "H4", "H4w", "H4f", "oto", "bnb", "brute"}) {
    EXPECT_NE(std::find(ids.begin(), ids.end(), id), ids.end()) << id;
  }
  // The Section 6.1 MIP is a test oracle, not a service: a request for it
  // is refused with the list of ids that are served.
  EXPECT_EQ(std::find(ids.begin(), ids.end(), "mip"), ids.end());
  try {
    (void)SolverRegistry::instance().resolve("mip");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("unknown solver 'mip'"), std::string::npos) << message;
    EXPECT_NE(message.find("bnb"), std::string::npos) << "should list the known ids";
  }
}

TEST(Registry, UnknownSolverErrorListsAvailableIds) {
  try {
    (void)SolverRegistry::instance().resolve("H9");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("H9"), std::string::npos);
    EXPECT_NE(message.find("H4w"), std::string::npos) << "should list the known ids";
    EXPECT_NE(message.find("bnb"), std::string::npos) << "should list the known ids";
  }
}

TEST(Registry, UnknownSuffixIsRejected) {
  EXPECT_THROW((void)SolverRegistry::instance().resolve("H4w+anneal"), std::invalid_argument);
  EXPECT_THROW((void)SolverRegistry::instance().resolve("H4w+ls+ls"), std::invalid_argument);
}

TEST(Registry, RejectsDuplicateAndReservedIds) {
  auto& registry = SolverRegistry::instance();
  const auto noop = [](const core::Problem&, const SolveParams&) { return SolveResult{}; };
  EXPECT_THROW(registry.register_solver(make_function_solver("bnb", "duplicate id", noop)),
               std::invalid_argument);
  EXPECT_THROW(registry.register_solver(make_function_solver("bad+id", "reserved character", noop)),
               std::invalid_argument);
  EXPECT_THROW(registry.register_solver(nullptr), std::invalid_argument);
}

TEST(Registry, RuntimeRegisteredSolverResolvesLikeBuiltins) {
  auto& registry = SolverRegistry::instance();
  if (!registry.contains("echo")) {
    registry.register_solver(make_function_solver(
        "echo", "test double", [](const core::Problem& problem, const SolveParams&) {
          SolveResult result;
          result.status = Status::kFeasible;
          result.mapping = core::Mapping(
              std::vector<core::MachineIndex>(problem.task_count(), 0));
          result.period = core::period(problem, *result.mapping);
          return result;
        }));
  }
  const core::Problem problem = test::uniform_problem({0, 0, 0}, 2);
  const SolveResult result = run(problem, "echo");
  EXPECT_EQ(result.status, Status::kFeasible);
  EXPECT_EQ(result.diagnostics.solver_id, "echo");
}

TEST(Facade, MatchesDirectHeuristicCall) {
  const core::Problem problem = medium_problem();
  const SolveResult result = run(problem, "H4w", {.seed = 5});
  support::Rng rng(5);
  const auto direct = heuristics::heuristic_by_name("H4w")->run(problem, rng);
  ASSERT_TRUE(result.has_mapping());
  ASSERT_TRUE(direct.has_value());
  EXPECT_EQ(*result.mapping, *direct);
  EXPECT_EQ(result.status, Status::kFeasible);
  EXPECT_DOUBLE_EQ(result.period, core::period(problem, *direct));
  EXPECT_EQ(result.diagnostics.solver_id, "H4w");
  EXPECT_GE(result.diagnostics.wall_time_ms, 0.0);
}

TEST(Facade, RandomizedSolverIsDeterministicInSeed) {
  const core::Problem problem = medium_problem();
  const SolveResult a = run(problem, "H1", {.seed = 11});
  const SolveResult b = run(problem, "H1", {.seed = 11});
  ASSERT_TRUE(a.has_mapping());
  EXPECT_EQ(*a.mapping, *b.mapping);
}

TEST(Facade, InfeasibleWhenMoreTypesThanMachines) {
  // p = 3 types on m = 2 machines: no specialized mapping can exist.
  const core::Problem problem = test::uniform_problem({0, 1, 2}, 2);
  for (const char* id : {"H2", "H4w", "bnb", "brute"}) {
    const SolveResult result = run(problem, id);
    EXPECT_EQ(result.status, Status::kInfeasible) << id;
    EXPECT_FALSE(result.has_mapping()) << id;
  }
}

TEST(Facade, OneToOneReportsInapplicableInstancesAsInfeasible) {
  // Machine-dependent failures break the OtO precondition.
  const core::Problem dependent = test::tiny_chain_problem();
  EXPECT_EQ(run(dependent, "oto").status, Status::kInfeasible);

  // n > m breaks the one-to-one counting requirement.
  const core::Problem crowded = test::uniform_problem({0, 1, 0, 1}, 3);
  EXPECT_EQ(run(crowded, "oto").status, Status::kInfeasible);
}

TEST(Facade, OneToOneOptimalOnItsTractableIsland) {
  exp::Scenario scenario;
  scenario.tasks = 5;
  scenario.machines = 8;
  scenario.types = 2;
  scenario.failure_attachment = exp::FailureAttachment::kTaskOnly;
  const core::Problem problem = exp::generate(scenario, 3);
  const SolveResult result = run(problem, "oto");
  EXPECT_EQ(result.status, Status::kOptimal);
  ASSERT_TRUE(result.has_mapping());
  EXPECT_TRUE(result.mapping->complies_with(core::MappingRule::kOneToOne, problem.app,
                                            problem.machine_count()));
}

TEST(Facade, BudgetExhaustedWhenNodeBudgetTooSmall) {
  const core::Problem problem = medium_problem();
  const SolveResult bnb = run(problem, "bnb", {.max_nodes = 1});
  EXPECT_EQ(bnb.status, Status::kBudgetExhausted);
  // The branch-and-bound warm-starts from H2/H4w, so an incumbent survives
  // even a one-node budget.
  EXPECT_TRUE(bnb.has_mapping());
  EXPECT_GT(bnb.diagnostics.nodes_explored, 0u);
}

TEST(Facade, ReadWriteCacheServesTheSecondCallFromTheCache) {
  // A problem no other test solves, so the process-wide cache starts cold.
  const core::Problem problem = medium_problem(0xFACADE);
  const SolveParams params{.seed = 3, .cache = CachePolicy::kReadWrite};
  const SolveResult first = run(problem, "H4w", params);
  const SolveResult second = run(problem, "H4w", params);
  EXPECT_FALSE(first.diagnostics.cache_hit);
  EXPECT_TRUE(second.diagnostics.cache_hit);
  ASSERT_TRUE(second.has_mapping());
  EXPECT_EQ(second.mapping, first.mapping);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(second.period),
            std::bit_cast<std::uint64_t>(first.period));
}

TEST(Facade, ExactSolversAgreeOnTinyInstance) {
  const core::Problem problem = test::tiny_chain_problem();
  const SolveResult bnb = run(problem, "bnb");
  const SolveResult brute = run(problem, "brute");
  const lp::MipScheduleResult mip = lp::solve_specialized_mip(problem);
  ASSERT_EQ(bnb.status, Status::kOptimal);
  ASSERT_EQ(brute.status, Status::kOptimal);
  ASSERT_EQ(mip.status, lp::MipStatus::kOptimal);
  EXPECT_DOUBLE_EQ(bnb.period, brute.period);
  EXPECT_DOUBLE_EQ(mip.period, brute.period);
  EXPECT_GT(bnb.diagnostics.nodes_explored, 0u);
}

TEST(Composition, LocalSearchSuffixNeverHurts) {
  const core::Problem problem = medium_problem();
  const SolveResult base = run(problem, "H2");
  const SolveResult refined = run(problem, "H2+ls");
  ASSERT_TRUE(base.has_mapping());
  ASSERT_TRUE(refined.has_mapping());
  EXPECT_LE(refined.period, base.period);
  EXPECT_DOUBLE_EQ(refined.diagnostics.refiner_improvement_ms, base.period - refined.period);
  EXPECT_EQ(refined.status, Status::kFeasible) << "refinement keeps the base status";
  EXPECT_EQ(refined.diagnostics.solver_id, "H2+ls");
}

TEST(Composition, RefinementDowngradesStaleOptimalityProof) {
  // Two same-type tasks, one fast and one terrible machine: the one-to-one
  // optimum must split them (period 10000), while the specialized space
  // groups both on the fast machine (period 200). "oto+ls" finds the
  // improvement, so the one-to-one proof no longer covers the result.
  core::Application app = core::Application::linear_chain({0, 0});
  core::Problem problem{std::move(app), test::make_platform({{100, 10000}, {100, 10000}},
                                                            {{0.0, 0.0}, {0.0, 0.0}})};
  const SolveResult base = run(problem, "oto");
  ASSERT_EQ(base.status, Status::kOptimal);
  const SolveResult refined = run(problem, "oto+ls");
  ASSERT_TRUE(refined.has_mapping());
  EXPECT_LT(refined.period, base.period);
  EXPECT_EQ(refined.status, Status::kFeasible)
      << "a refined mapping must not inherit the base optimality proof";
}

TEST(Composition, LocalSearchParamEqualsSuffixId) {
  const core::Problem problem = medium_problem();
  const SolveResult by_suffix = run(problem, "H3+ls", {.seed = 2});
  const SolveResult by_param = run(problem, "H3", {.seed = 2, .local_search = true});
  ASSERT_TRUE(by_suffix.has_mapping());
  ASSERT_TRUE(by_param.has_mapping());
  EXPECT_EQ(*by_suffix.mapping, *by_param.mapping);
  EXPECT_EQ(by_param.diagnostics.solver_id, "H3+ls");
}

TEST(Composition, NegativeRefinementGainIsAnErrorNotAPassBudget) {
  // On serve-mixed's shape this instance converges in 17 passes with a
  // gain of 0; a gain of -1e-9 took a move in every one of 2,000 passes.
  // The wire carries both values, so the refiner refuses the gain before
  // its first pass, and the error result is never cached.
  exp::Scenario scenario;
  scenario.tasks = 50;
  scenario.machines = 10;
  scenario.types = 2;
  const core::Problem problem = exp::generate(scenario, 7);
  SolveParams params;
  params.refinement.max_passes = 2000;
  params.refinement.min_relative_gain = -1e-9;
  params.cache = CachePolicy::kReadWrite;
  for (int attempt = 0; attempt < 2; ++attempt) {
    const SolveResult result = run(problem, "H4w+ls", params);
    EXPECT_EQ(result.status, Status::kError);
    EXPECT_FALSE(result.has_mapping());
    EXPECT_FALSE(result.diagnostics.cache_hit);
    EXPECT_NE(result.diagnostics.note.find("min_relative_gain"), std::string::npos)
        << result.diagnostics.note;
  }
  params.refinement.min_relative_gain = 0.0;
  const SolveResult converged = run(problem, "H4w+ls", params);
  ASSERT_EQ(converged.status, Status::kFeasible);
  EXPECT_TRUE(converged.diagnostics.refiner_converged);
}

TEST(Composition, EffectiveSolverIdAppendsSuffixOnce) {
  SolveParams params;
  params.local_search = true;
  EXPECT_EQ(effective_solver_id("H4w", params), "H4w+ls");
  EXPECT_EQ(effective_solver_id("H4w+ls", params), "H4w+ls");
  params.local_search = false;
  EXPECT_EQ(effective_solver_id("H4w", params), "H4w");
}

std::vector<SolveRequest> mixed_requests(const std::shared_ptr<const core::Problem>& problem) {
  std::vector<SolveRequest> requests;
  // Same base seed everywhere: the per-index stream split must still give
  // the two H1 requests different draws.
  for (const char* id : {"H1", "H1", "H2", "H4w+ls", "bnb", "oto"}) {
    SolveRequest request;
    request.problem = problem;
    request.solver_id = id;
    request.params.seed = 1234;
    requests.push_back(std::move(request));
  }
  return requests;
}

TEST(Batch, PooledExecutionMatchesSequentialLoop) {
  const auto problem = std::make_shared<const core::Problem>(medium_problem());
  const auto requests = mixed_requests(problem);

  const std::vector<SolveResult> serial = BatchSolver(nullptr).solve_all(requests);
  support::ThreadPool pool(4);
  const std::vector<SolveResult> pooled = BatchSolver(&pool).solve_all(requests);

  ASSERT_EQ(serial.size(), requests.size());
  ASSERT_EQ(pooled.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(serial[i].status, pooled[i].status) << i;
    EXPECT_DOUBLE_EQ(serial[i].period, pooled[i].period) << i;
    EXPECT_EQ(serial[i].mapping, pooled[i].mapping) << i;
  }

  // And both match hand-rolled sequential facade calls on the same streams.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    SolveParams params = requests[i].params;
    params.seed = BatchSolver::stream_seed(params.seed, i);
    const SolveResult direct = run(*problem, requests[i].solver_id, params);
    EXPECT_EQ(direct.mapping, serial[i].mapping) << i;
  }
}

TEST(Batch, IdenticalSeedsStillGetIndependentStreams) {
  const auto problem = std::make_shared<const core::Problem>(medium_problem());
  const auto results = BatchSolver(nullptr).solve_all(mixed_requests(problem));
  // Requests 0 and 1 are both H1 with the same base seed; the index mix
  // must decorrelate them (equal mappings would be a one-in-millions fluke).
  ASSERT_TRUE(results[0].has_mapping());
  ASSERT_TRUE(results[1].has_mapping());
  EXPECT_NE(*results[0].mapping, *results[1].mapping);
}

TEST(Batch, SolverExceptionBecomesPerRequestErrorResult) {
  auto& registry = SolverRegistry::instance();
  if (!registry.contains("throws")) {
    registry.register_solver(make_function_solver(
        "throws", "test solver that always throws",
        [](const core::Problem&, const SolveParams&) -> SolveResult {
          throw std::runtime_error("deliberate kaboom");
        }));
  }
  const auto problem = std::make_shared<const core::Problem>(medium_problem());
  std::vector<SolveRequest> requests = mixed_requests(problem);
  SolveRequest bad;
  bad.problem = problem;
  bad.solver_id = "throws";
  requests.insert(requests.begin() + 2, bad);

  // One bad request must not kill the batch — serial or pooled.
  support::ThreadPool pool(4);
  for (support::ThreadPool* p : {static_cast<support::ThreadPool*>(nullptr), &pool}) {
    const std::vector<SolveResult> results = BatchSolver(p).solve_all(requests);
    ASSERT_EQ(results.size(), requests.size());
    EXPECT_EQ(results[2].status, Status::kError);
    EXPECT_FALSE(results[2].has_mapping());
    EXPECT_FALSE(results[2].ok());
    EXPECT_EQ(results[2].diagnostics.solver_id, "throws");
    EXPECT_NE(results[2].diagnostics.note.find("deliberate kaboom"), std::string::npos);
    // Every other request completes normally ("oto" is legitimately
    // infeasible on this machine-dependent instance — but not an error).
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (i == 2) continue;
      EXPECT_NE(results[i].status, Status::kError) << i;
    }
  }

  // The single-solve facade is a one-request service: the same kError
  // result, not an exception.
  const SolveResult single = run(*problem, "throws");
  EXPECT_EQ(single.status, Status::kError);
  EXPECT_FALSE(single.has_mapping());
  EXPECT_NE(single.diagnostics.note.find("deliberate kaboom"), std::string::npos);
}

TEST(Batch, UnknownSolverFailsTheBatchUpFront) {
  const auto problem = std::make_shared<const core::Problem>(medium_problem());
  std::vector<SolveRequest> requests = mixed_requests(problem);
  requests[3].solver_id = "H9";
  EXPECT_THROW((void)BatchSolver(nullptr).solve_all(requests), std::invalid_argument);
}

TEST(Batch, NullProblemIsRejected) {
  std::vector<SolveRequest> requests(1);
  requests[0].solver_id = "H2";
  EXPECT_THROW((void)BatchSolver(nullptr).solve_all(requests), std::invalid_argument);
}

TEST(Batch, EmptyBatchIsFine) {
  EXPECT_TRUE(BatchSolver(nullptr).solve_all({}).empty());
}

/// One sweep trial of `method`: its solver and params, with the trial's seed.
SolveResult run_trial(const core::Problem& problem, const exp::Method& method,
                      std::uint64_t seed) {
  SolveParams params = method.params;
  params.seed = seed;
  return run(problem, method.solver_id, params);
}

TEST(Method, WrapsRegistrySolvers) {
  const core::Problem problem = medium_problem();
  const exp::Method method = exp::method_for("H4w", "paper-best");
  EXPECT_EQ(method.name, "paper-best");
  const SolveResult result = run_trial(problem, method, 5);
  ASSERT_TRUE(method.counts(result));
  EXPECT_EQ(*result.mapping, *run(problem, "H4w", {.seed = 5}).mapping);
  EXPECT_THROW((void)exp::method_for("H9"), std::invalid_argument);
}

TEST(Method, RequireProofDropsBudgetExhaustedTrials) {
  const core::Problem problem = medium_problem();
  exp::Method exact = exp::method_exact_specialized(/*max_nodes=*/1);
  EXPECT_FALSE(exact.counts(run_trial(problem, exact, 1)))
      << "a budget-exhausted incumbent must not count as an exact solve";
  exact = exp::method_exact_specialized(/*max_nodes=*/0);
  EXPECT_TRUE(exact.counts(run_trial(problem, exact, 1)));
}

TEST(Status, ToStringCoversAllValues) {
  EXPECT_EQ(to_string(Status::kOptimal), "optimal");
  EXPECT_EQ(to_string(Status::kFeasible), "feasible");
  EXPECT_EQ(to_string(Status::kInfeasible), "infeasible");
  EXPECT_EQ(to_string(Status::kBudgetExhausted), "budget-exhausted");
  EXPECT_EQ(to_string(Status::kError), "error");
  EXPECT_EQ(to_string(CachePolicy::kOff), "off");
  EXPECT_EQ(to_string(CachePolicy::kRead), "read");
  EXPECT_EQ(to_string(CachePolicy::kReadWrite), "read-write");
}

}  // namespace
}  // namespace mf::solve
