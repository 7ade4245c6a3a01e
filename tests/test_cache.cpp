// Tests for the content-addressed result cache: key canonicalization, hit
// determinism (a cached result is the result the solver would recompute),
// the off/read/read-write policies, exact LRU eviction, and the warm-sweep
// guarantee — a repeated figure sweep with a read-write cache re-solves
// zero instances, under every failure regime.
#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "core/digest.hpp"
#include "exp/figures.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/scenario_registry.hpp"
#include "solve/batch.hpp"
#include "solve/cache.hpp"
#include "solve/service.hpp"
#include "solve/solver.hpp"
#include "test_helpers.hpp"

namespace mf::solve {
namespace {

core::Problem small_problem(std::uint64_t seed = 7) {
  exp::Scenario scenario;
  scenario.tasks = 8;
  scenario.machines = 4;
  scenario.types = 2;
  return exp::generate(scenario, seed);
}

TEST(CacheKey, CanonicalizesLocalSearchSpelling) {
  const core::Digest d = core::digest(small_problem());
  SolveParams by_param;
  by_param.local_search = true;
  SolveParams by_suffix;
  // Both spellings resolve to the effective id "H2+ls" and must share a key.
  EXPECT_EQ(make_cache_key(d, effective_solver_id("H2", by_param), by_param),
            make_cache_key(d, effective_solver_id("H2+ls", by_suffix), by_suffix));
}

TEST(CacheKey, IgnoresRefinementOptionsWithoutRefinementStage) {
  const core::Digest d = core::digest(small_problem());
  SolveParams a;
  SolveParams b;
  b.refinement.max_passes = 3;
  b.refinement.allow_swaps = false;
  EXPECT_EQ(make_cache_key(d, "H2", a), make_cache_key(d, "H2", b))
      << "refinement options are dead parameters without a +ls stage";
  EXPECT_NE(make_cache_key(d, "H2+ls", a), make_cache_key(d, "H2+ls", b));
}

TEST(CacheKey, DistinguishesUnsetBudgetFromZeroBudget) {
  const core::Digest d = core::digest(small_problem());
  SolveParams unset;
  SolveParams zero;
  zero.max_nodes = 0;  // 0 means unlimited, but it is still a different request
  EXPECT_NE(make_cache_key(d, "bnb", unset), make_cache_key(d, "bnb", zero));
}

TEST(CacheKey, ScenarioProvenanceIsPartOfTheKey) {
  // Two failure regimes could in principle produce the same effective
  // matrices; their results must still never share a cache entry, and sweep
  // logs must be able to attribute every hit to its regime.
  const core::Digest d = core::digest(small_problem());
  SolveParams direct;
  SolveParams iid;
  iid.scenario = "iid";
  SolveParams correlated;
  correlated.scenario = "correlated";
  EXPECT_NE(make_cache_key(d, "H2", direct), make_cache_key(d, "H2", iid));
  EXPECT_NE(make_cache_key(d, "H2", iid), make_cache_key(d, "H2", correlated));
  EXPECT_EQ(make_cache_key(d, "H2", iid), make_cache_key(d, "H2", iid));
}

TEST(Cache, ScenarioLabelSeparatesEntriesAndSurfacesInDiagnostics) {
  ResultCache cache(64);
  const core::Problem problem = small_problem();
  SolveParams params;
  params.cache = CachePolicy::kReadWrite;
  params.scenario = "iid";
  const SolveResult first = test::solve_through(cache, "H2", problem, params);
  EXPECT_EQ(first.diagnostics.scenario, "iid");
  EXPECT_FALSE(first.diagnostics.cache_hit);
  // Same problem, same solver, different provenance: a miss, not a hit.
  params.scenario = "downtime";
  const SolveResult other = test::solve_through(cache, "H2", problem, params);
  EXPECT_FALSE(other.diagnostics.cache_hit);
  EXPECT_EQ(other.diagnostics.scenario, "downtime");
  // Same provenance again: a hit carrying its regime in the diagnostics.
  params.scenario = "iid";
  const SolveResult hit = test::solve_through(cache, "H2", problem, params);
  EXPECT_TRUE(hit.diagnostics.cache_hit);
  EXPECT_EQ(hit.diagnostics.scenario, "iid");
  EXPECT_EQ(hit.period, first.period);
}

TEST(Cache, HitReturnsTheResultTheSolverWouldRecompute) {
  ResultCache cache(64);
  const core::Problem problem = small_problem();
  SolveParams params;
  params.seed = 99;
  params.cache = CachePolicy::kReadWrite;

  const SolveResult fresh = test::solve_through(cache, "H1", problem, params);
  EXPECT_FALSE(fresh.diagnostics.cache_hit);
  const SolveResult cached = test::solve_through(cache, "H1", problem, params);
  EXPECT_TRUE(cached.diagnostics.cache_hit);

  EXPECT_EQ(cached.status, fresh.status);
  EXPECT_EQ(cached.mapping, fresh.mapping);
  EXPECT_DOUBLE_EQ(cached.period, fresh.period);
  EXPECT_EQ(cached.diagnostics.solver_id, fresh.diagnostics.solver_id);

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.size, 1u);
}

TEST(Cache, DifferentSeedsAreDifferentEntries) {
  ResultCache cache(64);
  const core::Problem problem = small_problem();
  SolveParams params;
  params.cache = CachePolicy::kReadWrite;
  params.seed = 1;
  (void)test::solve_through(cache, "H1", problem, params);
  params.seed = 2;
  const SolveResult other = test::solve_through(cache, "H1", problem, params);
  EXPECT_FALSE(other.diagnostics.cache_hit);
  EXPECT_EQ(cache.stats().size, 2u);
}

TEST(Cache, ReadPolicyNeverStores) {
  ResultCache cache(64);
  const core::Problem problem = small_problem();
  SolveParams params;
  params.cache = CachePolicy::kRead;
  (void)test::solve_through(cache, "H2", problem, params);
  (void)test::solve_through(cache, "H2", problem, params);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.size, 0u);

  // But kRead serves entries someone else stored.
  params.cache = CachePolicy::kReadWrite;
  (void)test::solve_through(cache, "H2", problem, params);
  params.cache = CachePolicy::kRead;
  EXPECT_TRUE(test::solve_through(cache, "H2", problem, params).diagnostics.cache_hit);
}

TEST(Cache, OffPolicyNeverTouchesTheCache) {
  ResultCache cache(64);
  const core::Problem problem = small_problem();
  SolveParams params;  // cache = kOff
  (void)test::solve_through(cache, "H2", problem, params);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.insertions, 0u);
}

TEST(Cache, BoundedByCapacityWithLruEviction) {
  ResultCache cache(16);
  SolveParams params;
  params.cache = CachePolicy::kReadWrite;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    (void)test::solve_through(cache, "H2", small_problem(seed), params);
  }
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.size, cache.capacity());
  EXPECT_EQ(stats.evictions, 48u);
  EXPECT_EQ(stats.size + stats.evictions, stats.insertions);
  // The 16 newest solves are resident and the 48 oldest were evicted.
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const CacheKey key = make_cache_key(core::digest(small_problem(seed)), "H2", params);
    EXPECT_EQ(cache.lookup(key).has_value(), seed >= 48) << seed;
  }
}

/// A key per `n` and a result that names it, for filling caches fast.
CacheKey numbered_key(std::uint64_t n) {
  static const core::Digest problem = core::digest(small_problem());
  SolveParams params;
  params.seed = n;
  return make_cache_key(problem, "H1", params);
}

SolveResult numbered_result(std::uint64_t n) {
  SolveResult result;
  result.status = Status::kFeasible;
  result.period = static_cast<double>(n);
  return result;
}

TEST(Cache, ExactLruHoldsCapacityEntriesAndEvictsTheLeastRecent) {
  // The capacity is the entry count, whatever it is.
  for (const std::size_t capacity : {1u, 4u, 17u, 40u}) {
    ResultCache cache(capacity);
    for (std::uint64_t n = 0; n < 2000; ++n) cache.insert(numbered_key(n), numbered_result(n));
    EXPECT_EQ(cache.stats().size, capacity);
    EXPECT_EQ(cache.stats().evictions, 2000 - capacity);
  }

  // The `capacity` newest inserts are all resident, the older ones gone.
  ResultCache cache(64);
  for (std::uint64_t n = 0; n < 80; ++n) cache.insert(numbered_key(n), numbered_result(n));
  for (std::uint64_t n = 0; n < 80; ++n) {
    const std::optional<SolveResult> hit = cache.lookup(numbered_key(n));
    ASSERT_EQ(hit.has_value(), n >= 16) << n;
    if (hit.has_value()) {
      EXPECT_EQ(hit->period, static_cast<double>(n));
    }
  }

  // A lookup makes an entry the most recent: the lookups above ran oldest
  // first, so 16 is the least recent; touching it leaves 17 to evict next.
  ASSERT_TRUE(cache.lookup(numbered_key(16)).has_value());
  cache.insert(numbered_key(80), numbered_result(80));
  EXPECT_TRUE(cache.lookup(numbered_key(16)).has_value());
  EXPECT_FALSE(cache.lookup(numbered_key(17)).has_value());
  EXPECT_TRUE(cache.lookup(numbered_key(18)).has_value());
  EXPECT_EQ(cache.stats().size, 64u);
}

TEST(Cache, ClearDropsEntriesButKeepsCounters) {
  ResultCache cache(64);
  SolveParams params;
  params.cache = CachePolicy::kReadWrite;
  (void)test::solve_through(cache, "H2", small_problem(), params);
  cache.clear();
  EXPECT_EQ(cache.stats().size, 0u);
  EXPECT_EQ(cache.stats().insertions, 1u);
  EXPECT_FALSE(test::solve_through(cache, "H2", small_problem(), params).diagnostics.cache_hit);
}

TEST(Cache, BatchSolverPopulatesAndServesAnIsolatedCache) {
  ResultCache cache(1024);
  const auto problem = std::make_shared<const core::Problem>(small_problem());
  std::vector<SolveRequest> requests;
  for (const char* id : {"H1", "H2", "H4w", "oto", "bnb"}) {
    SolveRequest request;
    request.problem = problem;
    request.solver_id = id;
    request.params.seed = 5;
    request.params.cache = CachePolicy::kReadWrite;
    requests.push_back(std::move(request));
  }

  support::ThreadPool pool(4);
  const auto cold = BatchSolver(&pool, &cache).solve_all(requests);
  EXPECT_EQ(cache.stats().hits, 0u);
  const auto warm = BatchSolver(&pool, &cache).solve_all(requests);
  EXPECT_EQ(cache.stats().hits, requests.size());

  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_TRUE(warm[i].diagnostics.cache_hit) << i;
    EXPECT_EQ(warm[i].status, cold[i].status) << i;
    EXPECT_EQ(warm[i].mapping, cold[i].mapping) << i;
    EXPECT_DOUBLE_EQ(warm[i].period, cold[i].period) << i;
  }
}

/// The acceptance-criterion scenario: a warm-cache repeat of a figure sweep
/// re-solves zero instances and produces identical output, under every
/// failure regime (scenario ids are part of the cache key, so regimes never
/// share entries). The sweeps run through one `SolveService` over a cache
/// the test owns, as `mfsched --figure fig06 --cache rw --repeat 2` runs
/// through its one service, so the counts hold however often the test runs
/// in one process; hits are measured as deltas across regimes.
TEST(Cache, WarmSweepRepeatResolvesNothing) {
  support::ThreadPool pool(4);
  ResultCache cache;
  SolveService service(&pool, &cache);
  exp::SweepOptions options;
  options.cache = solve::CachePolicy::kReadWrite;
  options.executor = &service;

  for (const std::string& id : exp::scenario_ids()) {
    exp::SweepSpec spec = exp::scaled_down(exp::figure6_spec(), 10);  // 3 trials/point
    spec.values = {10, 20, 30};
    spec.scenario_id = id;

    const CacheStats before = cache.stats();
    const exp::SweepResult cold = exp::run_sweep(spec, options, &pool);
    const CacheStats after_cold = cache.stats();
    const exp::SweepResult warm = exp::run_sweep(spec, options, &pool);
    const CacheStats after_warm = cache.stats();

    const std::size_t solves = spec.values.size() * spec.trials * spec.methods.size();
    EXPECT_EQ(after_cold.misses - before.misses, solves) << id << ": cold run solves everything";
    EXPECT_EQ(after_warm.misses - after_cold.misses, 0u) << id << ": warm run re-solves nothing";
    EXPECT_EQ(after_warm.hits - after_cold.hits, solves) << id;

    EXPECT_EQ(warm.to_table().to_string(), cold.to_table().to_string()) << id;
    for (std::size_t p = 0; p < cold.points.size(); ++p) {
      for (const auto& [name, summary] : cold.points[p].period_by_method) {
        EXPECT_EQ(summary.mean, warm.points[p].period_by_method.at(name).mean)
            << id << "/" << name;
      }
    }
  }
}

}  // namespace
}  // namespace mf::solve
