// Golden bytes of every record that leaves a process: a shard file, a
// disk-cache entry (which is also a solve response body), a solve request
// body and a stats body. Each writer must reproduce its file in
// tests/golden_records/ byte for byte, and each reader must parse the file
// back to the fixed input it was written from. Existing --cache-dir
// directories, shard files, and clients of an older daemon depend on these
// bytes staying put.
#include <gtest/gtest.h>

#include <bit>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>

#include "core/digest.hpp"
#include "core/io.hpp"
#include "exp/sweep_io.hpp"
#include "serve/protocol.hpp"
#include "solve/disk_cache.hpp"
#include "test_helpers.hpp"

namespace mf {
namespace {

std::string golden(const std::string& name) {
  const std::string path = std::string(MF_GOLDEN_RECORDS_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Bit equality, so the check also holds for -0.0 and subnormals.
void expect_same_bits(double expected, double actual) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(expected), std::bit_cast<std::uint64_t>(actual))
      << expected << " vs " << actual;
}

exp::SweepResult golden_shard() {
  exp::SweepResult result;
  exp::SweepSpec& spec = result.spec;
  spec.name = "golden-shard";
  spec.description = "fixed inputs for the shard record: every field set";
  spec.scenario_id = "correlated";
  spec.variable = exp::SweepVariable::kMachines;
  spec.values = {4, 6};
  spec.trials = 2;
  spec.max_trials = 3;
  spec.base_seed = 2024;
  exp::Scenario& base = spec.base;
  base.tasks = 6;
  base.machines = 4;
  base.types = 2;
  base.time_min_ms = 100.0;
  base.time_max_ms = 1000.5;
  base.failure_min = 0.005;
  base.failure_max = 0.1;
  base.failure_attachment = exp::FailureAttachment::kTaskOnly;
  base.integer_times = false;
  base.shock_min = 0.0;
  base.shock_max = 0.05;
  base.window_count = 3;
  base.window_ms = 1234.25;
  base.factor_min = 0.25;
  base.factor_max = 2.5;
  base.mean_uptime_ms = 50000.0;
  base.mean_repair_ms = 2000.0;
  exp::Method heuristic;
  heuristic.name = "H2";
  heuristic.solver_id = "H2";
  exp::Method exact;
  exact.name = "Exact B&B";
  exact.solver_id = "bnb";
  exact.require_proof = true;
  spec.methods = {heuristic, exact};
  result.shard = {1, 3};
  result.points.resize(2);
  result.points[0].sweep_value = 4;
  result.points[0].trial_outcomes[0] = {true, {123.5, 0.1}};
  result.points[0].trial_outcomes[2] = {false, {}};
  result.points[1].sweep_value = 6;
  // The largest finite double, a subnormal and negative zero pin the
  // hexfloat spelling at its edges.
  result.points[1].trial_outcomes[1] = {true, {std::numeric_limits<double>::max(), 0x1p-1074}};
  result.points[1].trial_outcomes[2] = {true, {-0.0, 1.0 / 3.0}};
  return result;
}

solve::CacheKey golden_key() {
  solve::CacheKey key;
  key.problem = {0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  key.solver_id = "H4w+ls";
  key.scenario = "correlated";
  key.seed = 7;
  key.has_max_nodes = true;
  key.max_nodes = 5000000;
  key.time_limit_ms_bits = std::bit_cast<std::uint64_t>(250.0);
  key.refine_max_passes = 8;
  key.refine_allow_swaps = true;
  key.refine_first_improvement = false;
  key.refine_min_relative_gain_bits = std::bit_cast<std::uint64_t>(1e-9);
  return key;
}

solve::SolveResult golden_result() {
  solve::SolveResult result;
  result.status = solve::Status::kFeasible;
  result.period = 0x1.5555555555555p+7;
  result.mapping = core::Mapping({0, 2, 1, 3, 3});
  auto& diag = result.diagnostics;
  diag.solver_id = "H4w+ls";
  diag.nodes_explored = 0;
  diag.wall_time_ms = 1.25;
  diag.refined = true;
  diag.refiner_improvement_ms = 3.5;
  diag.refiner_moves = 4;
  diag.refiner_converged = true;
  diag.scenario = "correlated";
  diag.note = "two\nlines";  // the writer folds the line break into a space
  return result;
}

serve::WireRequest golden_request() {
  serve::WireRequest wire;
  wire.client_id = "golden-client";
  wire.request.problem = std::make_shared<const core::Problem>(test::tiny_chain_problem());
  wire.request.solver_id = "H4w+ls";
  solve::SolveParams& params = wire.request.params;
  params.scenario = "correlated";
  params.seed = 42;
  params.max_nodes = 123456789;
  params.time_limit_ms = 0x1.5555555555555p+7;
  params.local_search = true;
  params.refinement.max_passes = 17;
  params.refinement.allow_swaps = true;
  params.refinement.first_improvement = false;
  params.refinement.min_relative_gain = 0x1.0000000000001p-30;
  params.cache = solve::CachePolicy::kRead;
  return wire;
}

serve::DaemonStatsSnapshot golden_stats() {
  serve::DaemonStatsSnapshot stats;
  stats.service.submitted = 101;
  stats.service.completed = 99;
  stats.service.solved = 40;
  stats.service.cache_hits = 55;
  stats.service.dedup_joined = 4;
  stats.service.rejected_queue_full = 2;
  stats.service.rejected_rate_limited = 3;
  stats.cache = {55, 44, 40, 1, 39, 123456};
  stats.connections_active = 5;
  stats.connections_total = 17;
  stats.pending = 2;
  stats.pool_queue_depth = 1;
  stats.pool_in_flight = 4;
  stats.loop_wakeups = 9000;
  stats.loop_timers_fired = 12;
  stats.idle_closes = 3;
  stats.backpressure_bytes = 65536;
  stats.gc_runs = 6;
  stats.gc_entries_removed = 7;
  stats.gc_bytes_removed = 8192;
  stats.latency_count = 99;
  stats.latency_p50_ms = 0.68;
  stats.latency_p90_ms = 2.5;
  stats.latency_p99_ms = 0x1.fffffffffffffp+3;
  return stats;
}

TEST(GoldenRecords, ShardFileBytesAndValues) {
  const exp::SweepResult expected = golden_shard();
  const std::string text = golden("shard.txt");
  EXPECT_EQ(exp::to_text(expected), text);

  const exp::SweepResult parsed = exp::sweep_shard_from_text(text);
  const exp::SweepSpec& spec = parsed.spec;
  EXPECT_EQ(spec.name, expected.spec.name);
  EXPECT_EQ(spec.description, expected.spec.description);
  EXPECT_EQ(spec.scenario_id, expected.spec.scenario_id);
  EXPECT_EQ(spec.variable, expected.spec.variable);
  EXPECT_EQ(spec.values, expected.spec.values);
  EXPECT_EQ(spec.trials, expected.spec.trials);
  EXPECT_EQ(spec.max_trials, expected.spec.max_trials);
  EXPECT_EQ(spec.base_seed, expected.spec.base_seed);
  const exp::Scenario& base = spec.base;
  const exp::Scenario& want = expected.spec.base;
  EXPECT_EQ(base.tasks, want.tasks);
  EXPECT_EQ(base.machines, want.machines);
  EXPECT_EQ(base.types, want.types);
  expect_same_bits(want.time_min_ms, base.time_min_ms);
  expect_same_bits(want.time_max_ms, base.time_max_ms);
  expect_same_bits(want.failure_min, base.failure_min);
  expect_same_bits(want.failure_max, base.failure_max);
  EXPECT_EQ(base.failure_attachment, want.failure_attachment);
  EXPECT_EQ(base.integer_times, want.integer_times);
  expect_same_bits(want.shock_min, base.shock_min);
  expect_same_bits(want.shock_max, base.shock_max);
  EXPECT_EQ(base.window_count, want.window_count);
  expect_same_bits(want.window_ms, base.window_ms);
  expect_same_bits(want.factor_min, base.factor_min);
  expect_same_bits(want.factor_max, base.factor_max);
  expect_same_bits(want.mean_uptime_ms, base.mean_uptime_ms);
  expect_same_bits(want.mean_repair_ms, base.mean_repair_ms);
  ASSERT_EQ(spec.methods.size(), expected.spec.methods.size());
  for (std::size_t k = 0; k < spec.methods.size(); ++k) {
    EXPECT_EQ(spec.methods[k].name, expected.spec.methods[k].name);
    EXPECT_EQ(spec.methods[k].solver_id, expected.spec.methods[k].solver_id);
    EXPECT_EQ(spec.methods[k].require_proof, expected.spec.methods[k].require_proof);
  }
  EXPECT_EQ(parsed.shard.index, expected.shard.index);
  EXPECT_EQ(parsed.shard.count, expected.shard.count);
  ASSERT_EQ(parsed.points.size(), expected.points.size());
  for (std::size_t p = 0; p < parsed.points.size(); ++p) {
    EXPECT_EQ(parsed.points[p].sweep_value, expected.points[p].sweep_value);
    ASSERT_EQ(parsed.points[p].trial_outcomes.size(),
              expected.points[p].trial_outcomes.size());
    for (const auto& [trial, outcome] : expected.points[p].trial_outcomes) {
      const exp::TrialOutcome& got = parsed.points[p].trial_outcomes.at(trial);
      EXPECT_EQ(got.success, outcome.success);
      ASSERT_EQ(got.periods.size(), outcome.periods.size());
      for (std::size_t k = 0; k < got.periods.size(); ++k) {
        expect_same_bits(outcome.periods[k], got.periods[k]);
      }
    }
  }
}

TEST(GoldenRecords, CacheEntryBytesAndValues) {
  const solve::CacheKey key = golden_key();
  const solve::SolveResult result = golden_result();
  const std::string text = golden("cache_entry.mfc");
  EXPECT_EQ(solve::entry_to_text(key, result), text);

  const auto parsed = solve::entry_from_text(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->first == key);
  const solve::SolveResult& got = parsed->second;
  EXPECT_EQ(got.status, result.status);
  expect_same_bits(result.period, got.period);
  ASSERT_TRUE(got.mapping.has_value());
  EXPECT_EQ(got.mapping->assignment(), result.mapping->assignment());
  const auto& diag = got.diagnostics;
  EXPECT_EQ(diag.solver_id, result.diagnostics.solver_id);
  EXPECT_EQ(diag.nodes_explored, result.diagnostics.nodes_explored);
  expect_same_bits(result.diagnostics.wall_time_ms, diag.wall_time_ms);
  EXPECT_EQ(diag.refined, result.diagnostics.refined);
  expect_same_bits(result.diagnostics.refiner_improvement_ms, diag.refiner_improvement_ms);
  EXPECT_EQ(diag.refiner_moves, result.diagnostics.refiner_moves);
  EXPECT_EQ(diag.refiner_converged, result.diagnostics.refiner_converged);
  EXPECT_EQ(diag.scenario, result.diagnostics.scenario);
  EXPECT_EQ(diag.note, "two lines");
}

TEST(GoldenRecords, RequestBodyBytesAndValues) {
  const serve::WireRequest expected = golden_request();
  const std::string text = golden("request.txt");
  EXPECT_EQ(serve::request_to_text(expected), text);

  const std::optional<serve::WireRequest> parsed = serve::request_from_text(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->client_id, expected.client_id);
  EXPECT_EQ(parsed->request.solver_id, expected.request.solver_id);
  EXPECT_FALSE(parsed->request.derive_stream_seed);
  const solve::SolveParams& params = parsed->request.params;
  const solve::SolveParams& want = expected.request.params;
  EXPECT_EQ(params.scenario, want.scenario);
  EXPECT_EQ(params.seed, want.seed);
  EXPECT_EQ(params.max_nodes, want.max_nodes);
  expect_same_bits(want.time_limit_ms, params.time_limit_ms);
  EXPECT_EQ(params.local_search, want.local_search);
  EXPECT_EQ(params.refinement.max_passes, want.refinement.max_passes);
  EXPECT_EQ(params.refinement.allow_swaps, want.refinement.allow_swaps);
  EXPECT_EQ(params.refinement.first_improvement, want.refinement.first_improvement);
  expect_same_bits(want.refinement.min_relative_gain, params.refinement.min_relative_gain);
  EXPECT_EQ(params.cache, want.cache);
  ASSERT_NE(parsed->request.problem, nullptr);
  EXPECT_EQ(core::digest(*parsed->request.problem), core::digest(*expected.request.problem));
}

TEST(GoldenRecords, StatsBodyBytesAndValues) {
  const serve::DaemonStatsSnapshot expected = golden_stats();
  const std::string text = golden("stats.txt");
  EXPECT_EQ(serve::stats_to_text(expected), text);

  const std::optional<serve::DaemonStatsSnapshot> parsed = serve::stats_from_text(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->service.submitted, expected.service.submitted);
  EXPECT_EQ(parsed->service.completed, expected.service.completed);
  EXPECT_EQ(parsed->service.solved, expected.service.solved);
  EXPECT_EQ(parsed->service.cache_hits, expected.service.cache_hits);
  EXPECT_EQ(parsed->service.dedup_joined, expected.service.dedup_joined);
  EXPECT_EQ(parsed->service.rejected_queue_full, expected.service.rejected_queue_full);
  EXPECT_EQ(parsed->service.rejected_rate_limited, expected.service.rejected_rate_limited);
  EXPECT_EQ(parsed->cache.hits, expected.cache.hits);
  EXPECT_EQ(parsed->cache.misses, expected.cache.misses);
  EXPECT_EQ(parsed->cache.insertions, expected.cache.insertions);
  EXPECT_EQ(parsed->cache.evictions, expected.cache.evictions);
  EXPECT_EQ(parsed->cache.size, expected.cache.size);
  EXPECT_EQ(parsed->cache.bytes, expected.cache.bytes);
  EXPECT_EQ(parsed->connections_active, expected.connections_active);
  EXPECT_EQ(parsed->connections_total, expected.connections_total);
  EXPECT_EQ(parsed->pending, expected.pending);
  EXPECT_EQ(parsed->pool_queue_depth, expected.pool_queue_depth);
  EXPECT_EQ(parsed->pool_in_flight, expected.pool_in_flight);
  EXPECT_EQ(parsed->loop_wakeups, expected.loop_wakeups);
  EXPECT_EQ(parsed->loop_timers_fired, expected.loop_timers_fired);
  EXPECT_EQ(parsed->idle_closes, expected.idle_closes);
  EXPECT_EQ(parsed->backpressure_bytes, expected.backpressure_bytes);
  EXPECT_EQ(parsed->gc_runs, expected.gc_runs);
  EXPECT_EQ(parsed->gc_entries_removed, expected.gc_entries_removed);
  EXPECT_EQ(parsed->gc_bytes_removed, expected.gc_bytes_removed);
  EXPECT_EQ(parsed->latency_count, expected.latency_count);
  expect_same_bits(expected.latency_p50_ms, parsed->latency_p50_ms);
  expect_same_bits(expected.latency_p90_ms, parsed->latency_p90_ms);
  expect_same_bits(expected.latency_p99_ms, parsed->latency_p99_ms);
}

}  // namespace
}  // namespace mf
