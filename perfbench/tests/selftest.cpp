// Self-tests of the benchmark's own bookkeeping, against a live in-process
// daemon: hits and misses are classified by the request plan, a stale solve
// time riding on a cached response never reaches the solver timings, and an
// injected bad request is counted as a failure.
//
//   perfbench_selftest        (exit 0 when every check holds)
#include <bit>
#include <cstdio>
#include <memory>
#include <string>

#include "campaign.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve_mixed.hpp"
#include "solve/cache.hpp"

namespace {

int failures = 0;

void expect(bool condition, const char* what) {
  if (condition) return;
  ++failures;
  std::fprintf(stderr, "FAILED: %s\n", what);
}

/// A one-connection plan: `warm` warm identities and `requests` planned
/// requests after them.
perfbench::ServePlan tiny_plan(std::size_t warm, std::size_t requests) {
  perfbench::ServeShape shape;
  shape.connections = 1;
  shape.warm = warm;
  shape.requests_per_connection = requests;
  return perfbench::make_serve_plan(42, shape);
}

void warm_repeat_is_a_hit_without_solver_time() {
  const perfbench::ServePlan plan = tiny_plan(1, 0);
  mf::solve::ResultCache cache;
  mf::serve::DaemonOptions options;
  options.threads = 2;
  options.cache = &cache;
  mf::serve::Daemon daemon(options);
  daemon.start();
  mf::serve::Client client("127.0.0.1", daemon.port());

  const mf::serve::Client::Outcome fill = client.solve(plan.identities[0]);
  expect(fill.ok, "warm-set fill succeeds");
  const mf::serve::Client::Outcome repeat = client.solve(plan.identities[0]);
  expect(repeat.ok, "warm repeat succeeds");
  // The trap: the cached entry still carries the original solve's time.
  expect(repeat.result.diagnostics.wall_time_ms > 0.0,
         "a warm repeat carries the original solve's wall time");
  expect(perfbench::same_solve(fill.result, repeat.result), "warm repeat equals the fill");

  perfbench::ServeTally tally;
  tally.record({true, 0}, repeat, 0.5);
  expect(tally.attempted == 1 && tally.failed == 0, "warm repeat counted once, not failed");
  expect(tally.hit_ms.size() == 1 && tally.miss_ms.empty(), "warm repeat counted as a hit");
  expect(tally.cold_solve_ms.empty() && tally.ls_moves == 0,
         "warm repeat's stale wall time stays out of the solver timings");

  const mf::serve::DaemonStatsSnapshot stats = daemon.stats_snapshot();
  expect(stats.service.solved == 1 && stats.service.cache_hits == 1,
         "the daemon really answered the repeat from its cache");
}

void cold_request_and_injected_failure_are_counted() {
  const perfbench::ServePlan plan = tiny_plan(0, 1);
  expect(plan.cold_count() == 1 && !plan.per_connection[0][0].warm, "plan has one cold request");
  mf::solve::ResultCache cache;
  mf::serve::DaemonOptions options;
  options.threads = 2;
  options.cache = &cache;
  mf::serve::Daemon daemon(options);
  daemon.start();
  mf::serve::Client client("127.0.0.1", daemon.port());

  perfbench::ServeTally tally;
  const perfbench::PlannedRequest cold = plan.per_connection[0][0];
  tally.record(cold, client.solve(plan.identities[cold.identity]), 2.0);
  expect(tally.miss_ms.size() == 1 && tally.cold_solve_ms.size() == 1,
         "a cold request is a miss and feeds the solver timings");

  mf::serve::WireRequest bad = plan.identities[cold.identity];
  bad.request.solver_id = "no-such-solver";
  const mf::serve::Client::Outcome refused = client.solve(bad);
  expect(!refused.ok && refused.error_code == mf::serve::kErrBadRequest,
         "an unknown solver id is refused as a bad request");
  tally.record(cold, refused, 0.1);
  expect(tally.attempted == 2 && tally.failed == 1, "the refused request counts as failed");
  expect(tally.cold_solve_ms.size() == 1 && tally.latency_ms.size() == 1,
         "the refused request adds no timings");
}

void same_solve_sees_one_bit() {
  const perfbench::ServePlan plan = tiny_plan(0, 1);
  const mf::solve::SolveRequest& request = plan.identities[0].request;
  const mf::solve::SolveResult result =
      mf::solve::run(*request.problem, request.solver_id, request.params);
  mf::solve::SolveResult changed = result;
  changed.period = std::bit_cast<double>(std::bit_cast<std::uint64_t>(result.period) ^ 1u);
  expect(perfbench::same_solve(result, result), "a result equals itself");
  expect(!perfbench::same_solve(result, changed), "one flipped period bit is a mismatch");
}

void tiny_serve_run_is_clean() {
  perfbench::RunOptions options;
  options.workload = "serve-mixed";
  options.seed = 3;
  options.seconds = 0.05;
  perfbench::SpanRecorder recorder;
  const perfbench::WorkloadResult result = perfbench::run_serve_mixed(options, recorder);
  expect(result.correct(), "a tiny serve-mixed run passes its checks");
  expect(result.attempted == 150 && result.failed == 0, "a tiny run attempts its whole plan");
}

void campaigns_keep_the_paper_points() {
  const auto sweeps = perfbench::campaign_sweeps("fig12-exact", 77);
  const auto& values = sweeps.front().values;
  expect(sweeps.front().base_seed == 77, "the workload seed is the sweep's base seed");
  expect(values.size() >= 2 && values[values.size() - 2] == 18 && values.back() == 20,
         "fig12-exact keeps the n=18 and n=20 points");
}

}  // namespace

int main() {
  warm_repeat_is_a_hit_without_solver_time();
  cold_request_and_injected_failure_are_counted();
  same_solve_sees_one_bit();
  tiny_serve_run_is_clean();
  campaigns_keep_the_paper_points();
  if (failures != 0) {
    std::fprintf(stderr, "%d self-test check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench self-test: all checks passed\n");
  return 0;
}
