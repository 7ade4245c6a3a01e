#include "serve_mixed.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <latch>
#include <memory>
#include <thread>

#include "core/digest.hpp"
#include "exp/scenario.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "solve/cache.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace perfbench {

namespace {

using mf::solve::SolveResult;

constexpr std::size_t kSetupRepeats = 5;
/// Requests planned per second of `--seconds`, across all connections. The
/// plan has a fixed size so that its counts repeat exactly at a fixed seed;
/// this rate makes it last about `--seconds` on a 4-vCPU x86 VM.
constexpr double kPlannedRequestsPerSecond = 1200.0;
constexpr const char* kSolverId = "H4w+ls";
constexpr double kRepeatShare = 0.8;

mf::serve::WireRequest make_identity(std::uint64_t instance_seed, std::size_t connection) {
  mf::exp::Scenario scenario;
  scenario.tasks = 50;
  scenario.machines = 10;
  scenario.types = 2;
  mf::serve::WireRequest wire;
  wire.client_id = "perfbench-" + std::to_string(connection);
  wire.request.problem =
      std::make_shared<const mf::core::Problem>(mf::exp::generate(scenario, instance_seed));
  wire.request.solver_id = kSolverId;
  wire.request.params.cache = mf::solve::CachePolicy::kReadWrite;
  wire.request.derive_stream_seed = false;
  return wire;
}

/// A running daemon with its memory cache, warm set filled, and one client
/// per connection. Members are destroyed clients first, then the daemon
/// (which drains and joins), then the cache it points at.
struct Server {
  std::unique_ptr<mf::solve::ResultCache> cache;
  std::unique_ptr<mf::serve::Daemon> daemon;
  std::vector<std::unique_ptr<mf::serve::Client>> clients;
};

/// Starts a daemon and fills the warm set; returns the seconds it took.
double set_up(const ServePlan& plan, std::size_t width, std::unique_ptr<Server>& server,
              WorkloadResult& out) {
  server.reset();
  const double start = now_seconds();
  server = std::make_unique<Server>();
  server->cache = std::make_unique<mf::solve::ResultCache>();
  mf::serve::DaemonOptions options;
  options.threads = width;
  options.cache = server->cache.get();
  server->daemon = std::make_unique<mf::serve::Daemon>(options);
  server->daemon->start();
  for (std::size_t c = 0; c < plan.per_connection.size(); ++c) {
    server->clients.push_back(
        std::make_unique<mf::serve::Client>("127.0.0.1", server->daemon->port()));
  }
  for (std::size_t i = 0; i < plan.warm; ++i) {
    const mf::serve::Client::Outcome outcome =
        server->clients[i % server->clients.size()]->solve(plan.identities[i]);
    if (!outcome.ok) out.fail_check("warm-set fill refused: " + outcome.error_code);
  }
  return now_seconds() - start;
}

struct Pass {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  ServeTally tally;
  /// Responses in plan order per connection; nullopt where the request failed.
  std::vector<std::vector<std::optional<SolveResult>>> responses;
  mf::serve::DaemonStatsSnapshot before;
  mf::serve::DaemonStatsSnapshot after;
};

/// Runs the whole plan closed-loop: each connection sends its next request
/// only after the previous reply arrived.
Pass run_pass(Server& server, const ServePlan& plan, SpanRecorder* recorder) {
  const std::size_t connections = plan.per_connection.size();
  Pass pass;
  pass.responses.resize(connections);
  std::vector<ServeTally> tallies(connections);
  std::vector<std::string> thread_errors(connections);
  pass.before = server.daemon->stats_snapshot();
  std::latch go(1);
  std::vector<std::thread> threads;
  threads.reserve(connections);
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      go.wait();
      try {
        for (const PlannedRequest& planned : plan.per_connection[c]) {
          const double traced_start = recorder != nullptr ? recorder->now() : 0.0;
          const double sent = now_seconds();
          const mf::serve::Client::Outcome outcome =
              server.clients[c]->solve(plan.identities[planned.identity]);
          const double latency_ms = 1000.0 * (now_seconds() - sent);
          if (recorder != nullptr) {
            recorder->add("serve.request", 0, traced_start, recorder->now(),
                          planned.warm ? "hit" : "miss");
          }
          tallies[c].record(planned, outcome, latency_ms);
          pass.responses[c].push_back(outcome.ok ? std::optional<SolveResult>(outcome.result)
                                                 : std::nullopt);
        }
      } catch (const std::exception& error) {
        thread_errors[c] = error.what();
      }
    });
  }
  const double cpu_start = process_cpu_seconds();
  const double start = now_seconds();
  go.count_down();
  for (std::thread& thread : threads) thread.join();
  pass.wall_s = now_seconds() - start;
  pass.cpu_s = process_cpu_seconds() - cpu_start;
  pass.after = server.daemon->stats_snapshot();
  for (std::size_t c = 0; c < connections; ++c) {
    pass.tally.merge(tallies[c]);
    // A connection that stopped early leaves its unsent requests failed.
    const std::size_t unsent = plan.per_connection[c].size() - pass.responses[c].size();
    pass.tally.attempted += unsent;
    pass.tally.failed += unsent;
    if (!thread_errors[c].empty()) {
      std::fprintf(stderr, "connection %zu stopped: %s\n", c, thread_errors[c].c_str());
    }
  }
  return pass;
}

/// An in-process `solve::run` of every identity, run after the timed region
/// on a pool of `width` threads (the daemon is gone by then).
std::vector<SolveResult> reference_solves(const ServePlan& plan, std::size_t width) {
  std::vector<SolveResult> reference(plan.identities.size());
  mf::support::ThreadPool pool(width);
  mf::support::parallel_for(pool, reference.size(), [&](std::size_t i) {
    const mf::solve::SolveRequest& request = plan.identities[i].request;
    mf::solve::SolveParams params = request.params;
    params.cache = mf::solve::CachePolicy::kOff;
    reference[i] = mf::solve::run(*request.problem, request.solver_id, params);
  });
  return reference;
}

/// The daemon solved each distinct identity exactly once, and every
/// response equals the in-process solve of its request.
void check_pass(const ServePlan& plan, const Pass& pass,
                const std::vector<SolveResult>& reference, WorkloadResult& out) {
  const std::uint64_t expected_solved = plan.warm + plan.cold_count();
  if (pass.after.service.solved != expected_solved) {
    out.fail_check("daemon solved " + std::to_string(pass.after.service.solved) +
                   " problems, the plan has " + std::to_string(expected_solved) +
                   " distinct identities");
  }
  std::size_t mismatches = 0;
  for (std::size_t c = 0; c < plan.per_connection.size(); ++c) {
    for (std::size_t k = 0; k < pass.responses[c].size(); ++k) {
      const std::optional<SolveResult>& response = pass.responses[c][k];
      const std::size_t identity = plan.per_connection[c][k].identity;
      if (!response.has_value() || same_solve(*response, reference[identity])) continue;
      ++out.failed;
      if (mismatches++ == 0) {
        out.fail_check("response to identity " + std::to_string(identity) +
                       " differs from an in-process solve of the same request");
      }
    }
  }
}

/// Microseconds per call of `call(i)` over the first `count` planned
/// identities: the median of three passes, each timed as a whole.
template <typename Call>
double per_call_us(std::size_t count, Call call) {
  constexpr int kPasses = 3;
  std::vector<double> passes;
  for (int pass = 0; pass < kPasses; ++pass) {
    const double start = now_seconds();
    for (std::size_t i = 0; i < count; ++i) call(i);
    passes.push_back(1e6 * (now_seconds() - start) / static_cast<double>(count));
  }
  return median(std::move(passes));
}

/// Times the wire codec and the digest on the planned requests (the warm
/// set and the first cold ones), outside the daemon, and checks that each
/// decoded request keeps its digest.
void protocol_metrics(const ServePlan& plan, MetricSet& metrics, WorkloadResult& out) {
  constexpr std::size_t kTimedIdentities = 1024;
  const std::size_t count = std::min(plan.identities.size(), kTimedIdentities);
  std::vector<std::string> texts(count);
  metrics.set("serve.protocol.encode_us", per_call_us(count, [&](std::size_t i) {
                texts[i] = mf::serve::request_to_text(plan.identities[i]);
              }),
              "us");
  std::vector<std::optional<mf::serve::WireRequest>> decoded(count);
  metrics.set("serve.protocol.decode_us", per_call_us(count, [&](std::size_t i) {
                decoded[i] = mf::serve::request_from_text(texts[i]);
              }),
              "us");
  std::vector<mf::core::Digest> digests(count);
  metrics.set("core.digest_us", per_call_us(count, [&](std::size_t i) {
                digests[i] = mf::core::digest(*plan.identities[i].request.problem);
              }),
              "us");
  std::size_t lost = 0;
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    if (!decoded[i].has_value() || mf::core::digest(*decoded[i]->request.problem) != digests[i]) {
      ++lost;
    }
  }
  if (lost != 0) out.fail_check("wire round trip changed " + std::to_string(lost) + " requests");
}

void layer_metrics(const Pass& pass, MetricSet& metrics) {
  const ServeTally& tally = pass.tally;
  const double requests = static_cast<double>(tally.attempted);
  metrics.set("solver.H4w_ls.calls", static_cast<double>(tally.cold_solve_ms.size()), "count");
  metrics.set("solver.H4w_ls.p50_ms", quantile(tally.cold_solve_ms, 0.5), "ms");
  metrics.set("solver.H4w_ls.p90_ms", quantile(tally.cold_solve_ms, 0.9), "ms");
  metrics.set("extensions.ls.moves", static_cast<double>(tally.ls_moves), "count");
  metrics.set("serve.hit_p50_ms", quantile(tally.hit_ms, 0.5), "ms");
  metrics.set("serve.hit_p99_ms", quantile(tally.hit_ms, 0.99), "ms");
  metrics.set("serve.miss_p50_ms", quantile(tally.miss_ms, 0.5), "ms");
  metrics.set("serve.miss_p99_ms", quantile(tally.miss_ms, 0.99), "ms");
  metrics.set("serve.daemon_p50_ms", pass.after.latency_p50_ms, "ms");
  metrics.set("serve.daemon_p99_ms", pass.after.latency_p99_ms, "ms");
  metrics.set("serve.loop_wakeups_per_req",
              static_cast<double>(pass.after.loop_wakeups - pass.before.loop_wakeups) / requests,
              "count");
  metrics.set("serve.solved", static_cast<double>(pass.after.service.solved), "count");
  const double submitted =
      static_cast<double>(pass.after.service.submitted - pass.before.service.submitted);
  metrics.set("serve.cache_hit_ratio",
              submitted > 0.0 ? static_cast<double>(pass.after.service.cache_hits -
                                                    pass.before.service.cache_hits) /
                                    submitted
                              : 0.0,
              "ratio");
  metrics.set("serve.rejected",
              static_cast<double>(pass.after.service.rejected_queue_full +
                                  pass.after.service.rejected_rate_limited),
              "count");
}

}  // namespace

ServePlan make_serve_plan(std::uint64_t seed, const ServeShape& shape) {
  ServePlan plan;
  plan.warm = shape.warm;
  for (std::size_t k = 0; k < shape.warm; ++k) {
    plan.identities.push_back(make_identity(mf::support::mix_seed(seed, k), k % shape.connections));
  }
  const std::uint64_t cold_seed = mf::support::mix_seed(seed, 0xC01DULL);
  plan.per_connection.resize(shape.connections);
  for (std::size_t c = 0; c < shape.connections; ++c) {
    mf::support::Rng rng(mf::support::mix_seed(seed, 0x5E4E0000ULL + c));
    for (std::size_t r = 0; r < shape.requests_per_connection; ++r) {
      PlannedRequest planned;
      planned.warm = shape.warm > 0 && rng.uniform() < kRepeatShare;
      if (planned.warm) {
        planned.identity = static_cast<std::size_t>(rng.uniform_u64(0, shape.warm - 1));
      } else {
        planned.identity = plan.identities.size();
        plan.identities.push_back(
            make_identity(mf::support::mix_seed(cold_seed, planned.identity), c));
      }
      plan.per_connection[c].push_back(planned);
    }
  }
  return plan;
}

void ServeTally::record(const PlannedRequest& planned, const mf::serve::Client::Outcome& outcome,
                        double latency) {
  ++attempted;
  if (!outcome.ok || outcome.result.status == mf::solve::Status::kError) {
    ++failed;
    return;
  }
  latency_ms.push_back(latency);
  if (planned.warm) {
    hit_ms.push_back(latency);
    return;
  }
  miss_ms.push_back(latency);
  cold_solve_ms.push_back(outcome.result.diagnostics.wall_time_ms);
  ls_moves += outcome.result.diagnostics.refiner_moves;
}

void ServeTally::merge(const ServeTally& other) {
  attempted += other.attempted;
  failed += other.failed;
  latency_ms.insert(latency_ms.end(), other.latency_ms.begin(), other.latency_ms.end());
  hit_ms.insert(hit_ms.end(), other.hit_ms.begin(), other.hit_ms.end());
  miss_ms.insert(miss_ms.end(), other.miss_ms.begin(), other.miss_ms.end());
  cold_solve_ms.insert(cold_solve_ms.end(), other.cold_solve_ms.begin(),
                       other.cold_solve_ms.end());
  ls_moves += other.ls_moves;
}

bool same_solve(const SolveResult& a, const SolveResult& b) {
  const auto bits = [](double value) { return std::bit_cast<std::uint64_t>(value); };
  return a.status == b.status && a.mapping.has_value() == b.mapping.has_value() &&
         (!a.mapping.has_value() || a.mapping->assignment() == b.mapping->assignment()) &&
         bits(a.period) == bits(b.period) &&
         a.diagnostics.solver_id == b.diagnostics.solver_id &&
         a.diagnostics.nodes_explored == b.diagnostics.nodes_explored &&
         a.diagnostics.refined == b.diagnostics.refined &&
         a.diagnostics.refiner_moves == b.diagnostics.refiner_moves &&
         bits(a.diagnostics.refiner_improvement_ms) == bits(b.diagnostics.refiner_improvement_ms);
}

WorkloadResult run_serve_mixed(const RunOptions& options, SpanRecorder& recorder) {
  const std::size_t width = pool_width();
  ServeShape shape;
  shape.requests_per_connection = std::max<std::size_t>(
      50, static_cast<std::size_t>(options.seconds * kPlannedRequestsPerSecond /
                                   static_cast<double>(shape.connections)));
  const ServePlan plan = make_serve_plan(options.seed, shape);
  WorkloadResult out;
  MetricSet& metrics = out.metrics;

  std::unique_ptr<Server> server;
  if (!options.trace) {
    std::vector<double> setups;
    for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
      setups.push_back(set_up(plan, width, server, out));
    }
    const Pass pass = run_pass(*server, plan, nullptr);
    server.reset();
    check_pass(plan, pass, reference_solves(plan, width), out);
    out.attempted = pass.tally.attempted;
    out.failed += pass.tally.failed;
    metrics.set("setup_s", median(setups), "s");
    metrics.set("wall_s", pass.wall_s, "s");
    metrics.set("cpu_s", pass.cpu_s, "s");
    metrics.set("req_per_s", static_cast<double>(pass.tally.attempted) / pass.wall_s, "1/s");
    metrics.set("latency_p50_ms", quantile(pass.tally.latency_ms, 0.5), "ms");
    metrics.set("latency_p99_ms", quantile(pass.tally.latency_ms, 0.99), "ms");
    return out;
  }

  // Traced run: the same plan against two fresh daemons, untraced first;
  // the per-layer numbers come from the traced pass.
  (void)set_up(plan, width, server, out);
  const Pass untraced = run_pass(*server, plan, nullptr);
  (void)set_up(plan, width, server, out);
  const Pass traced = run_pass(*server, plan, &recorder);
  server.reset();
  const std::vector<SolveResult> reference = reference_solves(plan, width);
  for (const Pass* pass : {&untraced, &traced}) {
    check_pass(plan, *pass, reference, out);
    out.attempted += pass->tally.attempted;
    out.failed += pass->tally.failed;
  }
  layer_metrics(traced, metrics);
  protocol_metrics(plan, metrics, out);
  metrics.set("trace.overhead_s", traced.wall_s - untraced.wall_s, "s");
  return out;
}

}  // namespace perfbench
