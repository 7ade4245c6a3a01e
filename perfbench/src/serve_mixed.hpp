// The serve-mixed workload: an in-process epoll daemon driven closed-loop by
// a few client connections, 80% repeats of a warm set and 20% never-seen
// problems, every request H4w+ls at n=50, m=10, p=2.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "harness.hpp"
#include "serve/client.hpp"

namespace perfbench {

/// One request of the plan. The plan, not the response, says whether the
/// daemon should answer from its cache: a wire response carries the original
/// solve's `wall_time_ms` and no cache-hit flag, so a warm repeat looks
/// exactly like a fresh solve from the client side.
struct PlannedRequest {
  bool warm = false;         ///< a repeat of a warm-set identity (a cache hit)
  std::size_t identity = 0;  ///< index into ServePlan::identities
};

struct ServePlan {
  /// The warm set first, then one identity per cold request.
  std::vector<mf::serve::WireRequest> identities;
  std::size_t warm = 0;
  std::vector<std::vector<PlannedRequest>> per_connection;

  [[nodiscard]] std::size_t cold_count() const noexcept { return identities.size() - warm; }
};

struct ServeShape {
  std::size_t connections = 3;
  std::size_t requests_per_connection = 100;
  std::size_t warm = 64;  ///< warm-set size; 80% of requests repeat one of these
};

/// The request plan for `seed`: warm-set problems, then each connection's
/// sequence of repeats and never-seen problems. Deterministic in its inputs.
[[nodiscard]] ServePlan make_serve_plan(std::uint64_t seed, const ServeShape& shape);

/// Client-side outcomes, classified by the plan.
class ServeTally {
 public:
  /// Records one round trip. Failed, refused and closed requests count
  /// against `failed`; only cold responses feed the solver timings.
  void record(const PlannedRequest& planned, const mf::serve::Client::Outcome& outcome,
              double latency_ms);
  void merge(const ServeTally& other);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> latency_ms;  ///< every request
  std::vector<double> hit_ms;      ///< warm repeats
  std::vector<double> miss_ms;     ///< never-seen problems
  std::vector<double> cold_solve_ms;  ///< diagnostics.wall_time_ms of cold responses
  std::uint64_t ls_moves = 0;         ///< local-search moves over cold responses
};

/// Sets up the daemon, runs the plan, checks every response against an
/// in-process solve, and reports end-to-end or (with `options.trace`)
/// per-layer metrics.
[[nodiscard]] WorkloadResult run_serve_mixed(const RunOptions& options, SpanRecorder& recorder);

/// True when two results agree on everything a solve determines: status,
/// mapping, period bits, node count and the refinement record. Wall times
/// and cache flags are not compared.
[[nodiscard]] bool same_solve(const mf::solve::SolveResult& a, const mf::solve::SolveResult& b);

}  // namespace perfbench
