// The async solve service: every execution path in the library — `run()`,
// batch sweeps, shards, the CLI, and any long-running scheduler server —
// rides this one engine. It is the only code that applies a request's
// `CachePolicy`, and each instance owns the counters of the requests it
// served: callers read `stats()` on the service they hold.
//
// `submit()` returns a std::future immediately and runs the solve on the
// shared thread pool. Two guarantees distinguish the service from a bare
// `pool.submit(timed_solve)`:
//
//   * Single-flight deduplication — concurrent requests with identical
//     cache keys share ONE in-flight solve instead of racing: the first
//     submission becomes the leader, later identical submissions attach
//     their completion to the leader's flight and are answered when it
//     completes (their results carry `diagnostics.dedup_joined`). Because
//     the cache key is the full solve identity, a shared result is
//     bit-for-bit the result each request would have computed alone.
//   * Shared cache population — a completed read-write solve lands in the
//     `ResultCache` (and, through it, in its disk tier when it has one), so
//     in-flight sharing hands off seamlessly to cache hits once the flight
//     finishes.
//
// Requests with CachePolicy::kOff have no key and therefore no
// deduplication — they run independently, as demanded. So does a "+ls"
// request with a positive `time_limit_ms`: whether its refinement runs
// depends on the wall clock (the refiner is skipped once the base solve
// has used up the limit), so its result is not a function of its key.
//
// `submit()`, `submit_async()` and `solve_all()` are three faces of one
// private submit path that answers through a completion callback.
// `solve_all` is the synchronous batch face (solve/batch.hpp's
// `BatchSolver` is an alias of this class): resolve every solver id up
// front, digest each distinct problem once, derive per-index stream seeds,
// submit everything, wait. Per-request failures become Status::kError
// results — an exception never crosses a future out of the service.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/platform.hpp"
#include "solve/cache.hpp"
#include "solve/solver.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace mf::solve {

/// One unit of service work. Problems are shared_ptr so many requests (e.g.
/// every method of a paired-design trial) can reference one instance
/// without copying the matrices.
struct SolveRequest {
  std::shared_ptr<const core::Problem> problem;
  std::string solver_id;  ///< registry id, composites ("H4w+ls") included
  SolveParams params;
  /// When true (the default) `solve_all` runs the request with
  /// `stream_seed(params.seed, index)`, decorrelating same-seed requests.
  /// Set false when the caller already derived a content-addressed seed per
  /// request — the sweep runner does, so a request's result (and its cache
  /// key) never depends on batch composition or shard assignment.
  /// `submit()` has no batch index and always takes the request as final.
  bool derive_stream_seed = true;
};

/// Service-level counters, distinct from the cache's `CacheStats`: these
/// describe requests, the cache's describe entries.
struct ServiceStats {
  std::uint64_t submitted = 0;     ///< requests accepted
  std::uint64_t completed = 0;     ///< requests answered (counted before the
                                   ///< answer is delivered)
  std::uint64_t solved = 0;        ///< actual Solver::solve invocations
  std::uint64_t cache_hits = 0;    ///< requests answered from the backend
  std::uint64_t dedup_joined = 0;  ///< requests attached to an in-flight twin
  /// Admission-control rejections. The service itself never rejects — a
  /// front end (the scheduler daemon, serve/daemon.hpp) refuses the request
  /// before it reaches submit() and records the refusal here, so one stats
  /// struct describes everything a client experienced.
  std::uint64_t rejected_queue_full = 0;    ///< bounded pending queue was full
  std::uint64_t rejected_rate_limited = 0;  ///< client exceeded its token bucket
};

/// The execution seam consumers program against when they don't care WHERE
/// solving happens: `SolveService` (alias `BatchSolver`) solves
/// in-process; `serve::RemoteExecutor` ships every request to a scheduler
/// daemon over TCP. `exp::SweepOptions::executor` accepts any of them, so a
/// figure sweep runs bit-identically against either.
class SolveExecutor {
 public:
  virtual ~SolveExecutor() = default;

  /// Solves every request; `results[i]` corresponds to `requests[i]`.
  /// Per-request failures become Status::kError results, never exceptions.
  [[nodiscard]] virtual std::vector<SolveResult> solve_all(
      const std::vector<SolveRequest>& requests) = 0;
};

class SolveService : public SolveExecutor {
 public:
  /// `pool` may be null: every request is then answered synchronously,
  /// before submit() returns its (already-ready) future — `run()` and the
  /// serial sweeps use this mode. `cache` overrides the process-wide
  /// `ResultCache::global()` (give it a disk tier for persistence).
  explicit SolveService(support::ThreadPool* pool = nullptr,
                        ResultCache* cache = nullptr);

  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Blocks until every submitted solve has completed, so in-flight tasks
  /// never outlive the service they reference.
  ~SolveService();

  /// Async facade. Resolves the solver id immediately (throws
  /// std::invalid_argument listing the known ids when unknown — before any
  /// work is queued); everything after that is delivered through the
  /// future, including solver failures and a pool that refuses the task
  /// (as Status::kError results, never exceptions). The request is taken
  /// as final: no stream-seed derivation.
  [[nodiscard]] std::future<SolveResult> submit(SolveRequest request);

  /// Continuation-style twin of `submit()` for callers that must not block
  /// a thread per outstanding solve — the daemon's event-loop backend runs
  /// hundreds of connections on one thread and re-enters its reactor from
  /// this callback. `on_complete` runs exactly once, on the pool thread
  /// that finished the flight (or inline: serial mode and cache hits), with
  /// the same result the future would have carried, and must not throw.
  /// Dedup/caching semantics are identical to `submit()` because both
  /// faces share one submit path. Pass `digest` when the caller already
  /// digested the problem (the daemon does, for its response key).
  /// Unknown solver ids throw on the caller's thread before any work is
  /// queued.
  void submit_async(SolveRequest request, std::function<void(SolveResult)> on_complete,
                    std::optional<core::Digest> digest = std::nullopt);

  /// Synchronous batch face: solves every request; `results[i]` corresponds
  /// to `requests[i]`. All solver ids are resolved up front, distinct
  /// problems are digested once, per-index stream seeds are derived where
  /// `derive_stream_seed` asks for it, and per-request failures become
  /// Status::kError results so one bad request cannot kill a 10k-request
  /// sweep.
  [[nodiscard]] std::vector<SolveResult> solve_all(
      const std::vector<SolveRequest>& requests) override;

  /// Records an admission-control rejection against this service. Called
  /// by the front end that refused the request — the request never reached
  /// submit(), so nothing else counts it.
  void note_rejected_queue_full() noexcept;
  void note_rejected_rate_limited() noexcept;

  /// The counters of every request this instance served. A caller that
  /// wants to report what a run did holds one service for the run.
  [[nodiscard]] ServiceStats stats() const;

  [[nodiscard]] ResultCache& cache() const noexcept { return *cache_; }

  /// The per-request seed stream `solve_all` applies: requests sharing one
  /// base seed still get statistically independent RNG streams, and the
  /// stream depends only on (seed, index) — never on scheduling order.
  [[nodiscard]] static std::uint64_t stream_seed(std::uint64_t seed,
                                                 std::size_t index) noexcept {
    return support::mix_seed(seed, static_cast<std::uint64_t>(index));
  }

 private:
  using Completion = std::function<void(SolveResult)>;
  /// One solve and the requests waiting on it, leader's first; all are
  /// answered together when it completes. A keyed flight is registered in
  /// `flights_` so identical requests can join it; a kOff request is a
  /// flight of one that nobody else sees.
  struct Flight {
    /// Guarded by flights_mutex_ while the flight is registered.
    std::vector<Completion> waiters;
    /// True when any waiter requested kReadWrite: the policy is not part
    /// of the key, so a kRead leader and a kReadWrite twin share a flight
    /// — and the twin's write-through wish must still be honoured.
    /// Guarded by flights_mutex_.
    bool write_through = false;
  };

  /// The one submit path under submit(), submit_async() and solve_all():
  /// answer from a flight in progress or from the cache, or lead a new
  /// flight. `digest` spares a second digest of the problem when the
  /// caller has one.
  void start(SolveRequest request, std::shared_ptr<const Solver> solver,
             std::optional<core::Digest> digest, Completion done);
  /// Single-flight: attaches `done` to the flight already registered for
  /// `key` and returns true. Otherwise, when `lead` is given, registers it
  /// for `key` with `done` as its first waiter; returns false either way.
  bool join_flight(const CacheKey& key, Completion& done, bool write_through,
                   const std::shared_ptr<Flight>& lead);
  /// Leader body: solve, with exceptions turned into kError results.
  [[nodiscard]] SolveResult execute(const Solver& solver, const core::Problem& problem,
                                    const SolveParams& params);
  /// Stores the result when a waiter asked for write-through, detaches the
  /// flight, and answers every waiter.
  void finish_flight(const std::optional<CacheKey>& key, Flight& flight, SolveResult result);
  /// Counts the completion, then runs the waiter's callback.
  void deliver(const Completion& done, SolveResult result);
  void enqueue(support::UniqueFunction task);
  void finish_task();

  support::ThreadPool* pool_;
  ResultCache* cache_;

  std::mutex flights_mutex_;
  std::unordered_map<CacheKey, std::shared_ptr<Flight>, CacheKeyHash> flights_;

  std::mutex outstanding_mutex_;
  std::condition_variable outstanding_cv_;
  std::size_t outstanding_ = 0;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> solved_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> dedup_joined_{0};
  std::atomic<std::uint64_t> rejected_queue_full_{0};
  std::atomic<std::uint64_t> rejected_rate_limited_{0};
};

}  // namespace mf::solve
