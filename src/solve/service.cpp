#include "solve/service.hpp"

#include <exception>
#include <map>
#include <utility>

#include "core/digest.hpp"
#include "solve/registry.hpp"
#include "support/check.hpp"

namespace mf::solve {

namespace {

/// The kError result for a request whose solve threw `error` or never ran.
SolveResult error_result(const std::string& solver_id, const std::string& scenario,
                         const std::exception_ptr& error) {
  SolveResult failed;
  failed.status = Status::kError;
  failed.diagnostics.solver_id = solver_id;
  failed.diagnostics.scenario = scenario;
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    failed.diagnostics.note = e.what();
  } catch (...) {
    failed.diagnostics.note = "unknown exception";
  }
  return failed;
}

/// Resolves on the caller's thread: an unknown solver id throws (with the
/// list of known ids) before any work is queued, never inside a future.
std::shared_ptr<const Solver> resolve(const SolveRequest& request) {
  MF_REQUIRE(request.problem != nullptr, "solve request needs a problem");
  return SolverRegistry::instance().resolve(
      effective_solver_id(request.solver_id, request.params));
}

/// The future face of the one submit path: `done` fulfils the returned
/// future. std::function needs a copyable target, so the promise is shared.
std::future<SolveResult> future_completion(std::function<void(SolveResult)>& done) {
  auto promise = std::make_shared<std::promise<SolveResult>>();
  done = [promise](SolveResult result) { promise->set_value(std::move(result)); };
  return promise->get_future();
}

}  // namespace

SolveService::SolveService(support::ThreadPool* pool, ResultCache* cache)
    : pool_(pool), cache_(cache != nullptr ? cache : &ResultCache::global()) {}

SolveService::~SolveService() {
  std::unique_lock lock(outstanding_mutex_);
  outstanding_cv_.wait(lock, [this] { return outstanding_ == 0; });
}

void SolveService::enqueue(support::UniqueFunction task) {
  if (pool_ == nullptr) {
    // Serial mode: the solve completes before submit() returns, so the
    // caller's future is already ready — results are identical either way.
    task();
    return;
  }
  {
    std::lock_guard lock(outstanding_mutex_);
    ++outstanding_;
  }
  try {
    pool_->post([this, task = std::move(task)]() mutable {
      task();
      finish_task();
    });
  } catch (...) {
    // The task never reached the queue (pool stopping, allocation failure):
    // roll the count back or the destructor waits forever.
    finish_task();
    throw;
  }
}

void SolveService::finish_task() {
  std::lock_guard lock(outstanding_mutex_);
  --outstanding_;
  if (outstanding_ == 0) outstanding_cv_.notify_all();
}

SolveResult SolveService::execute(const Solver& solver, const core::Problem& problem,
                                  const SolveParams& params) {
  try {
    SolveResult result = timed_solve(solver, problem, params);
    solved_.fetch_add(1, std::memory_order_relaxed);
    return result;
  } catch (...) {
    return error_result(solver.id(), params.scenario, std::current_exception());
  }
}

void SolveService::deliver(const Completion& done, SolveResult result) {
  // Counted first: a caller woken by its answer must already see it.
  completed_.fetch_add(1, std::memory_order_relaxed);
  done(std::move(result));
}

void SolveService::finish_flight(const std::optional<CacheKey>& key, Flight& flight,
                                 SolveResult result) {
  // Populate the cache BEFORE detaching the flight — the order is what
  // upholds "at most one solve per identity": a twin arriving during the
  // insert still joins the flight, and one arriving after the detach finds
  // the entry already stored. Write-through happens when ANY waiter asked
  // for read-write (a kRead leader must not veto a kReadWrite joiner), and
  // `write_through` only ever flips false→true under the mutex, so the
  // re-check below settles in at most two rounds.
  const bool storable = key.has_value() && result.status != Status::kError;
  std::vector<Completion> waiters;
  bool stored = false;
  for (;;) {
    {
      std::lock_guard lock(flights_mutex_);
      if (!(storable && flight.write_through && !stored)) {
        waiters = std::move(flight.waiters);
        if (key.has_value()) flights_.erase(*key);
        break;
      }
    }
    cache_->insert(*key, result);
    stored = true;
  }
  for (std::size_t w = 0; w < waiters.size(); ++w) {
    // The leader (waiter 0) computed it; everyone later shared the flight.
    // The last waiter takes the result by move — in the common no-twin
    // case that is the only waiter, and nothing is deep-copied.
    if (w + 1 == waiters.size()) {
      result.diagnostics.dedup_joined = w > 0;
      deliver(waiters[w], std::move(result));
    } else {
      SolveResult copy = result;
      copy.diagnostics.dedup_joined = w > 0;
      deliver(waiters[w], std::move(copy));
    }
  }
}

bool SolveService::join_flight(const CacheKey& key, Completion& done, bool write_through,
                               const std::shared_ptr<Flight>& lead) {
  std::lock_guard lock(flights_mutex_);
  auto it = flights_.find(key);
  const bool joined = it != flights_.end();
  if (joined) {
    dedup_joined_.fetch_add(1, std::memory_order_relaxed);
  } else if (lead != nullptr) {
    it = flights_.emplace(key, lead).first;
  } else {
    return false;
  }
  it->second->waiters.push_back(std::move(done));
  it->second->write_through |= write_through;
  return joined;
}

void SolveService::start(SolveRequest request, std::shared_ptr<const Solver> solver,
                         std::optional<core::Digest> digest, Completion done) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  // A time-limited refinement races the wall clock (RefinedSolver skips it
  // once the base solve has used the limit up), so its result is not a
  // function of its key: solve it as kOff — no probe, no twin, no store.
  if (request.params.time_limit_ms > 0.0 && solver->id().ends_with("+ls")) {
    request.params.cache = CachePolicy::kOff;
  }
  const bool write_through = request.params.cache == CachePolicy::kReadWrite;
  std::optional<CacheKey> key;
  if (request.params.cache != CachePolicy::kOff) {
    key = make_cache_key(digest.has_value() ? *digest : core::digest(*request.problem),
                         solver->id(), request.params);
    // Warm-identity fast path: join an identical solve in flight (the
    // shared result is bit-for-bit this request's — the key is the full
    // solve identity), else probe the cache on the calling thread. A hit
    // costs a map lookup and an inline delivery: no task queue, no thread
    // handoff. The flight table comes first because while a twin is in
    // flight its entry may not be stored yet.
    if (join_flight(*key, done, write_through, nullptr)) return;
    std::optional<SolveResult> hit;
    try {
      hit = cache_->lookup(*key);
    } catch (...) {
      hit.reset();  // a failing lookup degrades to the solve path
    }
    if (hit.has_value()) {
      hit->diagnostics.cache_hit = true;
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      deliver(done, *std::move(hit));
      return;
    }
  }

  // Miss (or kOff: no key, no twins, a flight of one): lead a flight —
  // unless an identical one was registered while we probed. (One that also
  // finished meanwhile left its entry stored; this flight then recomputes
  // it bit-identically and overwrites it with itself.)
  auto flight = std::make_shared<Flight>();
  if (!key.has_value()) {
    flight->waiters.push_back(std::move(done));
  } else if (join_flight(*key, done, write_through, flight)) {
    return;
  }
  try {
    enqueue([this, key, flight, solver, request = std::move(request)] {
      finish_flight(key, *flight, execute(*solver, *request.problem, request.params));
    });
  } catch (...) {
    // The pool refused the leader's task: retract the flight and answer
    // every waiter (a twin may have joined meanwhile) with one kError
    // result, futures and callbacks alike.
    finish_flight(key, *flight, error_result(solver->id(), {}, std::current_exception()));
  }
}

std::future<SolveResult> SolveService::submit(SolveRequest request) {
  std::shared_ptr<const Solver> solver = resolve(request);
  Completion done;
  std::future<SolveResult> future = future_completion(done);
  start(std::move(request), std::move(solver), std::nullopt, std::move(done));
  return future;
}

void SolveService::submit_async(SolveRequest request, Completion on_complete,
                                std::optional<core::Digest> digest) {
  MF_REQUIRE(on_complete != nullptr, "submit_async needs a completion callback");
  std::shared_ptr<const Solver> solver = resolve(request);
  start(std::move(request), std::move(solver), std::move(digest), std::move(on_complete));
}

std::vector<SolveResult> SolveService::solve_all(
    const std::vector<SolveRequest>& requests) {
  // Resolve everything before launching work: an unknown solver id or a
  // null problem fails the whole batch up front instead of mid-flight.
  // Resolution is deduped by effective id — a sweep batch has thousands of
  // requests but a handful of distinct ids, and each resolve takes the
  // registry mutex (and allocates a fresh wrapper for "+ls" composites).
  const SolverRegistry& registry = SolverRegistry::instance();
  std::map<std::string, std::shared_ptr<const Solver>> resolved;
  std::vector<std::shared_ptr<const Solver>> solvers;
  solvers.reserve(requests.size());
  for (const SolveRequest& request : requests) {
    MF_REQUIRE(request.problem != nullptr, "batch request needs a problem");
    const std::string id = effective_solver_id(request.solver_id, request.params);
    auto [it, inserted] = resolved.try_emplace(id);
    if (inserted) it->second = registry.resolve(id);
    solvers.push_back(it->second);
  }

  // Digest each distinct problem once, up front: requests of a paired trial
  // share one instance, so per-request digesting would redo O(n*m) hashing
  // methods-count times.
  std::map<const core::Problem*, core::Digest> digests;
  for (const SolveRequest& request : requests) {
    if (request.params.cache == CachePolicy::kOff) continue;
    const core::Problem* problem = request.problem.get();
    if (!digests.contains(problem)) digests.emplace(problem, core::digest(*problem));
  }

  std::vector<std::future<SolveResult>> futures;
  futures.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    SolveRequest request = requests[i];
    if (request.derive_stream_seed) {
      request.params.seed = stream_seed(request.params.seed, i);
    }
    std::optional<core::Digest> digest;
    if (request.params.cache != CachePolicy::kOff) {
      digest = digests.at(request.problem.get());
    }
    Completion done;
    futures.push_back(future_completion(done));
    start(std::move(request), solvers[i], std::move(digest), std::move(done));
  }

  std::vector<SolveResult> results;
  results.reserve(requests.size());
  for (std::future<SolveResult>& future : futures) results.push_back(future.get());
  return results;
}

void SolveService::note_rejected_queue_full() noexcept {
  rejected_queue_full_.fetch_add(1, std::memory_order_relaxed);
}

void SolveService::note_rejected_rate_limited() noexcept {
  rejected_rate_limited_.fetch_add(1, std::memory_order_relaxed);
}

ServiceStats SolveService::stats() const {
  ServiceStats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.completed = completed_.load(std::memory_order_relaxed);
  stats.solved = solved_.load(std::memory_order_relaxed);
  stats.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  stats.dedup_joined = dedup_joined_.load(std::memory_order_relaxed);
  stats.rejected_queue_full = rejected_queue_full_.load(std::memory_order_relaxed);
  stats.rejected_rate_limited = rejected_rate_limited_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace mf::solve
