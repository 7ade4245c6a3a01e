// Work-sharing thread pool and a chunked parallel_for on top of it.
//
// The experiment harness replicates each figure point over 30+ independent
// trials; those replications are embarrassingly parallel, so the runner
// shards them across a pool. The pool size honours the MF_THREADS
// environment variable and falls back to std::thread::hardware_concurrency.
// All solvers in the library are stateless/thread-safe so trials never
// contend on anything but the pool queue.
//
// Tasks are `UniqueFunction`s — a move-only callable wrapper — so an async
// producer (solve/service.hpp) can enqueue lambdas that own a
// std::promise or other move-only state directly, with no shared_ptr shims
// around a copyable std::function.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace mf::support {

/// Move-only type-erased `void()` callable — what std::function cannot be.
/// Wraps any invocable, including ones holding move-only captures
/// (std::promise, std::unique_ptr, std::packaged_task).
class UniqueFunction {
 public:
  UniqueFunction() = default;
  template <typename F, std::enable_if_t<
                            !std::is_same_v<std::decay_t<F>, UniqueFunction>, int> = 0>
  UniqueFunction(F&& callable)  // NOLINT(google-explicit-constructor): drop-in
      : impl_(std::make_unique<Impl<std::decay_t<F>>>(std::forward<F>(callable))) {}

  UniqueFunction(UniqueFunction&&) noexcept = default;
  UniqueFunction& operator=(UniqueFunction&&) noexcept = default;
  UniqueFunction(const UniqueFunction&) = delete;
  UniqueFunction& operator=(const UniqueFunction&) = delete;

  void operator()() { impl_->invoke(); }
  [[nodiscard]] explicit operator bool() const noexcept { return impl_ != nullptr; }

 private:
  struct Base {
    virtual ~Base() = default;
    virtual void invoke() = 0;
  };
  template <typename F>
  struct Impl final : Base {
    explicit Impl(F&& callable) : fn(std::move(callable)) {}
    explicit Impl(const F& callable) : fn(callable) {}
    void invoke() override { fn(); }
    F fn;
  };

  std::unique_ptr<Base> impl_;
};

/// Number of worker threads to use: MF_THREADS if set and positive,
/// otherwise hardware_concurrency (at least 1).
[[nodiscard]] std::size_t default_thread_count();

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t threads = default_thread_count());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Load gauges an admission-control front end (serve/daemon.hpp) reads
  /// before accepting more work: tasks enqueued but not yet started, and
  /// tasks currently executing on a worker. Point-in-time snapshots — two
  /// reads need not be consistent with each other.
  [[nodiscard]] std::size_t queue_depth() const;
  [[nodiscard]] std::size_t in_flight() const;

  /// Fire-and-forget enqueue. The task must deliver its outcome itself
  /// (e.g. through a promise it owns) and must not throw — an escaping
  /// exception terminates the process, there is no future to carry it.
  void post(UniqueFunction task);

  /// Enqueues a task; the returned future rethrows any task exception.
  std::future<void> submit(UniqueFunction task);

  /// Blocks until every task submitted so far has finished.
  void wait_idle();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<UniqueFunction> queue_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
};

/// Runs body(i) for i in [0, count) across the pool in contiguous chunks.
/// Exceptions from any chunk are rethrown (first one wins). With a
/// single-threaded pool this degrades to a plain loop, so call sites never
/// need a serial fallback path.
void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& body);

}  // namespace mf::support
