// A single-threaded epoll readiness reactor with an ordered timer queue —
// the engine under the scheduler daemon.
//
// One `EventLoop` owns one epoll instance, one eventfd wakeup, and one
// timer queue, and runs them all on whichever thread calls `run()`. The
// design splits responsibilities the classic way:
//
//   * **I/O readiness**: `add_fd` registers a level-triggered interest set
//     and a handler; the loop invokes the handler with the ready event
//     mask. Handlers may add/modify/remove fds freely — including removing
//     themselves — because dispatch re-checks registration per event, so a
//     handler that closed a peer's fd earlier in the same batch never sees
//     a stale callback.
//   * **Timers**: `add_timer_after` schedules a one-shot callback on the
//     loop thread; the epoll wait timeout is always the distance to the
//     nearest deadline, so timers fire without any tick thread. Periodic
//     behavior is a handler re-arming itself — the daemon's housekeeping
//     and cache-GC timers do exactly that.
//   * **Cross-thread re-entry**: `post()` is the ONLY thread-safe entry
//     point. It enqueues a closure and wakes the loop through the eventfd;
//     the closure runs on the loop thread. This is how solve completions
//     executing on the thread pool re-enter the loop to write their
//     response — the pool thread never touches a connection directly.
//
// Everything except `post()`/`stop()`/the gauges must be called on the
// loop thread (or before `run()` starts). The loop is deliberately not a
// framework: no ownership of fds, no buffers, no protocol — that lives in
// the daemon's connection state machine.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

namespace mf::serve {

class EventLoop {
 public:
  using IoHandler = std::function<void(std::uint32_t events)>;
  using TimerHandler = std::function<void()>;
  using TimerId = std::uint64_t;

  /// Creates the epoll instance and the eventfd wakeup. Throws
  /// `std::runtime_error` when either cannot be created.
  EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  ~EventLoop();

  /// Registers `fd` with the level-triggered interest set `events`
  /// (EPOLLIN/EPOLLOUT); `handler` runs on the loop thread with the ready
  /// mask. The loop never closes `fd` — ownership stays with the caller.
  void add_fd(int fd, std::uint32_t events, IoHandler handler);

  /// Replaces the interest set of a registered fd.
  void modify_fd(int fd, std::uint32_t events);

  /// Deregisters `fd`; its handler will not run again (events already
  /// harvested in the current batch are skipped too).
  void remove_fd(int fd);

  /// Schedules `handler` once, `delay_seconds` from now, on the loop
  /// thread. Returns an id usable with `cancel_timer`. Re-arm from inside
  /// the handler for periodic behavior.
  TimerId add_timer_after(double delay_seconds, TimerHandler handler);

  /// Cancels a pending timer; a no-op when it already fired or never
  /// existed.
  void cancel_timer(TimerId id);

  /// Thread-safe: enqueues `task` to run on the loop thread and wakes the
  /// loop. The one bridge from worker threads back into the reactor.
  void post(std::function<void()> task);

  /// Runs the reactor until `stop()`. Call from exactly one thread.
  void run();

  /// Thread-safe: makes `run()` return after the current dispatch batch.
  void stop();

  /// Monotonic seconds — the clock timers and idle bookkeeping share.
  [[nodiscard]] static double now_seconds() noexcept;

  /// Thread-safe: true when the caller IS the thread inside `run()`. Lets
  /// a completion callback that happens to fire on the loop thread (e.g. a
  /// cache hit delivered synchronously at submit) skip the post()/eventfd
  /// round-trip and run its continuation directly.
  [[nodiscard]] bool on_loop_thread() const noexcept {
    return run_thread_.load(std::memory_order_acquire) == std::this_thread::get_id();
  }

  /// Times the loop returned from epoll_wait with work (the "wakeups"
  /// gauge the stats endpoint reports).
  [[nodiscard]] std::uint64_t wakeups() const noexcept {
    return wakeups_.load(std::memory_order_relaxed);
  }

  /// Timer handlers actually invoked (cancelled timers never count).
  [[nodiscard]] std::uint64_t timers_fired() const noexcept {
    return timers_fired_.load(std::memory_order_relaxed);
  }

 private:
  void drain_wakeup_and_run_posted();
  /// Milliseconds until the nearest timer deadline; -1 = wait forever.
  [[nodiscard]] int next_timeout_ms() const;
  void fire_due_timers();

  int epoll_fd_ = -1;
  int wakeup_fd_ = -1;

  std::unordered_map<int, std::shared_ptr<IoHandler>> handlers_;

  struct Timer {
    double deadline = 0.0;
    TimerHandler handler;
  };
  // Deadline-ordered id view plus id-keyed storage: firing walks the
  // multimap front, cancellation erases by id, and a fired/cancelled id
  // missing from `timers_` is simply skipped.
  std::map<TimerId, Timer> timers_;
  std::multimap<double, TimerId> timer_order_;
  TimerId next_timer_id_ = 1;

  std::mutex posted_mutex_;
  std::vector<std::function<void()>> posted_;

  std::atomic<bool> stop_{false};
  std::atomic<std::thread::id> run_thread_{};
  std::atomic<std::uint64_t> wakeups_{0};
  std::atomic<std::uint64_t> timers_fired_{0};
};

}  // namespace mf::serve
