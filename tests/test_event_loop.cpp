// Tests for the epoll reactor under the scheduler daemon: level-triggered
// readiness dispatch, interest-set changes, handlers removing themselves or
// a peer mid-batch, deadline-ordered one-shot timers driven by the
// epoll_wait timeout alone, cancellation, and post() as the thread-safe way
// back onto the loop thread. The daemon's connection state machine stands
// on exactly these guarantees.
#include <gtest/gtest.h>

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <future>
#include <limits>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "serve/event_loop.hpp"

namespace mf::serve {
namespace {

/// Fails the test and stops the loop if it is still running after
/// `seconds`, so a broken dispatch path cannot hang the suite. Only fires
/// on failure, so it never shows up in a passing test's timer count.
void arm_watchdog(EventLoop& loop, double seconds = 5.0) {
  loop.add_timer_after(seconds, [&loop] {
    ADD_FAILURE() << "event loop still running after the watchdog deadline";
    loop.stop();
  });
}

struct Pipe {
  int read_fd = -1;
  int write_fd = -1;
  Pipe() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::pipe(fds), 0);
    read_fd = fds[0];
    write_fd = fds[1];
  }
  ~Pipe() {
    if (read_fd >= 0) ::close(read_fd);
    if (write_fd >= 0) ::close(write_fd);
  }
  void put(char byte = 'x') const { ASSERT_EQ(::write(write_fd, &byte, 1), 1); }
};

struct SocketPair {
  int a = -1;
  int b = -1;
  SocketPair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
  ~SocketPair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
};

// ---------------------------------------------------------------------------
// I/O readiness
// ---------------------------------------------------------------------------

TEST(ServeEventLoop, ReadableFdRunsItsHandlerWithTheReadyMask) {
  EventLoop loop;
  arm_watchdog(loop);
  Pipe pipe;
  pipe.put('q');
  std::uint32_t seen = 0;
  char got = 0;
  loop.add_fd(pipe.read_fd, EPOLLIN, [&](std::uint32_t events) {
    seen = events;
    ASSERT_EQ(::read(pipe.read_fd, &got, 1), 1);
    loop.stop();
  });
  loop.run();
  EXPECT_TRUE(seen & EPOLLIN);
  EXPECT_EQ(got, 'q');
  EXPECT_EQ(loop.wakeups(), 1u);
}

TEST(ServeEventLoop, ModifyFdSwitchesTheInterestSet) {
  // Nothing is readable on the socket, so the EPOLLIN registration stays
  // quiet until a timer flips the interest set to EPOLLOUT, which an
  // empty send buffer satisfies at once — the daemon's backpressure arm.
  EventLoop loop;
  arm_watchdog(loop);
  SocketPair sockets;
  std::vector<std::uint32_t> masks;
  loop.add_fd(sockets.a, EPOLLIN, [&](std::uint32_t events) {
    masks.push_back(events);
    loop.stop();
  });
  loop.add_timer_after(0.02, [&] { loop.modify_fd(sockets.a, EPOLLOUT); });
  loop.run();
  ASSERT_EQ(masks.size(), 1u);
  EXPECT_TRUE(masks[0] & EPOLLOUT);
  EXPECT_FALSE(masks[0] & EPOLLIN);
}

TEST(ServeEventLoop, HandlerMayRemoveItselfAndNeverRunsAgain) {
  // The byte is never read, so a level-triggered registration would fire
  // on every pass; after removal the handler must not run again.
  EventLoop loop;
  arm_watchdog(loop);
  Pipe pipe;
  pipe.put();
  int calls = 0;
  loop.add_fd(pipe.read_fd, EPOLLIN, [&, marker = std::vector<int>(64, 7)](std::uint32_t) {
    ++calls;
    loop.remove_fd(pipe.read_fd);
    // The handler object is still alive while it finishes its call.
    EXPECT_EQ(marker[63], 7);
  });
  loop.add_timer_after(0.05, [&] { loop.stop(); });
  loop.run();
  EXPECT_EQ(calls, 1);
}

TEST(ServeEventLoop, HandlerRemovingAPeerInTheSameBatchSkipsIt) {
  // Both pipes are readable before run(), so one epoll_wait harvests both
  // events; whichever handler runs first removes the other's fd, and the
  // stale event left in the batch must be skipped.
  EventLoop loop;
  arm_watchdog(loop);
  Pipe first;
  Pipe second;
  first.put();
  second.put();
  int calls = 0;
  loop.add_fd(first.read_fd, EPOLLIN, [&](std::uint32_t) {
    ++calls;
    loop.remove_fd(second.read_fd);
    loop.remove_fd(first.read_fd);
  });
  loop.add_fd(second.read_fd, EPOLLIN, [&](std::uint32_t) {
    ++calls;
    loop.remove_fd(first.read_fd);
    loop.remove_fd(second.read_fd);
  });
  loop.add_timer_after(0.05, [&] { loop.stop(); });
  loop.run();
  EXPECT_EQ(calls, 1);
}

TEST(ServeEventLoop, PeerCloseReadsAsReadableEndOfStream) {
  // The daemon closes a connection when a readable socket reads 0 bytes.
  EventLoop loop;
  arm_watchdog(loop);
  SocketPair sockets;
  ::close(sockets.b);
  sockets.b = -1;
  std::uint32_t seen = 0;
  ssize_t got = -1;
  loop.add_fd(sockets.a, EPOLLIN, [&](std::uint32_t events) {
    seen = events;
    char byte = 0;
    got = ::read(sockets.a, &byte, 1);
    loop.remove_fd(sockets.a);
    loop.stop();
  });
  loop.run();
  EXPECT_TRUE(seen & EPOLLIN);
  EXPECT_EQ(got, 0);
}

TEST(ServeEventLoop, AddFdThatEpollCannotWatchThrows) {
  EventLoop loop;
  std::FILE* file = std::tmpfile();
  ASSERT_NE(file, nullptr);
  EXPECT_THROW(loop.add_fd(::fileno(file), EPOLLIN, [](std::uint32_t) {}),
               std::runtime_error);
  std::fclose(file);
}

TEST(ServeEventLoop, ModifyOfAnUnregisteredFdThrows) {
  EventLoop loop;
  Pipe pipe;
  EXPECT_THROW(loop.modify_fd(pipe.read_fd, EPOLLIN), std::runtime_error);
}

TEST(ServeEventLoop, RemoveOfAClosedOrUnknownFdIsHarmless) {
  EventLoop loop;
  arm_watchdog(loop);
  int fd = -1;
  {
    Pipe pipe;
    fd = pipe.read_fd;
    loop.add_fd(fd, EPOLLIN, [](std::uint32_t) { ADD_FAILURE() << "closed fd fired"; });
  }  // both ends closed while still registered
  loop.remove_fd(fd);
  loop.remove_fd(fd);
  loop.remove_fd(1 << 20);
  loop.add_timer_after(0.02, [&] { loop.stop(); });
  loop.run();
}

// ---------------------------------------------------------------------------
// Timers
// ---------------------------------------------------------------------------

TEST(ServeEventLoop, TimersFireInDeadlineOrderNotSchedulingOrder) {
  EventLoop loop;
  arm_watchdog(loop);
  std::vector<int> order;
  loop.add_timer_after(0.06, [&] {
    order.push_back(3);
    loop.stop();
  });
  loop.add_timer_after(0.02, [&] { order.push_back(1); });
  loop.add_timer_after(0.04, [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.timers_fired(), 3u);
}

TEST(ServeEventLoop, DueTimersFireInSchedulingOrder) {
  // Zero and negative delays are both "due now"; they keep the order they
  // were scheduled in.
  EventLoop loop;
  arm_watchdog(loop);
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    loop.add_timer_after(i % 2 == 0 ? 0.0 : -1.0, [&order, i] { order.push_back(i); });
  }
  loop.add_timer_after(0.0, [&] { loop.stop(); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(ServeEventLoop, TimerWakesTheLoopOnTheEpollTimeoutAlone) {
  // No fd is ever ready: the timer fires from the epoll_wait timeout, not
  // early, and a timeout return is not counted as a wakeup.
  EventLoop loop;
  arm_watchdog(loop);
  const auto start = std::chrono::steady_clock::now();
  std::chrono::steady_clock::duration fired_after{};
  loop.add_timer_after(0.05, [&] {
    fired_after = std::chrono::steady_clock::now() - start;
    loop.stop();
  });
  loop.run();
  EXPECT_GE(fired_after, std::chrono::milliseconds(50));
  EXPECT_EQ(loop.timers_fired(), 1u);
  EXPECT_EQ(loop.wakeups(), 0u);
}

TEST(ServeEventLoop, CancelledTimerNeverFiresAndIsNotCounted) {
  EventLoop loop;
  arm_watchdog(loop);
  bool cancelled_ran = false;
  const EventLoop::TimerId doomed =
      loop.add_timer_after(0.01, [&] { cancelled_ran = true; });
  const EventLoop::TimerId fired = loop.add_timer_after(0.0, [] {});
  loop.cancel_timer(doomed);
  loop.add_timer_after(0.04, [&] {
    loop.cancel_timer(fired);   // already fired: no-op
    loop.cancel_timer(doomed);  // already cancelled: no-op
    loop.cancel_timer(0);       // never issued: no-op
    loop.stop();
  });
  loop.run();
  EXPECT_FALSE(cancelled_ran);
  EXPECT_EQ(loop.timers_fired(), 2u);
}

TEST(ServeEventLoop, FarTimerAloneDoesNotOverflowTheWaitTimeout) {
  // The nearest timer is 30 days out: its wait in milliseconds is beyond
  // int's range, and the loop must clamp it, not overflow the cast. No
  // watchdog here: a nearer timer would hide the far one. A worker stops the
  // loop once it has computed that wait at least once.
  EventLoop loop;
  int fired = 0;
  loop.add_timer_after(30.0 * 24 * 3600, [&] { ++fired; });
  loop.add_timer_after(std::numeric_limits<double>::infinity(), [&] { ++fired; });
  std::promise<void> running;
  loop.post([&] { running.set_value(); });
  std::thread stopper([&] {
    running.get_future().wait();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    loop.stop();
  });
  loop.run();
  stopper.join();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(loop.timers_fired(), 0u);
}

TEST(ServeEventLoop, TimerReArmingItselfRunsPeriodically) {
  EventLoop loop;
  arm_watchdog(loop);
  int ticks = 0;
  std::function<void()> tick = [&] {
    if (++ticks == 5) {
      loop.stop();
      return;
    }
    loop.add_timer_after(0.005, tick);
  };
  loop.add_timer_after(0.005, tick);
  loop.run();
  EXPECT_EQ(ticks, 5);
  EXPECT_EQ(loop.timers_fired(), 5u);
}

// ---------------------------------------------------------------------------
// Cross-thread re-entry
// ---------------------------------------------------------------------------

TEST(ServeEventLoop, PostFromAWorkerRunsOnTheLoopThread) {
  EventLoop loop;
  arm_watchdog(loop);
  EXPECT_FALSE(loop.on_loop_thread());  // not running yet
  std::promise<std::thread::id> loop_id;
  std::thread runner([&] {
    loop_id.set_value(std::this_thread::get_id());
    loop.run();
  });
  const std::thread::id runner_id = loop_id.get_future().get();

  std::promise<std::pair<std::thread::id, bool>> seen;
  std::thread worker([&] {
    loop.post([&] {
      seen.set_value({std::this_thread::get_id(), loop.on_loop_thread()});
    });
  });
  const auto [ran_on, flagged] = seen.get_future().get();
  EXPECT_EQ(ran_on, runner_id);
  EXPECT_TRUE(flagged);
  EXPECT_FALSE(loop.on_loop_thread());  // the test thread is not the loop
  worker.join();
  loop.stop();
  runner.join();
}

TEST(ServeEventLoop, PostedTasksRunInPostingOrder) {
  EventLoop loop;
  arm_watchdog(loop);
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) loop.post([&order, i] { order.push_back(i); });
  loop.post([&] { loop.stop(); });
  loop.run();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(ServeEventLoop, EachPostRoundTripIsOneWakeup) {
  // With no timers and no fds the loop sleeps in epoll_wait forever; each
  // post() wakes it exactly once, and stop() from another thread ends it.
  EventLoop loop;
  std::thread runner([&] { loop.run(); });
  for (int i = 0; i < 5; ++i) {
    std::promise<void> done;
    loop.post([&] { done.set_value(); });
    done.get_future().get();
  }
  EXPECT_EQ(loop.wakeups(), 5u);
  EXPECT_EQ(loop.timers_fired(), 0u);
  loop.stop();
  runner.join();
}

}  // namespace
}  // namespace mf::serve
