#include "serve/event_loop.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace mf::serve {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

EventLoop::EventLoop() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw_errno("epoll_create1");
  wakeup_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wakeup_fd_ < 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    throw_errno("eventfd");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wakeup_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wakeup_fd_, &ev) != 0) {
    ::close(wakeup_fd_);
    ::close(epoll_fd_);
    wakeup_fd_ = epoll_fd_ = -1;
    throw_errno("epoll_ctl(wakeup)");
  }
}

EventLoop::~EventLoop() {
  if (wakeup_fd_ >= 0) ::close(wakeup_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void EventLoop::add_fd(int fd, std::uint32_t events, IoHandler handler) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    throw_errno("epoll_ctl(add)");
  }
  handlers_[fd] = std::make_shared<IoHandler>(std::move(handler));
}

void EventLoop::modify_fd(int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    throw_errno("epoll_ctl(mod)");
  }
}

void EventLoop::remove_fd(int fd) {
  // The fd may already be closed by the caller; EBADF/ENOENT are fine.
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  handlers_.erase(fd);
}

EventLoop::TimerId EventLoop::add_timer_after(double delay_seconds,
                                              TimerHandler handler) {
  const TimerId id = next_timer_id_++;
  const double deadline = now_seconds() + std::max(0.0, delay_seconds);
  timers_.emplace(id, Timer{deadline, std::move(handler)});
  timer_order_.emplace(deadline, id);
  return id;
}

void EventLoop::cancel_timer(TimerId id) {
  auto it = timers_.find(id);
  if (it == timers_.end()) return;
  auto [lo, hi] = timer_order_.equal_range(it->second.deadline);
  for (auto oit = lo; oit != hi; ++oit) {
    if (oit->second == id) {
      timer_order_.erase(oit);
      break;
    }
  }
  timers_.erase(it);
}

void EventLoop::post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(posted_mutex_);
    posted_.push_back(std::move(task));
  }
  const std::uint64_t one = 1;
  // A full eventfd counter (EAGAIN) still wakes the loop; ignore failures.
  [[maybe_unused]] ssize_t n = ::write(wakeup_fd_, &one, sizeof(one));
}

void EventLoop::stop() {
  stop_.store(true, std::memory_order_relaxed);
  post([] {});  // wake the loop so it notices the flag
}

double EventLoop::now_seconds() noexcept {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int EventLoop::next_timeout_ms() const {
  if (timer_order_.empty()) return -1;
  const double delta = timer_order_.begin()->first - now_seconds();
  if (delta <= 0.0) return 0;
  // Round up so we never wake a hair early and spin. Cap the wait at
  // INT_MAX ms (about 24.8 days), the most epoll_wait takes, so a farther or
  // infinite deadline never overflows the cast: waking early is harmless,
  // the loop recomputes.
  return static_cast<int>(
      std::min(std::ceil(delta * 1000.0), static_cast<double>(std::numeric_limits<int>::max())));
}

void EventLoop::fire_due_timers() {
  const double now = now_seconds();
  while (!timer_order_.empty() && timer_order_.begin()->first <= now) {
    const TimerId id = timer_order_.begin()->second;
    timer_order_.erase(timer_order_.begin());
    auto it = timers_.find(id);
    if (it == timers_.end()) continue;
    TimerHandler handler = std::move(it->second.handler);
    timers_.erase(it);
    timers_fired_.fetch_add(1, std::memory_order_relaxed);
    handler();
  }
}

void EventLoop::drain_wakeup_and_run_posted() {
  std::uint64_t counter = 0;
  while (::read(wakeup_fd_, &counter, sizeof(counter)) > 0) {
  }
  std::vector<std::function<void()>> tasks;
  {
    std::lock_guard<std::mutex> lock(posted_mutex_);
    tasks.swap(posted_);
  }
  for (auto& task : tasks) task();
}

void EventLoop::run() {
  run_thread_.store(std::this_thread::get_id(), std::memory_order_release);
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (!stop_.load(std::memory_order_relaxed)) {
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents,
                               next_timeout_ms());
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("epoll_wait");
    }
    if (n > 0) wakeups_.fetch_add(1, std::memory_order_relaxed);
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wakeup_fd_) {
        drain_wakeup_and_run_posted();
        continue;
      }
      // Re-look-up per event: an earlier handler in this batch may have
      // removed this fd (e.g. the listener closed a peer). The shared_ptr
      // keeps the handler alive even if it removes itself mid-call.
      auto it = handlers_.find(fd);
      if (it == handlers_.end()) continue;
      std::shared_ptr<IoHandler> handler = it->second;
      (*handler)(events[i].events);
    }
    fire_due_timers();
  }
}

}  // namespace mf::serve
