// Direct unit tests for sim::EventQueue — the determinism-critical piece of
// the simulator: heap order by time, FIFO tie-breaking among equal-time
// events (bit-deterministic runs depend on it), and the validation
// contracts. The adversarial cases interleave pushes and pops so ties are
// created at different heap depths, not just back-to-back.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/event_queue.hpp"
#include "support/rng.hpp"

namespace mf::sim {
namespace {

TEST(EventQueue, OrdersByTimeThenInsertion) {
  EventQueue<int> queue;
  queue.push(5.0, 1);
  queue.push(3.0, 2);
  queue.push(5.0, 3);
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.pop().payload, 2);
  EXPECT_EQ(queue.pop().payload, 1);  // FIFO among equal times
  EXPECT_EQ(queue.pop().payload, 3);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, Validation) {
  EventQueue<int> queue;
  EXPECT_THROW(queue.pop(), std::invalid_argument);
  EXPECT_THROW((void)queue.top(), std::invalid_argument);
  EXPECT_THROW(queue.push(-1.0, 0), std::invalid_argument);
  // Zero is a legal event time (the simulator schedules starts at t = 0).
  queue.push(0.0, 7);
  EXPECT_EQ(queue.top().payload, 7);
}

TEST(EventQueue, RefusesTimeBeforeTheLastPop) {
  // Simulations cannot move backward: once an event at t = 5 has run, a
  // model that schedules at t = 3 has a bug, and reordering history around
  // it would hide that bug.
  EventQueue<int> queue;
  queue.push(5.0, 1);
  queue.push(8.0, 2);
  EXPECT_EQ(queue.pop().payload, 1);
  EXPECT_THROW(queue.push(3.0, 3), std::invalid_argument);
  EXPECT_THROW(queue.push(std::nextafter(5.0, 0.0), 3), std::invalid_argument);
  // The refused pushes left the queue as it was; the current time itself
  // and later times are accepted.
  EXPECT_EQ(queue.size(), 1u);
  queue.push(5.0, 4);
  queue.push(6.0, 5);
  EXPECT_EQ(queue.pop().payload, 4);
  EXPECT_EQ(queue.pop().payload, 5);
  EXPECT_EQ(queue.pop().payload, 2);
  EXPECT_THROW(queue.push(7.0, 6), std::invalid_argument);
}

TEST(EventQueue, FifoAmongEqualTimesUnderAdversarialInterleaving) {
  // Equal-time events pushed in bursts, separated by pops and by events at
  // other times, must still drain in insertion order. The burst boundaries
  // are chosen so ties sift through different heap shapes.
  EventQueue<int> queue;
  int next_id = 0;
  std::vector<int> tied_popped;

  // Burst 1: three ties at t=10 behind an earlier event.
  queue.push(5.0, --next_id);  // negative ids: non-tied noise
  queue.push(10.0, 100);
  queue.push(10.0, 101);
  queue.push(10.0, 102);
  EXPECT_LT(queue.pop().payload, 0);  // drains t=5 noise

  // Burst 2: more ties at t=10 pushed *after* a pop reshaped the heap, plus
  // noise straddling the tie time.
  queue.push(7.0, --next_id);
  queue.push(10.0, 103);
  queue.push(12.0, --next_id);
  queue.push(10.0, 104);
  EXPECT_LT(queue.pop().payload, 0);  // t=7

  // Burst 3: a final tie after yet another pop.
  queue.push(10.0, 105);
  while (!queue.empty()) {
    const auto entry = queue.pop();
    if (entry.payload >= 100) {
      EXPECT_DOUBLE_EQ(entry.time, 10.0);
      tied_popped.push_back(entry.payload);
    }
  }
  EXPECT_EQ(tied_popped, (std::vector<int>{100, 101, 102, 103, 104, 105}));
}

TEST(EventQueue, MixedPushPopMatchesReferenceOrdering) {
  // Randomized mixed push/pop sequence checked live against a brute-force
  // reference: at every pop, the queue must return exactly the pending
  // event with the smallest (time, insertion index). Times are small integer
  // offsets from the last popped time, so ties are frequent and occur at
  // many heap depths.
  support::Rng rng(2024);
  EventQueue<std::uint64_t> queue;
  struct Ref {
    double time;
    std::uint64_t id;
  };
  std::vector<Ref> pending;  // brute-force mirror of the queue's contents
  std::uint64_t next_id = 0;
  std::size_t pops_checked = 0;
  double now = 0.0;

  auto pop_and_check = [&] {
    const auto entry = queue.pop();
    now = entry.time;
    const auto min_it =
        std::min_element(pending.begin(), pending.end(), [](const Ref& a, const Ref& b) {
          if (a.time != b.time) return a.time < b.time;
          return a.id < b.id;
        });
    ASSERT_NE(min_it, pending.end());
    EXPECT_EQ(entry.payload, min_it->id) << "pop order diverged from the (time, FIFO) reference";
    EXPECT_DOUBLE_EQ(entry.time, min_it->time);
    pending.erase(min_it);
    ++pops_checked;
  };

  for (int step = 0; step < 2'000; ++step) {
    if (queue.empty() || rng.uniform() < 0.6) {
      const double time = now + static_cast<double>(rng.uniform_u64(0, 7));
      pending.push_back({time, next_id});
      queue.push(time, next_id++);
    } else {
      pop_and_check();
    }
  }
  while (!queue.empty()) pop_and_check();
  EXPECT_TRUE(pending.empty());
  EXPECT_GT(pops_checked, 500u);
}

TEST(EventQueue, HeapOrderSurvivesMixedPushPop) {
  // The simulator's usage pattern: events are only ever scheduled at or
  // after the current simulated time (the last pop). Under that discipline
  // consecutive pops are nondecreasing in time and equal times drain FIFO —
  // the invariant bit-deterministic runs ride on.
  support::Rng rng(7);
  EventQueue<std::uint64_t> queue;
  std::uint64_t next_id = 0;
  double now = 0.0;
  double last_time = -1.0;
  std::uint64_t last_id_at_time = 0;
  for (int step = 0; step < 5'000; ++step) {
    if (queue.empty() || rng.uniform() < 0.55) {
      // Small integer offsets from `now` make cross-push ties frequent.
      queue.push(now + static_cast<double>(rng.uniform_u64(0, 3)), next_id++);
      continue;
    }
    const auto entry = queue.pop();
    now = entry.time;
    if (entry.time == last_time) {
      EXPECT_GT(entry.payload, last_id_at_time) << "FIFO violated among equal times";
    } else {
      EXPECT_GE(entry.time, last_time) << "time order violated";
    }
    last_time = entry.time;
    last_id_at_time = entry.payload;
  }
}

TEST(EventQueue, ReserveMakesPushesAllocationFree) {
  // Capacity established by reserve() must survive a full cycle of pushes
  // and pops up to that capacity (the saturation mode's no-allocation
  // contract rides on std::vector's capacity guarantee). Each round starts
  // where the last one's pops left the clock.
  EventQueue<int> queue;
  queue.reserve(64);
  const std::size_t capacity = queue.capacity();
  EXPECT_GE(capacity, 64u);
  for (int round = 0; round < 10; ++round) {
    for (int k = 0; k < 64; ++k) queue.push(static_cast<double>(5 * round + k % 5), k);
    while (!queue.empty()) queue.pop();
    EXPECT_EQ(queue.capacity(), capacity);
  }
}

}  // namespace
}  // namespace mf::sim
