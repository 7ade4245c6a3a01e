// Minimal time-ordered event queue for the discrete-event simulator.
//
// A binary min-heap on event time with FIFO tie-breaking via a monotone
// sequence number, so simultaneous events are processed in insertion order
// and runs are bit-deterministic. Simulated time never runs backwards: a
// push earlier than the last popped event is refused, so a model bug that
// schedules into the past fails loudly instead of reordering history.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace mf::sim {

template <typename Payload>
class EventQueue {
 public:
  struct Entry {
    double time;
    std::uint64_t sequence;
    Payload payload;
  };

  void push(double time, Payload payload) {
    // Time starts at 0, so this also refuses negative times (and NaN).
    MF_REQUIRE(time >= now_, "event time must not precede the last popped event");
    heap_.push_back({time, next_sequence_++, std::move(payload)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  /// Pre-sizes the backing heap. The simulator's pending set is bounded by
  /// the machine count (one attempt + one fail/repair per machine), so
  /// reserving once up front makes every later push allocation-free — the
  /// long-horizon saturation mode relies on it.
  void reserve(std::size_t capacity) { heap_.reserve(capacity); }
  [[nodiscard]] std::size_t capacity() const noexcept { return heap_.capacity(); }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

  [[nodiscard]] const Entry& top() const {
    MF_REQUIRE(!heap_.empty(), "top on empty event queue");
    return heap_.front();
  }

  Entry pop() {
    MF_REQUIRE(!heap_.empty(), "pop on empty event queue");
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Entry entry = std::move(heap_.back());
    heap_.pop_back();
    now_ = entry.time;
    return entry;
  }

 private:
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.sequence > b.sequence;
    }
  };

  std::vector<Entry> heap_;
  std::uint64_t next_sequence_ = 0;
  double now_ = 0.0;  ///< time of the last popped event, the earliest a push may use
};

}  // namespace mf::sim
