// A lock-free log-bucketed latency histogram for the daemon's `stats`
// endpoint.
//
// Buckets are powers of two in microseconds: bucket k holds samples in
// [2^k, 2^(k+1)) µs (bucket 0 also takes sub-microsecond samples). 48
// buckets cover ~8.9 years, so saturation is theoretical. Recording is one
// relaxed atomic increment — safe from every connection thread with no
// mutex on the solve path.
//
// Quantiles are read by walking the buckets and answering with the upper
// edge of the bucket containing the q-th sample. The error is bounded by
// the bucket width (a factor of two) — the right fidelity for "is p99
// milliseconds or seconds", which is what a serving dashboard asks.
#pragma once

#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>

namespace mf::serve {

class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 48;

  void record_us(std::uint64_t microseconds) noexcept {
    buckets_[bucket_index(microseconds)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }

  /// The q-quantile (q in [0,1]) in milliseconds: the upper edge of the
  /// bucket holding the ceil(q*N)-th smallest sample. 0 when empty.
  [[nodiscard]] double quantile_ms(double q) const noexcept {
    // Snapshot the buckets; recording is concurrent, and a slightly torn
    // snapshot only perturbs a statistic that is already bucket-quantized.
    std::array<std::uint64_t, kBuckets> snapshot{};
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      snapshot[i] = buckets_[i].load(std::memory_order_relaxed);
      total += snapshot[i];
    }
    if (total == 0) return 0.0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    std::uint64_t rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total)));
    if (rank == 0) rank = 1;
    if (rank > total) rank = total;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += snapshot[i];
      if (seen >= rank) {
        const double upper_us = static_cast<double>(std::uint64_t{1} << (i + 1));
        return upper_us / 1000.0;
      }
    }
    return static_cast<double>(std::uint64_t{1} << kBuckets) / 1000.0;
  }

 private:
  static std::size_t bucket_index(std::uint64_t microseconds) noexcept {
    std::size_t index = 0;
    while (microseconds > 1 && index + 1 < kBuckets) {
      microseconds >>= 1;
      ++index;
    }
    return index;
  }

  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
};

}  // namespace mf::serve
