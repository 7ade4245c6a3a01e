// The in-memory cache backend: a sharded-mutex LRU over solve results.
//
// The paper's figures are paired-design sweeps: every method re-solves the
// same random instances, hundreds of times per point, and re-running a
// figure repeats all of it. `ResultCache` memoizes `SolveResult`s keyed on
// the canonical `CacheKey` (solve/cache_backend.hpp) so a warm re-run — or
// a second method sharing a deterministic sub-solve — never re-solves an
// instance. Keys compare field-by-field (the 128-bit digest plus the full
// canonical parameter set), so a hit is exactly the result the solver would
// recompute; the hash only picks the bucket.
//
// Concurrency: the cache is sharded — kShardCount independent
// (mutex, LRU list, hash map) triples selected by key hash — so a
// SolveService fan hitting the cache from every pool thread contends only
// per shard. Each shard evicts least-recently-used entries beyond its slice
// of the capacity. Hit/miss/insert/evict counters are atomics of the cache
// instance, surfaced through `stats()` and, per result,
// `diagnostics.cache_hit`; request counters live on the `SolveService` the
// caller holds (solve/service.hpp).
//
// For entries that must survive the process, layer this over a `DiskCache`
// with `TieredCache` (solve/tiered_cache.hpp).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "solve/cache_backend.hpp"

namespace mf::solve {

class ResultCache final : public CacheBackend {
 public:
  static constexpr std::size_t kShardCount = 16;
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  /// `capacity` bounds the total entry count; each shard holds an equal
  /// slice (at least one entry) and evicts LRU beyond it.
  explicit ResultCache(std::size_t capacity = kDefaultCapacity);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Returns the cached result and refreshes its LRU position; counts a
  /// hit or a miss either way.
  [[nodiscard]] std::optional<SolveResult> lookup(const CacheKey& key) override;

  /// Stores (or refreshes) a result, evicting the shard's LRU tail beyond
  /// capacity.
  void insert(const CacheKey& key, const SolveResult& result) override;

  [[nodiscard]] CacheStats stats() const override;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  void clear() override;
  [[nodiscard]] std::string describe() const override;

  /// The process-wide cache `run()` and every `SolveService` built without
  /// a backend consult. Sized at kDefaultCapacity; dedicated instances are
  /// for tests and tools.
  [[nodiscard]] static ResultCache& global();

 private:
  struct Entry {
    CacheKey key;
    SolveResult result;
  };
  struct Shard {
    std::mutex mutex;
    std::list<Entry> lru;  ///< front = most recently used
    std::unordered_map<CacheKey, std::list<Entry>::iterator,
                       std::size_t (*)(const CacheKey&)>
        index{0, &hash_key};
  };

  [[nodiscard]] static std::size_t hash_key(const CacheKey& key);
  [[nodiscard]] Shard& shard_for(const CacheKey& key);

  std::size_t capacity_;
  std::size_t shard_capacity_;
  std::array<Shard, kShardCount> shards_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> insertions_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::size_t> size_{0};
};

}  // namespace mf::solve
