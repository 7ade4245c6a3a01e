// The result cache: one exact LRU over solve results, optionally written
// through to a persistent `DiskCache`.
//
// The paper's figures are paired-design sweeps: every method re-solves the
// same random instances, hundreds of times per point, and re-running a
// figure repeats all of it. `ResultCache` memoizes `SolveResult`s keyed on
// the canonical `CacheKey` (solve/cache_key.hpp) so a warm re-run — or
// a second method sharing a deterministic sub-solve — never re-solves an
// instance. Keys compare field-by-field (the 128-bit digest plus the full
// canonical parameter set), so a hit is exactly the result the solver would
// recompute; the hash only picks the bucket.
//
// Concurrency: one mutex guards the recency list, its index and the
// counters. Lookups run on the thread that submits a request (a sweep's
// own thread, the CLI's main thread, the daemon's reactor) and inserts on
// the pool threads that finish solves; each holds the lock for a map probe
// and a list splice, and no file I/O happens under it.
//
// Disk tier: built over a `DiskCache`, the cache writes every insert
// through to the directory and answers a memory miss from it, promoting
// the hit, so a restarted process — or a sibling shard process on the same
// --cache-dir — re-solves nothing it has seen. The caller keeps the
// `DiskCache` alive and may `gc()` it at any time (the daemon's GC timer
// does); an entry gc removed keeps serving from memory until evicted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "solve/cache_key.hpp"

namespace mf::solve {

class DiskCache;

class ResultCache {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  /// `capacity` bounds the in-memory entry count exactly (at least 1); the
  /// least recently used entry is evicted beyond it. `disk`, when given, is
  /// the persistent tier and must outlive the cache.
  explicit ResultCache(std::size_t capacity = kDefaultCapacity, DiskCache* disk = nullptr);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Returns the cached result and makes it the most recently used. A
  /// memory miss asks the disk tier, whose hit is promoted into memory and
  /// counted as a hit. Counts a hit or a miss either way.
  [[nodiscard]] std::optional<SolveResult> lookup(const CacheKey& key);

  /// Stores (or refreshes) a result as the most recently used, evicting the
  /// least recently used entry beyond capacity, then writes it through to
  /// the disk tier (best effort: a failed write costs a future miss).
  void insert(const CacheKey& key, const SolveResult& result);

  /// Hits, misses and insertions are this cache's own; evictions add the
  /// disk tier's gc removals to the LRU's. With a disk tier, `size` and
  /// `bytes` are the directory's (a scan: what a fresh process would find);
  /// without one they are the in-memory entry count and 0.
  [[nodiscard]] CacheStats stats() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Drops every entry of both tiers; counters keep accumulating (they
  /// describe the process, not the current contents).
  void clear();
  /// "memory-lru(N)", or "memory-lru(N) over disk(DIR)" with a disk tier.
  [[nodiscard]] std::string describe() const;
  /// The persistent tier, or nullptr for a memory-only cache.
  [[nodiscard]] DiskCache* disk() const noexcept { return disk_; }

  /// The process-wide memory-only cache `run()` and every `SolveService`
  /// built without one consult. Sized at kDefaultCapacity; dedicated
  /// instances are for tests and tools.
  [[nodiscard]] static ResultCache& global();

 private:
  struct Entry {
    CacheKey key;
    SolveResult result;
  };

  /// Makes `key` the most recent entry, holding `result`, and evicts the
  /// least recent beyond capacity; true when the key was not resident.
  /// The caller holds `mutex_`.
  bool store_locked(const CacheKey& key, const SolveResult& result);

  const std::size_t capacity_;
  DiskCache* const disk_;
  mutable std::mutex mutex_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<CacheKey, std::list<Entry>::iterator, CacheKeyHash> index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t insertions_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace mf::solve
