// The persistent cache tier: a directory of solve-result entries that
// survives the process, so figure campaigns restart warm and cooperating
// shard processes on one host reuse each other's solves. A `ResultCache`
// built over one (solve/cache.hpp) writes through to it and promotes its
// hits into memory.
//
// Each entry is one text file named by the key's 128-bit digest
// (32 hex chars + ".mfc"), holding a version header, the *full* canonical
// `CacheKey` (so lookups verify identity field-by-field — a filename
// collision degrades to a miss, never a wrong result), and the
// `SolveResult`. The entry is a record in the one codec of
// support/record.hpp, which shard files and the daemon's bodies share:
// every double is a hexfloat, so a restored result is bit-for-bit the
// result that was stored.
//
// Robustness over cleverness: a corrupt, truncated, or version-mismatched
// entry file is treated as a miss (re-solve and overwrite), never a crash.
// Writes are crash-safe — serialize to a unique temp file in the same
// directory, then `rename(2)` into place — so concurrent writers (pool
// threads, or whole shard processes sharing one --cache-dir) can race on a
// key and readers still only ever observe a complete entry. A failed write
// costs a future miss, never corruption.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <utility>

#include "solve/cache_backend.hpp"

namespace mf::solve {

/// What one `DiskCache::gc` pass did. `bytes_kept` is what survives under
/// the cap; `stale_temps_removed` counts crash-leftover temp files swept as
/// a side effect. `entries_expired` is the subset of `entries_removed` that
/// fell to the TTL (older than `max_age`) rather than the byte cap.
struct DiskGcReport {
  std::size_t entries_before = 0;
  std::size_t entries_kept = 0;
  std::size_t entries_removed = 0;
  std::size_t entries_expired = 0;
  std::uint64_t bytes_before = 0;
  std::uint64_t bytes_kept = 0;
  std::uint64_t bytes_removed = 0;
  std::size_t stale_temps_removed = 0;
};

/// Serializes one entry (key + result) into the on-disk text format.
[[nodiscard]] std::string entry_to_text(const CacheKey& key, const SolveResult& result);

/// Parses an entry file's content; nullopt on any malformation the record
/// reader refuses (bad header, truncation, unparsable or unread field,
/// bytes after `end`) — the caller treats that as a miss.
[[nodiscard]] std::optional<std::pair<CacheKey, SolveResult>> entry_from_text(
    const std::string& text);

class DiskCache {
 public:
  /// Creates `directory` (and parents) when absent; throws when the path
  /// exists but is not a directory or cannot be created.
  explicit DiskCache(std::filesystem::path directory);

  DiskCache(const DiskCache&) = delete;
  DiskCache& operator=(const DiskCache&) = delete;

  /// A hit refreshes the entry file's mtime (best effort), so `gc`'s
  /// LRU-by-mtime order reflects last *use*, not just last write.
  [[nodiscard]] std::optional<SolveResult> lookup(const CacheKey& key);
  void insert(const CacheKey& key, const SolveResult& result);
  /// `size`/`bytes` count the entry files currently in the directory (a
  /// scan — the directory is shared with other processes, so no resident
  /// counter can be authoritative). Evictions count entries removed by
  /// this instance's `gc` passes.
  [[nodiscard]] CacheStats stats() const;
  /// Shrinks the directory to at most `max_bytes` of entry files, deleting
  /// least-recently-used entries first (LRU by file mtime; lookups refresh
  /// it). A nonzero `max_age` adds the TTL sweep: entries not used for
  /// longer than `max_age` are deleted regardless of how much room the cap
  /// leaves (pass `max_bytes = UINT64_MAX` for a pure-TTL pass); an age
  /// beyond the file clock's range (about 292 years) expires nothing.
  /// Deletion is per-file atomic, so a concurrent reader of an evicted
  /// entry degrades to a miss — the same contract as crash-safe writes. An
  /// entry *being written* lives in a temp file and is never touched by
  /// either policy; abandoned temp files (older than an hour — a crashed
  /// writer, not a live one) are swept as a side effect. Safe to run while
  /// workers share the directory.
  DiskGcReport gc(std::uint64_t max_bytes,
                  std::chrono::seconds max_age = std::chrono::seconds::zero());
  /// Removes every entry file (and stale temp files) in the directory.
  void clear();
  [[nodiscard]] std::string describe() const;

  [[nodiscard]] const std::filesystem::path& directory() const noexcept { return dir_; }

  /// The entry file name for a key: 32 lowercase hex chars of the key
  /// digest (hash_hi first) plus ".mfc".
  [[nodiscard]] static std::string entry_filename(const CacheKey& key);

 private:
  std::filesystem::path dir_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> insertions_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> temp_serial_{0};
};

}  // namespace mf::solve
