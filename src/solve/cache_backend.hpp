// The cache vocabulary of the solve layer: one canonical key, its hash and
// the counters every store reports.
//
// A `CacheKey` is the full identity of a solve — the 128-bit problem
// digest, the effective solver id, the scenario provenance label, and the
// canonicalized parameter set — so a hit is exactly the result the solver
// would recompute. The one cache type is `ResultCache` (solve/cache.hpp),
// an exact in-memory LRU that can write through to a persistent
// `DiskCache` (solve/disk_cache.hpp). `SolveService` (solve/service.hpp) is
// the one code path that applies a request's `CachePolicy` against it, with
// single-flight deduplication on top; `run()` is a one-request service.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "core/digest.hpp"
#include "solve/solver.hpp"

namespace mf::solve {

/// Parses "off", "read", "rw" / "read-write"; nullopt otherwise.
[[nodiscard]] std::optional<CachePolicy> cache_policy_from_string(const std::string& text);

/// The canonical identity of a solve. `local_search` is folded into the
/// solver id ("+ls"), refinement options are zeroed when no refinement
/// stage runs, and an absent node budget is distinguished from max_nodes=0
/// — so two parameter bags that drive byte-identical solves share one key.
/// Double-valued params are stored as normalized IEEE-754 bit patterns
/// (-0.0 folded into +0.0), keeping equality and hashing consistent for
/// every input including NaN.
struct CacheKey {
  core::Digest problem;
  std::string solver_id;  ///< effective id, e.g. "H4w+ls"
  std::string scenario;   ///< scenario/model provenance label ("" = direct solve)
  std::uint64_t seed = 0;
  bool has_max_nodes = false;
  std::uint64_t max_nodes = 0;
  std::uint64_t time_limit_ms_bits = 0;
  // Refinement options; all-zero unless solver_id carries "+ls".
  std::uint64_t refine_max_passes = 0;
  bool refine_allow_swaps = false;
  bool refine_first_improvement = false;
  std::uint64_t refine_min_relative_gain_bits = 0;
  /// 128-bit digest (hash_hi, hash) over every identity field above, filled
  /// by `make_cache_key` (the only way keys are built). The low word picks
  /// hash-map buckets (`CacheKeyHash`); both words together name on-disk
  /// entry files, wide enough that distinct keys colliding is not a practical
  /// concern (and a collision still degrades to a miss — stored entries
  /// carry their full key, which lookups verify). Not part of the identity
  /// itself.
  std::uint64_t hash = 0;
  std::uint64_t hash_hi = 0;

  [[nodiscard]] bool operator==(const CacheKey& other) const {
    return problem == other.problem && solver_id == other.solver_id &&
           scenario == other.scenario && seed == other.seed &&
           has_max_nodes == other.has_max_nodes &&
           max_nodes == other.max_nodes &&
           time_limit_ms_bits == other.time_limit_ms_bits &&
           refine_max_passes == other.refine_max_passes &&
           refine_allow_swaps == other.refine_allow_swaps &&
           refine_first_improvement == other.refine_first_improvement &&
           refine_min_relative_gain_bits == other.refine_min_relative_gain_bits;
  }
};

/// The one hash of a `CacheKey` in an unordered container: the low word of
/// its digest, already uniformly mixed.
struct CacheKeyHash {
  [[nodiscard]] std::size_t operator()(const CacheKey& key) const noexcept {
    return static_cast<std::size_t>(key.hash);
  }
};

/// Canonicalizes (problem digest, resolved solver id, params) into a key.
/// `effective_id` must already include composition suffixes — pass
/// `effective_solver_id(...)` or `Solver::id()` output.
[[nodiscard]] CacheKey make_cache_key(const core::Digest& problem_digest,
                                      const std::string& effective_id,
                                      const SolveParams& params);

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::size_t size = 0;  ///< entries currently resident
  /// Bytes the resident entries occupy on persistent storage; 0 for a
  /// memory-only cache.
  std::uint64_t bytes = 0;

  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups);
  }
};

}  // namespace mf::solve
