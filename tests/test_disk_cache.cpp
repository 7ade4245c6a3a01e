// Tests for the persistent on-disk cache and a `ResultCache` over it:
// entry round-trips are bit-exact, a fresh DiskCache instance (the
// stand-in for a fresh process) serves what a prior one stored, and the
// robustness contract holds — corrupt, truncated, or version-mismatched
// entry files are misses, never crashes, and concurrent writers on one
// directory never produce a torn entry. `DiskCache::gc` keeps the newest
// entries under the byte cap, tracks recency through lookups, expires by
// TTL, and never touches an entry that is still being written (a fresh
// temp file).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/digest.hpp"
#include "exp/scenario.hpp"
#include "solve/cache.hpp"
#include "solve/disk_cache.hpp"
#include "solve/registry.hpp"
#include "test_helpers.hpp"

namespace mf::solve {
namespace {

namespace fs = std::filesystem;

core::Problem small_problem(std::uint64_t seed = 7) {
  exp::Scenario scenario;
  scenario.tasks = 8;
  scenario.machines = 4;
  scenario.types = 2;
  return exp::generate(scenario, seed);
}

/// Fresh scratch directory per test, removed on teardown.
class DiskCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("mf-disk-cache-test-" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

/// A stored, solved entry to exercise round-trips with: H1 is randomized,
/// so the result meaningfully depends on the seed in the key.
struct StoredEntry {
  CacheKey key;
  SolveResult result;
};

StoredEntry solve_and_store(DiskCache& cache, std::uint64_t seed = 3) {
  const core::Problem problem = small_problem();
  SolveParams params;
  params.seed = seed;
  params.cache = CachePolicy::kReadWrite;
  ResultCache memory(64, &cache);
  const SolveResult result = test::solve_through(memory, "H1", problem, params);
  return {make_cache_key(core::digest(problem), "H1", params), result};
}

TEST_F(DiskCacheTest, EntryTextRoundTripsBitForBit) {
  DiskCache cache(dir_);
  const StoredEntry stored = solve_and_store(cache);

  const std::string text = entry_to_text(stored.key, stored.result);
  const auto parsed = entry_from_text(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->first == stored.key);
  EXPECT_EQ(parsed->second.status, stored.result.status);
  EXPECT_EQ(parsed->second.mapping, stored.result.mapping);
  // Bit-exact, not approximately-equal: hexfloat serialization must not
  // lose a single mantissa bit.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed->second.period),
            std::bit_cast<std::uint64_t>(stored.result.period));
  EXPECT_EQ(parsed->second.diagnostics.solver_id, stored.result.diagnostics.solver_id);
  EXPECT_EQ(parsed->second.diagnostics.nodes_explored,
            stored.result.diagnostics.nodes_explored);
}

TEST_F(DiskCacheTest, FreshInstanceServesAPriorInstancesEntries) {
  // The fresh-process scenario: one DiskCache writes, a brand-new DiskCache
  // on the same directory (no shared state) must serve the result.
  CacheKey key;
  SolveResult original;
  {
    DiskCache writer(dir_);
    const StoredEntry stored = solve_and_store(writer);
    key = stored.key;
    original = stored.result;
    EXPECT_EQ(writer.stats().insertions, 1u);
  }
  DiskCache reader(dir_);
  const auto hit = reader.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->mapping, original.mapping);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(hit->period),
            std::bit_cast<std::uint64_t>(original.period));
  EXPECT_EQ(reader.stats().hits, 1u);
}

TEST_F(DiskCacheTest, CachedSolveThroughFreshInstanceIsACrossProcessWarmHit) {
  const core::Problem problem = small_problem();
  SolveParams params;
  params.seed = 11;
  params.cache = CachePolicy::kReadWrite;

  SolveResult cold;
  {
    DiskCache first_disk(dir_);
    ResultCache first_process(64, &first_disk);
    cold = test::solve_through(first_process, "H1", problem, params);
    EXPECT_FALSE(cold.diagnostics.cache_hit);
  }
  DiskCache second_disk(dir_);
  ResultCache second_process(64, &second_disk);
  const SolveResult warm = test::solve_through(second_process, "H1", problem, params);
  EXPECT_TRUE(warm.diagnostics.cache_hit);
  EXPECT_EQ(warm.status, cold.status);
  EXPECT_EQ(warm.mapping, cold.mapping);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(warm.period),
            std::bit_cast<std::uint64_t>(cold.period));
}

TEST_F(DiskCacheTest, MissOnEmptyDirectoryAndDistinctKeys) {
  DiskCache cache(dir_);
  const StoredEntry stored = solve_and_store(cache, 3);
  SolveParams other;
  other.seed = 4;  // different seed, different identity
  other.cache = CachePolicy::kReadWrite;
  const CacheKey other_key =
      make_cache_key(stored.key.problem, stored.key.solver_id, other);
  EXPECT_FALSE(cache.lookup(other_key).has_value());
  EXPECT_TRUE(cache.lookup(stored.key).has_value());
}

TEST_F(DiskCacheTest, CorruptEntryIsAMissNotACrash) {
  DiskCache cache(dir_);
  const StoredEntry stored = solve_and_store(cache);
  const std::filesystem::path path = dir_ / DiskCache::entry_filename(stored.key);
  ASSERT_TRUE(std::filesystem::exists(path));
  {
    std::ofstream out(path);
    out << "not a cache entry at all\x01\x02 garbage";
  }
  EXPECT_FALSE(cache.lookup(stored.key).has_value());

  // A mapping count no machine list could fill: still just a miss, and
  // nothing is sized from the declared count.
  std::string huge = entry_to_text(stored.key, stored.result);
  const std::size_t mapping = huge.find("\nmapping ");
  ASSERT_NE(mapping, std::string::npos);
  huge.replace(mapping + 9, huge.find(' ', mapping + 9) - (mapping + 9), "4611686018427387904");
  {
    std::ofstream out(path, std::ios::trunc);
    out << huge;
  }
  std::optional<SolveResult> looked_up;
  EXPECT_NO_THROW(looked_up = cache.lookup(stored.key));
  EXPECT_FALSE(looked_up.has_value());
}

TEST_F(DiskCacheTest, TruncatedEntryIsAMiss) {
  DiskCache cache(dir_);
  const StoredEntry stored = solve_and_store(cache);
  const std::filesystem::path path = dir_ / DiskCache::entry_filename(stored.key);
  std::string full;
  {
    std::ifstream in(path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    full = buffer.str();
  }
  // Chop the file anywhere — including right before the "end" sentinel —
  // and the entry must read as a miss.
  for (const double fraction : {0.25, 0.5, 0.9}) {
    {
      std::ofstream out(path, std::ios::trunc);
      out << full.substr(0, static_cast<std::size_t>(full.size() * fraction));
    }
    EXPECT_FALSE(cache.lookup(stored.key).has_value()) << "fraction " << fraction;
  }
  // Even with everything but the sentinel intact: a writer died mid-write.
  {
    std::ofstream out(path, std::ios::trunc);
    out << full.substr(0, full.size() - 4);
  }
  EXPECT_FALSE(cache.lookup(stored.key).has_value());
}

TEST_F(DiskCacheTest, VersionMismatchedEntryIsIgnored) {
  DiskCache cache(dir_);
  const StoredEntry stored = solve_and_store(cache);
  const std::filesystem::path path = dir_ / DiskCache::entry_filename(stored.key);
  std::string full;
  {
    std::ifstream in(path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    full = buffer.str();
  }
  const std::size_t version = full.find("v1");
  ASSERT_NE(version, std::string::npos);
  full.replace(version, 2, "v9");
  {
    std::ofstream out(path, std::ios::trunc);
    out << full;
  }
  EXPECT_FALSE(cache.lookup(stored.key).has_value())
      << "a future format version must read as a miss, not be misparsed";
}

TEST_F(DiskCacheTest, MisfiledEntryFailsKeyVerification) {
  DiskCache cache(dir_);
  const StoredEntry a = solve_and_store(cache, 3);
  SolveParams params;
  params.seed = 99;
  params.cache = CachePolicy::kReadWrite;
  const CacheKey other = make_cache_key(a.key.problem, a.key.solver_id, params);
  // Simulate a filename collision (or a hand-copied file): entry content
  // for key A sitting under key B's filename must not answer B.
  std::filesystem::copy_file(dir_ / DiskCache::entry_filename(a.key),
                             dir_ / DiskCache::entry_filename(other));
  EXPECT_FALSE(cache.lookup(other).has_value());
}

TEST_F(DiskCacheTest, ConcurrentWritersNeverProduceATornEntry) {
  DiskCache cache(dir_);
  const core::Problem problem = small_problem();
  const core::Digest digest = core::digest(problem);

  // Many threads hammer a handful of keys — including all of them racing on
  // the SAME key — while readers poll. Every lookup must return either a
  // miss or a complete, key-verified entry; afterwards every file parses.
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kKeys = 4;
  constexpr std::size_t kRounds = 50;
  std::vector<StoredEntry> entries;
  for (std::size_t k = 0; k < kKeys; ++k) {
    SolveParams params;
    params.seed = k;
    params.cache = CachePolicy::kReadWrite;
    const auto solver = SolverRegistry::instance().resolve("H1");
    entries.push_back({make_cache_key(digest, solver->id(), params),
                       timed_solve(*solver, problem, params)});
  }

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        const StoredEntry& entry = entries[(t + round) % kKeys];
        cache.insert(entry.key, entry.result);
        if (const auto hit = cache.lookup(entry.key)) {
          // A concurrent overwrite may serve either complete version, but
          // never a torn mix; here all writers store identical content.
          EXPECT_EQ(hit->mapping, entry.result.mapping);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  std::size_t files = 0;
  for (const auto& entry_file : std::filesystem::directory_iterator(dir_)) {
    if (entry_file.path().extension() != ".mfc") continue;
    ++files;
    std::ifstream in(entry_file.path());
    std::ostringstream buffer;
    buffer << in.rdbuf();
    EXPECT_TRUE(entry_from_text(buffer.str()).has_value())
        << entry_file.path() << " is torn";
  }
  EXPECT_EQ(files, kKeys);
  // No temp litter left behind by the rename dance.
  for (const auto& entry_file : std::filesystem::directory_iterator(dir_)) {
    EXPECT_EQ(entry_file.path().extension(), ".mfc") << entry_file.path();
  }
}

TEST_F(DiskCacheTest, ClearRemovesEntries) {
  DiskCache cache(dir_);
  const StoredEntry stored = solve_and_store(cache);
  EXPECT_EQ(cache.stats().size, 1u);
  cache.clear();
  EXPECT_EQ(cache.stats().size, 0u);
  EXPECT_FALSE(cache.lookup(stored.key).has_value());
}

TEST_F(DiskCacheTest, TieredPromotesDiskHitsIntoMemory) {
  DiskCache disk(dir_);
  {
    // Populate the disk layer only (a "previous process").
    DiskCache writer(dir_);
    solve_and_store(writer);
  }
  const StoredEntry stored = [&] {
    const core::Problem problem = small_problem();
    const auto solver = SolverRegistry::instance().resolve("H1");
    SolveParams params;
    params.seed = 3;
    params.cache = CachePolicy::kReadWrite;
    return StoredEntry{make_cache_key(core::digest(problem), solver->id(), params), {}};
  }();

  ResultCache cache(64, &disk);
  ASSERT_TRUE(cache.lookup(stored.key).has_value()) << "disk layer answers";
  EXPECT_EQ(disk.stats().hits, 1u);
  // The hit was promoted into memory: with its entry file gone, the second
  // lookup still hits, and the disk layer is not asked again.
  ASSERT_TRUE(fs::remove(dir_ / DiskCache::entry_filename(stored.key)));
  ASSERT_TRUE(cache.lookup(stored.key).has_value()) << "memory layer answers";
  EXPECT_EQ(disk.stats().hits, 1u);
  EXPECT_EQ(disk.stats().misses, 0u);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST_F(DiskCacheTest, TieredInsertWritesThroughToBothLayers) {
  DiskCache disk(dir_);
  ResultCache cache(64, &disk);

  const core::Problem problem = small_problem();
  SolveParams params;
  params.cache = CachePolicy::kReadWrite;
  const SolveResult result = test::solve_through(cache, "H2", problem, params);
  EXPECT_FALSE(result.diagnostics.cache_hit);
  EXPECT_EQ(cache.stats().insertions, 1u) << "memory layer stored it";
  EXPECT_EQ(disk.stats().size, 1u);
  EXPECT_EQ(cache.stats().size, 1u) << "one entry, counted once";

  // A fresh memory layer over the same disk directory — the restart — still
  // answers without a solve.
  DiskCache fresh_disk(dir_);
  ResultCache restarted(64, &fresh_disk);
  const SolveResult warm = test::solve_through(restarted, "H2", problem, params);
  EXPECT_TRUE(warm.diagnostics.cache_hit);
  EXPECT_EQ(warm.mapping, result.mapping);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(warm.period),
            std::bit_cast<std::uint64_t>(result.period));
}

TEST_F(DiskCacheTest, TieredServesConcurrentLookupsAndInserts) {
  // Writers insert through to disk while readers miss in a small memory
  // layer and promote from disk: every lookup counts once, every hit is
  // the stored result, and every key written is served afterwards.
  DiskCache disk(dir_);
  ResultCache cache(4, &disk);
  const core::Digest digest = core::digest(small_problem());
  const auto key_for = [&](std::uint64_t n) {
    SolveParams params;
    params.seed = n;
    return make_cache_key(digest, "H1", params);
  };
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kRounds = 50;
  constexpr std::uint64_t kKeys = 16;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t round = 0; round < kRounds; ++round) {
        const std::uint64_t n = (t * 5 + round) % kKeys;
        if (t % 2 == 0) {
          SolveResult result;
          result.status = Status::kFeasible;
          result.period = static_cast<double>(n);
          cache.insert(key_for(n), result);
        }
        if (const auto hit = cache.lookup(key_for(n))) {
          EXPECT_EQ(hit->period, static_cast<double>(n));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kRounds);
  EXPECT_EQ(stats.size, kKeys) << "thread 0 wrote every key through";
  for (std::uint64_t n = 0; n < kKeys; ++n) {
    const std::optional<SolveResult> hit = cache.lookup(key_for(n));
    ASSERT_TRUE(hit.has_value()) << n;
    EXPECT_EQ(hit->period, static_cast<double>(n));
  }
}

TEST_F(DiskCacheTest, DescribeNamesTheLayers) {
  DiskCache disk(dir_);
  ResultCache cache(128, &disk);
  EXPECT_EQ(disk.describe(), "disk(" + dir_.string() + ")");
  EXPECT_EQ(cache.describe(), "memory-lru(128) over disk(" + dir_.string() + ")");
  EXPECT_EQ(cache.disk(), &disk);
  EXPECT_EQ(ResultCache(128).describe(), "memory-lru(128)");
  EXPECT_EQ(ResultCache(128).disk(), nullptr);
}

// ---------------------------------------------------------------------------
// DiskCache::gc
// ---------------------------------------------------------------------------

class DiskGcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("mf-gc-test-" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] solve::CacheKey key_for(std::uint64_t seed) const {
    solve::SolveParams params;
    params.seed = seed;
    return solve::make_cache_key(core::digest(problem_), "H1", params);
  }

  /// Inserts one entry and back-dates its file `age_hours` into the past,
  /// returning the entry path.
  fs::path insert_aged(solve::DiskCache& cache, std::uint64_t seed, int age_hours) {
    solve::SolveResult result;
    result.status = solve::Status::kFeasible;
    result.period = static_cast<double>(seed);
    cache.insert(key_for(seed), result);
    const fs::path path = dir_ / solve::DiskCache::entry_filename(key_for(seed));
    fs::last_write_time(path, fs::file_time_type::clock::now() - std::chrono::hours(age_hours));
    return path;
  }

  core::Problem problem_ = small_problem();
  fs::path dir_;
};

TEST_F(DiskGcTest, KeepsTheNewestEntriesUnderTheByteCap) {
  solve::DiskCache cache(dir_);
  // Seeds share a digit count so every entry file has the same size.
  const fs::path oldest = insert_aged(cache, 11, 4);
  const fs::path mid = insert_aged(cache, 12, 3);
  const fs::path newer = insert_aged(cache, 13, 2);
  const fs::path newest = insert_aged(cache, 14, 1);

  const std::uint64_t cap = static_cast<std::uint64_t>(fs::file_size(newest)) +
                            static_cast<std::uint64_t>(fs::file_size(newer));
  const solve::DiskGcReport report = cache.gc(cap);

  EXPECT_EQ(report.entries_before, 4u);
  EXPECT_EQ(report.entries_kept, 2u);
  EXPECT_EQ(report.entries_removed, 2u);
  EXPECT_LE(report.bytes_kept, cap);
  EXPECT_EQ(report.bytes_before, report.bytes_kept + report.bytes_removed);
  EXPECT_TRUE(fs::exists(newest));
  EXPECT_TRUE(fs::exists(newer));
  EXPECT_FALSE(fs::exists(mid));
  EXPECT_FALSE(fs::exists(oldest));
  // Survivors still serve hits; evicted entries are honest misses.
  EXPECT_TRUE(cache.lookup(key_for(14)).has_value());
  EXPECT_FALSE(cache.lookup(key_for(11)).has_value());
  const solve::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.size, 2u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_LE(stats.bytes, cap);
}

TEST_F(DiskGcTest, SurvivorsAreARecencyPrefixEvenWithUnevenSizes) {
  // gc only inspects names, sizes and mtimes, so fabricated entry files
  // give exact control over both dimensions.
  solve::DiskCache cache(dir_);  // creates the directory
  const auto fabricate = [&](const std::string& stem, std::size_t bytes, int age_hours) {
    const fs::path path = dir_ / (stem + ".mfc");
    std::ofstream(path) << std::string(bytes, 'x');
    fs::last_write_time(path,
                        fs::file_time_type::clock::now() - std::chrono::hours(age_hours));
    return path;
  };
  const fs::path newest_big = fabricate("aa", 400, 1);
  const fs::path old1 = fabricate("bb", 100, 2);
  const fs::path old2 = fabricate("cc", 100, 3);
  const fs::path old3 = fabricate("dd", 100, 4);

  // Cap 600: the newest 400 and the next two 100s fit; the oldest is cut.
  solve::DiskGcReport report = cache.gc(600);
  EXPECT_EQ(report.entries_kept, 3u);
  EXPECT_EQ(report.entries_removed, 1u);
  EXPECT_TRUE(fs::exists(newest_big));
  EXPECT_FALSE(fs::exists(old3));

  // Cap 300: the newest entry alone overflows the cap, which cuts the
  // prefix at zero — an older entry must never survive a newer eviction
  // (keeping stale entries while dropping the hottest would invert LRU).
  report = cache.gc(300);
  EXPECT_EQ(report.entries_kept, 0u);
  EXPECT_EQ(report.entries_removed, 3u);
  EXPECT_FALSE(fs::exists(newest_big));
  EXPECT_FALSE(fs::exists(old1));
  EXPECT_FALSE(fs::exists(old2));
}

TEST_F(DiskGcTest, LookupRefreshesRecencySoLruTracksUse) {
  solve::DiskCache cache(dir_);
  insert_aged(cache, 21, 3);  // older ...
  insert_aged(cache, 22, 1);  // ... newer
  // Using the older entry must move it to the front of the LRU order.
  ASSERT_TRUE(cache.lookup(key_for(21)).has_value());

  const std::uint64_t one_entry =
      static_cast<std::uint64_t>(fs::file_size(dir_ / solve::DiskCache::entry_filename(key_for(21))));
  const solve::DiskGcReport report = cache.gc(one_entry);

  EXPECT_EQ(report.entries_kept, 1u);
  EXPECT_TRUE(cache.lookup(key_for(21)).has_value());
  EXPECT_FALSE(cache.lookup(key_for(22)).has_value());
}

TEST_F(DiskGcTest, NeverDeletesAnEntryBeingWritten) {
  solve::DiskCache cache(dir_);
  insert_aged(cache, 31, 2);
  // An entry mid-write is a temp file. A fresh one belongs to a live
  // writer and must survive even a zero cap; an hours-old one is a crash
  // leftover and is swept.
  const fs::path fresh_temp = dir_ / "0123456789abcdef0123456789abcdef.mfc.tmp-42-0";
  const fs::path stale_temp = dir_ / "fedcba9876543210fedcba9876543210.mfc.tmp-43-0";
  std::ofstream(fresh_temp) << "half-written entry";
  std::ofstream(stale_temp) << "abandoned entry";
  fs::last_write_time(stale_temp, fs::file_time_type::clock::now() - std::chrono::hours(2));

  const solve::DiskGcReport report = cache.gc(0);

  EXPECT_EQ(report.entries_removed, 1u);
  EXPECT_EQ(report.entries_kept, 0u);
  EXPECT_EQ(report.stale_temps_removed, 1u);
  EXPECT_TRUE(fs::exists(fresh_temp));
  EXPECT_FALSE(fs::exists(stale_temp));
  EXPECT_EQ(cache.stats().size, 0u);
}

TEST_F(DiskGcTest, TtlExpiresUnusedEntriesRegardlessOfCap) {
  solve::DiskCache cache(dir_);
  const fs::path ancient = insert_aged(cache, 51, 48);
  const fs::path old = insert_aged(cache, 52, 40);
  const fs::path fresh = insert_aged(cache, 53, 1);

  // Unlimited byte cap: only the TTL decides.
  const solve::DiskGcReport report =
      cache.gc(std::numeric_limits<std::uint64_t>::max(), std::chrono::hours(36));

  EXPECT_EQ(report.entries_before, 3u);
  EXPECT_EQ(report.entries_expired, 2u);
  EXPECT_EQ(report.entries_removed, 2u);
  EXPECT_EQ(report.entries_kept, 1u);
  EXPECT_FALSE(fs::exists(ancient));
  EXPECT_FALSE(fs::exists(old));
  EXPECT_TRUE(fs::exists(fresh));
  EXPECT_TRUE(cache.lookup(key_for(53)).has_value());
  EXPECT_FALSE(cache.lookup(key_for(51)).has_value());
  EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST_F(DiskGcTest, TtlZeroDisablesExpiry) {
  solve::DiskCache cache(dir_);
  insert_aged(cache, 61, 1000);  // ancient, but no TTL asked for
  const solve::DiskGcReport report =
      cache.gc(std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(report.entries_expired, 0u);
  EXPECT_EQ(report.entries_removed, 0u);
  EXPECT_EQ(report.entries_kept, 1u);
}

TEST_F(DiskGcTest, TtlComposesWithTheByteCap) {
  // TTL removes by age first; the cap then trims the freshest survivors by
  // LRU. Expired entries count in entries_expired, cap evictions do not.
  solve::DiskCache cache(dir_);
  insert_aged(cache, 71, 48);   // expired by TTL
  const fs::path mid = insert_aged(cache, 72, 3);
  const fs::path fresh = insert_aged(cache, 73, 1);

  const std::uint64_t one_entry = static_cast<std::uint64_t>(fs::file_size(fresh));
  const solve::DiskGcReport report = cache.gc(one_entry, std::chrono::hours(36));

  EXPECT_EQ(report.entries_expired, 1u);
  EXPECT_EQ(report.entries_removed, 2u);  // one by TTL, one by the cap
  EXPECT_EQ(report.entries_kept, 1u);
  EXPECT_FALSE(fs::exists(mid));
  EXPECT_TRUE(fs::exists(fresh));
}

TEST_F(DiskGcTest, TtlNeverTouchesAFreshTempFile) {
  solve::DiskCache cache(dir_);
  insert_aged(cache, 81, 48);
  // Even a TTL shorter than the temp file's age must not delete a temp
  // file younger than the stale-writer threshold: entries being written
  // are exempt from every policy.
  const fs::path fresh_temp = dir_ / "00112233445566770011223344556677.mfc.tmp-7-0";
  std::ofstream(fresh_temp) << "half-written entry";
  fs::last_write_time(fresh_temp,
                      fs::file_time_type::clock::now() - std::chrono::minutes(30));

  const solve::DiskGcReport report =
      cache.gc(std::numeric_limits<std::uint64_t>::max(), std::chrono::minutes(5));

  EXPECT_EQ(report.entries_expired, 1u);
  EXPECT_TRUE(fs::exists(fresh_temp));
  EXPECT_EQ(report.stale_temps_removed, 0u);
}

TEST_F(DiskGcTest, TtlBeyondTheClockRangeExpiresNothing) {
  // A TTL the file clock cannot represent (it holds about 292 years of
  // nanoseconds) must keep every entry, not overflow into a negative age
  // that expires them all.
  solve::DiskCache cache(dir_);
  const fs::path fresh = insert_aged(cache, 91, 0);
  for (const std::chrono::seconds ttl :
       {std::chrono::seconds(10'000'000'000), std::chrono::seconds::max()}) {
    const solve::DiskGcReport report =
        cache.gc(std::numeric_limits<std::uint64_t>::max(), ttl);
    EXPECT_EQ(report.entries_expired, 0u) << ttl.count();
    EXPECT_EQ(report.entries_removed, 0u) << ttl.count();
    EXPECT_EQ(report.entries_kept, 1u) << ttl.count();
    EXPECT_TRUE(fs::exists(fresh));
  }
}

TEST_F(DiskGcTest, TtlBeyondTheClockRangeStillAppliesTheByteCap) {
  // Skipping the TTL sweep for an age the clock cannot represent must not
  // skip the byte cap: the older of two entries still goes, counted as an
  // eviction, not an expiry.
  solve::DiskCache cache(dir_);
  // Seeds share a digit count so both entry files have the same size.
  const fs::path old = insert_aged(cache, 95, 2);
  const fs::path fresh = insert_aged(cache, 96, 1);
  const std::uint64_t one_entry = static_cast<std::uint64_t>(fs::file_size(fresh));
  const solve::DiskGcReport report = cache.gc(one_entry, std::chrono::seconds(10'000'000'000));
  EXPECT_EQ(report.entries_expired, 0u);
  EXPECT_EQ(report.entries_removed, 1u);
  EXPECT_EQ(report.entries_kept, 1u);
  EXPECT_FALSE(fs::exists(old));
  EXPECT_TRUE(fs::exists(fresh));
}

TEST_F(DiskGcTest, GenerousCapRemovesNothingAndSurvivorsStayBitExact) {
  solve::DiskCache cache(dir_);
  solve::SolveResult stored;
  stored.status = solve::Status::kFeasible;
  stored.period = 0x1.91eb851eb851fp+9;  // a period with a full mantissa
  cache.insert(key_for(41), stored);

  const solve::DiskGcReport report = cache.gc(1ull << 30);
  EXPECT_EQ(report.entries_removed, 0u);
  EXPECT_EQ(report.entries_kept, 1u);

  const std::optional<solve::SolveResult> restored = cache.lookup(key_for(41));
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->period, stored.period);  // bit-exact through gc
}

}  // namespace
}  // namespace mf::solve
