// Cache micro-bench: cold vs. warm figure sweeps through the one execution
// engine, for both the in-memory and the persistent on-disk backend,
// emitting BENCH_cache.json for the CI perf trajectory.
//
// Memory section: runs a figure sweep twice with a read-write in-memory
// cache — the cold pass solves every (trial, method) instance, the warm
// pass must re-solve nothing.
//
// Disk section: runs the same sweep against a TieredCache over a scratch
// --cache-dir style directory, then simulates a process restart by
// rebuilding BOTH layers from scratch over the populated directory — the
// disk-warm pass must complete with zero solver invocations, entries served
// purely from disk. That is the persistence guarantee CI enforces; the
// timings quantify what a restart costs relative to staying hot in memory.
//
//   bench_cache [--figure fig06] [--scale K] [--out BENCH_cache.json]
//               [--dir bench_cache_dir]
//
// One timed pass per temperature is the measurement: a cold pass cannot be
// repeated without resetting the cache, which is the quantity under test.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <utility>

#include "exp/figures.hpp"
#include "exp/runner.hpp"
#include "solve/cache.hpp"
#include "solve/disk_cache.hpp"
#include "solve/service.hpp"
#include "solve/tiered_cache.hpp"
#include "support/cli.hpp"
#include "support/thread_pool.hpp"

namespace {

double run_timed_ms(const mf::exp::SweepSpec& spec, const mf::exp::SweepOptions& options,
                    mf::support::ThreadPool& pool) {
  const auto start = std::chrono::steady_clock::now();
  const mf::exp::SweepResult result = mf::exp::run_sweep(spec, options, &pool);
  (void)result;
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

/// One disk-section pass: a fresh memory layer over a fresh `DiskCache` on
/// `dir` (a simulated process start), solved through a service of its own.
/// Returns the wall time and that service's solver invocations — how the
/// disk-warm pass proves it re-solved nothing.
std::pair<double, std::uint64_t> disk_pass(const mf::exp::SweepSpec& spec,
                                           mf::exp::SweepOptions options,
                                           mf::support::ThreadPool& pool,
                                           const std::filesystem::path& dir) {
  mf::solve::ResultCache memory(mf::solve::ResultCache::kDefaultCapacity);
  mf::solve::DiskCache disk(dir);
  mf::solve::TieredCache tiered(memory, disk);
  mf::solve::SolveService service(&pool, &tiered);
  options.executor = &service;
  const double ms = run_timed_ms(spec, options, pool);
  return {ms, service.stats().solved};
}

}  // namespace

int main(int argc, char** argv) {
  const mf::support::CliArgs args(argc, argv);
  const std::string figure = args.get("figure", "fig06");
  const auto scale =
      static_cast<std::size_t>(std::max<std::int64_t>(1, args.get_int("scale", 1)));
  const std::string out_path = args.get("out", "BENCH_cache.json");
  const std::filesystem::path disk_dir = args.get("dir", "bench_cache_dir");

  std::optional<mf::exp::SweepSpec> found = mf::exp::figure_spec_by_name(figure);
  if (!found.has_value()) {
    std::fprintf(stderr, "error: unknown figure '%s' (%s)\n", figure.c_str(),
                 mf::exp::figure_spec_names().c_str());
    return 2;
  }
  mf::exp::SweepSpec spec = *std::move(found);
  if (scale > 1) spec = mf::exp::scaled_down(spec, scale);

  mf::support::ThreadPool pool;
  mf::exp::SweepOptions options;
  options.cache = mf::solve::CachePolicy::kReadWrite;

  // --- memory backend: cold pass populates, warm pass must 100%-hit ------
  mf::solve::ResultCache& cache = mf::solve::ResultCache::global();
  cache.clear();
  const mf::solve::CacheStats before = cache.stats();
  const double cold_ms = run_timed_ms(spec, options, pool);
  const mf::solve::CacheStats after_cold = cache.stats();
  const double warm_ms = run_timed_ms(spec, options, pool);
  const mf::solve::CacheStats after_warm = cache.stats();

  const auto cold_misses = after_cold.misses - before.misses;
  mf::solve::CacheStats warm_delta;
  warm_delta.hits = after_warm.hits - after_cold.hits;
  warm_delta.misses = after_warm.misses - after_cold.misses;
  const auto warm_hits = warm_delta.hits;
  const auto warm_misses = warm_delta.misses;
  const double warm_hit_rate = warm_delta.hit_rate();
  const double speedup = warm_ms > 0.0 ? cold_ms / warm_ms : 0.0;

  // --- disk backend: cold pass populates the directory, then a simulated
  // process restart (fresh memory layer, fresh DiskCache over the same
  // directory) must complete with zero solver invocations ----------------
  std::filesystem::remove_all(disk_dir);
  const auto [disk_cold_ms, disk_cold_solves] = disk_pass(spec, options, pool, disk_dir);
  const auto [disk_warm_ms, disk_warm_solves] = disk_pass(spec, options, pool, disk_dir);
  const double disk_speedup = disk_warm_ms > 0.0 ? disk_cold_ms / disk_warm_ms : 0.0;
  std::filesystem::remove_all(disk_dir);

  char json[1024];
  std::snprintf(json, sizeof json,
                "{\n"
                "  \"bench\": \"cache\",\n"
                "  \"figure\": \"%s\",\n"
                "  \"scale\": %zu,\n"
                "  \"threads\": %zu,\n"
                "  \"cold_ms\": %.3f,\n"
                "  \"warm_ms\": %.3f,\n"
                "  \"speedup\": %.2f,\n"
                "  \"cold_misses\": %llu,\n"
                "  \"warm_hits\": %llu,\n"
                "  \"warm_misses\": %llu,\n"
                "  \"warm_hit_rate\": %.4f,\n"
                "  \"disk_cold_ms\": %.3f,\n"
                "  \"disk_warm_ms\": %.3f,\n"
                "  \"disk_speedup\": %.2f,\n"
                "  \"disk_cold_solves\": %llu,\n"
                "  \"disk_warm_solves\": %llu\n"
                "}\n",
                spec.name.c_str(), scale, pool.size(), cold_ms, warm_ms, speedup,
                static_cast<unsigned long long>(cold_misses),
                static_cast<unsigned long long>(warm_hits),
                static_cast<unsigned long long>(warm_misses), warm_hit_rate,
                disk_cold_ms, disk_warm_ms, disk_speedup,
                static_cast<unsigned long long>(disk_cold_solves),
                static_cast<unsigned long long>(disk_warm_solves));

  std::ofstream out(out_path);
  if (!out.good()) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << json;
  std::printf("%s", json);
  std::printf("written to %s\n", out_path.c_str());

  // Exit nonzero when either warm pass re-solved anything — or the memory
  // warm pass never consulted the cache at all (warm_hits == 0 would make
  // the miss check vacuous): CI then catches a broken content-addressed
  // key, dropped cache wiring, AND a broken on-disk round-trip, even if
  // nobody reads the timing numbers.
  const bool memory_ok = warm_misses == 0 && warm_hits > 0;
  const bool disk_ok = disk_warm_solves == 0 && disk_cold_solves > 0;
  if (!memory_ok) std::fprintf(stderr, "FAIL: memory warm pass re-solved instances\n");
  if (!disk_ok) std::fprintf(stderr, "FAIL: disk-warm restart re-solved instances\n");
  return memory_ok && disk_ok ? 0 : 1;
}
