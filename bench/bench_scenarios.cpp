// Scenario micro-bench: one cold + one warm figure sweep per registered
// failure model, emitting BENCH_scenarios.json for the CI perf trajectory.
//
// For every scenario id in the registry this runs the Figure 6 geometry
// (scaled down by --scale) twice with a read-write result cache. The cold
// pass measures per-model sweep throughput — non-iid models pay for model
// parameter draws, effective-matrix materialization and model-adjusted
// period evaluation on top of the solves — and the warm pass must re-solve
// nothing, proving the content-addressed key stays sound per scenario
// (scenario ids are part of the cache key, so regimes never share entries).
// Like bench_cache, the exit code doubles as a CI gate: any warm re-solve,
// or a warm pass that never consulted the cache, fails the bench.
//
//   bench_scenarios [--scale K] [--out BENCH_scenarios.json]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/figures.hpp"
#include "exp/runner.hpp"
#include "exp/scenario_registry.hpp"
#include "solve/cache.hpp"
#include "support/cli.hpp"
#include "support/thread_pool.hpp"

namespace {

struct ModelRow {
  std::string scenario;
  double cold_ms = 0.0;
  double warm_ms = 0.0;
  double cold_solves_per_s = 0.0;
  unsigned long long warm_hits = 0;
  unsigned long long warm_misses = 0;
};

double run_timed_ms(const mf::exp::SweepSpec& spec, const mf::exp::SweepOptions& options,
                    mf::support::ThreadPool& pool, std::size_t* solves = nullptr) {
  const auto start = std::chrono::steady_clock::now();
  const mf::exp::SweepResult result = mf::exp::run_sweep(spec, options, &pool);
  if (solves != nullptr) {
    *solves = 0;
    for (const mf::exp::PointResult& point : result.points) {
      *solves += point.attempts * spec.methods.size();
    }
  }
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const mf::support::CliArgs args(argc, argv);
  const auto scale =
      static_cast<std::size_t>(std::max<std::int64_t>(1, args.get_int("scale", 1)));
  const std::string out_path = args.get("out", "BENCH_scenarios.json");

  mf::support::ThreadPool pool;
  mf::exp::SweepOptions options;
  options.cache = mf::solve::CachePolicy::kReadWrite;
  mf::solve::ResultCache& cache = mf::solve::ResultCache::global();
  cache.clear();

  std::vector<ModelRow> rows;
  bool gate_ok = true;
  for (const std::string& scenario : mf::exp::ScenarioRegistry::instance().ids()) {
    mf::exp::SweepSpec spec = mf::exp::figure6_spec();
    spec.name = "bench-" + scenario;
    spec.scenario_id = scenario;
    if (scale > 1) spec = mf::exp::scaled_down(spec, scale);

    ModelRow row;
    row.scenario = scenario;
    std::size_t solves = 0;
    row.cold_ms = run_timed_ms(spec, options, pool, &solves);
    const mf::solve::CacheStats after_cold = cache.stats();
    row.warm_ms = run_timed_ms(spec, options, pool);
    const mf::solve::CacheStats after_warm = cache.stats();

    row.cold_solves_per_s =
        row.cold_ms > 0.0 ? 1000.0 * static_cast<double>(solves) / row.cold_ms : 0.0;
    row.warm_hits = after_warm.hits - after_cold.hits;
    row.warm_misses = after_warm.misses - after_cold.misses;
    gate_ok = gate_ok && row.warm_misses == 0 && row.warm_hits > 0;
    rows.push_back(row);
  }

  std::ostringstream json;
  json << "{\n  \"bench\": \"scenarios\",\n  \"scale\": " << scale
       << ",\n  \"threads\": " << pool.size() << ",\n  \"models\": [\n";
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const ModelRow& row = rows[k];
    char buffer[320];
    std::snprintf(buffer, sizeof buffer,
                  "    {\"scenario\": \"%s\", \"cold_ms\": %.3f, \"warm_ms\": %.3f, "
                  "\"speedup\": %.2f, \"cold_solves_per_s\": %.1f, "
                  "\"warm_hits\": %llu, \"warm_misses\": %llu}%s\n",
                  row.scenario.c_str(), row.cold_ms, row.warm_ms,
                  row.warm_ms > 0.0 ? row.cold_ms / row.warm_ms : 0.0,
                  row.cold_solves_per_s, row.warm_hits, row.warm_misses,
                  k + 1 < rows.size() ? "," : "");
    json << buffer;
  }
  json << "  ]\n}\n";

  std::ofstream out(out_path);
  if (!out.good()) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << json.str();
  std::printf("%s", json.str().c_str());
  std::printf("written to %s\n", out_path.c_str());

  // Nonzero when any model's warm pass re-solved anything (or never hit the
  // cache): a broken scenario-aware cache key fails CI even if nobody reads
  // the timings.
  return gate_ok ? 0 : 1;
}
