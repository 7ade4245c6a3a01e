// Simulator saturation benchmark, CI-gated: long-horizon event throughput
// and the zero-per-event-allocation guarantee of the event loop.
//
// The discrete-event simulator is the statistical referee of this repo —
// sim::stats replays every scenario family against its analytic reduction,
// and those gates only stay cheap if the event loop sustains saturation
// throughput. This bench runs two long-horizon shapes:
//
//   chain_saturation — a 16-task chain in saturation mode (the statistical
//                      gate's regime), iid losses; the events/sec GATE;
//   downtime_phases  — per-machine up/repair cycling (kMachineFail /
//                      kMachineRepair events interleaved with attempts).
//
// Gates:
//   1. chain_saturation must sustain >= --floor events/sec (default 1e6),
//      measured as events_processed / wall seconds, best of --reps runs —
//      best-of because interference can only slow a run down, so the
//      fastest observation is the cleanest one.
//   2. Zero per-event allocation on every shape: a run 10x longer must
//      perform exactly as many heap allocations as the short run (the
//      event heap is reserved up front, loss coins are drawn in batches,
//      per-machine state lives in flat vectors — nothing grows with the
//      horizon). Counted with a global operator-new hook, immune to timer
//      noise.
//
//   bench_sim [--out BENCH_sim.json] [--reps 5] [--outputs 100000]
//             [--floor 1000000]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "core/failure_model.hpp"
#include "exp/scenario.hpp"
#include "exp/scenario_registry.hpp"
#include "heuristics/h4_family.hpp"
#include "sim/simulator.hpp"
#include "support/cli.hpp"

// --- Allocation counting ----------------------------------------------------
// Replacing the global allocation functions lets the harness observe every
// heap allocation a simulated campaign makes. The counter is a plain atomic
// so the hook itself stays allocation-free.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using mf::core::Problem;
using mf::sim::SimulationConfig;
using mf::sim::SimulationReport;
using mf::sim::Simulator;

double now_sec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One benchmarked campaign shape: a prepared simulator plus the failure
/// model that distinguishes it (iid losses, downtime phases).
struct Shape {
  std::string name;
  bool gated = false;  ///< participates in the events/sec floor gate
  std::shared_ptr<const Problem> problem;
  std::shared_ptr<const mf::core::FailureModel> model;
  mf::core::Mapping mapping;
};

Shape make_shape(const std::string& name, bool gated, const std::string& scenario_id) {
  mf::exp::Scenario scenario;
  scenario.tasks = 16;
  scenario.machines = 8;
  scenario.types = 4;
  mf::exp::Instance instance = mf::exp::generate_instance(scenario_id, scenario, 11);
  const auto mapping = mf::heuristics::h4w(*instance.effective);
  if (!mapping.has_value()) {
    std::fprintf(stderr, "FATAL: no mapping for shape %s\n", name.c_str());
    std::exit(2);
  }
  return Shape{name, gated, instance.problem, instance.model, *mapping};
}

struct ShapeResult {
  std::string name;
  std::uint64_t events = 0;       ///< events processed by the long run
  double events_per_sec = 0.0;    ///< best over reps
  std::uint64_t allocs_short = 0;
  std::uint64_t allocs_long = 0;
};

SimulationConfig config_for(const Shape& shape, std::uint64_t outputs) {
  SimulationConfig config;
  config.seed = 77;
  config.target_outputs = outputs;
  config.warmup_outputs = outputs / 10;
  config.failure_model = shape.model.get();
  return config;
}

ShapeResult run_shape(const Shape& shape, std::uint64_t outputs, std::size_t reps) {
  const Simulator simulator(*shape.problem, shape.mapping);
  ShapeResult result;
  result.name = shape.name;

  // Allocation comparison first, on cold-ish and warm paths alike: a run
  // 10x longer must allocate exactly as much as the short one — every
  // allocation the loop makes is horizon-independent setup.
  {
    const SimulationConfig short_config = config_for(shape, outputs / 10);
    const SimulationConfig long_config = config_for(shape, outputs);
    const std::uint64_t before_short = g_alloc_count.load(std::memory_order_relaxed);
    const SimulationReport short_report = simulator.run(short_config);
    const std::uint64_t after_short = g_alloc_count.load(std::memory_order_relaxed);
    const SimulationReport long_report = simulator.run(long_config);
    const std::uint64_t after_long = g_alloc_count.load(std::memory_order_relaxed);
    result.allocs_short = after_short - before_short;
    result.allocs_long = after_long - after_short;
    result.events = long_report.events_processed;
    if (!short_report.reached_target || !long_report.reached_target) {
      std::fprintf(stderr, "FATAL: shape %s did not reach its output target\n",
                   shape.name.c_str());
      std::exit(2);
    }
  }

  // Throughput: best of reps (interference only ever slows a run).
  const SimulationConfig config = config_for(shape, outputs);
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const double start = now_sec();
    const SimulationReport report = simulator.run(config);
    const double elapsed = now_sec() - start;
    if (elapsed > 0.0) {
      result.events_per_sec = std::max(
          result.events_per_sec, static_cast<double>(report.events_processed) / elapsed);
    }
  }
  return result;
}

void write_json(const std::string& path, const std::vector<ShapeResult>& results,
                double floor) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"sim\",\n";
  char buffer[256];
  std::snprintf(buffer, sizeof buffer, "  \"events_per_sec_floor\": %.0f,\n", floor);
  out << buffer << "  \"shapes\": [\n";
  for (std::size_t k = 0; k < results.size(); ++k) {
    const ShapeResult& r = results[k];
    std::snprintf(buffer, sizeof buffer,
                  "    { \"name\": \"%s\", \"events\": %llu, "
                  "\"events_per_sec\": %.0f, \"allocs_short\": %llu, "
                  "\"allocs_long\": %llu }%s\n",
                  r.name.c_str(), static_cast<unsigned long long>(r.events),
                  r.events_per_sec, static_cast<unsigned long long>(r.allocs_short),
                  static_cast<unsigned long long>(r.allocs_long),
                  k + 1 < results.size() ? "," : "");
    out << buffer;
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  for (int a = 1; a < argc; ++a) {
    if (std::string_view(argv[a]) == "--help" || std::string_view(argv[a]) == "-h") {
      std::printf(
          "usage: bench_sim [--out BENCH_sim.json] [--reps 5] [--outputs 100000]\n"
          "                 [--floor 1000000]\n"
          "\n"
          "Long-horizon simulator saturation benchmark. Fails if the chain\n"
          "saturation shape sustains fewer than --floor events/sec, or if any\n"
          "shape's 10x-longer run heap-allocates more than its short run (the\n"
          "zero-per-event-allocation guarantee).\n");
      return 0;
    }
  }
  const mf::support::CliArgs args(argc, argv);
  const std::string out_path = args.get("out", "BENCH_sim.json");
  const auto reps =
      static_cast<std::size_t>(std::max<std::int64_t>(1, args.get_int("reps", 5)));
  const auto outputs = static_cast<std::uint64_t>(
      std::max<std::int64_t>(1'000, args.get_int("outputs", 100'000)));
  const double floor = args.get_double("floor", 1'000'000.0);

  const Shape shapes[] = {
      make_shape("chain_saturation", true, "iid"),
      make_shape("downtime_phases", false, "downtime"),
  };

  std::printf("simulator saturation bench (outputs=%llu, reps=%zu)\n",
              static_cast<unsigned long long>(outputs), reps);
  std::printf("| shape             |      events |  events/sec | allocs 0.1x | allocs 1x |\n");
  std::printf("|-------------------|-------------|-------------|-------------|-----------|\n");

  std::vector<ShapeResult> results;
  int failures = 0;
  for (const Shape& shape : shapes) {
    ShapeResult result = run_shape(shape, outputs, reps);
    std::printf("| %-17s | %11llu | %11.0f | %11llu | %9llu |\n", result.name.c_str(),
                static_cast<unsigned long long>(result.events), result.events_per_sec,
                static_cast<unsigned long long>(result.allocs_short),
                static_cast<unsigned long long>(result.allocs_long));

    // Gate 2: a 10x horizon must not buy a single extra allocation.
    if (result.allocs_long > result.allocs_short) {
      std::fprintf(stderr,
                   "FAIL: %s allocates per event (%llu allocs on the long run vs "
                   "%llu on the short run)\n",
                   result.name.c_str(),
                   static_cast<unsigned long long>(result.allocs_long),
                   static_cast<unsigned long long>(result.allocs_short));
      ++failures;
    }
    // Gate 1: the saturation shape's throughput floor.
    if (shape.gated && result.events_per_sec < floor) {
      std::fprintf(stderr, "FAIL: %s sustained %.0f events/sec, need >= %.0f\n",
                   result.name.c_str(), result.events_per_sec, floor);
      ++failures;
    }
    results.push_back(std::move(result));
  }

  write_json(out_path, results, floor);
  std::printf("\nwrote %s\n", out_path.c_str());
  if (failures > 0) {
    std::fprintf(stderr, "\n%d sim bench gate(s) failed\n", failures);
    return 1;
  }
  std::printf("all sim bench gates passed\n");
  return 0;
}
