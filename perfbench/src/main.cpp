// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--commit REV] [--out-dir DIR]
//
// Workloads: fig09-heuristics and fig12-exact (figure campaigns through
// exp::run_sweep) and serve-mixed (an in-process daemon under closed-loop
// client load). `--trace 0` prints the end-to-end metrics, `--trace 1` the
// per-layer ones; both check every output. The last stdout line is one
// JSON object {"correct", "attempted", "failed", "metrics"}. Exit status is
// 0 when every check passed, 1 when one failed, 2 on a usage or run error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "campaign.hpp"
#include "harness.hpp"
#include "serve_mixed.hpp"

namespace {

using perfbench::Metric;
using perfbench::MetricSet;

/// Every metric a run prints, with its unit: end-to-end for `--trace 0`,
/// per-layer for `--trace 1`. A layer a workload bypasses reads 0.
const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"setup_s", "s"},        {"wall_s", "s"},         {"cpu_s", "s"},
    {"req_per_s", "1/s"},    {"latency_p50_ms", "ms"}, {"latency_p99_ms", "ms"},
    {"ok_ratio", "ratio"},
};

std::vector<std::pair<std::string, std::string>> per_layer_metrics() {
  std::vector<std::pair<std::string, std::string>> names = {
      {"exp.self_s", "s"},          {"exp.trials", "count"},
      {"solve.batches", "count"},   {"solve.batch_s", "s"},
      {"solve.pool_efficiency", "ratio"}, {"solve.straggler_s", "s"},
  };
  for (const char* id : {"H2", "H3", "H4", "H4w", "oto", "bnb"}) {
    const std::string prefix = std::string("solver.") + id;
    names.insert(names.end(), {{prefix + ".calls", "count"},
                               {prefix + ".total_s", "s"},
                               {prefix + ".p50_ms", "ms"},
                               {prefix + ".p90_ms", "ms"}});
  }
  names.insert(names.end(), {
      {"exact.bnb.nodes", "count"},
      {"exact.bnb.nodes_per_s", "1/s"},
      {"exact.bnb.budget_exhausted", "count"},
      {"exact.bnb.proof_ratio", "ratio"},
      {"solver.H4w_ls.calls", "count"},
      {"solver.H4w_ls.p50_ms", "ms"},
      {"solver.H4w_ls.p90_ms", "ms"},
      {"extensions.ls.moves", "count"},
      {"serve.hit_p50_ms", "ms"},
      {"serve.hit_p99_ms", "ms"},
      {"serve.miss_p50_ms", "ms"},
      {"serve.miss_p99_ms", "ms"},
      {"serve.protocol.encode_us", "us"},
      {"serve.protocol.decode_us", "us"},
      {"core.digest_us", "us"},
      {"serve.daemon_p50_ms", "ms"},
      {"serve.daemon_p99_ms", "ms"},
      {"serve.loop_wakeups_per_req", "count"},
      {"serve.solved", "count"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.rejected", "count"},
      {"trace.overhead_s", "s"},
  });
  return names;
}

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload fig09-heuristics|fig12-exact|serve-mixed "
               "--seed N --seconds S --trace 0|1 [--commit REV] [--out-dir DIR]\n",
               message);
  std::exit(2);
}

perfbench::RunOptions parse(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = value == "1";
      } else if (flag == "--commit") {
        options.commit = value;
      } else if (flag == "--out-dir") {
        options.out_dir = value;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::HostTicks start_ticks = perfbench::host_ticks();
  const perfbench::RunOptions options = parse(argc, argv);
  const bool campaign = perfbench::is_campaign(options.workload);
  if (!campaign && options.workload != "serve-mixed") usage("unknown workload");

  perfbench::SpanRecorder recorder;
  perfbench::WorkloadResult result;
  try {
    result = campaign ? perfbench::run_campaign(options, recorder)
                      : perfbench::run_serve_mixed(options, recorder);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s run failed: %s\n", options.workload.c_str(), error.what());
    return 2;
  }

  // Every metric of the run's kind, in a fixed order; bypassed layers read 0.
  MetricSet metrics;
  if (options.trace) {
    for (const auto& [name, unit] : per_layer_metrics()) {
      metrics.set(name, result.metrics.get(name).value_or(0.0), unit);
    }
  } else {
    for (const auto& [name, unit] : kEndToEnd) {
      metrics.set(name, result.metrics.get(name).value_or(0.0), unit);
    }
    metrics.set("ok_ratio",
                result.attempted == 0
                    ? 0.0
                    : static_cast<double>(result.attempted - result.failed) /
                          static_cast<double>(result.attempted),
                "ratio");
  }

  const perfbench::Provenance provenance = perfbench::make_provenance(
      options, perfbench::pool_width(), campaign ? 0 : perfbench::ServeShape{}.connections,
      start_ticks);
  std::string metrics_json;
  for (const Metric& metric : metrics.all()) {
    std::printf("%-32s %16.6f %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
    if (!metrics_json.empty()) metrics_json += ", ";
    metrics_json += perfbench::json_string(metric.name) +
                    ": {\"value\": " + perfbench::json_number(metric.value) +
                    ", \"unit\": " + perfbench::json_string(metric.unit) + "}";
  }
  const std::string summary =
      std::string("{\"correct\": ") + (result.correct() ? "true" : "false") +
      ", \"attempted\": " + std::to_string(result.attempted) +
      ", \"failed\": " + std::to_string(result.failed) + ", \"metrics\": {" + metrics_json + "}}";

  // The result and the spans also go to files, stamped with provenance.
  const std::string stem = options.out_dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed) + (options.trace ? "-trace" : "");
  try {
    std::filesystem::create_directories(options.out_dir);
    std::ofstream(stem + ".json") << "{\"provenance\": " << provenance.to_json()
                                  << ", \"result\": " << summary << "}\n";
    if (options.trace) recorder.write_jsonl(stem + ".spans.jsonl", provenance.to_json());
  } catch (const std::exception& error) {
    std::fprintf(stderr, "warning: could not write results: %s\n", error.what());
  }

  std::printf("provenance %s\n", provenance.to_json().c_str());
  std::printf("%s\n", summary.c_str());
  return result.correct() ? 0 : 1;
}
