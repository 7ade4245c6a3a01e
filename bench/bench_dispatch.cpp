// Dispatch micro-bench: wall-clock of an unsharded figure run vs. the same
// campaign dispatched over 2 and 4 worker processes, cold and warm, all
// sharing one persistent --cache-dir — the scaling datapoint for the
// dispatcher layer, emitted as BENCH_dispatch.json for the CI perf
// trajectory.
//
// Every configuration runs real `mfsched` child processes (the unsharded
// baseline too, so process startup is priced into both sides). Cold runs
// start from an empty shared cache directory; warm runs repeat with the
// directory the cold run populated, so workers answer from the crash-safe
// on-disk store instead of re-solving.
//
//   bench_dispatch [--figure fig06] [--scale K] [--mfsched ./mfsched]
//                  [--dir bench_dispatch_dir] [--out BENCH_dispatch.json]
//
// Like bench_cache, one timed campaign per (fan-out, temperature) is the
// measurement: a cold campaign cannot be repeated without resetting the
// store under test.
#include <sys/wait.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "exp/dispatch.hpp"
#include "exp/figures.hpp"
#include "support/cli.hpp"

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Runs one child to completion through the dispatcher's local launcher;
/// returns its wall time or a negative value on a nonzero exit.
double run_child_ms(const std::vector<std::string>& argv, const std::string& log_path) {
  mf::exp::LocalLauncher launcher;
  const auto start = Clock::now();
  const pid_t pid = launcher.launch(argv, log_path);
  if (pid < 0) return -1.0;
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return -1.0;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return -1.0;
  return ms_since(start);
}

}  // namespace

int main(int argc, char** argv) {
  const mf::support::CliArgs args(argc, argv);
  const std::string figure = args.get("figure", "fig06");
  const auto scale =
      static_cast<std::size_t>(std::max<std::int64_t>(1, args.get_int("scale", 1)));
  const std::string mfsched = args.get("mfsched", "./mfsched");
  const fs::path scratch = args.get("dir", "bench_dispatch_dir");
  const std::string out_path = args.get("out", "BENCH_dispatch.json");

  if (!mf::exp::figure_spec_by_name(figure).has_value()) {
    std::fprintf(stderr, "error: unknown figure '%s' (%s)\n", figure.c_str(),
                 mf::exp::figure_spec_names().c_str());
    return 2;
  }
  if (!fs::exists(mfsched)) {
    std::fprintf(stderr,
                 "error: worker binary '%s' not found (point --mfsched at the mfsched "
                 "build product)\n",
                 mfsched.c_str());
    return 2;
  }

  fs::remove_all(scratch);
  fs::create_directories(scratch);
  const std::string cache_dir = (scratch / "shared-cache").string();
  const std::vector<std::string> base{mfsched,   "--figure",    figure,
                                      "--scale", std::to_string(scale), "--cache-dir",
                                      cache_dir};

  // --- unsharded baseline: one worker process, cold then warm -------------
  std::vector<std::string> unsharded = base;
  unsharded.insert(unsharded.end(), {"--out", (scratch / "unsharded.txt").string()});
  const double unsharded_cold_ms =
      run_child_ms(unsharded, (scratch / "unsharded.cold.log").string());
  const double unsharded_warm_ms =
      run_child_ms(unsharded, (scratch / "unsharded.warm.log").string());
  if (unsharded_cold_ms < 0.0 || unsharded_warm_ms < 0.0) {
    std::fprintf(stderr, "error: unsharded baseline run failed (see %s)\n",
                 (scratch / "unsharded.cold.log").string().c_str());
    return 1;
  }

  // --- dispatched campaigns over the same shared cache directory ----------
  struct Sample {
    std::size_t fan_out = 0;
    double cold_ms = 0.0;
    double warm_ms = 0.0;
  };
  std::vector<Sample> samples;
  for (const std::size_t fan_out : {std::size_t{2}, std::size_t{4}}) {
    // A fresh cache isolates each fan-out's cold measurement; the warm rerun
    // reuses what its own cold campaign stored.
    fs::remove_all(cache_dir);
    mf::exp::Dispatcher dispatcher(
        figure, [&](std::size_t index, const std::string& out) {
          std::vector<std::string> worker = base;
          worker.insert(worker.end(),
                        {"--shard",
                         std::to_string(index) + "/" + std::to_string(fan_out), "--out",
                         out});
          return worker;
        });
    Sample sample;
    sample.fan_out = fan_out;
    for (double* slot : {&sample.cold_ms, &sample.warm_ms}) {
      mf::exp::DispatchOptions options;
      options.shard_count = fan_out;
      options.work_dir = scratch / ("dispatch" + std::to_string(fan_out));
      const auto start = Clock::now();
      const mf::exp::DispatchReport report = dispatcher.run(options);
      *slot = ms_since(start);
      if (!report.ok) {
        std::fprintf(stderr, "error: dispatch %zu failed: %s\n", fan_out,
                     report.error.c_str());
        return 1;
      }
    }
    samples.push_back(sample);
  }
  fs::remove_all(scratch);

  char json[1024];
  std::snprintf(json, sizeof json,
                "{\n"
                "  \"bench\": \"dispatch\",\n"
                "  \"figure\": \"%s\",\n"
                "  \"scale\": %zu,\n"
                "  \"unsharded_cold_ms\": %.3f,\n"
                "  \"unsharded_warm_ms\": %.3f,\n"
                "  \"dispatch2_cold_ms\": %.3f,\n"
                "  \"dispatch2_warm_ms\": %.3f,\n"
                "  \"dispatch4_cold_ms\": %.3f,\n"
                "  \"dispatch4_warm_ms\": %.3f,\n"
                "  \"dispatch2_cold_speedup\": %.2f,\n"
                "  \"dispatch4_cold_speedup\": %.2f\n"
                "}\n",
                figure.c_str(), scale, unsharded_cold_ms, unsharded_warm_ms,
                samples[0].cold_ms, samples[0].warm_ms, samples[1].cold_ms,
                samples[1].warm_ms,
                samples[0].cold_ms > 0.0 ? unsharded_cold_ms / samples[0].cold_ms : 0.0,
                samples[1].cold_ms > 0.0 ? unsharded_cold_ms / samples[1].cold_ms : 0.0);

  std::ofstream out(out_path);
  if (!out.good()) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << json;
  std::printf("%s", json);
  std::printf("written to %s\n", out_path.c_str());
  return 0;
}
