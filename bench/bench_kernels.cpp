// Kernel micro-benchmarks for the data-oriented evaluation layer
// (core/eval_kernels.hpp), CI-gated against a checked-in baseline.
//
// Measures, per (n, m) grid point, the median ns/op of:
//   * relocate/swap move probes, three ways: the legacy path (copy the
//     assignment, construct a Mapping, recompute every x with a
//     survival_inverse division and checked matrix indexing — exactly
//     what the local search paid per candidate move before the kernel
//     layer landed), the current full re-evaluation (core::period, which
//     now reads the Platform's cached attempts table), and the
//     IncrementalEvaluator probes that replaced both;
//   * the dense core scans max_expected_products / period_upper_bound;
//   * the exact B&B's cost per node and the H2/H3 and oto cost per solve
//     (notes, not gated).
//
// A global operator-new hook counts heap allocations inside each timed
// region; the incremental probes and the SIMD kernels must allocate
// nothing per op, the B&B nothing per node (on each of three instances,
// two solves that exhaust budgets 10x apart allocate the same count), H2
// and H3 nothing per bisection probe (a solve allocates the same count
// when every w is scaled x1024 and the search takes more probes), oto
// nothing per augmentation (a matrix whose answer is its row-min bound and
// one that takes 99 augmenting paths allocate the same count), local
// search nothing per pass (refining to convergence allocates what one
// pass does), and the harness exits non-zero if they do — that is the
// zero-allocation guarantee CI enforces, independent of timer noise.
//
// The SIMD kernel groups time every compiled-and-runnable ISA variant of
// the dispatched kernels (core/simd.hpp) against the scalar table in the
// same interleaved group and verify each variant's output is
// bit-identical to scalar on the bench inputs (a hard gate); their
// speedups are printed, not gated.
//
//   bench_kernels [--out BENCH_kernels.json] [--reps 15] [--probes 256]
//                 [--check BASELINE.json] [--tolerance 0.25] [--print-isa]
//
// With --check, the PAIRED speedup ratios (probe vs frozen reference code
// measured back to back in one process) are compared against the
// committed baseline's; a ratio more than --tolerance below fails. Ratios
// gate because they are immune to host-state drift — a slow runner slows
// both sides — while absolute medians swing far past any usable tolerance
// on shared hardware; the calibration-normalized medians are reported as
// non-gating notes. The harness also hard-fails when the relocate probe
// at (n=100, m=20) is not at least 3.5x faster than the legacy
// per-candidate path — the headline claim this layer exists to deliver
// (the floor sits below the cross-host-state noise band; the paired
// baseline comparison is the tight gate).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/eval_kernels.hpp"
#include "core/evaluation.hpp"
#include "core/failure.hpp"
#include "core/simd.hpp"
#include "exact/bottleneck_assignment.hpp"
#include "exact/specialized_bnb.hpp"
#include "exp/scenario.hpp"
#include "extensions/local_search.hpp"
#include "heuristics/binary_search.hpp"
#include "heuristics/h4_family.hpp"
#include "support/check.hpp"
#include "support/cli.hpp"
#include "support/matrix.hpp"
#include "support/rng.hpp"

// --- Allocation counting ----------------------------------------------------
// Replacing the global allocation functions lets the harness observe every
// heap allocation the measured kernels make. The counter is a plain atomic
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
// std::stable_sort takes its temporary buffer through the nothrow forms.
// libstdc++'s own forward to operator new above, but a sanitizer runtime
// defines its own, whose blocks the free() below must not release.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace {

using mf::core::MachineIndex;
using mf::core::TaskIndex;

double now_ns() {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Fixed workload timed on this host; --check normalizes medians by it so
/// the regression gate compares machine-independent ratios. The workload
/// is a serial floating-point multiply chain — the same bottleneck as the
/// kernels' backward x recurrence — so host states that stretch FP
/// latency (frequency scaling, SMT-sibling contention) stretch the
/// calibration by the same factor and cancel out of the normalized
/// ratio. An integer-ALU workload here was observed to drift only ~5%
/// across states that moved the probe kernels by >40%.
double calibration_ns() {
  double best = 1e30;
  for (int rep = 0; rep < 5; ++rep) {
    double x = 1.0;
    const double start = now_ns();
    for (int i = 0; i < 1'000'000; ++i) {
      x *= 1.0000000001;  // serial: each multiply depends on the last
      if (x > 2.0) x *= 0.5;
    }
    const double elapsed = now_ns() - start;
    if (x != 0.0 && elapsed < best) best = elapsed;  // keep the loop alive
  }
  return best;
}

struct KernelResult {
  std::string name;
  std::size_t n = 0;
  std::size_t m = 0;
  double median_ns = 0.0;
  double allocs_per_op = 0.0;
};

/// Sink that keeps the optimizer from discarding kernel results.
volatile double g_sink = 0.0;

/// One kernel under measurement: a name plus a type-erased body invoked
/// per op. The std::function indirection costs a couple of ns per op, but
/// it is paid identically by every kernel in a group, so ratios between
/// them are undistorted.
struct Kernel {
  std::string name;
  std::function<double(std::size_t)> body;
};

/// Result of timing a group: median ns/op per kernel plus the raw per-rep
/// samples (kernel-major), which the speedup gate pairs rep by rep.
struct GroupResult {
  std::vector<KernelResult> results;
  std::vector<std::vector<double>> samples;
};

/// Times a GROUP of kernels with interleaved batches: each repetition runs
/// one `ops`-sized batch of every kernel back to back before the next
/// repetition starts. Machine-state drift (frequency scaling, host steal
/// on shared tenancy, background load) therefore hits all kernels of a
/// repetition alike, which is what makes per-rep ratios between them
/// trustworthy; measuring each kernel's repetitions in one sequential
/// block — cool machine for the first kernel, hot for the last — was
/// observed to bias the relocate speedup on this grid by >30%.
GroupResult measure_group(std::size_t n, std::size_t m, std::size_t reps, std::size_t ops,
                          const std::vector<Kernel>& group) {
  GroupResult out;
  out.samples.resize(group.size());
  for (const Kernel& kernel : group) {
    out.results.push_back(KernelResult{kernel.name, n, m, 0.0, 0.0});
  }
  // Warm-up pass: touches every cache line each kernel will use.
  double warm = 0.0;
  for (std::size_t k = 0; k < group.size(); ++k) {
    for (std::size_t op = 0; op < ops; ++op) warm += group[k].body(op);
  }
  g_sink = warm;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (std::size_t k = 0; k < group.size(); ++k) {
      double acc = 0.0;
      const std::uint64_t allocs_before = g_alloc_count.load(std::memory_order_relaxed);
      const double start = now_ns();
      for (std::size_t op = 0; op < ops; ++op) acc += group[k].body(op);
      const double elapsed = now_ns() - start;
      const std::uint64_t allocs =
          g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
      g_sink = acc;
      out.samples[k].push_back(elapsed / static_cast<double>(ops));
      out.results[k].allocs_per_op = static_cast<double>(allocs) / static_cast<double>(ops);
    }
  }
  for (std::size_t k = 0; k < group.size(); ++k) {
    std::vector<double> sorted = out.samples[k];
    std::sort(sorted.begin(), sorted.end());
    out.results[k].median_ns = sorted[sorted.size() / 2];
  }
  return out;
}

/// Median over repetitions of the PAIRED per-rep ratio samples[a][rep] /
/// samples[b][rep]. Because both batches of a rep run back to back, a slow
/// machine epoch inflates numerator and denominator together and mostly
/// cancels — far more robust on shared-tenancy hosts than a ratio of
/// independent medians.
double paired_ratio(const GroupResult& group, std::size_t a, std::size_t b) {
  std::vector<double> ratios;
  for (std::size_t rep = 0; rep < group.samples[a].size(); ++rep) {
    ratios.push_back(group.samples[a][rep] / group.samples[b][rep]);
  }
  std::sort(ratios.begin(), ratios.end());
  return ratios[ratios.size() / 2];
}

/// Pre-kernel Platform::attempts_per_success, reproduced with its original
/// cost structure: the definition lived in platform.cpp, so (without LTO)
/// every task of every candidate evaluation paid a genuine out-of-line
/// call around the checked lookup and the survival_inverse division.
/// noinline keeps that call boundary; letting the optimizer inline the
/// division here would flatter the baseline.
[[gnu::noinline]] double legacy_attempts_per_success(const mf::core::Platform& platform,
                                                     TaskIndex i, MachineIndex u) {
  return mf::core::survival_inverse(platform.failure(i, u));
}

/// The exact evaluation path local search paid per candidate before the
/// kernel layer landed, reproduced verbatim so the headline speedup keeps
/// measuring this PR's real before/after: a completeness check and two
/// fresh vectors per call, checked Matrix::at indexing, and an
/// out-of-line survival_inverse division for every task (the Platform now
/// caches that table, which is why today's core::period —
/// `*_probe_full` below — no longer pays it).
double legacy_period(const mf::core::Problem& problem,
                     std::vector<MachineIndex> candidate) {
  const mf::core::Mapping mapping{std::move(candidate)};
  const mf::core::Application& app = problem.app;
  MF_REQUIRE(mapping.task_count() == app.task_count(), "mapping size mismatch");
  MF_REQUIRE(mapping.is_complete(problem.machine_count()), "mapping must be complete");
  std::vector<double> x(app.task_count(), 0.0);
  for (TaskIndex i : app.backward_order()) {
    const TaskIndex succ = app.successor(i);
    const double downstream = succ == mf::core::kNoTask ? 1.0 : x[succ];
    x[i] = downstream * legacy_attempts_per_success(problem.platform, i, mapping.machine_of(i));
  }
  std::vector<double> periods(problem.machine_count(), 0.0);
  for (TaskIndex i = 0; i < problem.task_count(); ++i) {
    const MachineIndex u = mapping.machine_of(i);
    periods[u] += x[i] * problem.platform.time(i, u);
  }
  return *std::max_element(periods.begin(), periods.end());
}

double legacy_probe_relocate(const mf::core::Problem& problem,
                             const std::vector<MachineIndex>& assignment, TaskIndex i,
                             MachineIndex v) {
  std::vector<MachineIndex> candidate = assignment;
  candidate[i] = v;
  return legacy_period(problem, std::move(candidate));
}

double legacy_probe_swap(const mf::core::Problem& problem,
                         const std::vector<MachineIndex>& assignment, TaskIndex i,
                         TaskIndex j) {
  std::vector<MachineIndex> candidate = assignment;
  std::swap(candidate[i], candidate[j]);
  return legacy_period(problem, std::move(candidate));
}

/// Copy, mutate, construct a Mapping, re-evaluate with today's
/// core::period (cached attempts table, but still allocating).
double full_probe_relocate(const mf::core::Problem& problem,
                           const std::vector<MachineIndex>& assignment, TaskIndex i,
                           MachineIndex v) {
  std::vector<MachineIndex> candidate = assignment;
  candidate[i] = v;
  return mf::core::period(problem, mf::core::Mapping{std::move(candidate)});
}

double full_probe_swap(const mf::core::Problem& problem,
                       const std::vector<MachineIndex>& assignment, TaskIndex i,
                       TaskIndex j) {
  std::vector<MachineIndex> candidate = assignment;
  std::swap(candidate[i], candidate[j]);
  return mf::core::period(problem, mf::core::Mapping{std::move(candidate)});
}

struct GridPoint {
  std::size_t n;
  std::size_t m;
};

/// Host CPU model string for the JSON record, so per-ISA numbers archived
/// from different runners stay attributable.
std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t first = line.find_first_not_of(" \t", colon + 1);
        if (first != std::string::npos) return line.substr(first);
      }
    }
  }
  return "unknown";
}

/// Paired speedup of one SIMD variant over the scalar table on one kernel
/// workload.
struct SimdSpeedup {
  std::string kernel;
  std::string isa;
  std::size_t n = 0;
  std::size_t m = 0;
  double speedup = -1.0;
};

/// Paired-ratio speedups for one grid point (best measurement pass).
struct SpeedupSummary {
  std::size_t n = 0;
  std::size_t m = 0;
  double relocate_speedup = -1.0;  // legacy probe / incremental
  double relocate_vs_full = -1.0;  // current full re-eval / incremental
  double swap_speedup = -1.0;
  double swap_vs_full = -1.0;
};

void write_json(const std::string& path, double calib,
                const std::vector<KernelResult>& kernels,
                const std::vector<SpeedupSummary>& speedups,
                const std::vector<SimdSpeedup>& simd_speedups) {
  std::ofstream out(path);
  out << "{\n";
  out << "  \"bench\": \"kernels\",\n";
  out << "  \"isa\": \"" << mf::core::simd::isa_name(mf::core::simd::active().isa)
      << "\",\n";
  out << "  \"cpu\": \"" << cpu_model() << "\",\n";
  char buffer[256];
  std::snprintf(buffer, sizeof buffer, "  \"calibration_ns\": %.3f,\n", calib);
  out << buffer;
  out << "  \"simd_speedups\": [\n";
  for (std::size_t k = 0; k < simd_speedups.size(); ++k) {
    const SimdSpeedup& s = simd_speedups[k];
    std::snprintf(buffer, sizeof buffer,
                  "    { \"kernel\": \"%s\", \"isa\": \"%s\", \"n\": %zu, \"m\": %zu, "
                  "\"speedup\": %.2f }%s\n",
                  s.kernel.c_str(), s.isa.c_str(), s.n, s.m, s.speedup,
                  k + 1 < simd_speedups.size() ? "," : "");
    out << buffer;
  }
  out << "  ],\n";
  out << "  \"kernels\": [\n";
  for (std::size_t k = 0; k < kernels.size(); ++k) {
    const KernelResult& r = kernels[k];
    std::snprintf(buffer, sizeof buffer,
                  "    { \"name\": \"%s\", \"n\": %zu, \"m\": %zu, "
                  "\"median_ns\": %.3f, \"allocs_per_op\": %.4f }%s\n",
                  r.name.c_str(), r.n, r.m, r.median_ns, r.allocs_per_op,
                  k + 1 < kernels.size() ? "," : "");
    out << buffer;
  }
  out << "  ],\n";
  out << "  \"speedups\": [\n";
  for (std::size_t k = 0; k < speedups.size(); ++k) {
    const SpeedupSummary& s = speedups[k];
    std::snprintf(buffer, sizeof buffer,
                  "    { \"n\": %zu, \"m\": %zu, \"relocate_vs_legacy\": %.2f, "
                  "\"relocate_vs_full\": %.2f, \"swap_vs_legacy\": %.2f, "
                  "\"swap_vs_full\": %.2f }%s\n",
                  s.n, s.m, s.relocate_speedup, s.relocate_vs_full, s.swap_speedup,
                  s.swap_vs_full, k + 1 < speedups.size() ? "," : "");
    out << buffer;
  }
  out << "  ]\n}\n";
}

/// Minimal reader for the exact format write_json produces (one kernel
/// object per line); good enough for the CI gate, no JSON library needed.
struct Baseline {
  double calibration = 0.0;
  std::vector<KernelResult> kernels;
  std::vector<SpeedupSummary> speedups;
  bool ok = false;
};

Baseline read_baseline(const std::string& path) {
  Baseline baseline;
  std::ifstream in(path);
  if (!in) return baseline;
  std::string line;
  while (std::getline(in, line)) {
    double value = 0.0;
    if (std::sscanf(line.c_str(), " \"calibration_ns\": %lf", &value) == 1) {
      baseline.calibration = value;
      continue;
    }
    char name[128];
    KernelResult r;
    if (std::sscanf(line.c_str(),
                    " { \"name\": \"%127[^\"]\", \"n\": %zu, \"m\": %zu, "
                    "\"median_ns\": %lf, \"allocs_per_op\": %lf",
                    name, &r.n, &r.m, &r.median_ns, &r.allocs_per_op) == 5) {
      r.name = name;
      baseline.kernels.push_back(std::move(r));
      continue;
    }
    SpeedupSummary s;
    if (std::sscanf(line.c_str(),
                    " { \"n\": %zu, \"m\": %zu, \"relocate_vs_legacy\": %lf, "
                    "\"relocate_vs_full\": %lf, \"swap_vs_legacy\": %lf, "
                    "\"swap_vs_full\": %lf",
                    &s.n, &s.m, &s.relocate_speedup, &s.relocate_vs_full,
                    &s.swap_speedup, &s.swap_vs_full) == 6) {
      baseline.speedups.push_back(s);
    }
  }
  baseline.ok = baseline.calibration > 0.0 && !baseline.kernels.empty() &&
                !baseline.speedups.empty();
  return baseline;
}

const KernelResult* find_kernel(const std::vector<KernelResult>& kernels,
                                const std::string& name, std::size_t n,
                                std::size_t m) {
  for (const KernelResult& r : kernels) {
    if (r.name == name && r.n == n && r.m == m) return &r;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  for (int a = 1; a < argc; ++a) {
    if (std::string_view(argv[a]) == "--help" || std::string_view(argv[a]) == "-h") {
      std::printf(
          "usage: bench_kernels [--out BENCH_kernels.json] [--reps 15] [--probes 256]\n"
          "                     [--check BASELINE.json] [--tolerance 0.25] [--print-isa]\n"
          "\n"
          "Times the evaluation kernels on a fixed problem grid and fails if a\n"
          "zero-allocation kernel allocates, if the exact B&B allocates per node,\n"
          "if H2 or H3 allocates per bisection probe, if oto allocates per\n"
          "augmentation, if local search allocates per pass,\n"
          "if the (n=100, m=20) relocate probe is below 3.5x over the pre-kernel\n"
          "evaluation path, if any SIMD kernel variant is not bit-identical to\n"
          "the scalar table,\n"
          "or (with --check) if any paired speedup ratio fell more than\n"
          "--tolerance below the committed baseline's (absolute medians are\n"
          "reported, not gated: paired ratios are immune to host-state drift,\n"
          "medians are not).\n"
          "\n"
          "--print-isa prints the runtime-dispatched SIMD ISA and exits; CI uses\n"
          "it to tag the uploaded BENCH_kernels.json artifact per runner ISA.\n");
      return 0;
    }
    if (std::string_view(argv[a]) == "--print-isa") {
      std::printf("%s\n", mf::core::simd::isa_name(mf::core::simd::active().isa));
      return 0;
    }
  }
  const mf::support::CliArgs args(argc, argv);
  const std::string out_path = args.get("out", "BENCH_kernels.json");
  const auto reps = static_cast<std::size_t>(std::max<std::int64_t>(3, args.get_int("reps", 15)));
  const auto probes =
      static_cast<std::size_t>(std::max<std::int64_t>(16, args.get_int("probes", 256)));
  const std::string check_path = args.get("check", "");
  const double tolerance = std::max(0.0, args.get_double("tolerance", 0.25));

  const GridPoint grid[] = {{20, 5}, {50, 10}, {100, 20}, {200, 40}};
  constexpr std::size_t kPasses = 3;
  const double calib = calibration_ns();
  std::vector<KernelResult> kernels;
  std::vector<SpeedupSummary> speedups;

  std::printf("kernel microbenchmarks (reps=%zu, probes/op-batch=%zu, calibration %.0f ns)\n",
              reps, probes, calib);
  std::printf("| kernel                      |    n |   m | median ns/op | allocs/op |\n");
  std::printf("|-----------------------------|------|-----|--------------|-----------|\n");

  for (const GridPoint& point : grid) {
    mf::exp::Scenario scenario;
    scenario.tasks = point.n;
    scenario.machines = point.m;
    scenario.types = std::max<std::size_t>(2, point.m / 5);
    const mf::core::Problem problem = mf::exp::generate(scenario, 42);

    mf::support::Rng rng(7 * point.n + point.m);
    std::vector<MachineIndex> assignment(point.n);
    for (TaskIndex i = 0; i < point.n; ++i) {
      assignment[i] = rng.uniform_u64(0, point.m - 1);
    }

    // Pre-generated move lists: the measured loops index them, allocating
    // nothing of their own.
    std::vector<TaskIndex> move_task(probes), swap_a(probes), swap_b(probes);
    std::vector<MachineIndex> move_machine(probes);
    for (std::size_t k = 0; k < probes; ++k) {
      move_task[k] = rng.uniform_u64(0, point.n - 1);
      move_machine[k] = rng.uniform_u64(0, point.m - 1);
      swap_a[k] = rng.uniform_u64(0, point.n - 1);
      swap_b[k] = rng.uniform_u64(0, point.n - 1);
      if (swap_b[k] == swap_a[k]) swap_b[k] = (swap_b[k] + 1) % point.n;  // probes need i != j
    }

    mf::core::EvalWorkspace workspace(problem);
    mf::core::IncrementalEvaluator eval(workspace, assignment);

    auto record = [&](const std::vector<KernelResult>& results) {
      for (const KernelResult& r : results) {
        std::printf("| %-27s | %4zu | %3zu | %12.1f | %9.2f |\n", r.name.c_str(), r.n,
                    r.m, r.median_ns, r.allocs_per_op);
        kernels.push_back(r);
      }
    };

    // One interleaved group per comparison: the speedups quoted below are
    // paired ratios WITHIN a group, so its kernels share machine
    // conditions rep by rep. The probe trios run `kPasses` times and keep
    // the pass with the best paired ratio — interference can only deflate
    // a paired ratio (it never makes a kernel run faster than it is), so
    // the best pass is the cleanest observation of the true speedup.
    auto measure_probe_trio = [&](const std::vector<Kernel>& trio, double* speedup,
                                  double* vs_full) {
      GroupResult best;
      for (std::size_t pass = 0; pass < kPasses; ++pass) {
        GroupResult g = measure_group(point.n, point.m, reps, probes, trio);
        const double ratio = paired_ratio(g, 0, 2);
        if (ratio > *speedup) {
          *speedup = ratio;
          *vs_full = paired_ratio(g, 1, 2);
          best = std::move(g);
        }
      }
      record(best.results);
    };

    SpeedupSummary summary{point.n, point.m, -1.0, -1.0, -1.0, -1.0};
    measure_probe_trio(
        {{"relocate_probe_legacy",
          [&](std::size_t k) {
            return legacy_probe_relocate(problem, assignment, move_task[k],
                                         move_machine[k]);
          }},
         {"relocate_probe_full",
          [&](std::size_t k) {
            return full_probe_relocate(problem, assignment, move_task[k], move_machine[k]);
          }},
         {"relocate_probe_incremental",
          [&](std::size_t k) {
            return eval.period_if_relocated(move_task[k], move_machine[k]);
          }}},
        &summary.relocate_speedup, &summary.relocate_vs_full);
    measure_probe_trio(
        {{"swap_probe_legacy",
          [&](std::size_t k) {
            return legacy_probe_swap(problem, assignment, swap_a[k], swap_b[k]);
          }},
         {"swap_probe_full",
          [&](std::size_t k) {
            return full_probe_swap(problem, assignment, swap_a[k], swap_b[k]);
          }},
         {"swap_probe_incremental",
          [&](std::size_t k) { return eval.period_if_swapped(swap_a[k], swap_b[k]); }}},
        &summary.swap_speedup, &summary.swap_vs_full);
    speedups.push_back(summary);

    record(measure_group(point.n, point.m, reps, 64,
                         {{"max_expected_products",
                           [&](std::size_t) {
                             return mf::core::max_expected_products(problem).back();
                           }},
                          {"period_upper_bound",
                           [&](std::size_t) {
                             return mf::core::period_upper_bound(problem);
                           }}})
               .results);
  }

  // --- SIMD kernel variant groups ------------------------------------------
  // Every compiled-and-runnable ISA variant of each dispatched kernel runs
  // against the scalar table inside one interleaved group, after a hard
  // bit-equality check of its outputs on the same inputs. Speedups are
  // paired per-rep ratios vs the scalar kernel.
  const std::span<const mf::core::simd::KernelTable* const> isa_tables =
      mf::core::simd::available();
  std::vector<SimdSpeedup> simd_speedups;
  int simd_equality_failures = 0;

  std::printf("\nSIMD kernel variants (dispatch default: %s)\n",
              mf::core::simd::isa_name(mf::core::simd::active().isa));

  auto record_simd = [&](const char* kernel_name, std::size_t n, std::size_t m,
                         const GroupResult& group) {
    for (std::size_t k = 0; k < group.results.size(); ++k) {
      const KernelResult& r = group.results[k];
      std::printf("| %-27s | %4zu | %3zu | %12.1f | %9.2f |\n", r.name.c_str(), r.n,
                  r.m, r.median_ns, r.allocs_per_op);
      kernels.push_back(r);
      if (k > 0) {
        simd_speedups.push_back(SimdSpeedup{
            kernel_name, mf::core::simd::isa_name(isa_tables[k]->isa), n, m,
            paired_ratio(group, 0, k)});
      }
    }
  };

  {
    // Dense row reduction and threshold mask at a row length that gives
    // every ISA full groups.
    const std::size_t count = 1024;
    mf::support::Rng rng(7777);
    std::vector<double> values(count);
    for (double& x : values) x = rng.uniform(0.0, 100.0);
    const double ref_max = isa_tables.front()->row_max(values.data(), count);
    std::vector<std::uint64_t> ref_words((count + 63) / 64, 0);
    const double threshold = 50.0;
    isa_tables.front()->leq_mask(values.data(), threshold, count, ref_words.data());
    std::vector<std::uint64_t> words(ref_words.size(), 0);
    for (const mf::core::simd::KernelTable* table : isa_tables) {
      const double got = table->row_max(values.data(), count);
      if (std::memcmp(&got, &ref_max, sizeof(double)) != 0) {
        std::fprintf(stderr, "FAIL: row_max %s differs from scalar bit-wise\n",
                     mf::core::simd::isa_name(table->isa));
        ++simd_equality_failures;
      }
      table->leq_mask(values.data(), threshold, count, words.data());
      if (std::memcmp(words.data(), ref_words.data(),
                      words.size() * sizeof(std::uint64_t)) != 0) {
        std::fprintf(stderr, "FAIL: leq_mask %s differs from scalar\n",
                     mf::core::simd::isa_name(table->isa));
        ++simd_equality_failures;
      }
    }
    std::vector<Kernel> max_group, mask_group;
    for (const mf::core::simd::KernelTable* table : isa_tables) {
      max_group.push_back(Kernel{
          std::string("row_max_") + mf::core::simd::isa_name(table->isa),
          [table, &values, count](std::size_t) {
            return table->row_max(values.data(), count);
          }});
      mask_group.push_back(Kernel{
          std::string("leq_mask_") + mf::core::simd::isa_name(table->isa),
          [table, &values, &words, threshold, count](std::size_t) {
            table->leq_mask(values.data(), threshold, count, words.data());
            return static_cast<double>(words[0]);
          }});
    }
    record_simd("row_max", count, 1, measure_group(count, 1, reps, 256, max_group));
    record_simd("leq_mask", count, 1, measure_group(count, 1, reps, 256, mask_group));
  }

  // --- Exact B&B: zero allocations per node --------------------------------
  // Three instances that run out of both budgets, so each one's second
  // solve visits ten times the nodes of its first: a Figure 12 shape chain
  // (the chain screen's path), an in-tree of that shape (the bound's
  // scratch loop) and an m=70 chain (two words per machine mask).
  // Per-solve set-up (the Searcher's arrays, the H2/H4w warm start)
  // allocates; the nodes must not, so both solves of an instance must
  // allocate the same count.
  struct BnBRun {
    const char* instance = "";
    std::uint64_t budget = 0;
    std::uint64_t nodes = 0;
    std::uint64_t allocs = 0;
    bool proven = false;
    double ns_per_node = 0.0;
  };
  std::vector<BnBRun> bnb_runs;  // pairs: budget 200k, then 2M
  {
    mf::exp::Scenario fig12;
    fig12.tasks = 20;
    fig12.machines = 9;
    fig12.types = 4;
    mf::exp::Scenario wide = fig12;
    wide.machines = 70;
    struct BnBInstance {
      const char* label;
      mf::core::Problem problem;
    };
    const std::vector<BnBInstance> instances{
        {"chain n=20 m=9 seed 20003", mf::exp::generate(fig12, 20003)},
        {"in-tree n=20 m=9 seed 20004", mf::exp::generate_in_tree(fig12, 0.4, 20004)},
        {"chain n=20 m=70 seed 20003", mf::exp::generate(wide, 20003)}};
    auto solve = [](const BnBInstance& instance, std::uint64_t budget) {
      mf::exact::BnBOptions options;
      options.max_nodes = budget;
      const std::uint64_t allocs_before = g_alloc_count.load(std::memory_order_relaxed);
      const double start = now_ns();
      const mf::exact::BnBResult result =
          mf::exact::solve_specialized_optimal(instance.problem, options);
      const double elapsed = now_ns() - start;
      return BnBRun{instance.label, budget, result.nodes,
                    g_alloc_count.load(std::memory_order_relaxed) - allocs_before,
                    result.proven_optimal, elapsed / static_cast<double>(result.nodes)};
    };
    // Warm-up: the first solve in a process also pays one-time set-up.
    (void)solve(instances.front(), 1'000);
    for (const BnBInstance& instance : instances) {
      bnb_runs.push_back(solve(instance, 200'000));
      bnb_runs.push_back(solve(instance, 2'000'000));
    }
    std::printf("\nexact B&B (p=4; ns/node is a note, allocs gate)\n");
    std::printf("| instance                    | budget  |   nodes | proven | allocs | ns/node |\n");
    std::printf("|-----------------------------|---------|---------|--------|--------|---------|\n");
    for (const BnBRun& run : bnb_runs) {
      std::printf("| %-27s | %7llu | %7llu | %6s | %6llu | %7.1f |\n", run.instance,
                  static_cast<unsigned long long>(run.budget),
                  static_cast<unsigned long long>(run.nodes), run.proven ? "yes" : "no",
                  static_cast<unsigned long long>(run.allocs), run.ns_per_node);
    }
  }

  // --- H2/H3: zero allocations per bisection probe -------------------------
  // A Figure 9 shape instance, and the same instance with every w x1024: a
  // power-of-two scale keeps every rank, order and load ratio exact, while
  // the bisection over the 1024x bound takes about ten more probes.
  // Per-solve set-up (the machine orders, the state, the result) allocates;
  // the probes must not, so each heuristic allocates the same count on both.
  struct HeuristicRun {
    const char* name = "";
    double scale = 1.0;
    std::uint64_t allocs = 0;
    double us_per_solve = 0.0;
  };
  std::vector<HeuristicRun> heuristic_runs;
  {
    mf::exp::Scenario scenario;
    scenario.tasks = 100;
    scenario.machines = 100;
    scenario.types = 40;
    scenario.failure_attachment = mf::exp::FailureAttachment::kTaskOnly;
    const mf::core::Problem problem = mf::exp::generate(scenario, 20003);
    mf::support::Matrix times(problem.task_count(), problem.machine_count());
    mf::support::Matrix failures(problem.task_count(), problem.machine_count());
    for (mf::core::TaskIndex i = 0; i < problem.task_count(); ++i) {
      for (mf::core::MachineIndex u = 0; u < problem.machine_count(); ++u) {
        times.at(i, u) = problem.platform.time(i, u) * 1024.0;
        failures.at(i, u) = problem.platform.failure(i, u);
      }
    }
    const mf::core::Problem scaled{problem.app,
                                   mf::core::Platform{std::move(times), std::move(failures)}};
    const struct {
      const char* name;
      std::optional<mf::core::Mapping> (*solve)(const mf::core::Problem&);
    } heuristics[] = {{"H2", mf::heuristics::h2}, {"H3", mf::heuristics::h3}};
    constexpr int kTimedSolves = 20;
    for (const auto& heuristic : heuristics) {
      for (const mf::core::Problem* instance : {&problem, &scaled}) {
        (void)heuristic.solve(*instance);  // warm-up
        const std::uint64_t allocs_before = g_alloc_count.load(std::memory_order_relaxed);
        (void)heuristic.solve(*instance);
        const std::uint64_t allocs =
            g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
        const double start = now_ns();
        for (int k = 0; k < kTimedSolves; ++k) (void)heuristic.solve(*instance);
        const double elapsed = now_ns() - start;
        heuristic_runs.push_back({heuristic.name, instance == &problem ? 1.0 : 1024.0, allocs,
                                  elapsed / 1000.0 / kTimedSolves});
      }
    }
    std::printf("\nbinary-search heuristics (n=m=100, p=40, f_{i,u}=f_i, generator seed 20003; "
                "us/solve is a note, allocs gate)\n");
    std::printf("| solver | w scale | allocs | us/solve |\n");
    std::printf("|--------|---------|--------|----------|\n");
    for (const HeuristicRun& run : heuristic_runs) {
      std::printf("| %-6s | %7.0f | %6llu | %8.1f |\n", run.name, run.scale,
                  static_cast<unsigned long long>(run.allocs), run.us_per_solve);
    }
  }

  // --- oto: zero allocations per augmentation ------------------------------
  // Two n = m = 100 cost matrices built like BottleneckGolden's kAtBound and
  // kWide rows. In the first every row's minimum is the answer, the row-min
  // bound, so the bound's matching is perfect and no path is searched. In
  // the second the bound's matching covers one row and the answer lies more
  // than 1,000 distinct costs above the bound, so the solve takes 99
  // augmenting paths and a final probe. Per-solve set-up (the graph, the
  // matching buffers, the search's column arrays, the result) allocates;
  // the augmentations and the final probe must not, so both solves must
  // allocate the same count.
  struct BottleneckRun {
    const char* matrix = "";
    std::uint64_t allocs = 0;
    double us_per_solve = 0.0;
  };
  std::vector<BottleneckRun> bottleneck_runs;
  {
    constexpr std::size_t kSide = 100;
    mf::support::Rng rng(20003);
    auto shuffled = [&rng] {
      std::vector<std::size_t> order(kSide);
      for (std::size_t k = 0; k < kSide; ++k) order[k] = k;
      for (std::size_t k = kSide; k > 1; --k) {
        std::swap(order[k - 1], order[rng.uniform_u64(0, k - 1)]);
      }
      return order;
    };
    // Integers 4..9 everywhere and a 4 at (r, sigma(r)): sigma matches
    // every row within the bound 4.
    mf::support::Matrix at_bound(kSide, kSide);
    const std::vector<std::size_t> sigma = shuffled();
    for (std::size_t r = 0; r < kSide; ++r) {
      for (std::size_t c = 0; c < kSide; ++c) {
        at_bound.at(r, c) = static_cast<double>(rng.uniform_u64(4, 9));
      }
      at_bound.at(r, sigma[r]) = 4.0;
    }
    // Column 0 holds each row's minimum, 1..100, but only one row can take
    // it; every other cost is distinct and above 1000.
    mf::support::Matrix wide(kSide, kSide);
    const std::vector<std::size_t> row_of = shuffled();
    const std::vector<std::size_t> col_of = shuffled();
    for (std::size_t r = 0; r < kSide; ++r) {
      for (std::size_t c = 0; c < kSide; ++c) {
        wide.at(row_of[r], col_of[c]) =
            c == 0 ? static_cast<double>(r + 1) : 1000.0 + static_cast<double>(r * kSide + c);
      }
    }
    constexpr int kTimedSolves = 20;
    const struct {
      const char* name;
      const mf::support::Matrix* cost;
    } matrices[] = {{"at bound", &at_bound}, {"wide", &wide}};
    (void)mf::exact::solve_bottleneck_assignment(at_bound);  // warm-up
    for (const auto& matrix : matrices) {
      const std::uint64_t allocs_before = g_alloc_count.load(std::memory_order_relaxed);
      (void)mf::exact::solve_bottleneck_assignment(*matrix.cost);
      const std::uint64_t allocs = g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
      const double start = now_ns();
      for (int k = 0; k < kTimedSolves; ++k) {
        (void)mf::exact::solve_bottleneck_assignment(*matrix.cost);
      }
      bottleneck_runs.push_back(
          {matrix.name, allocs, (now_ns() - start) / 1000.0 / kTimedSolves});
    }
    std::printf("\noto's bottleneck assignment (n=m=100, BottleneckGolden's kAtBound and kWide "
                "shapes; us/solve is a note, allocs gate: none per augmentation)\n");
    std::printf("| matrix   | allocs | us/solve |\n");
    std::printf("|----------|--------|----------|\n");
    for (const BottleneckRun& run : bottleneck_runs) {
      std::printf("| %-8s | %6llu | %8.1f |\n", run.matrix,
                  static_cast<unsigned long long>(run.allocs), run.us_per_solve);
    }
  }

  // --- Local search: zero allocations per pass ------------------------------
  // serve-mixed's n=50, m=10, p=2 chain and an n=70, m=66, p=8 in-tree (two
  // mask words per task), each refined from its H4w mapping twice: one
  // pass, then to convergence. Per-solve set-up (the workspace, the
  // evaluator's tables, the chain's two prefix-sum screen tables, the
  // result mapping) allocates; a pass, its probes and the rebuild after
  // each applied move must not, so both refinements of an instance must
  // allocate the same count. ms/refine is printed, not gated.
  struct RefineRun {
    const char* shape = "";
    std::size_t passes = 0;
    std::size_t moves = 0;
    bool converged = false;
    std::uint64_t allocs = 0;
    double ms_per_refine = 0.0;
  };
  std::vector<RefineRun> refine_runs;
  {
    mf::exp::Scenario chain;
    chain.tasks = 50;
    chain.machines = 10;
    chain.types = 2;
    mf::exp::Scenario wide;
    wide.tasks = 70;
    wide.machines = 66;
    wide.types = 8;
    const struct {
      const char* shape;
      mf::core::Problem problem;
    } instances[] = {{"chain n=50 m=10", mf::exp::generate(chain, 7)},
                     {"in-tree n=70 m=66", mf::exp::generate_in_tree(wide, 0.4, 7)}};
    for (const auto& instance : instances) {
      const std::optional<mf::core::Mapping> start = mf::heuristics::h4w(instance.problem);
      MF_CHECK(start.has_value(), "H4w must map the local-search allocation instance");
      // Warm-up: the first refinement in a process may pay one-time set-up.
      (void)mf::ext::refine_mapping(instance.problem, *start);
      for (const std::size_t max_passes : {std::size_t{1}, std::size_t{1000}}) {
        mf::ext::RefinementOptions options;
        options.max_passes = max_passes;
        const std::uint64_t allocs_before = g_alloc_count.load(std::memory_order_relaxed);
        const mf::ext::RefinementResult result =
            mf::ext::refine_mapping(instance.problem, *start, options);
        const std::uint64_t allocs =
            g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
        constexpr int kTimedRefines = 20;
        const double started = now_ns();
        for (int k = 0; k < kTimedRefines; ++k) {
          (void)mf::ext::refine_mapping(instance.problem, *start, options);
        }
        refine_runs.push_back({instance.shape, result.passes, result.moves_applied,
                               result.converged, allocs,
                               (now_ns() - started) / kTimedRefines / 1e6});
      }
    }
    std::printf("\nlocal search (H4w start, generator seed 7; ms/refine is a note, allocs gate)\n");
    std::printf("| instance          | passes | moves | allocs | ms/refine |\n");
    std::printf("|-------------------|--------|-------|--------|-----------|\n");
    for (const RefineRun& run : refine_runs) {
      std::printf("| %-17s | %6zu | %5zu | %6llu | %9.3f |\n", run.shape, run.passes, run.moves,
                  static_cast<unsigned long long>(run.allocs), run.ms_per_refine);
    }
  }

  write_json(out_path, calib, kernels, speedups, simd_speedups);
  std::printf("\nwrote %s\n", out_path.c_str());

  int failures = 0;

  // Gate 1: the zero-allocation guarantee. Probes and every dispatched
  // SIMD kernel must not touch the heap, on any grid point, the B&B must
  // not touch it per node, H2/H3 per bisection probe, oto per
  // augmentation, or local search per pass.
  for (const KernelResult& r : kernels) {
    const bool must_be_clean = r.name == "relocate_probe_incremental" ||
                               r.name == "swap_probe_incremental" ||
                               r.name.rfind("row_max_", 0) == 0 ||
                               r.name.rfind("leq_mask_", 0) == 0;
    if (must_be_clean && r.allocs_per_op != 0.0) {
      std::fprintf(stderr, "FAIL: %s (n=%zu, m=%zu) allocates %.4f times per op\n",
                   r.name.c_str(), r.n, r.m, r.allocs_per_op);
      ++failures;
    }
  }
  // The B&B half of gate 1: both solves of an instance must stop on their
  // budgets (or the comparison says nothing about nodes) and allocate the
  // same count.
  for (std::size_t k = 0; k + 1 < bnb_runs.size(); k += 2) {
    const BnBRun& small = bnb_runs[k];
    const BnBRun& large = bnb_runs[k + 1];
    if (small.proven || large.proven) {
      std::fprintf(stderr, "FAIL: the B&B allocation instance %s no longer exhausts its budgets\n",
                   small.instance);
      ++failures;
    } else if (small.allocs != large.allocs) {
      std::fprintf(stderr,
                   "FAIL: B&B allocates per node on %s: %llu allocs at %llu nodes, %llu at %llu\n",
                   small.instance, static_cast<unsigned long long>(small.allocs),
                   static_cast<unsigned long long>(small.nodes),
                   static_cast<unsigned long long>(large.allocs),
                   static_cast<unsigned long long>(large.nodes));
      ++failures;
    }
  }

  // The H2/H3 half of gate 1: the 1024x instance's extra probes must not
  // allocate (runs come in unscaled/scaled pairs per solver).
  for (std::size_t k = 0; k + 1 < heuristic_runs.size(); k += 2) {
    const HeuristicRun& unscaled = heuristic_runs[k];
    const HeuristicRun& scaled = heuristic_runs[k + 1];
    if (unscaled.allocs != scaled.allocs) {
      std::fprintf(stderr,
                   "FAIL: %s allocates per bisection probe: %llu allocs at w x1, %llu at "
                   "w x1024\n",
                   unscaled.name, static_cast<unsigned long long>(unscaled.allocs),
                   static_cast<unsigned long long>(scaled.allocs));
      ++failures;
    }
  }

  // The oto half of gate 1: the wide matrix's augmentations must not
  // allocate.
  if (bottleneck_runs[0].allocs != bottleneck_runs[1].allocs) {
    std::fprintf(stderr,
                 "FAIL: oto allocates per augmentation: %llu allocs on the at-bound "
                 "matrix, %llu on the wide one\n",
                 static_cast<unsigned long long>(bottleneck_runs[0].allocs),
                 static_cast<unsigned long long>(bottleneck_runs[1].allocs));
    ++failures;
  }

  // The local-search half of gate 1: refining to convergence must allocate
  // what one pass does (runs come in one-pass/converged pairs per shape).
  for (std::size_t k = 0; k + 1 < refine_runs.size(); k += 2) {
    const RefineRun& one_pass = refine_runs[k];
    const RefineRun& converged = refine_runs[k + 1];
    if (!converged.converged || converged.passes <= one_pass.passes) {
      std::fprintf(stderr,
                   "FAIL: the %s local-search instance must take more than one pass to "
                   "converge\n",
                   one_pass.shape);
      ++failures;
    } else if (one_pass.allocs != converged.allocs) {
      std::fprintf(stderr,
                   "FAIL: local search allocates per pass on the %s instance: %llu allocs "
                   "in %zu pass, %llu in %zu\n",
                   one_pass.shape, static_cast<unsigned long long>(one_pass.allocs),
                   one_pass.passes, static_cast<unsigned long long>(converged.allocs),
                   converged.passes);
      ++failures;
    }
  }

  // Gate 2: the headline speedup — the incremental relocate probe at
  // (n=100, m=20) must beat the legacy per-candidate path (what local
  // search actually paid before this layer) by at least 3.5x, measured as
  // the best-of-passes median paired ratio. The floor sits below the
  // ~3.9-5.6x band observed across host states on the shared CI runner
  // (the ratio swings ~30% with frequency/steal state even though both
  // sides are paired); the --check tolerance gate against the committed
  // baseline is the regression detector, this floor only catches the
  // probe collapsing outright.
  std::printf("\nspeedups (median paired ratio, best of %zu passes):\n", kPasses);
  for (const SpeedupSummary& s : speedups) {
    std::printf("  n=%3zu m=%2zu  relocate %5.1fx vs legacy (%.1fx vs full)  "
                "swap %5.1fx vs legacy (%.1fx vs full)\n",
                s.n, s.m, s.relocate_speedup, s.relocate_vs_full, s.swap_speedup,
                s.swap_vs_full);
    if (s.n == 100 && s.m == 20 && s.relocate_speedup < 3.5) {
      std::fprintf(stderr,
                   "FAIL: relocate probe speedup %.2fx at (n=100, m=20), need >= 3.5x\n",
                   s.relocate_speedup);
      ++failures;
    }
  }

  // Gate 3: every SIMD kernel variant must be bit-identical to the scalar
  // table on the bench inputs (failures were counted during measurement).
  failures += simd_equality_failures;

  if (!simd_speedups.empty()) {
    std::printf("\nSIMD speedups vs scalar (median paired ratio, not gated):\n");
    for (const SimdSpeedup& s : simd_speedups) {
      std::printf("  %-20s %-7s (n=%4zu, m=%3zu)  %5.2fx\n", s.kernel.c_str(),
                  s.isa.c_str(), s.n, s.m, s.speedup);
    }
  }

  // Gate 4 (--check): regression against the committed baseline. The
  // gating comparison is the PAIRED speedup ratios, not the absolute
  // medians: each ratio compares a probe kernel to frozen reference code
  // measured back to back in the same process, so host-state drift that
  // stretches both sides cancels out — where absolute medians on shared
  // runners were observed to swing far past any usable tolerance even
  // after calibration normalization (a fixed FP workload drifted ~4%
  // across states that moved the short kernels ~40%). A real kernel
  // regression cannot hide: slowing the incremental probe 2x halves
  // every ratio it appears in. The calibration-normalized absolute
  // deltas are still printed below as non-gating notes for humans
  // reading a CI log.
  if (!check_path.empty()) {
    const Baseline baseline = read_baseline(check_path);
    if (!baseline.ok) {
      std::fprintf(stderr, "FAIL: could not read baseline %s\n", check_path.c_str());
      ++failures;
    } else {
      std::printf("\nregression check vs %s (paired ratios, tolerance %.0f%%):\n",
                  check_path.c_str(), tolerance * 100.0);
      const int failures_before = failures;
      for (const SpeedupSummary& base : baseline.speedups) {
        const SpeedupSummary* cur = nullptr;
        for (const SpeedupSummary& s : speedups) {
          if (s.n == base.n && s.m == base.m) cur = &s;
        }
        if (cur == nullptr) continue;  // grid point dropped: no comparison
        const struct {
          const char* name;
          double now;
          double before;
        } ratios[] = {
            {"relocate_vs_legacy", cur->relocate_speedup, base.relocate_speedup},
            {"relocate_vs_full", cur->relocate_vs_full, base.relocate_vs_full},
            {"swap_vs_legacy", cur->swap_speedup, base.swap_speedup},
            {"swap_vs_full", cur->swap_vs_full, base.swap_vs_full},
        };
        for (const auto& ratio : ratios) {
          if (ratio.before <= 0.0) continue;
          if (ratio.now < ratio.before * (1.0 - tolerance)) {
            std::fprintf(stderr,
                         "FAIL: %s (n=%zu, m=%zu) fell to %.2fx from the baseline's "
                         "%.2fx (tolerance %.0f%%)\n",
                         ratio.name, base.n, base.m, ratio.now, ratio.before,
                         tolerance * 100.0);
            ++failures;
          }
        }
      }
      if (failures == failures_before) std::printf("  all paired ratios within tolerance\n");
      // Non-gating notes: calibration-normalized absolute drift.
      for (const KernelResult& r : kernels) {
        const KernelResult* base = find_kernel(baseline.kernels, r.name, r.n, r.m);
        if (base == nullptr) continue;  // new kernel: no baseline yet
        const double ratio =
            (r.median_ns / calib) / (base->median_ns / baseline.calibration);
        if (ratio > 1.0 + tolerance || ratio < 1.0 - tolerance) {
          std::printf("  note: %s (n=%zu, m=%zu) normalized median %+.0f%% vs baseline\n",
                      r.name.c_str(), r.n, r.m, (ratio - 1.0) * 100.0);
        }
      }
    }
  }

  if (failures > 0) {
    std::fprintf(stderr, "\n%d kernel gate(s) failed\n", failures);
    return 1;
  }
  std::printf("\nall kernel gates passed\n");
  return 0;
}
