// Equivalence suite for the SIMD kernel layer (core/simd.hpp).
//
// The contract is bit-identity: every wide variant the host can run must
// produce byte-identical outputs to the scalar reference table, kernel by
// kernel AND end to end. Three layers of enforcement:
//
//   * direct per-kernel checks on randomized inputs — odd lengths (tails),
//     exact ties, every available ISA against the scalar table;
//   * dispatch-forced end-to-end checks — simd::force(isa) pins the
//     production dispatch point, then core evaluation, the incremental
//     evaluator's probe/apply walks and the bottleneck solver are
//     compared against their forced-scalar results across every
//     registered scenario family (iid / correlated / time-varying /
//     downtime);
//   * an m > 64 incremental-probe check exercising the multi-word touched
//     bitmask against the copy-mutate-and-fully-reevaluate reference.
//
// The MF_SIMD override that CI's scalar-only run relies on is checked
// too. On a host with no wide ISA, available() is exactly {scalar} and
// the wide loops are empty — the suite then simply pins scalar
// self-consistency.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "core/eval_kernels.hpp"
#include "core/evaluation.hpp"
#include "core/simd.hpp"
#include "exact/bottleneck_assignment.hpp"
#include "exp/scenario.hpp"
#include "exp/scenario_registry.hpp"
#include "support/matrix.hpp"
#include "support/rng.hpp"

namespace mf {
namespace {

using core::MachineIndex;
using core::TaskIndex;
using core::simd::Isa;
using core::simd::KernelTable;

const KernelTable& scalar_table() {
  const auto tables = core::simd::available();
  EXPECT_FALSE(tables.empty());
  EXPECT_EQ(tables.front()->isa, Isa::kScalar);
  return *tables.front();
}

/// Every non-scalar table runnable on this host (empty on a host with no
/// wide ISA — the loops below then check nothing, which is the point).
std::vector<const KernelTable*> wide_tables() {
  std::vector<const KernelTable*> out;
  for (const KernelTable* table : core::simd::available()) {
    if (table->isa != Isa::kScalar) out.push_back(table);
  }
  return out;
}

/// Restores default dispatch when a forcing test exits (even on failure).
struct DispatchGuard {
  ~DispatchGuard() { core::simd::reset_dispatch(); }
};

/// Random doubles with deliberate exact ties: drawing from a small
/// discrete grid makes equal values common, so max ties and threshold
/// equality actually get hit.
std::vector<double> random_values(support::Rng& rng, std::size_t count,
                                  bool gridded) {
  std::vector<double> values(count);
  for (double& value : values) {
    value = gridded ? static_cast<double>(rng.uniform_u64(0, 12)) * 0.25
                    : rng.uniform(-10.0, 10.0);
  }
  return values;
}

TEST(SimdKernels, RowMaxMatchesScalar) {
  const KernelTable& scalar = scalar_table();
  support::Rng rng(0xA11CEu);
  for (const KernelTable* table : wide_tables()) {
    for (std::size_t count : {1u, 2u, 3u, 5u, 7u, 8u, 9u, 16u, 31u, 64u, 65u, 100u}) {
      for (int rep = 0; rep < 20; ++rep) {
        const std::vector<double> values = random_values(rng, count, rep % 2 == 0);
        EXPECT_EQ(table->row_max(values.data(), count),
                  scalar.row_max(values.data(), count))
            << core::simd::isa_name(table->isa) << " count=" << count;
      }
    }
  }
}

TEST(SimdKernels, LeqMaskMatchesScalar) {
  const KernelTable& scalar = scalar_table();
  support::Rng rng(0xF00Du);
  for (const KernelTable* table : wide_tables()) {
    for (std::size_t count : {1u, 2u, 7u, 8u, 63u, 64u, 65u, 127u, 130u}) {
      for (int rep = 0; rep < 10; ++rep) {
        const std::vector<double> row = random_values(rng, count, true);
        // Threshold drawn from the row half the time: boundary equality
        // (<=) must match exactly.
        const double threshold = rep % 2 == 0 ? row[rng.uniform_u64(0, count - 1)]
                                              : rng.uniform(-1.0, 4.0);
        const std::size_t words = (count + 63) / 64;
        std::vector<std::uint64_t> got(words, ~std::uint64_t{0});
        std::vector<std::uint64_t> want(words, ~std::uint64_t{0});
        table->leq_mask(row.data(), threshold, count, got.data());
        scalar.leq_mask(row.data(), threshold, count, want.data());
        EXPECT_EQ(got, want) << core::simd::isa_name(table->isa) << " count=" << count;
      }
    }
  }
}

// --- Dispatch-forced end-to-end equivalence --------------------------------

exp::Instance make_instance(const std::string& family, std::size_t tasks,
                            std::size_t machines, std::uint64_t seed) {
  exp::Scenario scenario;
  scenario.tasks = tasks;
  scenario.machines = machines;
  scenario.types = 2;
  return exp::generate_instance(family, scenario, seed);
}

std::vector<MachineIndex> random_assignment(const core::Problem& problem,
                                            support::Rng& rng) {
  std::vector<MachineIndex> assignment(problem.task_count());
  for (auto& a : assignment) a = rng.uniform_u64(0, problem.machine_count() - 1);
  return assignment;
}

/// Everything the evaluation stack computes for one problem, captured as
/// exact doubles under whatever ISA is currently forced.
struct EvalTrace {
  std::vector<double> machine_periods;
  std::vector<double> max_x;
  double upper_bound = 0.0;
  std::vector<double> probe_results;
};

EvalTrace run_eval_trace(const core::Problem& problem, std::uint64_t seed) {
  EvalTrace trace;
  support::Rng rng(seed);
  const std::vector<MachineIndex> assignment = random_assignment(problem, rng);
  const core::Mapping mapping{assignment};
  trace.machine_periods = core::machine_periods(problem, mapping);
  trace.max_x = core::max_expected_products(problem);
  trace.upper_bound = core::period_upper_bound(problem);

  core::EvalWorkspace workspace(problem);
  core::IncrementalEvaluator eval(workspace, assignment);
  for (int step = 0; step < 60; ++step) {
    const TaskIndex i = rng.uniform_u64(0, problem.task_count() - 1);
    if (rng.bernoulli(0.5)) {
      const MachineIndex v = rng.uniform_u64(0, problem.machine_count() - 1);
      trace.probe_results.push_back(eval.period_if_relocated(i, v));
      if (rng.bernoulli(0.25)) eval.apply_relocate(i, v);
    } else {
      TaskIndex j = rng.uniform_u64(0, problem.task_count() - 1);
      if (j == i) j = (j + 1) % problem.task_count();
      trace.probe_results.push_back(eval.period_if_swapped(i, j));
      if (rng.bernoulli(0.25)) eval.apply_swap(i, j);
    }
    trace.probe_results.push_back(eval.period());
  }
  return trace;
}

TEST(SimdDispatch, EvaluationStackBitIdenticalAcrossIsas) {
  DispatchGuard guard;
  for (const std::string& family : exp::scenario_ids()) {
    const exp::Instance instance = make_instance(family, 30, 7, 0x5EEDu);
    const core::Problem& problem = *instance.effective;
    ASSERT_TRUE(core::simd::force(Isa::kScalar));
    const EvalTrace reference = run_eval_trace(problem, 0x1234u);
    for (const KernelTable* table : wide_tables()) {
      ASSERT_TRUE(core::simd::force(table->isa));
      const EvalTrace got = run_eval_trace(problem, 0x1234u);
      EXPECT_EQ(got.machine_periods, reference.machine_periods)
          << family << " @ " << core::simd::isa_name(table->isa);
      EXPECT_EQ(got.max_x, reference.max_x)
          << family << " @ " << core::simd::isa_name(table->isa);
      EXPECT_EQ(got.upper_bound, reference.upper_bound)
          << family << " @ " << core::simd::isa_name(table->isa);
      EXPECT_EQ(got.probe_results, reference.probe_results)
          << family << " @ " << core::simd::isa_name(table->isa);
    }
  }
}

support::Matrix random_cost(support::Rng& rng, std::size_t rows, std::size_t cols,
                            bool gridded) {
  support::Matrix cost(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      cost.at(r, c) = gridded ? static_cast<double>(rng.uniform_u64(0, 9))
                              : rng.uniform(0.0, 5.0);
    }
  }
  return cost;
}

TEST(SimdDispatch, AssignmentSolversBitIdenticalAcrossIsas) {
  // The bottleneck solver's threshold scan is the assignment code that
  // dispatches; the Hungarian solver runs plain loops and is pinned by
  // HungarianGolden instead.
  DispatchGuard guard;
  support::Rng rng(0xCAFEu);
  for (int rep = 0; rep < 12; ++rep) {
    const std::size_t rows = 1 + rng.uniform_u64(0, 19);
    const std::size_t cols = rows + rng.uniform_u64(0, 6);
    // Gridded costs force ties in the bottleneck thresholds — the cases
    // where a wrong tie rule would show.
    const support::Matrix cost = random_cost(rng, rows, cols, rep % 2 == 0);
    ASSERT_TRUE(core::simd::force(Isa::kScalar));
    const exact::BottleneckResult want_b = exact::solve_bottleneck_assignment(cost);
    for (const KernelTable* table : wide_tables()) {
      ASSERT_TRUE(core::simd::force(table->isa));
      const exact::BottleneckResult got_b = exact::solve_bottleneck_assignment(cost);
      EXPECT_EQ(got_b.row_to_col, want_b.row_to_col)
          << rows << "x" << cols << " @ " << core::simd::isa_name(table->isa);
      EXPECT_EQ(got_b.bottleneck_cost, want_b.bottleneck_cost)
          << rows << "x" << cols << " @ " << core::simd::isa_name(table->isa);
    }
  }
}

// --- The MF_SIMD override ---------------------------------------------------

/// Restores MF_SIMD, then default dispatch, when an override test exits
/// (even on failure).
struct SimdEnvGuard {
  std::optional<std::string> saved;
  SimdEnvGuard() {
    if (const char* value = std::getenv("MF_SIMD"); value != nullptr) saved = value;
  }
  ~SimdEnvGuard() {
    if (saved) {
      setenv("MF_SIMD", saved->c_str(), 1);
    } else {
      unsetenv("MF_SIMD");
    }
    core::simd::reset_dispatch();
  }
};

TEST(SimdDispatch, EnvOverrideSelectsNamedTable) {
  // CI reruns the whole suite and the figure tables under MF_SIMD=scalar;
  // that run proves nothing unless the override really selects scalar.
  SimdEnvGuard guard;
  ASSERT_EQ(setenv("MF_SIMD", "scalar", 1), 0);
  core::simd::reset_dispatch();
  EXPECT_EQ(core::simd::active().isa, Isa::kScalar);
  for (const KernelTable* table : core::simd::available()) {
    ASSERT_EQ(setenv("MF_SIMD", core::simd::isa_name(table->isa), 1), 0);
    core::simd::reset_dispatch();
    EXPECT_EQ(&core::simd::active(), table) << core::simd::isa_name(table->isa);
  }
  // A name with no table here, avx512 and sse2 included, falls back to the
  // widest available table, so a stale override never fails a run.
  for (const char* name : {"avx512", "sse2", "bogus"}) {
    ASSERT_EQ(setenv("MF_SIMD", name, 1), 0);
    core::simd::reset_dispatch();
    EXPECT_EQ(&core::simd::active(), core::simd::available().back()) << name;
  }
}

// --- m > 64: the multi-word touched bitmask --------------------------------

TEST(SimdDispatch, IncrementalProbesExactBeyond64Machines) {
  // 100 machines forces the second touched word; probes must still agree
  // exactly with copy-mutate-and-fully-reevaluate, under every ISA.
  DispatchGuard guard;
  const exp::Instance instance = make_instance("iid", 40, 100, 0xBEEFu);
  const core::Problem& problem = *instance.effective;
  for (const KernelTable* table : core::simd::available()) {
    ASSERT_TRUE(core::simd::force(table->isa));
    support::Rng rng(0x600Du);
    core::EvalWorkspace workspace(problem);
    std::vector<MachineIndex> assignment = random_assignment(problem, rng);
    core::IncrementalEvaluator eval(workspace, assignment);
    for (int step = 0; step < 120; ++step) {
      const TaskIndex i = rng.uniform_u64(0, problem.task_count() - 1);
      const MachineIndex v = rng.uniform_u64(0, problem.machine_count() - 1);
      std::vector<MachineIndex> mutated = assignment;
      mutated[i] = v;
      const double want = core::period(problem, core::Mapping{mutated});
      EXPECT_EQ(eval.period_if_relocated(i, v), want)
          << "step " << step << " @ " << core::simd::isa_name(table->isa);
      if (rng.bernoulli(0.3)) {
        eval.apply_relocate(i, v);
        assignment[i] = v;
      }
    }
  }
}

}  // namespace
}  // namespace mf
