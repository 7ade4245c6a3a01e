#include "extensions/local_search.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "core/eval_kernels.hpp"
#include "support/check.hpp"

namespace mf::ext {

using core::kNoTask;
using core::MachineIndex;
using core::TaskIndex;
using core::TypeIndex;

namespace {

/// Mutable view of a specialized mapping: move probes and the running
/// period/loads are answered by the incremental evaluator (zero-allocation
/// ancestor-chain probes, bit-identical to full re-evaluation), while this
/// struct keeps the cheap specialization bookkeeping — per-machine task
/// counts and served type.
struct State {
  const core::Problem& problem;
  core::EvalWorkspace workspace;
  core::IncrementalEvaluator eval;
  std::vector<std::size_t> machine_tasks;
  std::vector<TypeIndex> machine_type;  // kNoTask when free

  State(const core::Problem& p, const core::Mapping& mapping)
      : problem(p),
        workspace(p),
        eval(workspace, mapping),
        machine_tasks(p.machine_count(), 0),
        machine_type(p.machine_count(), kNoTask) {
    for (TaskIndex i = 0; i < p.task_count(); ++i) {
      const MachineIndex u = eval.machine_of(i);
      ++machine_tasks[u];
      machine_type[u] = p.app.type_of(i);
    }
  }

  [[nodiscard]] double period() const noexcept { return eval.period(); }

  [[nodiscard]] bool relocate_valid(TaskIndex i, MachineIndex v) const {
    if (eval.machine_of(i) == v) return false;
    return machine_type[v] == kNoTask || machine_type[v] == problem.app.type_of(i);
  }

  /// Swapping machines of i and j keeps specialization iff each target
  /// machine ends up single-typed: u (minus i, plus j) must be pure t(j),
  /// v (minus j, plus i) must be pure t(i). With per-machine single types
  /// that reduces to: either t(i) == t(j) (trivially fine) or both tasks
  /// are alone on their machines.
  [[nodiscard]] bool swap_valid(TaskIndex i, TaskIndex j) const {
    const MachineIndex u = eval.machine_of(i);
    const MachineIndex v = eval.machine_of(j);
    if (u == v) return false;
    if (problem.app.type_of(i) == problem.app.type_of(j)) return true;
    return machine_tasks[u] == 1 && machine_tasks[v] == 1;
  }

  void apply_relocate(TaskIndex i, MachineIndex v) {
    const MachineIndex u = eval.machine_of(i);
    eval.apply_relocate(i, v);
    if (--machine_tasks[u] == 0) machine_type[u] = kNoTask;
    ++machine_tasks[v];
    machine_type[v] = problem.app.type_of(i);
  }

  void apply_swap(TaskIndex i, TaskIndex j) {
    const MachineIndex u = eval.machine_of(i);
    const MachineIndex v = eval.machine_of(j);
    eval.apply_swap(i, j);
    machine_type[u] = problem.app.type_of(j);
    machine_type[v] = problem.app.type_of(i);
  }
};

struct Move {
  enum class Kind { kRelocate, kSwap } kind;
  TaskIndex first;
  std::size_t second;  // machine (relocate) or task (swap)
  double new_period;
  /// Tie-breaker among equal-period moves: the load the target machine
  /// would end up with. Preferring lighter targets spreads work over free
  /// machines, which keeps future relocations available (a plateau of
  /// equal periods often hides a strictly better state two moves away).
  double target_load;
};

}  // namespace

RefinementResult refine_mapping(const core::Problem& problem, const core::Mapping& initial,
                                const RefinementOptions& options) {
  MF_REQUIRE(initial.complies_with(core::MappingRule::kSpecialized, problem.app,
                                   problem.machine_count()),
             "local search requires a valid specialized mapping");
  MF_REQUIRE(options.max_passes > 0, "max_passes must be positive");
  // A negative (or NaN) gain accepts moves that do not lower the period, so
  // a pass always finds one and the search runs until max_passes.
  MF_REQUIRE(options.min_relative_gain >= 0.0 && options.min_relative_gain < 1.0,
             "min_relative_gain must lie in [0, 1)");

  State state(problem, initial);
  RefinementResult result;
  result.initial_period = state.period();

  const std::size_t n = problem.task_count();
  const std::size_t m = problem.machine_count();

  for (std::size_t pass = 0; pass < options.max_passes; ++pass) {
    ++result.passes;
    std::optional<Move> best;
    const double threshold = state.period() * (1.0 - options.min_relative_gain);

    // The probes' cutoff: the smallest period that could no longer change
    // `best`. A move at or above it is either no improvement or strictly
    // worse than `best`, so the probe may stop once it proves that; a tie
    // with `best` is still computed exactly, for the tie-breaks below.
    double cutoff = threshold;
    auto consider = [&](Move move) -> bool {
      if (move.new_period >= threshold) return false;
      if (!best.has_value() || move.new_period < best->new_period ||
          (move.new_period == best->new_period && move.target_load < best->target_load)) {
        best = move;
        cutoff = std::min(threshold,
                          std::nextafter(move.new_period, std::numeric_limits<double>::infinity()));
      }
      return options.first_improvement;
    };

    // The evaluator maintains the exact per-machine periods; no per-pass
    // re-evaluation needed. Values are stable for the whole scan because
    // moves apply only after it.
    const std::span<const double> loads = state.eval.loads();
    bool stop_scan = false;
    for (TaskIndex i = 0; i < n && !stop_scan; ++i) {
      for (MachineIndex v = 0; v < m && !stop_scan; ++v) {
        if (!state.relocate_valid(i, v)) continue;
        stop_scan = consider({Move::Kind::kRelocate, i, v,
                              state.eval.period_if_relocated(i, v, cutoff), loads[v]});
      }
    }
    if (options.allow_swaps) {
      for (TaskIndex i = 0; i < n && !stop_scan; ++i) {
        for (TaskIndex j = i + 1; j < n && !stop_scan; ++j) {
          if (!state.swap_valid(i, j)) continue;
          stop_scan = consider({Move::Kind::kSwap, i, j,
                                state.eval.period_if_swapped(i, j, cutoff),
                                std::max(loads[state.eval.machine_of(i)],
                                         loads[state.eval.machine_of(j)])});
        }
      }
    }

    if (!best.has_value()) {
      result.converged = true;
      break;
    }
    if (best->kind == Move::Kind::kRelocate) {
      state.apply_relocate(best->first, best->second);
    } else {
      state.apply_swap(best->first, best->second);
    }
    ++result.moves_applied;
  }

  const std::span<const MachineIndex> final_assignment = state.eval.assignment();
  result.mapping =
      core::Mapping{std::vector<MachineIndex>(final_assignment.begin(), final_assignment.end())};
  result.period = state.period();
  MF_CHECK(result.period <= result.initial_period + 1e-9,
           "local search must never worsen the mapping");
  return result;
}

}  // namespace mf::ext
