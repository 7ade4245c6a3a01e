#include "heuristics/h4_family.hpp"

#include <limits>
#include <span>

#include "core/failure.hpp"
#include "heuristics/assignment_state.hpp"
#include "support/check.hpp"

namespace mf::heuristics {

using core::MachineIndex;
using core::TaskIndex;

namespace {

/// Shared greedy loop of Algorithms 4-6, templated so each heuristic's
/// score lambda inlines into the candidate scan (no per-machine indirect
/// call). `increment(u, x)` is the score a candidate machine adds on top
/// of its accumulated load for the current task; the lambda captures the
/// task's precomputed w / f / F row spans, and x is the product count
/// required by the successor. The scan walks the partial-load span and
/// the cached table rows directly — bounds checks stay on the assign()
/// mutation path only.
template <typename MakeIncrement>
std::optional<core::Mapping> run_greedy(const core::Problem& problem,
                                        const MakeIncrement& make_increment) {
  if (problem.type_count() > problem.machine_count()) return std::nullopt;
  AssignmentState state(problem);
  for (TaskIndex i : problem.app.backward_order()) {
    const double x = state.downstream_products(i);
    const auto increment = make_increment(i);
    const std::span<const double> loads = state.loads();
    double best_score = std::numeric_limits<double>::infinity();
    MachineIndex best_machine = core::kUnassigned;
    for (MachineIndex u = 0; u < problem.machine_count(); ++u) {
      if (!state.allowed(i, u)) continue;  // dedicated to another type / reserved
      const double score = loads[u] + increment(u, x);
      if (score < best_score) {
        best_score = score;
        best_machine = u;
      }
    }
    // Once x·w overflows every allowed machine scores +inf, and none is
    // kept: the task then takes the first allowed machine.
    for (MachineIndex u = 0; best_machine == core::kUnassigned && u < problem.machine_count();
         ++u) {
      if (state.allowed(i, u)) best_machine = u;
    }
    MF_CHECK(best_machine != core::kUnassigned,
             "greedy found no feasible machine despite p <= m");
    state.assign(i, best_machine);
  }
  return state.mapping();
}

/// Per-task row of the failure factor: the cached F = 1/(1-f) table (the
/// very doubles survival_inverse produces) or the raw f row.
std::span<const double> failure_factor_row(const core::Problem& problem, TaskIndex i,
                                           FailureFactor factor) {
  return factor == FailureFactor::kAttemptsPerSuccess ? problem.platform.attempts_row(i)
                                                      : problem.platform.failure_row(i);
}

}  // namespace

std::optional<core::Mapping> h4(const core::Problem& problem, FailureFactor factor) {
  return run_greedy(problem, [&](TaskIndex i) {
    const std::span<const double> w = problem.platform.time_row(i);
    const std::span<const double> f = failure_factor_row(problem, i, factor);
    return [w, f](MachineIndex u, double x) { return x * w[u] * f[u]; };
  });
}

std::optional<core::Mapping> h4w(const core::Problem& problem) {
  return run_greedy(problem, [&](TaskIndex i) {
    const std::span<const double> w = problem.platform.time_row(i);
    return [w](MachineIndex u, double x) { return x * w[u]; };
  });
}

std::optional<core::Mapping> h4f(const core::Problem& problem, FailureFactor factor) {
  return run_greedy(problem, [&](TaskIndex i) {
    const std::span<const double> f = failure_factor_row(problem, i, factor);
    return [f](MachineIndex u, double x) { return x * f[u]; };
  });
}

}  // namespace mf::heuristics
