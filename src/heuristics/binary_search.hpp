// Binary-search scheduling engine shared by H2 and H3 (Algorithms 2-3).
//
// Both heuristics guess a candidate period, try to place every task
// (backward) without any machine exceeding the guess, and bisect: success
// tightens the upper bound, failure raises the lower bound. They differ only
// in how they order candidate machines for a task, which is captured by the
// MachineSelector policy. As in the paper, the search runs on integer
// millisecond bounds starting from [0, period of all tasks on the slowest
// machine] and stops when max - min <= 1.
//
// The orders depend only on the instance, so the selector builds them once
// per solve. A probe at a new bound repeats the decisions it shares with
// the last passing or the last failing probe by replaying them into one
// reused AssignmentState, and scans only from the first position where it
// may decide otherwise. It makes the decisions a fresh pass at its bound
// makes and leaves the same loads, bit for bit.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "heuristics/assignment_state.hpp"
#include "heuristics/heuristic.hpp"

namespace mf::heuristics {

/// Policy: proposes machines for `task` in decreasing preference. The engine
/// walks the proposal order and takes the first machine that is
/// type-feasible and keeps the load within the candidate period. Returning
/// machines in preference order is what distinguishes H2 from H3.
class MachineSelector {
 public:
  virtual ~MachineSelector() = default;

  /// Called once per problem before any assignment pass; builds every
  /// task's machine order (by rank for H2, by heterogeneity for H3).
  virtual void prepare(const core::Problem& problem) = 0;

  /// All machine indices for `task`, most preferred first. The view stays
  /// valid until the next prepare() or the selector's destruction.
  [[nodiscard]] virtual std::span<const core::MachineIndex> machines_for(
      core::TaskIndex task) const = 0;
};

/// Runs one greedy placement pass at a fixed period bound. Returns the
/// mapping when every task fits, std::nullopt otherwise.
[[nodiscard]] std::optional<core::Mapping> assign_within_period(
    const core::Problem& problem, const MachineSelector& selector, double period_bound);

/// Full bisection (Algorithms 2-3 outer loop). Returns the best mapping
/// found, or std::nullopt when p > m or even the trivial upper bound fails
/// (cannot happen for feasible inputs; kept for interface honesty). A
/// trivial bound beyond int64's range caps the bisection's start at
/// INT64_MAX; the pass at the bound itself still provides the mapping.
[[nodiscard]] std::optional<core::Mapping> binary_search_schedule(
    const core::Problem& problem, MachineSelector& selector);

/// H2 — "potential optimization": for every machine the tasks are ranked by
/// processing time; a task prefers machines where its rank is best (ties
/// broken by smaller w, then smaller index).
class H2BinarySearchRank final : public Heuristic {
 public:
  [[nodiscard]] std::string name() const override { return "H2"; }
  [[nodiscard]] std::optional<core::Mapping> run(const core::Problem& problem,
                                                 support::Rng& rng) const override;
};

/// H3 — "heterogeneity": machines are ordered by the standard deviation of
/// their processing-time column, most heterogeneous first, preserving
/// homogeneous machines for later (earlier-in-chain) tasks.
class H3BinarySearchHeterogeneity final : public Heuristic {
 public:
  [[nodiscard]] std::string name() const override { return "H3"; }
  [[nodiscard]] std::optional<core::Mapping> run(const core::Problem& problem,
                                                 support::Rng& rng) const override;
};

}  // namespace mf::heuristics
