// Mutable state shared by all heuristic engines while they assign tasks
// backward: machine specialization bookkeeping (with the reservation rule
// that keeps one free machine available for every task type not yet seen),
// per-machine accumulated loads, and per-task expected product counts x_i.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/mapping.hpp"
#include "core/platform.hpp"
#include "core/types.hpp"

namespace mf::heuristics {

/// Tracks which machine is dedicated to which type and enforces
/// feasibility: a specialized mapping exists whenever p <= m, and it keeps
/// existing as long as every not-yet-started type can still claim a free
/// machine. Algorithm 1 encodes this as the `nbFreeMachines > nbTypesToGo`
/// guard; the same rule protects the greedy heuristics from painting
/// themselves into a corner, so it lives here and every engine shares it.
class SpecializationTracker {
 public:
  SpecializationTracker(const core::Application& app, std::size_t machine_count);

  /// True if task type `t` may be placed on machine `u` right now:
  /// u is dedicated to t, or u is free and taking it does not starve the
  /// types that still need their first machine.
  [[nodiscard]] bool allowed(core::TypeIndex t, core::MachineIndex u) const;

  /// Records that a task of type `t` was placed on `u`. `allowed(t, u)`
  /// must hold.
  void commit(core::TypeIndex t, core::MachineIndex u);

  /// Frees every machine again, keeping the allocated capacity.
  void reset();

  [[nodiscard]] bool is_free(core::MachineIndex u) const;
  /// Type served by machine u, or kNoTask when the machine is free.
  [[nodiscard]] core::TypeIndex type_of_machine(core::MachineIndex u) const;
  [[nodiscard]] std::size_t free_machines() const noexcept { return free_machines_; }
  /// Types that still have unseen tasks and no dedicated machine.
  [[nodiscard]] std::size_t types_to_go() const noexcept { return types_to_go_; }
  /// Machines already dedicated to type t, in dedication order.
  [[nodiscard]] const std::vector<core::MachineIndex>& machines_of_type(
      core::TypeIndex t) const;

 private:
  std::vector<core::TypeIndex> machine_type_;                  // per machine
  std::vector<std::vector<core::MachineIndex>> type_machines_;  // per type
  std::size_t free_machines_;
  std::size_t types_to_go_;
};

/// Full per-assignment bookkeeping: specialization plus loads and x values.
/// Heuristics assign tasks strictly in `app.backward_order()`, so when task
/// i is placed its successor's x is already final.
class AssignmentState {
 public:
  explicit AssignmentState(const core::Problem& problem);

  /// Products the successor of task i requires per finished product
  /// (1.0 for sinks). This is the x "seed" a candidate machine scales by
  /// its own 1/(1-f).
  [[nodiscard]] double downstream_products(core::TaskIndex i) const;

  /// x_i if task i were placed on machine u.
  [[nodiscard]] double products_if(core::TaskIndex i, core::MachineIndex u) const;

  /// Load (ms per finished product) machine u carries from tasks already
  /// assigned to it: the partial period(M_u).
  [[nodiscard]] double load(core::MachineIndex u) const;

  /// All partial machine loads as an unchecked span, for candidate scans
  /// that walk every machine anyway.
  [[nodiscard]] std::span<const double> loads() const noexcept { return loads_; }

  /// True period of machine u if task i were added to it.
  [[nodiscard]] double load_if(core::TaskIndex i, core::MachineIndex u) const;

  [[nodiscard]] bool allowed(core::TaskIndex i, core::MachineIndex u) const;

  /// Places task i on machine u, updating loads, x_i and specialization.
  void assign(core::TaskIndex i, core::MachineIndex u);

  /// Unassigns every task, as a freshly constructed state, keeping the
  /// allocated capacity so repeated passes allocate nothing.
  void reset();

  [[nodiscard]] bool all_assigned() const noexcept { return assigned_ == mapping_.size(); }
  [[nodiscard]] core::Mapping mapping() const { return core::Mapping{mapping_}; }
  /// Machine of each task (kUnassigned until placed), without mapping()'s copy.
  [[nodiscard]] std::span<const core::MachineIndex> assignment() const noexcept {
    return mapping_;
  }
  [[nodiscard]] const SpecializationTracker& tracker() const noexcept { return tracker_; }
  /// Largest committed machine load so far.
  [[nodiscard]] double current_period() const;

 private:
  const core::Problem* problem_;
  SpecializationTracker tracker_;
  std::vector<core::MachineIndex> mapping_;
  std::vector<double> x_;
  std::vector<double> loads_;
  std::size_t assigned_ = 0;
};

}  // namespace mf::heuristics
