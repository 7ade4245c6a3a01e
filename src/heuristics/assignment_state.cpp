#include "heuristics/assignment_state.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace mf::heuristics {

using core::kNoTask;
using core::kUnassigned;
using core::MachineIndex;
using core::TaskIndex;
using core::TypeIndex;

SpecializationTracker::SpecializationTracker(const core::Application& app,
                                             std::size_t machine_count)
    : machine_type_(machine_count, kNoTask),
      type_machines_(app.type_count()),
      free_machines_(machine_count),
      types_to_go_(app.type_count()) {
  MF_REQUIRE(app.type_count() <= machine_count,
             "specialized mapping impossible: more task types than machines");
  // The reservation rule keeps a machine for every other type, so no type
  // ever holds more than m - p + 1: reserving that once means commits after
  // a reset() never allocate, whatever machines the next pass hands out.
  for (auto& machines : type_machines_) machines.reserve(machine_count - app.type_count() + 1);
}

bool SpecializationTracker::allowed(TypeIndex t, MachineIndex u) const {
  MF_REQUIRE(u < machine_type_.size(), "machine index out of range");
  MF_REQUIRE(t < type_machines_.size(), "type index out of range");
  const TypeIndex current = machine_type_[u];
  if (current == t) return true;
  if (current != kNoTask) return false;  // dedicated to a different type
  // u is free. A type claiming its *first* machine may always take it; a
  // type that already has machines must leave enough free machines for the
  // types that have none yet (Algorithm 1's nbFreeMachines > nbTypesToGo).
  if (type_machines_[t].empty()) return true;
  return free_machines_ > types_to_go_;
}

void SpecializationTracker::commit(TypeIndex t, MachineIndex u) {
  MF_REQUIRE(allowed(t, u), "commit violates specialization feasibility");
  if (machine_type_[u] == kNoTask) {
    machine_type_[u] = t;
    if (type_machines_[t].empty()) {
      MF_CHECK(types_to_go_ > 0, "types_to_go underflow");
      --types_to_go_;
    }
    type_machines_[t].push_back(u);
    MF_CHECK(free_machines_ > 0, "free machine underflow");
    --free_machines_;
  }
}

void SpecializationTracker::reset() {
  std::fill(machine_type_.begin(), machine_type_.end(), kNoTask);
  for (auto& machines : type_machines_) machines.clear();
  free_machines_ = machine_type_.size();
  types_to_go_ = type_machines_.size();
}

bool SpecializationTracker::is_free(MachineIndex u) const {
  MF_REQUIRE(u < machine_type_.size(), "machine index out of range");
  return machine_type_[u] == kNoTask;
}

TypeIndex SpecializationTracker::type_of_machine(MachineIndex u) const {
  MF_REQUIRE(u < machine_type_.size(), "machine index out of range");
  return machine_type_[u];
}

const std::vector<MachineIndex>& SpecializationTracker::machines_of_type(TypeIndex t) const {
  MF_REQUIRE(t < type_machines_.size(), "type index out of range");
  return type_machines_[t];
}

AssignmentState::AssignmentState(const core::Problem& problem)
    : problem_(&problem),
      tracker_(problem.app, problem.machine_count()),
      mapping_(problem.task_count(), kUnassigned),
      x_(problem.task_count(), 0.0),
      loads_(problem.machine_count(), 0.0) {}

double AssignmentState::downstream_products(TaskIndex i) const {
  const TaskIndex succ = problem_->app.successor(i);
  if (succ == kNoTask) return 1.0;
  MF_CHECK(mapping_[succ] != kUnassigned,
           "backward order violated: successor not assigned yet");
  return x_[succ];
}

double AssignmentState::products_if(TaskIndex i, MachineIndex u) const {
  // Cached F row (same survival_inverse doubles as attempts_per_success,
  // computed once at Platform construction) via the unchecked span view:
  // this runs once per candidate machine in every greedy scan.
  return downstream_products(i) * problem_->platform.attempts_row(i)[u];
}

double AssignmentState::load(MachineIndex u) const {
  MF_REQUIRE(u < loads_.size(), "machine index out of range");
  return loads_[u];
}

double AssignmentState::load_if(TaskIndex i, MachineIndex u) const {
  return loads_[u] + products_if(i, u) * problem_->platform.time_row(i)[u];
}

bool AssignmentState::allowed(TaskIndex i, MachineIndex u) const {
  return tracker_.allowed(problem_->app.type_of(i), u);
}

void AssignmentState::assign(TaskIndex i, MachineIndex u) {
  MF_REQUIRE(i < mapping_.size(), "task index out of range");
  MF_REQUIRE(mapping_[i] == kUnassigned, "task already assigned");
  tracker_.commit(problem_->app.type_of(i), u);
  const double x = products_if(i, u);
  mapping_[i] = u;
  x_[i] = x;
  loads_[u] += x * problem_->platform.time_row(i)[u];
  ++assigned_;
}

void AssignmentState::reset() {
  tracker_.reset();
  std::fill(mapping_.begin(), mapping_.end(), kUnassigned);
  std::fill(x_.begin(), x_.end(), 0.0);
  std::fill(loads_.begin(), loads_.end(), 0.0);
  assigned_ = 0;
}

double AssignmentState::current_period() const {
  return *std::max_element(loads_.begin(), loads_.end());
}

}  // namespace mf::heuristics
