// Tests for the heuristics' shared bookkeeping: the specialization tracker
// (including the machine-reservation feasibility rule) and the assignment
// state's load/x accounting.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/evaluation.hpp"
#include "exp/scenario.hpp"
#include "heuristics/assignment_state.hpp"
#include "test_helpers.hpp"

namespace mf::heuristics {
namespace {

using core::Application;
using core::Mapping;
using core::Problem;

TEST(SpecializationTracker, RejectsMoreTypesThanMachines) {
  const Application app = Application::linear_chain({0, 1, 2});
  EXPECT_THROW(SpecializationTracker(app, 2), std::invalid_argument);
}

TEST(SpecializationTracker, DedicationBlocksOtherTypes) {
  const Application app = Application::linear_chain({0, 1});
  SpecializationTracker tracker(app, 3);
  EXPECT_TRUE(tracker.allowed(0, 0));
  tracker.commit(0, 0);
  EXPECT_TRUE(tracker.allowed(0, 0));   // same type: fine
  EXPECT_FALSE(tracker.allowed(1, 0));  // other type: blocked
  EXPECT_EQ(tracker.type_of_machine(0), 0u);
  EXPECT_FALSE(tracker.is_free(0));
  EXPECT_TRUE(tracker.is_free(1));
}

TEST(SpecializationTracker, ReservationRuleProtectsUnseenTypes) {
  // 2 machines, 2 types: once type 0 owns machine 0, it may NOT also claim
  // machine 1 — that would starve type 1.
  const Application app = Application::linear_chain({0, 0, 1});
  SpecializationTracker tracker(app, 2);
  tracker.commit(0, 0);
  EXPECT_FALSE(tracker.allowed(0, 1)) << "free==types_to_go: machine 1 is reserved";
  EXPECT_TRUE(tracker.allowed(1, 1));
  tracker.commit(1, 1);
  EXPECT_EQ(tracker.types_to_go(), 0u);
  EXPECT_EQ(tracker.free_machines(), 0u);
}

TEST(SpecializationTracker, SurplusMachinesAllowSecondGroup) {
  // 3 machines, 2 types: type 0 may claim a second machine.
  const Application app = Application::linear_chain({0, 0, 1});
  SpecializationTracker tracker(app, 3);
  tracker.commit(0, 0);
  EXPECT_TRUE(tracker.allowed(0, 1)) << "one spare machine beyond the reservation";
  tracker.commit(0, 1);
  EXPECT_FALSE(tracker.allowed(0, 2)) << "last machine is reserved for type 1";
  tracker.commit(1, 2);
  EXPECT_EQ(tracker.machines_of_type(0).size(), 2u);
  EXPECT_EQ(tracker.machines_of_type(1).size(), 1u);
}

TEST(SpecializationTracker, CommitViolationThrows) {
  const Application app = Application::linear_chain({0, 1});
  SpecializationTracker tracker(app, 2);
  tracker.commit(0, 0);
  EXPECT_THROW(tracker.commit(1, 0), std::invalid_argument);
}

TEST(AssignmentState, TracksLoadsAndX) {
  const Problem problem = test::tiny_chain_problem();
  AssignmentState state(problem);

  // Backward order: T2, T1, T0.
  EXPECT_DOUBLE_EQ(state.downstream_products(2), 1.0);
  const double x2 = state.products_if(2, 0);
  EXPECT_NEAR(x2, 1.0 / 0.99, 1e-12);
  EXPECT_NEAR(state.load_if(2, 0), x2 * 100.0, 1e-9);

  state.assign(2, 0);
  EXPECT_NEAR(state.load(0), x2 * 100.0, 1e-9);
  EXPECT_NEAR(state.downstream_products(1), x2, 1e-12);

  state.assign(1, 1);
  state.assign(0, 0);
  EXPECT_TRUE(state.all_assigned());

  const Mapping mapping = state.mapping();
  EXPECT_EQ(mapping, Mapping({0, 1, 0}));
  // The state's incremental period matches the analytic evaluation.
  EXPECT_NEAR(state.current_period(), core::period(problem, mapping), 1e-9);
}

TEST(AssignmentState, BackwardOrderViolationDetected) {
  const Problem problem = test::tiny_chain_problem();
  AssignmentState state(problem);
  // Asking for T1's downstream products before T2 is assigned is a bug.
  EXPECT_THROW((void)state.downstream_products(1), std::logic_error);
}

TEST(AssignmentState, DoubleAssignRejected) {
  const Problem problem = test::tiny_chain_problem();
  AssignmentState state(problem);
  state.assign(2, 0);
  EXPECT_THROW(state.assign(2, 1), std::invalid_argument);
}

TEST(AssignmentState, SpecializationEnforcedOnAssign) {
  const Problem problem = test::tiny_chain_problem();  // types 0,1,0
  AssignmentState state(problem);
  state.assign(2, 0);  // type 0 -> M0
  EXPECT_FALSE(state.allowed(1, 0));
  EXPECT_THROW(state.assign(1, 0), std::invalid_argument);
}

/// Places the tasks in backward order, stopping after `count`, each on the
/// allowed machine with the smallest load_if (the first on ties).
void least_load_pass(const Problem& problem, AssignmentState& state, std::size_t count) {
  const auto& order = problem.app.backward_order();
  for (std::size_t k = 0; k < count && k < order.size(); ++k) {
    const core::TaskIndex i = order[k];
    core::MachineIndex best = core::kUnassigned;
    for (core::MachineIndex u = 0; u < problem.machine_count(); ++u) {
      if (!state.allowed(i, u)) continue;
      if (best == core::kUnassigned || state.load_if(i, u) < state.load_if(i, best)) best = u;
    }
    state.assign(i, best);
  }
}

void expect_same_observables(const Problem& problem, const AssignmentState& state,
                             const AssignmentState& fresh) {
  EXPECT_TRUE(std::ranges::equal(state.loads(), fresh.loads()));
  EXPECT_EQ(state.all_assigned(), fresh.all_assigned());
  EXPECT_EQ(state.mapping(), fresh.mapping());
  EXPECT_TRUE(std::ranges::equal(state.assignment(), fresh.assignment()));
  EXPECT_EQ(state.tracker().free_machines(), fresh.tracker().free_machines());
  EXPECT_EQ(state.tracker().types_to_go(), fresh.tracker().types_to_go());
  for (core::TypeIndex t = 0; t < problem.type_count(); ++t) {
    EXPECT_EQ(state.tracker().machines_of_type(t), fresh.tracker().machines_of_type(t));
  }
  for (core::MachineIndex u = 0; u < problem.machine_count(); ++u) {
    EXPECT_EQ(state.tracker().type_of_machine(u), fresh.tracker().type_of_machine(u));
  }
}

TEST(AssignmentState, ResetMatchesFreshStateAndRepeatsPass) {
  exp::Scenario scenario;
  scenario.tasks = 12;
  scenario.machines = 5;
  scenario.types = 3;
  const Problem problem = exp::generate(scenario, 4);
  const std::size_t n = problem.task_count();

  AssignmentState state(problem);
  least_load_pass(problem, state, n / 2);
  ASSERT_LT(state.tracker().free_machines(), problem.machine_count());
  state.reset();
  const AssignmentState fresh(problem);
  expect_same_observables(problem, state, fresh);

  // A pass after the reset retraces a pass on a fresh state exactly.
  AssignmentState fresh_pass(problem);
  least_load_pass(problem, state, n);
  least_load_pass(problem, fresh_pass, n);
  EXPECT_TRUE(state.all_assigned());
  expect_same_observables(problem, state, fresh_pass);
  EXPECT_EQ(state.current_period(), fresh_pass.current_period());
}

}  // namespace
}  // namespace mf::heuristics
