#include "exact/one_to_one.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "core/failure.hpp"
#include "exact/bottleneck_assignment.hpp"
#include "exact/hungarian.hpp"
#include "support/check.hpp"
#include "support/matrix.hpp"

namespace mf::exact {

using core::MachineIndex;
using core::TaskIndex;

bool has_homogeneous_times(const core::Problem& problem) {
  const double w0 = problem.platform.time(0, 0);
  for (TaskIndex i = 0; i < problem.task_count(); ++i) {
    for (MachineIndex u = 0; u < problem.machine_count(); ++u) {
      if (problem.platform.time(i, u) != w0) return false;
    }
  }
  return true;
}

bool has_machine_independent_failures(const core::Problem& problem) {
  for (TaskIndex i = 0; i < problem.task_count(); ++i) {
    const std::span<const double> f = problem.platform.failure_row(i);
    for (const double value : f) {
      if (value != f[0]) return false;
    }
  }
  return true;
}

OneToOneSolution optimal_one_to_one_homogeneous(const core::Problem& problem) {
  MF_REQUIRE(problem.app.is_linear_chain(), "Theorem 1 requires a linear chain");
  MF_REQUIRE(problem.task_count() <= problem.machine_count(),
             "one-to-one mapping requires n <= m");
  MF_REQUIRE(has_homogeneous_times(problem), "Theorem 1 requires homogeneous machines");

  // Minimizing prod_j 1/(1-f_j,a(j)) == minimizing sum_j -log(1 - f_j,a(j)).
  support::Matrix cost(problem.task_count(), problem.machine_count());
  for (TaskIndex i = 0; i < problem.task_count(); ++i) {
    for (MachineIndex u = 0; u < problem.machine_count(); ++u) {
      cost.at(i, u) = -std::log(1.0 - problem.platform.failure(i, u));
    }
  }
  const AssignmentResult assignment = solve_assignment(cost);

  core::Mapping mapping{std::vector<MachineIndex>(assignment.row_to_col.begin(),
                                                  assignment.row_to_col.end())};
  return {mapping, core::period(problem, mapping)};
}

OneToOneSolution optimal_one_to_one_task_failures(const core::Problem& problem) {
  MF_REQUIRE(problem.task_count() <= problem.machine_count(),
             "one-to-one mapping requires n <= m");
  MF_REQUIRE(has_machine_independent_failures(problem),
             "this solver requires f_{i,u} = f_i");

  // x_i is mapping-independent here: accumulate over the downstream path.
  std::vector<double> x(problem.task_count(), 0.0);
  for (TaskIndex i : problem.app.backward_order()) {
    const TaskIndex succ = problem.app.successor(i);
    const double downstream = succ == core::kNoTask ? 1.0 : x[succ];
    x[i] = downstream * core::survival_inverse(problem.platform.failure_row(i)[0]);
  }

  support::Matrix cost(problem.task_count(), problem.machine_count());
  for (TaskIndex i = 0; i < problem.task_count(); ++i) {
    const std::span<const double> w = problem.platform.time_row(i);
    const std::span<double> row = cost.row_data(i);
    for (MachineIndex u = 0; u < w.size(); ++u) row[u] = x[i] * w[u];
  }
  const BottleneckResult bottleneck = solve_bottleneck_assignment(cost);

  core::Mapping mapping{std::vector<MachineIndex>(bottleneck.row_to_col.begin(),
                                                  bottleneck.row_to_col.end())};
  const double period = core::period(problem, mapping);
  MF_CHECK(std::abs(period - bottleneck.bottleneck_cost) <= 1e-9 * std::max(1.0, period),
           "bottleneck value disagrees with evaluated period");
  return {mapping, period};
}

}  // namespace mf::exact
