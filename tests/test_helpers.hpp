// Shared fixtures and builders for the microfactory test suite.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/application.hpp"
#include "core/mapping.hpp"
#include "core/platform.hpp"
#include "solve/service.hpp"
#include "support/matrix.hpp"

namespace mf::test {

/// Builds a platform from explicit initializer lists:
/// times[i][u], failures[i][u].
inline core::Platform make_platform(const std::vector<std::vector<double>>& times,
                                    const std::vector<std::vector<double>>& failures) {
  const std::size_t n = times.size();
  const std::size_t m = times.at(0).size();
  support::Matrix w(n, m);
  support::Matrix f(n, m);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t u = 0; u < m; ++u) {
      w.at(i, u) = times.at(i).at(u);
      f.at(i, u) = failures.at(i).at(u);
    }
  }
  return core::Platform{std::move(w), std::move(f)};
}

/// The same problem with old task i renamed label[i] (a permutation): an
/// application built from successors, whose w and f rows move with the
/// tasks.
inline core::Problem relabelled(const core::Problem& problem,
                                const std::vector<core::TaskIndex>& label) {
  const std::size_t n = problem.task_count();
  const std::size_t m = problem.machine_count();
  std::vector<core::TypeIndex> types(n);
  std::vector<core::TaskIndex> successor(n, core::kNoTask);
  support::Matrix w(n, m);
  support::Matrix f(n, m);
  for (core::TaskIndex i = 0; i < n; ++i) {
    types[label[i]] = problem.app.type_of(i);
    const core::TaskIndex next = problem.app.successor(i);
    if (next != core::kNoTask) successor[label[i]] = label[next];
    for (core::MachineIndex u = 0; u < m; ++u) {
      w.at(label[i], u) = problem.platform.time_row(i)[u];
      f.at(label[i], u) = problem.platform.failure_row(i)[u];
    }
  }
  return core::Problem{core::Application::from_successors(std::move(types), std::move(successor)),
                       core::Platform{std::move(w), std::move(f)}};
}

/// A 3-task chain (types 0,1,0) on 3 machines with distinct speeds and
/// failure rates; small enough to verify by hand, rich enough to exercise
/// specialization.
inline core::Problem tiny_chain_problem() {
  core::Application app = core::Application::linear_chain({0, 1, 0});
  core::Platform platform = make_platform(
      // times: task x machine (type-uniform: tasks 0 and 2 share rows)
      {{100, 200, 300}, {150, 120, 250}, {100, 200, 300}},
      // failures
      {{0.01, 0.02, 0.05}, {0.02, 0.01, 0.03}, {0.01, 0.02, 0.05}});
  return core::Problem{std::move(app), std::move(platform)};
}

/// Uniform platform: every task takes `w` ms and fails with rate `f`
/// everywhere. Useful when only the combinatorics matter.
inline core::Problem uniform_problem(std::vector<core::TypeIndex> types, std::size_t machines,
                                     double w = 100.0, double f = 0.0) {
  core::Application app = core::Application::linear_chain(std::move(types));
  const std::size_t n = app.task_count();
  support::Matrix times(n, machines, w);
  support::Matrix failures(n, machines, f);
  return core::Problem{std::move(app), core::Platform{std::move(times), std::move(failures)}};
}

/// One solve through a serial `SolveService` over `cache` — the path every
/// production caller takes.
inline solve::SolveResult solve_through(solve::ResultCache& cache,
                                        const std::string& solver_id,
                                        const core::Problem& problem,
                                        const solve::SolveParams& params) {
  solve::SolveService service(nullptr, &cache);
  solve::SolveRequest request;
  request.problem = std::make_shared<const core::Problem>(problem);
  request.solver_id = solver_id;
  request.params = params;
  return service.submit(std::move(request)).get();
}

}  // namespace mf::test
