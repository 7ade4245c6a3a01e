#include "solve/solver.hpp"

#include <chrono>
#include <memory>
#include <utility>

#include "solve/cache.hpp"
#include "solve/service.hpp"

namespace mf::solve {

std::string to_string(Status status) {
  switch (status) {
    case Status::kOptimal:
      return "optimal";
    case Status::kFeasible:
      return "feasible";
    case Status::kInfeasible:
      return "infeasible";
    case Status::kBudgetExhausted:
      return "budget-exhausted";
    case Status::kError:
      return "error";
  }
  return "?";
}

std::string to_string(CachePolicy policy) {
  switch (policy) {
    case CachePolicy::kOff:
      return "off";
    case CachePolicy::kRead:
      return "read";
    case CachePolicy::kReadWrite:
      return "read-write";
  }
  return "?";
}

std::string effective_solver_id(std::string solver_id, const SolveParams& params) {
  if (params.local_search && !solver_id.ends_with("+ls")) solver_id += "+ls";
  return solver_id;
}

SolveResult timed_solve(const Solver& solver, const core::Problem& problem,
                        const SolveParams& params) {
  const auto start = std::chrono::steady_clock::now();
  SolveResult result = solver.solve(problem, params);
  result.diagnostics.wall_time_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  result.diagnostics.solver_id = solver.id();
  result.diagnostics.scenario = params.scenario;
  return result;
}

SolveResult run(const core::Problem& problem, const std::string& solver_id,
                const SolveParams& params) {
  SolveRequest request;
  // Borrowed, not copied: the aliasing constructor with no owner makes a
  // pointer that never deletes, and a serial service answers before
  // submit() returns, while the caller's problem is still alive.
  request.problem = std::shared_ptr<const core::Problem>(
      std::shared_ptr<const core::Problem>(), &problem);
  request.solver_id = solver_id;
  request.params = params;
  return SolveService(nullptr, &ResultCache::global()).submit(std::move(request)).get();
}

}  // namespace mf::solve
