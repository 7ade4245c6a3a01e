#include "solve/adapters.hpp"

#include <chrono>
#include <utility>

#include "core/evaluation.hpp"
#include "exact/brute_force.hpp"
#include "exact/one_to_one.hpp"
#include "exact/specialized_bnb.hpp"
#include "heuristics/heuristic.hpp"
#include "solve/registry.hpp"
#include "support/rng.hpp"

namespace mf::solve {

namespace {

/// Fills the mapping/period pair and returns the result by value so every
/// adapter scores mappings with the same exact analytic period.
SolveResult with_mapping(const core::Problem& problem, core::Mapping mapping, Status status) {
  SolveResult result;
  result.status = status;
  result.period = core::period(problem, mapping);
  result.mapping = std::move(mapping);
  return result;
}

SolveResult infeasible(std::string note) {
  SolveResult result;
  result.status = Status::kInfeasible;
  result.diagnostics.note = std::move(note);
  return result;
}

class HeuristicSolver final : public Solver {
 public:
  explicit HeuristicSolver(std::shared_ptr<const heuristics::Heuristic> heuristic)
      : heuristic_(std::move(heuristic)) {}

  [[nodiscard]] std::string id() const override { return heuristic_->name(); }
  [[nodiscard]] std::string description() const override {
    return "constructive heuristic " + heuristic_->name() + " (Section 6.2)";
  }

  [[nodiscard]] SolveResult solve(const core::Problem& problem,
                                  const SolveParams& params) const override {
    support::Rng rng(params.seed);
    auto mapping = heuristic_->run(problem, rng);
    if (!mapping.has_value()) {
      return infeasible("no specialized mapping exists (more types than machines?)");
    }
    return with_mapping(problem, *std::move(mapping), Status::kFeasible);
  }

 private:
  std::shared_ptr<const heuristics::Heuristic> heuristic_;
};

class OneToOneSolver final : public Solver {
 public:
  [[nodiscard]] std::string id() const override { return "oto"; }
  [[nodiscard]] std::string description() const override {
    return "optimal one-to-one mapping for machine-independent failures (Figure 9's OtO)";
  }

  [[nodiscard]] SolveResult solve(const core::Problem& problem,
                                  const SolveParams& /*params*/) const override {
    if (problem.task_count() > problem.machine_count()) {
      return infeasible("one-to-one mapping needs n <= m");
    }
    if (!exact::has_machine_independent_failures(problem)) {
      return infeasible("failures are machine-dependent: OtO precondition does not hold");
    }
    return with_mapping(problem, exact::optimal_one_to_one_task_failures(problem).mapping,
                        Status::kOptimal);
  }
};

class BnBSolver final : public Solver {
 public:
  [[nodiscard]] std::string id() const override { return "bnb"; }
  [[nodiscard]] std::string description() const override {
    return "exact specialized mapping via branch-and-bound (the paper's CPLEX stand-in)";
  }

  [[nodiscard]] SolveResult solve(const core::Problem& problem,
                                  const SolveParams& params) const override {
    exact::BnBOptions options;
    if (params.max_nodes.has_value()) options.max_nodes = *params.max_nodes;
    const exact::BnBResult bnb = exact::solve_specialized_optimal(problem, options);
    SolveResult result;
    if (bnb.mapping.has_value()) {
      result = with_mapping(problem, *bnb.mapping,
                            bnb.proven_optimal ? Status::kOptimal : Status::kBudgetExhausted);
      if (!bnb.proven_optimal) {
        result.diagnostics.note = "node budget exhausted; best incumbent attached";
      }
    } else if (bnb.proven_optimal) {
      result = infeasible("no specialized mapping exists (more types than machines)");
    } else {
      result.status = Status::kBudgetExhausted;
      result.diagnostics.note = "node budget exhausted before any incumbent";
    }
    result.diagnostics.nodes_explored = bnb.nodes;
    return result;
  }
};

class BruteForceSolver final : public Solver {
 public:
  [[nodiscard]] std::string id() const override { return "brute"; }
  [[nodiscard]] std::string description() const override {
    return "exhaustive enumeration of specialized mappings (tiny instances only)";
  }

  [[nodiscard]] SolveResult solve(const core::Problem& problem,
                                  const SolveParams& /*params*/) const override {
    const exact::BruteForceResult brute =
        exact::brute_force_optimal(problem, core::MappingRule::kSpecialized);
    SolveResult result;
    if (brute.mapping.has_value()) {
      result = with_mapping(problem, *brute.mapping, Status::kOptimal);
    } else {
      result = infeasible("no specialized mapping exists (more types than machines)");
    }
    result.diagnostics.nodes_explored = brute.evaluated;
    return result;
  }
};

class RefinedSolver final : public Solver {
 public:
  explicit RefinedSolver(std::shared_ptr<const Solver> base) : base_(std::move(base)) {}

  [[nodiscard]] std::string id() const override { return base_->id() + "+ls"; }
  [[nodiscard]] std::string description() const override {
    return base_->description() + ", then local-search refinement";
  }

  [[nodiscard]] SolveResult solve(const core::Problem& problem,
                                  const SolveParams& params) const override {
    const auto start = std::chrono::steady_clock::now();
    SolveResult result = base_->solve(problem, params);
    if (!result.mapping.has_value()) return result;
    const double base_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
            .count();
    if (params.time_limit_ms > 0.0 && base_ms >= params.time_limit_ms) {
      if (!result.diagnostics.note.empty()) result.diagnostics.note += "; ";
      result.diagnostics.note += "refinement skipped: base solve used up the time limit";
      return result;
    }
    const ext::RefinementResult refined =
        ext::refine_mapping(problem, *result.mapping, params.refinement);
    result.diagnostics.refined = true;
    result.diagnostics.refiner_improvement_ms = refined.initial_period - refined.period;
    result.diagnostics.refiner_moves = refined.moves_applied;
    result.diagnostics.refiner_converged = refined.converged;
    if (refined.moves_applied > 0 && result.status == Status::kOptimal) {
      // The base proof covered the base mapping (and, for oto, a narrower
      // rule set); once refinement improves on it the claim no longer holds.
      result.status = Status::kFeasible;
      if (!result.diagnostics.note.empty()) result.diagnostics.note += "; ";
      result.diagnostics.note += "refinement improved on the base optimum";
    }
    result.mapping = refined.mapping;
    result.period = refined.period;
    return result;
  }

 private:
  std::shared_ptr<const Solver> base_;
};

class FunctionSolver final : public Solver {
 public:
  FunctionSolver(std::string id, std::string description,
                 std::function<SolveResult(const core::Problem&, const SolveParams&)> fn)
      : id_(std::move(id)), description_(std::move(description)), fn_(std::move(fn)) {}

  [[nodiscard]] std::string id() const override { return id_; }
  [[nodiscard]] std::string description() const override { return description_; }
  [[nodiscard]] SolveResult solve(const core::Problem& problem,
                                  const SolveParams& params) const override {
    return fn_(problem, params);
  }

 private:
  std::string id_;
  std::string description_;
  std::function<SolveResult(const core::Problem&, const SolveParams&)> fn_;
};

}  // namespace

std::shared_ptr<const Solver> make_refined_solver(std::shared_ptr<const Solver> base) {
  return std::make_shared<RefinedSolver>(std::move(base));
}

std::shared_ptr<const Solver> make_function_solver(
    std::string id, std::string description,
    std::function<SolveResult(const core::Problem&, const SolveParams&)> fn) {
  return std::make_shared<FunctionSolver>(std::move(id), std::move(description), std::move(fn));
}

void register_builtin_solvers(SolverRegistry& registry) {
  for (auto& heuristic : heuristics::all_heuristics()) {
    if (!registry.contains(heuristic->name())) {
      registry.register_solver(std::make_shared<HeuristicSolver>(std::move(heuristic)));
    }
  }
  const std::shared_ptr<const Solver> exact_solvers[] = {
      std::make_shared<OneToOneSolver>(), std::make_shared<BnBSolver>(),
      std::make_shared<BruteForceSolver>()};
  for (const auto& solver : exact_solvers) {
    if (!registry.contains(solver->id())) registry.register_solver(solver);
  }
}

}  // namespace mf::solve
