// The built-in solvers, which `register_builtin_solvers` registers, plus
// the composition helpers the registry uses. Each built-in is a plain
// function lifted by `make_function_solver`, the same path a user's solver
// takes:
//
//   id        function                                   status semantics
//   -------   ----------------------------------------   -----------------
//   H1..H4f   heuristics::h1 .. h4f (Algorithms 1-6)     kFeasible / kInfeasible
//   oto       exact::optimal_one_to_one_task_failures    kOptimal when the
//             (Figure 9's "OtO")                         machine-independent
//                                                        precondition holds
//   bnb       exact::solve_specialized_optimal           kOptimal with proof,
//             (the paper's CPLEX stand-in)               kBudgetExhausted
//                                                        otherwise
//   brute     exact::brute_force_optimal                 kOptimal (tiny n, m)
//
// `make_refined_solver` wraps any of them with the local-search stage,
// which the registry surfaces as the "+ls" id suffix. The Section 6.1 MIP
// (lp::solve_specialized_mip) is not a registered solver: no figure runs
// it, and a daemon client could start solves of it that do not finish.
// Tests call it directly as the oracle for bnb.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "solve/solver.hpp"

namespace mf::solve {

/// Wraps `base` with a local-search refinement stage: the base mapping (if
/// any) is improved with ext::refine_mapping and the gain is recorded in
/// the result diagnostics. The wrapped id is `base->id() + "+ls"`.
[[nodiscard]] std::shared_ptr<const Solver> make_refined_solver(
    std::shared_ptr<const Solver> base);

/// Lifts a plain function into a Solver — how every built-in is
/// registered, and the quickest way to register an experimental method or
/// a test double.
[[nodiscard]] std::shared_ptr<const Solver> make_function_solver(
    std::string id, std::string description,
    std::function<SolveResult(const core::Problem&, const SolveParams&)> fn);

class SolverRegistry;

/// Registers the built-ins above into `registry`, skipping ids
/// already present. Called automatically on first
/// `SolverRegistry::instance()` access.
void register_builtin_solvers(SolverRegistry& registry);

}  // namespace mf::solve
