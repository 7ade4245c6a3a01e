#include "exp/method.hpp"

#include "heuristics/heuristic.hpp"
#include "solve/registry.hpp"

namespace mf::exp {

bool Method::counts(const solve::SolveResult& result) const {
  if (require_proof && result.status != solve::Status::kOptimal) return false;
  return result.has_mapping();
}

Method method_for(const std::string& solver_id, std::string display_name,
                  solve::SolveParams params) {
  // Resolve eagerly so a typo fails at spec-construction time, with the
  // registry's list of known ids, not in the middle of a sweep.
  const auto solver =
      solve::SolverRegistry::instance().resolve(solve::effective_solver_id(solver_id, params));
  Method method;
  method.solver_id = solver_id;
  method.name = display_name.empty() ? solver->id() : std::move(display_name);
  method.params = std::move(params);
  return method;
}

std::vector<Method> all_heuristic_methods() {
  std::vector<Method> methods;
  for (const auto& heuristic : heuristics::all_heuristics()) {
    methods.push_back(method_for(heuristic->name()));
  }
  return methods;
}

std::vector<Method> heuristic_methods(const std::vector<std::string>& names) {
  std::vector<Method> methods;
  methods.reserve(names.size());
  for (const std::string& name : names) methods.push_back(method_for(name));
  return methods;
}

Method method_optimal_one_to_one() { return method_for("oto", "OtO"); }

Method method_exact_specialized(std::uint64_t max_nodes) {
  solve::SolveParams params;
  params.max_nodes = max_nodes;
  Method method = method_for("bnb", "MIP", params);
  method.require_proof = true;
  return method;
}

}  // namespace mf::exp
