#include "solve/registry.hpp"

#include <sstream>
#include <stdexcept>
#include <string_view>

#include "solve/adapters.hpp"
#include "support/record.hpp"

namespace mf::solve {

namespace {

std::string join_ids(const std::vector<std::string>& ids) {
  std::ostringstream out;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out << ", ";
    out << ids[i];
  }
  return out.str();
}

}  // namespace

SolverRegistry& SolverRegistry::instance() {
  // Leaked singleton: solvers may be resolved from static destructors of
  // other TUs, so the registry must outlive everything.
  static SolverRegistry* registry = [] {
    auto* r = new SolverRegistry;
    register_builtin_solvers(*r);
    return r;
  }();
  return *registry;
}

void SolverRegistry::register_solver(std::shared_ptr<const Solver> solver) {
  if (solver == nullptr) throw std::invalid_argument("cannot register a null solver");
  const std::string id = solver->id();
  if (id.empty()) throw std::invalid_argument("cannot register a solver with an empty id");
  if (id.find('+') != std::string::npos) {
    throw std::invalid_argument("solver id '" + id +
                                "' is invalid: '+' is reserved for composition suffixes "
                                "such as \"+ls\"");
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!solvers_.emplace(id, std::move(solver)).second) {
    throw std::invalid_argument("solver id '" + id + "' is already registered");
  }
}

std::shared_ptr<const Solver> SolverRegistry::find(const std::string& id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = solvers_.find(id);
  return it == solvers_.end() ? nullptr : it->second;
}

std::shared_ptr<const Solver> SolverRegistry::resolve(const std::string& id) const {
  const std::size_t plus = id.find('+');
  const std::string base_id = id.substr(0, plus);
  std::shared_ptr<const Solver> solver = find(base_id);
  if (solver == nullptr) {
    throw std::invalid_argument("unknown solver '" + support::clipped(base_id) +
                                "'; available solvers: " + join_ids(ids()) +
                                " (append \"+ls\" for local-search refinement)");
  }
  if (plus == std::string::npos) return solver;
  const std::string_view suffix = std::string_view(id).substr(plus);
  if (suffix != "+ls") {
    throw std::invalid_argument("unsupported solver suffix '" + support::clipped(suffix) +
                                "'; an id takes at most one suffix, +ls (local-search "
                                "refinement)");
  }
  return make_refined_solver(std::move(solver));
}

bool SolverRegistry::contains(const std::string& id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return solvers_.count(id) > 0;
}

std::vector<std::string> SolverRegistry::ids() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> ids;
  ids.reserve(solvers_.size());
  for (const auto& [id, solver] : solvers_) ids.push_back(id);
  return ids;  // std::map iteration is already sorted
}

}  // namespace mf::solve
