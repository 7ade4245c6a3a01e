#include "heuristics/h1_random.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "support/check.hpp"

namespace mf::heuristics {

using core::MachineIndex;
using core::TaskIndex;
using core::TypeIndex;

std::optional<core::Mapping> h1(const core::Problem& problem, support::Rng& rng) {
  const core::Application& app = problem.app;
  const std::size_t n = app.task_count();
  const std::size_t m = problem.machine_count();
  const std::size_t p = app.type_count();
  if (p > m) return std::nullopt;

  // Phase 1 (Algorithm 1 lines 1-14): distribute tasks into typed groups.
  struct Group {
    TypeIndex type;
    std::vector<TaskIndex> tasks;
  };
  std::vector<Group> groups;
  std::vector<std::vector<std::size_t>> groups_of_type(p);
  std::size_t free_machines = m;
  std::size_t types_to_go = p;

  auto open_group = [&](TypeIndex t, TaskIndex i) {
    if (groups_of_type[t].empty()) {
      MF_CHECK(types_to_go > 0, "types_to_go underflow");
      --types_to_go;
    }
    groups_of_type[t].push_back(groups.size());
    groups.push_back({t, {i}});
    MF_CHECK(free_machines > 0, "free machine underflow");
    --free_machines;
  };

  for (TaskIndex i : app.backward_order()) {
    const TypeIndex t = app.type_of(i);
    if (!groups_of_type[t].empty()) {
      if (free_machines > types_to_go) {
        open_group(t, i);
      } else {
        const auto& candidates = groups_of_type[t];
        const std::size_t pick = static_cast<std::size_t>(
            rng.uniform_u64(0, candidates.size() - 1));
        groups[candidates[pick]].tasks.push_back(i);
      }
    } else {
      open_group(t, i);
    }
  }

  // Phase 2 (line 15): place each group on a distinct random machine.
  std::vector<MachineIndex> machines(m);
  std::iota(machines.begin(), machines.end(), MachineIndex{0});
  // Fisher-Yates with our deterministic generator.
  for (std::size_t k = m; k > 1; --k) {
    const std::size_t j = static_cast<std::size_t>(rng.uniform_u64(0, k - 1));
    std::swap(machines[k - 1], machines[j]);
  }

  std::vector<MachineIndex> assignment(n, core::kUnassigned);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (TaskIndex i : groups[g].tasks) assignment[i] = machines[g];
  }
  return core::Mapping{std::move(assignment)};
}

}  // namespace mf::heuristics
