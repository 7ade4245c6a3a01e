#include "extensions/divisible.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "core/failure.hpp"
#include "heuristics/h4_family.hpp"
#include "support/check.hpp"

namespace mf::ext {

using core::MachineIndex;
using core::TaskIndex;
using core::TypeIndex;

std::vector<double> water_fill(const std::vector<double>& loads,
                               const std::vector<double>& rates, double demand) {
  MF_REQUIRE(loads.size() == rates.size(), "loads/rates size mismatch");
  MF_REQUIRE(demand >= 0.0, "demand must be non-negative");

  std::vector<std::size_t> usable;
  for (std::size_t u = 0; u < rates.size(); ++u) {
    if (rates[u] > 0.0) usable.push_back(u);
  }
  MF_REQUIRE(!usable.empty(), "water_fill needs at least one usable machine");

  std::vector<double> units(loads.size(), 0.0);
  if (demand == 0.0) return units;

  // The optimum equalizes final levels T across used machines:
  //   units_u = max(0, (T - load_u) / rate_u),  sum units_u = demand.
  // Sweep candidate levels in increasing load order; within a prefix the
  // demand absorbed up to level T is sum (T - load_u)/rate_u, linear in T.
  std::sort(usable.begin(), usable.end(),
            [&](std::size_t a, std::size_t b) { return loads[a] < loads[b]; });

  double inv_rate_sum = 0.0;       // sum of 1/rate over active machines
  double weighted_load_sum = 0.0;  // sum of load/rate over active machines
  double level = 0.0;
  std::size_t active = 0;
  while (active < usable.size()) {
    const std::size_t u = usable[active];
    inv_rate_sum += 1.0 / rates[u];
    weighted_load_sum += loads[u] / rates[u];
    ++active;
    // Level T at which exactly `demand` is absorbed by the active set.
    level = (demand + weighted_load_sum) / inv_rate_sum;
    const double next_load = active < usable.size()
                                 ? loads[usable[active]]
                                 : std::numeric_limits<double>::infinity();
    if (level <= next_load) break;  // next machine stays above water
  }
  for (std::size_t k = 0; k < active; ++k) {
    const std::size_t u = usable[k];
    units[u] = std::max(0.0, (level - loads[u]) / rates[u]);
  }
  // Numerical cleanup: rescale so the units sum exactly to the demand.
  const double total = std::accumulate(units.begin(), units.end(), 0.0);
  MF_CHECK(total > 0.0, "water_fill produced no allocation");
  const double scale = demand / total;
  for (double& v : units) v *= scale;
  return units;
}

namespace {

/// Shared backward pass: routes every task's demand over the machines its
/// type owns. `restrict_to_seed` collapses each task's machine set to its
/// seed machine, reproducing the rigid mapping as a degenerate schedule.
DivisibleSchedule run_allocation(const core::Problem& problem,
                                 const core::Mapping& seed_mapping,
                                 bool restrict_to_seed) {
  const std::size_t n = problem.task_count();
  const std::size_t m = problem.machine_count();

  // Machines available per type = machines the seed dedicated to that type.
  std::vector<std::vector<MachineIndex>> machines_of_type(problem.type_count());
  for (TaskIndex i = 0; i < n; ++i) {
    const TypeIndex t = problem.app.type_of(i);
    const MachineIndex u = seed_mapping.machine_of(i);
    auto& group = machines_of_type[t];
    if (std::find(group.begin(), group.end(), u) == group.end()) group.push_back(u);
  }

  DivisibleSchedule schedule;
  schedule.shares = support::Matrix(n, m);
  schedule.machine_loads.assign(m, 0.0);
  schedule.demand.assign(n, 0.0);

  // attempts[i]: products task i pulls from its predecessors per output.
  std::vector<double> attempts(n, 0.0);
  std::vector<double> rates(m, 0.0);
  for (TaskIndex i : problem.app.backward_order()) {
    const TaskIndex succ = problem.app.successor(i);
    const double demand = succ == core::kNoTask ? 1.0 : attempts[succ];
    schedule.demand[i] = demand;

    std::fill(rates.begin(), rates.end(), 0.0);
    if (restrict_to_seed) {
      const MachineIndex u = seed_mapping.machine_of(i);
      rates[u] = problem.platform.attempts_per_success(i, u) * problem.platform.time(i, u);
    } else {
      for (MachineIndex u : machines_of_type[problem.app.type_of(i)]) {
        rates[u] = problem.platform.attempts_per_success(i, u) * problem.platform.time(i, u);
      }
    }
    const std::vector<double> units = water_fill(schedule.machine_loads, rates, demand);

    double total_attempts = 0.0;
    for (MachineIndex u = 0; u < m; ++u) {
      if (units[u] <= 0.0) continue;
      schedule.shares.at(i, u) = units[u];
      schedule.machine_loads[u] += units[u] * rates[u];
      total_attempts += units[u] * problem.platform.attempts_per_success(i, u);
    }
    attempts[i] = total_attempts;
  }

  schedule.period =
      *std::max_element(schedule.machine_loads.begin(), schedule.machine_loads.end());
  return schedule;
}

}  // namespace

DivisibleSchedule divide_workload(const core::Problem& problem,
                                  const core::Mapping& seed_mapping) {
  MF_REQUIRE(seed_mapping.complies_with(core::MappingRule::kSpecialized, problem.app,
                                        problem.machine_count()),
             "seed mapping must be specialized");
  // The greedy water-filling minimizes the *immediate* max load per task
  // but routing part of a stream to a less reliable machine inflates the
  // demand of everything upstream, which can occasionally cost more than
  // balancing gains. Guard the never-worse guarantee by also evaluating
  // the degenerate single-machine routing (== the seed mapping) and
  // keeping the better of the two.
  DivisibleSchedule split = run_allocation(problem, seed_mapping, /*restrict_to_seed=*/false);
  DivisibleSchedule rigid = run_allocation(problem, seed_mapping, /*restrict_to_seed=*/true);
  return split.period <= rigid.period ? std::move(split) : std::move(rigid);
}

std::optional<DivisibleSchedule> divisible_schedule(const core::Problem& problem) {
  const auto seed = heuristics::h4w(problem);
  if (!seed.has_value()) return std::nullopt;
  return divide_workload(problem, *seed);
}

}  // namespace mf::ext
