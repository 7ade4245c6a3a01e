#include "heuristics/binary_search.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "core/evaluation.hpp"
#include "support/check.hpp"
#include "support/stats.hpp"

namespace mf::heuristics {

using core::MachineIndex;
using core::TaskIndex;

namespace {

/// One greedy pass at `period_bound` onto a freshly reset `state`: each
/// task, in backward order, takes the first machine of its order that is
/// type-feasible and keeps that machine's load within the bound. Returns
/// false as soon as a task fits nowhere.
bool place_all_within(const core::Problem& problem, const MachineSelector& selector,
                      AssignmentState& state, double period_bound) {
  const std::size_t m = problem.machine_count();
  const SpecializationTracker& tracker = state.tracker();
  for (TaskIndex i : problem.app.backward_order()) {
    const std::span<const MachineIndex> order = selector.machines_for(i);
    MF_CHECK(order.size() == m, "selector must order all machines");
    const core::TypeIndex type = problem.app.type_of(i);
    const double x = state.downstream_products(i);
    const std::span<const double> attempts = problem.platform.attempts_row(i);
    const std::span<const double> times = problem.platform.time_row(i);
    const std::span<const double> loads = state.loads();
    MachineIndex chosen = core::kUnassigned;
    for (MachineIndex u : order) {
      if (!tracker.allowed(type, u)) continue;
      // The very doubles load_if(i, u) computes.
      if (loads[u] + (x * attempts[u]) * times[u] > period_bound) continue;
      chosen = u;
      break;
    }
    if (chosen == core::kUnassigned) return false;
    state.assign(i, chosen);
  }
  MF_CHECK(state.all_assigned(), "assignment pass incomplete");
  return true;
}

}  // namespace

std::optional<core::Mapping> assign_within_period(const core::Problem& problem,
                                                  const MachineSelector& selector,
                                                  double period_bound) {
  AssignmentState state(problem);
  if (!place_all_within(problem, selector, state, period_bound)) return std::nullopt;
  return state.mapping();
}

std::optional<core::Mapping> binary_search_schedule(const core::Problem& problem,
                                                    MachineSelector& selector) {
  if (problem.type_count() > problem.machine_count()) return std::nullopt;
  selector.prepare(problem);

  // One state for every probe and one buffer for the best assignment, so a
  // probe allocates nothing.
  AssignmentState state(problem);
  std::vector<MachineIndex> best;
  auto probe = [&](double period_bound) {
    state.reset();
    if (!place_all_within(problem, selector, state, period_bound)) return false;
    const std::span<const MachineIndex> assignment = state.assignment();
    best.assign(assignment.begin(), assignment.end());
    return true;
  };

  // Integer millisecond bounds, exactly as Algorithms 2-3.
  const double upper = std::ceil(core::period_upper_bound(problem));
  if (!probe(upper)) return std::nullopt;  // defensive; UB is always feasible
  // From 2^63 on, the ceiling has no int64 value: the bisection then starts
  // below INT64_MAX, and while its probes fail the mapping at `upper` stands.
  constexpr double kInt64End = 0x1p63;
  std::int64_t lo = 0;
  std::int64_t hi = upper < kInt64End ? static_cast<std::int64_t>(upper)
                                      : std::numeric_limits<std::int64_t>::max();
  while (hi - lo > 1) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    if (probe(static_cast<double>(mid))) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return core::Mapping{std::move(best)};
}

namespace {

/// H2's machine preference: each task ranks in every machine's ascending-w
/// column; the task prefers machines where its rank is best, ties going to
/// smaller w, then to the smaller index.
class RankSelector final : public MachineSelector {
 public:
  void prepare(const core::Problem& problem) override {
    const std::size_t n = problem.task_count();
    const std::size_t m = problem.machine_count();
    // A task's order depends only on its w row, and tasks of one type share
    // a row (Section 3.2). Platform documents that but does not enforce it,
    // so each row is compared with its type's first row: a task whose row
    // equals it copies that task's order, and every other task owns one.
    std::vector<TaskIndex> owners;     // tasks whose order is built here
    std::vector<TaskIndex> source(n);  // the owner whose order task i gets
    owners.reserve(n);
    for (TaskIndex i = 0; i < n; ++i) {
      const TaskIndex first = problem.app.tasks_of_type(problem.app.type_of(i)).front();
      const std::span<const double> row = problem.platform.time_row(i);
      const std::span<const double> first_row = problem.platform.time_row(first);
      const bool copies = first != i && std::equal(row.begin(), row.end(), first_row.begin());
      source[i] = copies ? first : i;
      if (!copies) owners.push_back(i);
    }
    // Dense ranking: tasks with equal w share a rank, matching the paper's
    // "rank of T_i in the ordered set" (sets collapse ties). A rank counts
    // the distinct smaller w, so the order among equal w does not matter,
    // and the owners' rows hold every w a column has, so ranking them alone
    // gives the ranks all n rows give.
    std::vector<std::size_t> ranks(n * m);
    std::vector<std::pair<double, TaskIndex>> by_time(owners.size());
    for (MachineIndex u = 0; u < m; ++u) {
      for (std::size_t k = 0; k < owners.size(); ++k) {
        by_time[k] = {problem.platform.time_row(owners[k])[u], owners[k]};
      }
      std::sort(by_time.begin(), by_time.end());
      std::size_t rank = 0;
      for (std::size_t k = 0; k < by_time.size(); ++k) {
        if (k > 0 && by_time[k].first > by_time[k - 1].first) ++rank;
        ranks[by_time[k].second * m + u] = rank;
      }
    }
    // (rank, w, index) keys are distinct, so a plain sort gives the order a
    // stable sort by (rank, w) of the ascending indices gives.
    struct Key {
      std::size_t rank;
      double time;
      MachineIndex machine;
      bool operator<(const Key& other) const {
        if (rank != other.rank) return rank < other.rank;
        // Tie on rank: "machines are sorted by non-decreasing values of w".
        if (time != other.time) return time < other.time;
        return machine < other.machine;
      }
    };
    std::vector<Key> keys(m);
    tasks_ = n;
    machines_ = m;
    order_.resize(n * m);
    for (TaskIndex i : owners) {
      const std::span<const double> times = problem.platform.time_row(i);
      for (MachineIndex u = 0; u < m; ++u) keys[u] = {ranks[i * m + u], times[u], u};
      std::sort(keys.begin(), keys.end());
      for (MachineIndex k = 0; k < m; ++k) order_[i * m + k] = keys[k].machine;
    }
    for (TaskIndex i = 0; i < n; ++i) {
      if (source[i] == i) continue;
      for (MachineIndex k = 0; k < m; ++k) order_[i * m + k] = order_[source[i] * m + k];
    }
  }

  [[nodiscard]] std::span<const MachineIndex> machines_for(TaskIndex task) const override {
    MF_REQUIRE(task < tasks_, "task index out of range");
    return std::span<const MachineIndex>(order_).subspan(task * machines_, machines_);
  }

 private:
  std::size_t tasks_ = 0;
  std::size_t machines_ = 0;
  std::vector<MachineIndex> order_;  ///< task-major: row i is task i's order
};

/// H3's machine preference: static order by decreasing heterogeneity
/// (standard deviation of the machine's processing-time column).
class HeterogeneitySelector final : public MachineSelector {
 public:
  void prepare(const core::Problem& problem) override {
    const std::size_t m = problem.machine_count();
    heterogeneity_.assign(m, 0.0);
    for (MachineIndex u = 0; u < m; ++u) {
      support::RunningStats stats;
      for (TaskIndex i = 0; i < problem.task_count(); ++i) {
        stats.add(problem.platform.time(i, u));
      }
      heterogeneity_[u] = stats.stddev();
    }
    static_order_.resize(m);
    std::iota(static_order_.begin(), static_order_.end(), MachineIndex{0});
    std::stable_sort(static_order_.begin(), static_order_.end(),
                     [this](MachineIndex a, MachineIndex b) {
                       return heterogeneity_[a] > heterogeneity_[b];
                     });
  }

  [[nodiscard]] std::span<const MachineIndex> machines_for(TaskIndex /*task*/) const override {
    return static_order_;
  }

 private:
  std::vector<double> heterogeneity_;
  std::vector<MachineIndex> static_order_;
};

}  // namespace

std::optional<core::Mapping> H2BinarySearchRank::run(const core::Problem& problem,
                                                     support::Rng& /*rng*/) const {
  RankSelector selector;
  return binary_search_schedule(problem, selector);
}

std::optional<core::Mapping> H3BinarySearchHeterogeneity::run(const core::Problem& problem,
                                                              support::Rng& /*rng*/) const {
  HeterogeneitySelector selector;
  return binary_search_schedule(problem, selector);
}

}  // namespace mf::heuristics
