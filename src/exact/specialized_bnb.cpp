#include "exact/specialized_bnb.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/failure.hpp"
#include "heuristics/binary_search.hpp"
#include "heuristics/h4_family.hpp"
#include "support/check.hpp"

namespace mf::exact {

using core::MachineIndex;
using core::TaskIndex;
using core::TypeIndex;

namespace {

struct Searcher {
  /// A branch: a machine and the load it reaches if the node's task goes
  /// there.
  struct Candidate {
    MachineIndex machine;
    double resulting_load;
  };
  /// The chain walk's sum and maximum from backward-order position d on,
  /// for a downstream product of 1.
  struct Suffix {
    double work = 0.0;
    double single = 0.0;
  };

  const core::Problem& problem;
  const BnBOptions& options;
  // Assignment order: the shared backward traversal.
  const std::vector<TaskIndex>& order;

  // Per-task structure, read once through the checked Application
  // accessors so the hot loops index plain arrays.
  std::vector<TaskIndex> successor;  // kNoTask for sinks
  std::vector<TypeIndex> task_type;

  // Minima over machines of the task at each backward-order position
  // (optimistic completion ingredients), read by lower_bound in order.
  std::vector<double> min_attempts;  // min_u 1/(1-f_{i,u}), i = order[d]
  std::vector<double> min_time;      // min_u w_{i,u}
  /// True when the application is a chain in backward order: the sink
  /// first, then each task's predecessor, so position d feeds position
  /// d - 1.
  bool chain = false;
  /// On chains whose products all stay normal (see the constructor), an
  /// O(1) check rules a bound prune out before the walk runs: the walk's
  /// sum and maximum from position d are at most x0 * suffix[d] * slack.
  bool screen = false;
  double slack = 1.0;
  std::vector<Suffix> suffix;  // n + 1 entries on chains, the last zero

  // Mutable search state.
  std::vector<MachineIndex> assignment;
  std::vector<double> x;      // expected products, valid for assigned tasks
  std::vector<double> loads;  // per machine
  /// Machine sets as bit masks of `words` 64-bit words, machine u at bit
  /// u % 64 of word u / 64: the free machines, and per type t the machines
  /// dedicated to it (words [t * words, t * words + words) of type_masks).
  std::size_t words;
  std::vector<std::uint64_t> free_mask;
  std::vector<std::uint64_t> type_masks;
  std::size_t free_machines;
  std::size_t types_to_go;
  std::vector<std::size_t> type_machine_count;
  double committed_load_sum = 0.0;

  BnBResult result;
  double incumbent = std::numeric_limits<double>::infinity();
  std::vector<MachineIndex> incumbent_assignment;
  bool budget_exhausted = false;
  /// Scratch for lower_bound's in-tree loop, sized once: every entry read
  /// is written earlier in the same call (successors precede predecessors
  /// in the backward order), so stale values are never observed and the
  /// search allocates nothing per node.
  std::vector<double> opt_x_scratch;
  /// Depth-major candidate lists: depth d owns slots [d*m, d*m + m), so a
  /// node's sorted branches stay intact while its subtree runs below it.
  std::vector<Candidate> candidates;

  Searcher(const core::Problem& p, const BnBOptions& opts)
      : problem(p),
        options(opts),
        order(p.app.backward_order()),
        successor(p.task_count()),
        task_type(p.task_count()),
        min_attempts(p.task_count()),
        min_time(p.task_count()),
        assignment(p.task_count(), core::kUnassigned),
        x(p.task_count(), 0.0),
        loads(p.machine_count(), 0.0),
        words((p.machine_count() + 63) / 64),
        free_mask(words, ~std::uint64_t{0}),
        type_masks(p.type_count() * words, 0),
        free_machines(p.machine_count()),
        types_to_go(p.type_count()),
        type_machine_count(p.type_count(), 0),
        opt_x_scratch(p.task_count(), 0.0),
        candidates(p.task_count() * p.machine_count()) {
    for (TaskIndex i = 0; i < p.task_count(); ++i) {
      successor[i] = p.app.successor(i);
      task_type[i] = p.app.type_of(i);
    }
    if (const std::size_t spare = words * 64 - p.machine_count(); spare != 0) {
      free_mask.back() >>= spare;
    }
    // On a chain, no x exceeds the product of every position's largest F.
    double x_cap = 1.0;
    for (std::size_t d = 0; d < order.size(); ++d) {
      const TaskIndex i = order[d];
      double best_f = std::numeric_limits<double>::infinity();
      double worst_f = 0.0;
      double best_w = std::numeric_limits<double>::infinity();
      // Row reductions over the cached F table and the w row (span idiom):
      // the cached attempts value is the same survival_inverse double.
      const std::span<const double> attempts_row = p.platform.attempts_row(i);
      const std::span<const double> time_row = p.platform.time_row(i);
      for (MachineIndex u = 0; u < p.machine_count(); ++u) {
        best_f = std::min(best_f, attempts_row[u]);
        worst_f = std::max(worst_f, attempts_row[u]);
        best_w = std::min(best_w, time_row[u]);
      }
      min_attempts[d] = best_f;
      min_time[d] = best_w;
      x_cap *= worst_f;
    }
    chain = !order.empty() && successor[order[0]] == core::kNoTask;
    for (std::size_t d = 1; d < order.size() && chain; ++d) {
      chain = successor[order[d]] == order[d - 1];
    }
    if (chain) {
      // The screen's rounding argument needs every product it bounds to be
      // a normal double: every w at least 2^-900, and the suffix sums and
      // every x (hence the walk's running product) below 2^900.
      // docs/performance.md, "Why the screen never changes a prune".
      const std::size_t n = order.size();
      suffix.resize(n + 1);
      bool normal = x_cap < 0x1p900;
      for (std::size_t d = n; d-- > 0;) {
        suffix[d].work = min_attempts[d] * (min_time[d] + suffix[d + 1].work);
        suffix[d].single = min_attempts[d] * std::max(min_time[d], suffix[d + 1].single);
        normal = normal && min_time[d] >= 0x1p-900;
      }
      screen = normal && suffix[0].work < 0x1p900;
      slack = 1.0 + static_cast<double>(8 * n + 16) * 0x1p-52;
    }
  }

  [[nodiscard]] double downstream_products(TaskIndex i) const {
    const TaskIndex succ = successor[i];
    return succ == core::kNoTask ? 1.0 : x[succ];
  }

  [[nodiscard]] bool is_free(MachineIndex u) const {
    return (free_mask[u / 64] >> (u % 64) & 1) != 0;
  }

  /// Moves u between the free machines and type t's; its own inverse.
  void toggle_dedicated(TypeIndex t, MachineIndex u) {
    const std::uint64_t bit = std::uint64_t{1} << (u % 64);
    free_mask[u / 64] ^= bit;
    type_masks[t * words + u / 64] ^= bit;
  }

  /// Whether the lower bound on the best complete period below this node
  /// reaches the incumbent.
  [[nodiscard]] bool bound_prunes(std::size_t depth) {
    const double bound = *std::max_element(loads.begin(), loads.end());
    // The full bound is the max of this and two more terms.
    if (bound >= incumbent) return true;
    if (screen) {
      const double x0 = depth == 0 ? 1.0 : x[order[depth - 1]];
      const double work_up = x0 * suffix[depth].work * slack;
      const double single_up = x0 * suffix[depth].single * slack;
      if ((committed_load_sum + work_up) / static_cast<double>(loads.size()) < incumbent &&
          single_up < incumbent) {
        return false;
      }
    }
    return lower_bound(depth, bound) >= incumbent;
  }

  /// Lower bound on the best complete period below this node, whose
  /// largest committed load is `bound`.
  [[nodiscard]] double lower_bound(std::size_t depth, double bound) {
    // Optimistic x for remaining tasks: successors in backward order are
    // either assigned (exact x) or computed earlier in this very loop.
    double optimistic_work = 0.0;
    double best_single = 0.0;
    if (chain) {
      // The first remaining task feeds the last assigned one, and each
      // later one the task just before it, so the downstream product stays
      // in a register: the same products, in the same order, as below.
      double downstream = depth == 0 ? 1.0 : x[order[depth - 1]];
      for (std::size_t d = depth; d < order.size(); ++d) {
        downstream *= min_attempts[d];
        const double increment = downstream * min_time[d];
        optimistic_work += increment;
        best_single = std::max(best_single, increment);
      }
    } else {
      std::vector<double>& opt_x = opt_x_scratch;
      for (std::size_t d = depth; d < order.size(); ++d) {
        const TaskIndex i = order[d];
        const TaskIndex succ = successor[i];
        double downstream = 1.0;
        if (succ != core::kNoTask) {
          downstream = assignment[succ] == core::kUnassigned ? opt_x[succ] : x[succ];
        }
        opt_x[i] = downstream * min_attempts[d];
        const double increment = opt_x[i] * min_time[d];
        optimistic_work += increment;
        best_single = std::max(best_single, increment);
      }
    }
    // Average bound: even perfectly balanced, the max load is at least the
    // mean of total committed + optimistic remaining work.
    const double average_bound =
        (committed_load_sum + optimistic_work) / static_cast<double>(loads.size());
    return std::max({bound, average_bound, best_single});
  }

  void search(std::size_t depth) {
    if (budget_exhausted) return;
    ++result.nodes;
    if (options.max_nodes != 0 && result.nodes > options.max_nodes) {
      budget_exhausted = true;
      return;
    }
    if (depth == order.size()) {
      const double period = *std::max_element(loads.begin(), loads.end());
      if (period < incumbent) {
        incumbent = period;
        incumbent_assignment = assignment;
      }
      return;
    }
    if (bound_prunes(depth)) return;

    const TaskIndex i = order[depth];
    const TypeIndex t = task_type[i];
    const double x_base = downstream_products(i);
    // Hot row views for this task: w, f, and the cached F = 1/(1-f).
    const std::span<const double> time_row = problem.platform.time_row(i);
    const std::span<const double> failure_row = problem.platform.failure_row(i);
    const std::span<const double> attempts_row = problem.platform.attempts_row(i);

    // Candidate machines sorted by resulting load: good incumbents early.
    // Stable insertion puts each candidate after every equal load, which is
    // the order std::stable_sort gives, without allocating. A candidate
    // that already reaches the incumbent is never listed: its visit would
    // skip it, since the incumbent only falls, and leaving it out keeps the
    // order of the rest.
    Candidate* const list = candidates.data() + depth * problem.machine_count();
    std::size_t count = 0;
    bool considered_free = false;
    // A type may open a free machine unless the free ones are all reserved
    // for the types not placed yet.
    const bool may_open = type_machine_count[t] == 0 || free_machines > types_to_go;
    const std::uint64_t* const dedicated = type_masks.data() + t * words;
    for (std::size_t word = 0; word < words; ++word) {
      const std::uint64_t open = may_open ? free_mask[word] : 0;
      for (std::uint64_t bits = dedicated[word] | open; bits != 0; bits &= bits - 1) {
        const std::uint64_t bit = bits & -bits;
        const MachineIndex u = word * 64 + static_cast<MachineIndex>(std::countr_zero(bits));
        const double xi = x_base * attempts_row[u];
        const double resulting_load = loads[u] + xi * time_row[u];
        if (resulting_load >= incumbent) continue;  // dominated branch
        // Free machines with identical (w, f) columns for type t are
        // interchangeable; trying one representative per load profile
        // would be an optimization, but loads differ once tasks are placed.
        // We only collapse the exactly-equivalent case: several *empty*
        // machines with equal w and f for this task. A dropped empty
        // machine's twin reaches the same load and is dropped too. `open`
        // holds u's bit exactly when u is free.
        if ((open & bit) != 0 && loads[u] == 0.0) {
          bool duplicate = false;
          if (considered_free) {
            for (std::size_t k = 0; k < count; ++k) {
              const MachineIndex v = list[k].machine;
              if (is_free(v) && loads[v] == 0.0 && time_row[v] == time_row[u] &&
                  failure_row[v] == failure_row[u]) {
                duplicate = true;
                break;
              }
            }
          }
          considered_free = true;
          if (duplicate) continue;
        }
        std::size_t k = count++;
        for (; k > 0 && list[k - 1].resulting_load > resulting_load; --k) list[k] = list[k - 1];
        list[k] = {u, resulting_load};
      }
    }

    for (std::size_t k = 0; k < count; ++k) {
      const MachineIndex u = list[k].machine;
      if (list[k].resulting_load >= incumbent) continue;  // dominated branch

      // Apply.
      const double xi = x_base * attempts_row[u];
      const double increment = xi * time_row[u];
      const bool newly_dedicated = is_free(u);
      assignment[i] = u;
      x[i] = xi;
      loads[u] += increment;
      committed_load_sum += increment;
      if (newly_dedicated) {
        toggle_dedicated(t, u);
        --free_machines;
        if (type_machine_count[t] == 0) --types_to_go;
        ++type_machine_count[t];
      }

      search(depth + 1);

      // Undo.
      assignment[i] = core::kUnassigned;
      loads[u] -= increment;
      committed_load_sum -= increment;
      if (newly_dedicated) {
        toggle_dedicated(t, u);
        ++free_machines;
        --type_machine_count[t];
        if (type_machine_count[t] == 0) ++types_to_go;
      }
      if (budget_exhausted) return;
    }
  }
};

}  // namespace

BnBResult solve_specialized_optimal(const core::Problem& problem, const BnBOptions& options) {
  BnBResult empty;
  if (problem.type_count() > problem.machine_count()) {
    empty.proven_optimal = true;  // provably infeasible
    return empty;
  }

  Searcher searcher(problem, options);

  if (options.seed_with_heuristics) {
    for (const auto heuristic : {heuristics::h2, heuristics::h4w}) {
      if (auto mapping = heuristic(problem)) {
        const double period = core::period(problem, *mapping);
        if (period < searcher.incumbent) {
          searcher.incumbent = period;
          searcher.incumbent_assignment = mapping->assignment();
        }
      }
    }
  }

  searcher.search(0);

  searcher.result.proven_optimal = !searcher.budget_exhausted;
  if (searcher.result.proven_optimal && searcher.incumbent_assignment.empty()) {
    // A complete search that kept no mapping on a feasible problem pruned
    // every branch on a +inf bound or load (x·w overflowed everywhere), so
    // no mapping has a finite period: take the greedy's.
    if (auto mapping = heuristics::h4w(problem)) {
      searcher.incumbent_assignment = mapping->assignment();
    }
  }
  if (!searcher.incumbent_assignment.empty()) {
    // The incumbent's value is a maximum of running loads undone by
    // subtraction, which drifts; report the period of the mapping itself.
    searcher.result.mapping = core::Mapping{searcher.incumbent_assignment};
    searcher.result.period = core::period(problem, *searcher.result.mapping);
  }
  return searcher.result;
}

}  // namespace mf::exact
