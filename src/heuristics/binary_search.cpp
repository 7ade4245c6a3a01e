#include "heuristics/binary_search.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
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

/// What one greedy pass decided at each backward-order position it reached
/// (position k places task backward_order()[k]):
///   machine[k]  — the machine it took;
///   accepted[k] — the load that machine reached;
///   rejected[k] — the smallest load among the allowed machines ahead of it
///                 in the order, which the bound turned away (+inf if none).
/// A failed pass decided `decided` positions and stopped at the next one,
/// where rejected[decided] is the smallest load any allowed machine would
/// have reached.
struct PassRecord {
  explicit PassRecord(std::size_t tasks) : machine(tasks), accepted(tasks), rejected(tasks) {}

  /// Leading positions at which a pass at `bound` decides as this one did.
  /// Position k sees the same state when every earlier decision is the
  /// same, so it compares the same doubles, and it then keeps its machine
  /// exactly when the bound still lets accepted[k] through and still turns
  /// every rejected load away.
  [[nodiscard]] std::size_t shared_prefix(double bound) const {
    std::size_t k = 0;
    while (k < decided && !(accepted[k] > bound) && rejected[k] > bound) ++k;
    return k;
  }

  std::vector<MachineIndex> machine;
  std::vector<double> accepted;
  std::vector<double> rejected;
  std::size_t decided = 0;  ///< a passed record decided every position
  bool failed = false;
};

/// The greedy pass at `period_bound` from backward-order position `start`
/// on: each task takes the first machine of its order that is type-feasible
/// and keeps that machine's load within the bound. `state` must hold the
/// pass's first `start` placements. Writes the decisions into `record` and
/// returns false as soon as a task fits nowhere.
bool place_from(const core::Problem& problem, const MachineSelector& selector,
                AssignmentState& state, double period_bound, std::size_t start,
                PassRecord& record) {
  const std::size_t m = problem.machine_count();
  const SpecializationTracker& tracker = state.tracker();
  const std::vector<TaskIndex>& backward = problem.app.backward_order();
  for (std::size_t k = start; k < backward.size(); ++k) {
    const TaskIndex i = backward[k];
    const std::span<const MachineIndex> order = selector.machines_for(i);
    MF_CHECK(order.size() == m, "selector must order all machines");
    const core::TypeIndex type = problem.app.type_of(i);
    const double x = state.downstream_products(i);
    const std::span<const double> attempts = problem.platform.attempts_row(i);
    const std::span<const double> times = problem.platform.time_row(i);
    const std::span<const double> loads = state.loads();
    MachineIndex chosen = core::kUnassigned;
    double rejected = std::numeric_limits<double>::infinity();
    for (MachineIndex u : order) {
      if (!tracker.allowed(type, u)) continue;
      // The very doubles load_if(i, u) computes.
      const double load = loads[u] + (x * attempts[u]) * times[u];
      if (load > period_bound) {
        rejected = std::min(rejected, load);
        continue;
      }
      chosen = u;
      record.accepted[k] = load;
      break;
    }
    record.rejected[k] = rejected;
    if (chosen == core::kUnassigned) {
      record.decided = k;
      record.failed = true;
      return false;
    }
    record.machine[k] = chosen;
    state.assign(i, chosen);
  }
  MF_CHECK(state.all_assigned(), "assignment pass incomplete");
  record.decided = backward.size();
  record.failed = false;
  return true;
}

}  // namespace

std::optional<core::Mapping> assign_within_period(const core::Problem& problem,
                                                  const MachineSelector& selector,
                                                  double period_bound) {
  AssignmentState state(problem);
  PassRecord record(problem.task_count());
  if (!place_from(problem, selector, state, period_bound, 0, record)) return std::nullopt;
  return state.mapping();
}

std::optional<core::Mapping> binary_search_schedule(const core::Problem& problem,
                                                    MachineSelector& selector) {
  if (problem.type_count() > problem.machine_count()) return std::nullopt;
  selector.prepare(problem);

  // One state and three records serve every probe, so a probe allocates
  // nothing: the last passing probe, the last failing probe, and the one
  // being written. An unwritten record has decided nothing and failed
  // nowhere, so it offers no prefix.
  const std::vector<TaskIndex>& backward = problem.app.backward_order();
  const std::size_t n = backward.size();
  AssignmentState state(problem);
  PassRecord records[3] = {PassRecord(n), PassRecord(n), PassRecord(n)};
  PassRecord* passed = &records[0];
  PassRecord* failed = &records[1];
  PassRecord* current = &records[2];
  auto probe = [&](double period_bound) {
    const std::size_t from_passed = passed->shared_prefix(period_bound);
    if (from_passed == n) return true;  // the last passing probe's mapping again
    const std::size_t from_failed = failed->shared_prefix(period_bound);
    if (failed->failed && from_failed == failed->decided &&
        failed->rejected[from_failed] > period_bound) {
      return false;  // the last failing probe's failure again
    }
    // Replay the longer shared prefix, then scan the rest.
    const PassRecord& source = from_failed > from_passed ? *failed : *passed;
    const std::size_t start = std::max(from_passed, from_failed);
    state.reset();
    for (std::size_t k = 0; k < start; ++k) {
      current->machine[k] = source.machine[k];
      current->accepted[k] = source.accepted[k];
      current->rejected[k] = source.rejected[k];
      state.assign(backward[k], source.machine[k]);
    }
    const bool passes = place_from(problem, selector, state, period_bound, start, *current);
    std::swap(current, passes ? passed : failed);
    return passes;
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
  std::vector<MachineIndex> best(n);
  for (std::size_t k = 0; k < n; ++k) best[backward[k]] = passed->machine[k];
  return core::Mapping{std::move(best)};
}

namespace {

/// One owner row's w in one column, keyed by the w's bits.
struct RankCell {
  std::uint64_t bits;
  std::uint32_t task;
  std::uint32_t column;
};

/// ranks[i * m + u] = the dense rank of owner i's w among the owners' w in
/// column u: the number of distinct smaller values there.
///
/// Platform requires every w to be > 0 and finite, so the w's bit patterns,
/// read as unsigned integers, order exactly as their values do, and equal
/// values have equal bits. One LSD radix sort over the bytes that vary
/// among the owners' w puts every owner cell in ascending order, and one
/// scan in that order ranks every column: a column's rank rises at each
/// value it has not shown before. Integer-valued w (every figure's) vary in
/// two or three of the eight bytes.
void rank_columns(const core::Problem& problem, std::span<const TaskIndex> owners,
                  std::vector<std::size_t>& ranks) {
  const std::size_t m = problem.machine_count();
  MF_CHECK(problem.task_count() <= UINT32_MAX && m <= UINT32_MAX,
           "rank cells hold 32-bit task and machine indices");
  std::vector<RankCell> cells(owners.size() * m);
  std::vector<RankCell> sorted(cells.size());
  const std::uint64_t first = std::bit_cast<std::uint64_t>(problem.platform.time_row(owners[0])[0]);
  std::uint64_t varying = 0;  // the bits in which some w differs from the first
  std::size_t k = 0;
  for (const TaskIndex i : owners) {
    const std::span<const double> row = problem.platform.time_row(i);
    for (MachineIndex u = 0; u < m; ++u) {
      const std::uint64_t bits = std::bit_cast<std::uint64_t>(row[u]);
      varying |= bits ^ first;
      cells[k++] = {bits, static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(u)};
    }
  }
  std::array<std::size_t, 256> starts;
  for (int shift = 0; shift < 64; shift += 8) {
    if (((varying >> shift) & 0xFF) == 0) continue;  // every cell has the same byte here
    starts.fill(0);
    for (const RankCell& cell : cells) ++starts[(cell.bits >> shift) & 0xFF];
    std::exclusive_scan(starts.begin(), starts.end(), starts.begin(), std::size_t{0});
    for (const RankCell& cell : cells) sorted[starts[(cell.bits >> shift) & 0xFF]++] = cell;
    cells.swap(sorted);
  }
  // Each column's last value and its rank. No w has the bits of +0.0, so a
  // column's first cell always starts a new value, and its rank counter,
  // starting one below zero, wraps to 0 there.
  struct Column {
    std::uint64_t bits = 0;
    std::size_t rank = static_cast<std::size_t>(-1);
  };
  std::vector<Column> columns(m);
  for (const RankCell& cell : cells) {
    Column& column = columns[cell.column];
    if (cell.bits != column.bits) {
      column.bits = cell.bits;
      ++column.rank;
    }
    ranks[cell.task * m + cell.column] = column.rank;
  }
}

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
    rank_columns(problem, owners, ranks);
    // An owner's order is its machines by (rank, w, index). Its ranks lie in
    // [0, d) for d owner rows, so a counting sort by rank groups the
    // machines into one run per rank, and sorting each run by (w, index)
    // ("machines are sorted by non-decreasing values of w") finishes the
    // order. Runs are short on generated instances; sorting them, rather
    // than insertion-sorting, keeps a row that holds one rank on many
    // machines at O(m log m).
    std::vector<std::size_t> run_end(owners.size());
    tasks_ = n;
    machines_ = m;
    order_.resize(n * m);
    for (TaskIndex i : owners) {
      const std::span<const double> times = problem.platform.time_row(i);
      const std::size_t* rank_of = ranks.data() + i * m;
      MachineIndex* order = order_.data() + i * m;
      std::fill(run_end.begin(), run_end.end(), std::size_t{0});
      for (MachineIndex u = 0; u < m; ++u) ++run_end[rank_of[u]];
      // Exclusive prefix sums: each rank's first slot, which placing the
      // machines in index order advances to the end of that rank's run.
      std::exclusive_scan(run_end.begin(), run_end.end(), run_end.begin(), std::size_t{0});
      for (MachineIndex u = 0; u < m; ++u) order[run_end[rank_of[u]]++] = u;
      const auto by_w = [times](MachineIndex a, MachineIndex b) {
        return times[a] != times[b] ? times[a] < times[b] : a < b;
      };
      std::size_t begin = 0;
      for (const std::size_t end : run_end) {
        if (end - begin > 1) std::sort(order + begin, order + end, by_w);
        begin = end;
      }
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
    // One accumulator per column, filled row by row: each column gets its w
    // in task order, as a column walk would add them, so every standard
    // deviation has the same bits, and the columns' division chains do not
    // wait on one another.
    std::vector<support::RunningStats> columns(m);
    for (TaskIndex i = 0; i < problem.task_count(); ++i) {
      const std::span<const double> row = problem.platform.time_row(i);
      for (MachineIndex u = 0; u < m; ++u) columns[u].add(row[u]);
    }
    heterogeneity_.resize(m);
    for (MachineIndex u = 0; u < m; ++u) heterogeneity_[u] = columns[u].stddev();
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
