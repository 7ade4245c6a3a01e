// Data-oriented evaluation kernels for local search's move probes.
//
// core/evaluation.hpp is the readable reference implementation of the
// Section 4.1/6.1 period formulas and the only full evaluation; it
// allocates fresh x/period vectors per call and re-evaluates the whole
// mapping. That is fine for scoring one final mapping, but local search
// scans O(n·m + n²) candidate moves per pass, so it probes through two
// classes instead:
//
//   * EvalWorkspace — the incremental evaluator's read-only tables:
//     structure-of-arrays views over the platform rows (w rows, cached
//     F = 1/(1-f) rows from Platform::attempts_row), the successor array,
//     the chain flag, the prefix-sum screen's guard and the
//     predecessor-forest DFS layout (subtree of task i = the tasks whose
//     x_j depend on x_i) that the probes walk.
//
//   * IncrementalEvaluator — maintains the assignment, every x_i, every
//     machine load and the running period, and answers
//     period_if_relocated(i, v, cutoff) / period_if_swapped(i, j, cutoff)
//     by recomputing x only over the affected ancestor chain (the moved
//     tasks' DFS subtrees), then re-summing only the machines that chain
//     touches, from gathered per-task w/F arrays — no mapping copy, no
//     allocation, no per-candidate Mapping construction.
//
// Bit-identity contract: every number the evaluator produces is the exact
// double core::period / core::machine_periods would produce for the same
// mapping. The probes achieve this not by delta arithmetic (subtracting
// from a float sum is inexact) but by re-running the exact reference
// operand sequence: x values are the same multiply chains (recomputed
// only where the move can change them, reused verbatim elsewhere),
// machine loads are re-summed over tasks in ascending order — precisely
// how core::machine_periods accumulates them — from gathered per-task
// table entries. Local search on top of this layer is therefore
// move-for-move identical to the copy-and-recompute original, which the
// pinned-mapping tests in tests/test_eval_kernels.cpp enforce.
//
// Cutoff contract: a probe's optional `cutoff` (default +infinity) lets
// it stop once it has proven the answer is at or above the cutoff. Below
// the cutoff a probe returns the exact double above; at or above it, it
// returns some value that is also at or above the cutoff (a proven lower
// bound, or the exact period). With no cutoff every probe is exact.
//
// A probe with a finite cutoff tries two bounds before it walks. The
// committed bound reads a machine the move cannot lower. On a chain
// labelled along the path whose input passes the workspace's guard, the
// prefix-sum screen then bounds the machines the move can change from
// per-machine prefix and suffix sums of x·w, in O(1) each, scaled down
// by 1 - (8n+16)·2^-52 so that rounding can never lift a bound above the
// load core::period computes. Only the close calls walk.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/application.hpp"
#include "core/mapping.hpp"
#include "core/platform.hpp"

namespace mf::core {

/// Precomputed read-only tables the incremental evaluator probes through.
/// Construct once per problem; evaluators bound to it must not outlive it.
class EvalWorkspace {
 public:
  explicit EvalWorkspace(const Problem& problem);

  [[nodiscard]] const Problem& problem() const noexcept { return *problem_; }
  [[nodiscard]] std::size_t task_count() const noexcept { return n_; }
  [[nodiscard]] std::size_t machine_count() const noexcept { return m_; }

  /// Unchecked SoA row views: w_{i,·} and cached F_{i,·} = 1/(1-f_{i,·}).
  [[nodiscard]] std::span<const double> time_row(TaskIndex i) const noexcept {
    return {times_ + i * m_, m_};
  }
  [[nodiscard]] std::span<const double> attempts_row(TaskIndex i) const noexcept {
    return {attempts_ + i * m_, m_};
  }

  /// Predecessor-forest DFS layout: `subtree(i)` is the DFS-contiguous
  /// range of tasks whose x depends on x_i — i itself first, then every
  /// transitive predecessor, each preceded by its successor. Walking the
  /// range front-to-back therefore always finds x of a task's successor
  /// already computed.
  [[nodiscard]] std::span<const TaskIndex> subtree(TaskIndex i) const noexcept {
    return {dfs_order_.data() + dfs_pos_[i], subtree_size_[i]};
  }
  /// True when `inner` is a strict transitive predecessor of `outer`
  /// (inner's x depends on outer's machine choice). O(1).
  [[nodiscard]] bool in_subtree(TaskIndex outer, TaskIndex inner) const noexcept {
    return dfs_pos_[outer] < dfs_pos_[inner] &&
           dfs_pos_[inner] < dfs_pos_[outer] + subtree_size_[outer];
  }

  /// Successor of each task as a contiguous array (kNoTask for sinks):
  /// the hot loops read it sequentially instead of chasing the
  /// Application's adjacency structure.
  [[nodiscard]] std::span<const TaskIndex> successors() const noexcept { return succ_; }

  /// True for the paper's linear-chain topology labelled along the path
  /// (T_t feeds T_{t+1}), where subtree(i) is exactly the task range
  /// [0, i] and the probes take a branch-free fast path. A chain whose
  /// labels follow another order is not one here.
  [[nodiscard]] bool is_chain() const noexcept { return chain_; }

  /// True on a chain (is_chain()) whose input lies inside the prefix-sum
  /// screen's guard: the product over tasks of each task's largest F is
  /// below 2^900, every w is at least 2^-900, and n times that product
  /// times the largest w is below 2^900. Then no value a probe or
  /// core::period computes overflows or leaves the normal range, and
  /// every one is within a known number of roundings of its real value.
  [[nodiscard]] bool has_prefix_screen() const noexcept { return prefix_screen_; }

 private:
  const Problem* problem_;
  std::size_t n_;
  std::size_t m_;
  const double* times_;     // problem_->platform row-major n x m
  const double* attempts_;  // cached F table, same shape
  bool chain_ = false;
  bool prefix_screen_ = false;

  // Predecessor-forest DFS layout.
  std::vector<TaskIndex> dfs_order_;       // n: tasks in DFS entry order
  std::vector<std::size_t> dfs_pos_;       // n: position of task i in dfs_order_
  std::vector<std::size_t> subtree_size_;  // n: |subtree rooted at i|
  std::vector<TaskIndex> succ_;            // n: successor of each task
};

/// Incremental move evaluation for local search: O(|ancestors| + touched
/// machines) probes instead of O(n + m) full re-evaluations, with zero
/// heap allocations per probe and results bit-identical to
/// core::period on the mutated mapping (below the probe's cutoff).
class IncrementalEvaluator {
 public:
  /// Binds to a workspace (which outlives the evaluator) and a complete
  /// initial assignment.
  IncrementalEvaluator(EvalWorkspace& workspace, std::span<const MachineIndex> assignment);
  IncrementalEvaluator(EvalWorkspace& workspace, const Mapping& mapping);

  /// Current exact system period (== core::period on assignment()).
  [[nodiscard]] double period() const noexcept { return period_; }
  /// Current exact per-machine periods (== core::machine_periods).
  [[nodiscard]] std::span<const double> loads() const noexcept { return loads_; }
  /// Current exact per-task expected products (== core::expected_products).
  [[nodiscard]] std::span<const double> expected_products() const noexcept { return x_; }
  [[nodiscard]] std::span<const MachineIndex> assignment() const noexcept {
    return assignment_;
  }
  [[nodiscard]] MachineIndex machine_of(TaskIndex i) const noexcept { return assignment_[i]; }

  /// Period if task i moved to machine v; the mapping is unchanged. Exact
  /// when below `cutoff`, otherwise some value at or above `cutoff`.
  double period_if_relocated(TaskIndex i, MachineIndex v,
                             double cutoff = std::numeric_limits<double>::infinity());
  /// Period if tasks i and j exchanged machines; mapping unchanged. Exact
  /// when below `cutoff`, otherwise some value at or above `cutoff`.
  double period_if_swapped(TaskIndex i, TaskIndex j,
                           double cutoff = std::numeric_limits<double>::infinity());

  /// Commits a move and restores the full-evaluation invariants.
  void apply_relocate(TaskIndex i, MachineIndex v);
  void apply_swap(TaskIndex i, TaskIndex j);

  /// Rebinds to a new complete assignment without reallocating.
  void reset(std::span<const MachineIndex> assignment);

 private:
  void rebuild();
  /// Shared probe core: tasks `moved_task_[0..moved_count)` take machine
  /// `moved_to_[k]`; everything else keeps its machine. Returns the period
  /// of that candidate mapping under the cutoff contract: committed_bound()
  /// first, then x over the moved tasks' subtrees (into the x_probe_
  /// mirror) and the touched machines' sums, until the running maximum
  /// reaches the cutoff.
  double probe(std::size_t moved_count, double cutoff);
  /// A machine the move neither leaves nor joins, with no member under a
  /// moved task whose F drops, keeps its members and sums the same
  /// multiply chains over operands that are equal or larger; all operands
  /// are non-negative and rounding is monotone, so its new load is at
  /// least its committed one. Returns the highest such committed load at
  /// or above `cutoff`, or -1 when there is none. `candidate_F[k]` is F of
  /// moved task k on its target machine.
  double committed_bound(std::size_t moved_count, const double* candidate_F,
                         double cutoff) const;
  /// On a chain inside the workspace's guard, a move multiplies x of every
  /// task up to the moved one by one F ratio, so a lower bound on each
  /// machine's new load follows from prefix_ and suffix_ in O(1). Returns
  /// the first such bound, scaled by 1 - (8n+16)·2^-52, that reaches
  /// `cutoff` (tried on the machines the move joins, then by committed
  /// load), or -1 when none does. A returned value never exceeds
  /// core::period of the moved mapping.
  double prefix_screen(std::size_t moved_count, const double* candidate_F,
                       double cutoff) const;
  void probe_subtree_x(TaskIndex root);
  double resum_machine(MachineIndex q, std::size_t moved_count) const;

  EvalWorkspace* ws_;
  std::vector<MachineIndex> assignment_;  // n
  std::vector<double> x_;                 // n: exact expected products
  std::vector<double> loads_;             // m: exact machine periods
  double period_ = 0.0;

  // Gathered per-task table entries for the current assignment:
  // w_cur_[t] = w_{t, a(t)} and F_cur_[t] = F_{t, a(t)} — the identical
  // doubles the strided rows hold, laid out for sequential access —
  // plus the fused product xw_[t] = x_[t] * w_cur_[t], the exact term
  // each machine sum accumulates for an unmoved task.
  std::vector<double> w_cur_;  // n
  std::vector<double> F_cur_;  // n
  std::vector<double> xw_;     // n

  // CSR members-per-machine view of the assignment, tasks ascending
  // within each machine (the reference summation order).
  std::vector<TaskIndex> members_;         // n, grouped by machine
  std::vector<std::size_t> member_begin_;  // m + 1
  std::vector<std::size_t> csr_cursor_;    // m, rebuild scratch

  // Bound tables, rebuilt with the assignment: subtree_machines_ holds,
  // for each task, a ceil(m/64)-word mask of the machines that own a task
  // in its subtree; load_order_ lists the machines by committed load,
  // highest first (ties by index).
  std::size_t mask_words_ = 0;
  std::vector<std::uint64_t> subtree_machines_;  // n * mask_words_
  std::vector<MachineIndex> load_order_;         // m

  // Screen tables, rebuilt with the assignment, only when the workspace's
  // has_prefix_screen() holds (empty otherwise): prefix_[t * m + q] sums xw_
  // over machine q's members before chain position t, ascending, and
  // suffix_[t * m + q] over its members from t on, descending.
  std::vector<double> prefix_;  // (n + 1) * m
  std::vector<double> suffix_;  // (n + 1) * m

  // Per-probe scratch (no allocation per probe): x_probe_/xw_probe_ start
  // as copies of x_/xw_ and get the affected subtrees overwritten;
  // touched_words_ is a ceil(m/64)-word bitmask marking EXACTLY the
  // machines owning a recomputed task or receiving a moved one (one bit
  // per machine, however large m is), so the probe resums only those.
  std::vector<double> x_probe_;               // n
  std::vector<double> xw_probe_;              // n
  std::vector<std::uint64_t> touched_words_;  // ceil(m/64)
  TaskIndex moved_task_[2] = {kNoTask, kNoTask};
  MachineIndex moved_to_[2] = {kUnassigned, kUnassigned};
};

}  // namespace mf::core
