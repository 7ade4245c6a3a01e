#include "core/eval_kernels.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>

#include "core/simd.hpp"
#include "support/check.hpp"

namespace mf::core {

EvalWorkspace::EvalWorkspace(const Problem& problem)
    : problem_(&problem),
      n_(problem.task_count()),
      m_(problem.machine_count()),
      times_(problem.platform.time_row(0).data()),
      attempts_(problem.platform.attempts_row(0).data()),
      chain_(problem.app.is_linear_chain()),
      dfs_pos_(n_, 0),
      subtree_size_(n_, 0),
      succ_(n_, kNoTask) {
  for (TaskIndex t = 0; t < n_; ++t) succ_[t] = problem.app.successor(t);
  // The chain fast path walks tasks by label, so it also needs the labels
  // to follow the path; a chain listed in another order takes the DFS path.
  for (TaskIndex t = 0; chain_ && t + 1 < n_; ++t) chain_ = succ_[t] == t + 1;
  // The screen's guard, from the input only. Every F is at least 1, so
  // every x lies in [1, product] and every x·w in [2^-900, 2^900 / n].
  if (chain_) {
    double product = 1.0;
    double w_min = std::numeric_limits<double>::infinity();
    double w_max = 0.0;
    for (TaskIndex t = 0; t < n_; ++t) {
      double F_max = 1.0;
      for (MachineIndex u = 0; u < m_; ++u) {
        F_max = std::max(F_max, attempts_[t * m_ + u]);
        w_min = std::min(w_min, times_[t * m_ + u]);
        w_max = std::max(w_max, times_[t * m_ + u]);
      }
      product *= F_max;
    }
    prefix_screen_ = product < 0x1p900 && w_min >= 0x1p-900 &&
                     static_cast<double>(n_) * product * w_max < 0x1p900;
  }
  // Predecessor-forest DFS from the sinks: every task's subtree (itself
  // plus its transitive predecessors) occupies a contiguous slice of
  // dfs_order_, and within a slice every task appears after its successor.
  dfs_order_.reserve(n_);
  std::vector<TaskIndex> stack;
  for (TaskIndex sink : problem.app.sinks()) {
    stack.push_back(sink);
    while (!stack.empty()) {
      const TaskIndex t = stack.back();
      stack.pop_back();
      dfs_pos_[t] = dfs_order_.size();
      dfs_order_.push_back(t);
      const auto& preds = problem.app.predecessors(t);
      // Reverse push so predecessors are visited in their natural order.
      for (auto it = preds.rbegin(); it != preds.rend(); ++it) stack.push_back(*it);
    }
  }
  MF_CHECK(dfs_order_.size() == n_, "predecessor forest must cover every task");
  // Children appear after their parent in entry order, so one reverse pass
  // accumulates subtree sizes bottom-up.
  for (std::size_t k = n_; k-- > 0;) {
    const TaskIndex t = dfs_order_[k];
    subtree_size_[t] += 1;
    if (succ_[t] != kNoTask) subtree_size_[succ_[t]] += subtree_size_[t];
  }
}

IncrementalEvaluator::IncrementalEvaluator(EvalWorkspace& workspace,
                                           std::span<const MachineIndex> assignment)
    : ws_(&workspace),
      x_(workspace.task_count(), 0.0),
      loads_(workspace.machine_count(), 0.0),
      w_cur_(workspace.task_count(), 0.0),
      F_cur_(workspace.task_count(), 0.0),
      xw_(workspace.task_count(), 0.0),
      member_begin_(workspace.machine_count() + 1, 0),
      mask_words_((workspace.machine_count() + 63) / 64),
      subtree_machines_(workspace.task_count() * mask_words_, 0),
      load_order_(workspace.machine_count(), 0),
      prefix_(workspace.has_prefix_screen()
                  ? (workspace.task_count() + 1) * workspace.machine_count()
                  : 0),
      suffix_(prefix_.size()),
      x_probe_(workspace.task_count(), 0.0),
      xw_probe_(workspace.task_count(), 0.0),
      touched_words_(mask_words_, 0) {
  members_.resize(workspace.task_count());
  reset(assignment);
}

IncrementalEvaluator::IncrementalEvaluator(EvalWorkspace& workspace, const Mapping& mapping)
    : IncrementalEvaluator(workspace, std::span<const MachineIndex>(mapping.assignment())) {}

void IncrementalEvaluator::reset(std::span<const MachineIndex> assignment) {
  MF_REQUIRE(assignment.size() == ws_->task_count(), "assignment size mismatch");
  const std::size_t m = ws_->machine_count();
  for (const MachineIndex u : assignment) {
    MF_REQUIRE(u < m, "assignment must be complete");
  }
  assignment_.assign(assignment.begin(), assignment.end());
  rebuild();
}

void IncrementalEvaluator::rebuild() {
  const Problem& problem = ws_->problem();
  const std::size_t n = ws_->task_count();

  // Gather the assigned column of each table row once; every probe then
  // reads these sequentially instead of striding through the matrices.
  for (TaskIndex i = 0; i < n; ++i) {
    w_cur_[i] = ws_->time_row(i)[assignment_[i]];
    F_cur_[i] = ws_->attempts_row(i)[assignment_[i]];
  }

  // Exact reference recompute of x: the serial multiply chain whose
  // operand order defines the bit contract — scalar forever.
  const std::span<const TaskIndex> succ = ws_->successors();
  for (TaskIndex i : problem.app.backward_order()) {
    const double downstream = succ[i] == kNoTask ? 1.0 : x_[succ[i]];
    x_[i] = downstream * F_cur_[i];
  }

  // CSR member lists, tasks ascending within each machine (the order the
  // reference accumulation visits them).
  const std::size_t m = ws_->machine_count();
  std::fill(member_begin_.begin(), member_begin_.end(), 0);
  for (TaskIndex i = 0; i < n; ++i) ++member_begin_[assignment_[i] + 1];
  for (MachineIndex u = 0; u < m; ++u) member_begin_[u + 1] += member_begin_[u];
  csr_cursor_.assign(member_begin_.begin(), member_begin_.end() - 1);
  for (TaskIndex i = 0; i < n; ++i) members_[csr_cursor_[assignment_[i]]++] = i;

  // Fused products, then each machine's load folded over its CSR list in
  // ascending task order: the operand order of core::machine_periods, so
  // every load bit matches. The period max is order-independent.
  for (TaskIndex i = 0; i < n; ++i) xw_[i] = x_[i] * w_cur_[i];
  for (MachineIndex u = 0; u < m; ++u) {
    double sum = 0.0;
    for (std::size_t k = member_begin_[u]; k < member_begin_[u + 1]; ++k) {
      sum += xw_[members_[k]];
    }
    loads_[u] = sum;
  }
  period_ = simd::active().row_max(loads_.data(), m);

  // Bound tables. Reverse backward order visits every predecessor before
  // its successor, so each task's mask is complete when it is folded into
  // its successor's.
  const std::size_t words = mask_words_;
  std::fill(subtree_machines_.begin(), subtree_machines_.end(), 0);
  const std::vector<TaskIndex>& backward = problem.app.backward_order();
  for (auto it = backward.rbegin(); it != backward.rend(); ++it) {
    const TaskIndex t = *it;
    std::uint64_t* mask = subtree_machines_.data() + t * words;
    mask[assignment_[t] >> 6] |= std::uint64_t{1} << (assignment_[t] & 63);
    if (succ[t] != kNoTask) {
      std::uint64_t* into = subtree_machines_.data() + succ[t] * words;
      for (std::size_t w = 0; w < words; ++w) into[w] |= mask[w];
    }
  }
  std::iota(load_order_.begin(), load_order_.end(), MachineIndex{0});
  std::sort(load_order_.begin(), load_order_.end(), [&](MachineIndex a, MachineIndex b) {
    return loads_[a] > loads_[b] || (loads_[a] == loads_[b] && a < b);
  });

  // Screen tables: each row copies its neighbour and adds the one task
  // between them to that task's machine.
  if (!prefix_.empty()) {
    std::fill_n(prefix_.begin(), m, 0.0);
    for (TaskIndex t = 0; t < n; ++t) {
      std::copy_n(prefix_.data() + t * m, m, prefix_.data() + (t + 1) * m);
      prefix_[(t + 1) * m + assignment_[t]] += xw_[t];
    }
    std::fill_n(suffix_.begin() + n * m, m, 0.0);
    for (TaskIndex t = n; t-- > 0;) {
      std::copy_n(suffix_.data() + (t + 1) * m, m, suffix_.data() + t * m);
      suffix_[t * m + assignment_[t]] += xw_[t];
    }
  }
}

void IncrementalEvaluator::probe_subtree_x(TaskIndex root) {
  // Walk the DFS-contiguous slice: every task's successor is either
  // earlier in the slice (already recomputed into x_probe_) or outside
  // the subtree entirely, where the memcpy mirror still equals x_.
  //
  // The slice is succ-linked almost everywhere (in a pure chain, each
  // task's successor is the previous slice element; in a tree, only the
  // first task after a completed sibling subtree breaks the run), so the
  // running x stays in a register across iterations and the serial
  // multiply chain is the only latency — no store-to-load round trip
  // through x_probe_ per element.
  // F_cur_ already holds the candidate values for the moved tasks (probe()
  // stashes overrides around the walks), so the body is compare-free.
  // Alongside x, the walk fuses the x*w product the resum will consume and
  // records which machines own a recomputed task in touched_words_ — one
  // exact bit per machine. Machines below 64 accumulate in a register (the
  // branch is always-taken for m <= 64, i.e. free); higher machines take
  // the read-modify-write, which only exists on m > 64 problems.
  const std::span<const TaskIndex> succ = ws_->successors();
  std::uint64_t touched0 = touched_words_[0];
  TaskIndex prev = ws_->task_count();  // never a valid successor value
  double carry = 0.0;
  for (const TaskIndex t : ws_->subtree(root)) {
    const TaskIndex s = succ[t];
    double downstream;
    if (s == prev) [[likely]] {
      downstream = carry;
    } else if (s == kNoTask) {
      downstream = 1.0;
    } else {
      downstream = x_probe_[s];
    }
    carry = downstream * F_cur_[t];
    x_probe_[t] = carry;
    xw_probe_[t] = carry * w_cur_[t];
    const MachineIndex a = assignment_[t];
    if (a < 64) [[likely]] {
      touched0 |= std::uint64_t{1} << a;
    } else {
      touched_words_[a >> 6] |= std::uint64_t{1} << (a & 63);
    }
    prev = t;
  }
  touched_words_[0] = touched0;
}

double IncrementalEvaluator::committed_bound(std::size_t moved_count,
                                             const double* candidate_F,
                                             double cutoff) const {
  // Loads are scanned highest first, so the scan stops at the first load
  // below the cutoff; in local search that is usually after one or two
  // machines.
  const std::uint64_t* shrinking[2] = {nullptr, nullptr};
  for (std::size_t k = 0; k < moved_count; ++k) {
    if (candidate_F[k] < F_cur_[moved_task_[k]]) {
      shrinking[k] = subtree_machines_.data() + moved_task_[k] * mask_words_;
    }
  }
  for (const MachineIndex q : load_order_) {
    if (!(loads_[q] >= cutoff)) break;
    bool qualifies = true;
    for (std::size_t k = 0; k < moved_count; ++k) {
      qualifies &= assignment_[moved_task_[k]] != q && moved_to_[k] != q;
      if (shrinking[k] != nullptr) qualifies &= ((shrinking[k][q >> 6] >> (q & 63)) & 1) == 0;
    }
    if (qualifies) return loads_[q];
  }
  return -1.0;
}

double IncrementalEvaluator::prefix_screen(std::size_t moved_count, const double* candidate_F,
                                           double cutoff) const {
  // Moving chain task i from F_old to F_new multiplies x of every task at
  // or before i by rho = F_new / F_old and leaves the rest alone, so a
  // machine's new load is rho·(its xw before i+1) + (its xw from i+1 on),
  // with the moved task's own term taken off the machine it leaves and
  // x'_i·w added on the one it joins. A swap of lo < hi multiplies up to
  // lo by rho_lo·rho_hi and (lo, hi] by rho_hi; min of the two on the
  // whole prefix is a lower bound, and a machine either task leaves drops
  // its prefix terms from that task on (all terms are non-negative).
  // Each bound is within 2n+7 roundings above its real value and
  // core::period's load within 2n-1 below it, so scaling by
  // 1 - (8n+16)·2^-52 puts the bound at or below the computed load.
  const std::size_t n = ws_->task_count();
  const std::size_t m = ws_->machine_count();
  const std::size_t h = moved_count == 2 && moved_task_[1] > moved_task_[0] ? 1 : 0;
  const TaskIndex hi = moved_task_[h];
  const MachineIndex from_hi = assignment_[hi];
  const MachineIndex to_hi = moved_to_[h];
  const double rho_hi = candidate_F[h] / F_cur_[hi];
  const double join_hi =
      (hi + 1 < n ? x_[hi + 1] : 1.0) * candidate_F[h] * ws_->time_row(hi)[to_hi];
  // A relocate has no lo: its machines match no q.
  TaskIndex lo = 0;
  MachineIndex from_lo = kUnassigned;
  MachineIndex to_lo = kUnassigned;
  double rho_min = rho_hi;
  double rho_max = std::max(rho_hi, 1.0);
  double join_lo = 0.0;
  if (moved_count == 2) {
    lo = moved_task_[1 - h];
    from_lo = assignment_[lo];
    to_lo = moved_to_[1 - h];
    const double rho_both = candidate_F[1 - h] / F_cur_[lo] * rho_hi;
    rho_min = std::min(rho_both, rho_hi);
    rho_max = std::max(rho_max, rho_both);
    join_lo = rho_both * x_[lo] * ws_->time_row(lo)[to_lo];
  }
  const double* suffix_row = suffix_.data() + (hi + 1) * m;
  const double scale = 1.0 - static_cast<double>(8 * n + 16) * 0x1p-52;  // exact
  auto bound = [&](MachineIndex q) {
    std::size_t end = hi + 1;
    if (q == from_lo) {
      end = lo;
    } else if (q == from_hi) {
      end = hi;
    }
    double sum = rho_min * prefix_[end * m + q] + suffix_row[q];
    if (q == to_hi) sum += join_hi;
    if (q == to_lo) sum += join_lo;
    return sum * scale;
  };

  // The machines a task joins first: the join term can lift a light one
  // over the cutoff. Then the rest by committed load, highest first, until
  // even rho_max times the load falls under the cutoff.
  double best = bound(to_hi);
  if (best >= cutoff) return best;
  if (moved_count == 2) {
    best = bound(to_lo);
    if (best >= cutoff) return best;
  }
  for (const MachineIndex q : load_order_) {
    if (rho_max * loads_[q] < cutoff) break;
    if (q == to_hi || q == to_lo) continue;
    best = bound(q);
    if (best >= cutoff) return best;
  }
  return -1.0;
}

double IncrementalEvaluator::probe(std::size_t moved_count, double cutoff) {
  const std::size_t n = ws_->task_count();

  double candidate_F[2] = {0.0, 0.0};
  for (std::size_t k = 0; k < moved_count; ++k) {
    candidate_F[k] = ws_->attempts_row(moved_task_[k])[moved_to_[k]];
  }
  // period_ is the highest committed load: below the cutoff, no bound can
  // reach it and the scan is skipped.
  if (period_ >= cutoff) {
    const double bound = committed_bound(moved_count, candidate_F, cutoff);
    if (bound >= cutoff) return bound;
  }
  // No finite bound reaches an infinite cutoff, so exact probes skip it.
  if (!prefix_.empty() && cutoff < std::numeric_limits<double>::infinity()) {
    const double bound = prefix_screen(moved_count, candidate_F, cutoff);
    if (bound >= cutoff) return bound;
  }

  // x: start from the committed values and recompute only the tasks whose
  // value can change — the moved tasks and their transitive predecessors.
  // When one moved task lies upstream of the other its subtree is nested
  // inside the other's, so a single walk from the downstream task covers
  // both; disjoint subtrees never read each other's entries.
  // Stash candidate F values for the moved tasks so the walks run without
  // per-element compares; restored before the resum (which only needs
  // w_cur_, left untouched).
  double saved_F[2];
  for (std::size_t k = 0; k < moved_count; ++k) {
    saved_F[k] = F_cur_[moved_task_[k]];
    F_cur_[moved_task_[k]] = candidate_F[k];
  }
  std::fill(touched_words_.begin(), touched_words_.end(), 0);
  if (ws_->is_chain()) {
    // Linear chain (the paper's Section 7 topology): subtree(r) is exactly
    // the task range [0, r], any two subtrees nest, and only the tail
    // [r+1, n) must be refreshed from the committed values. The walk is
    // the same multiply chain as the generic path minus the successor
    // bookkeeping — every operand is identical, so every result bit is.
    TaskIndex r = moved_task_[0];
    if (moved_count == 2 && moved_task_[1] > r) r = moved_task_[1];
    const std::size_t tail = static_cast<std::size_t>(r) + 1;
    // Only xw_probe_ needs its tail refreshed: the walk carries x in a
    // register and the resum reads x_probe_ solely for moved-in tasks,
    // which always lie inside the walked range [0, r].
    std::memcpy(xw_probe_.data() + tail, xw_.data() + tail, (n - tail) * sizeof(double));
    double carry = tail < n ? x_[tail] : 1.0;
    std::uint64_t touched0 = 0;
    for (TaskIndex t = r;; --t) {
      carry *= F_cur_[t];
      x_probe_[t] = carry;
      xw_probe_[t] = carry * w_cur_[t];
      const MachineIndex a = assignment_[t];
      if (a < 64) [[likely]] {
        touched0 |= std::uint64_t{1} << a;
      } else {
        touched_words_[a >> 6] |= std::uint64_t{1} << (a & 63);
      }
      if (t == 0) break;
    }
    touched_words_[0] |= touched0;
  } else {
    std::memcpy(x_probe_.data(), x_.data(), n * sizeof(double));
    std::memcpy(xw_probe_.data(), xw_.data(), n * sizeof(double));
    if (moved_count == 1) {
      probe_subtree_x(moved_task_[0]);
    } else if (ws_->in_subtree(moved_task_[0], moved_task_[1])) {
      probe_subtree_x(moved_task_[0]);
    } else if (ws_->in_subtree(moved_task_[1], moved_task_[0])) {
      probe_subtree_x(moved_task_[1]);
    } else {
      probe_subtree_x(moved_task_[0]);
      probe_subtree_x(moved_task_[1]);
    }
  }
  for (std::size_t k = 0; k < moved_count; ++k) F_cur_[moved_task_[k]] = saved_F[k];

  // Loads: a machine's sum only changes when a moved task leaves or joins
  // it (membership edit) or one of its members' x was recomputed (it owns
  // a task in a walked subtree). Everything else keeps its committed sum,
  // so loads_[q] is reused verbatim — that reuse IS bit-identity, since a
  // resum over unchanged operands would reproduce it exactly. Every
  // from-machine is in touched_words_ already (a moved task is always
  // walked), so only the to-machines need to be added. The maximum is
  // order-independent, so it starts from the highest untouched committed
  // load, then folds the touched machines' sums highest committed load
  // first, stopping once it reaches the cutoff.
  for (std::size_t k = 0; k < moved_count; ++k) {
    touched_words_[moved_to_[k] >> 6] |= std::uint64_t{1} << (moved_to_[k] & 63);
  }
  auto touched = [this](MachineIndex q) {
    return ((touched_words_[q >> 6] >> (q & 63)) & 1) != 0;
  };
  double best = -1.0;  // loads are non-negative
  for (const MachineIndex q : load_order_) {
    if (!touched(q)) {
      best = loads_[q];
      break;
    }
  }
  if (best >= cutoff) return best;
  for (const MachineIndex q : load_order_) {
    if (!touched(q)) continue;
    const double sum = resum_machine(q, moved_count);
    if (sum > best) {
      best = sum;
      if (best >= cutoff) break;
    }
  }
  return best;
}

double IncrementalEvaluator::resum_machine(MachineIndex q, std::size_t moved_count) const {
  // Rebuilds machine q's exact sum from the CSR member list, tasks
  // ascending — the operand order core::machine_periods uses — with the
  // accumulator in a register. Regular members contribute their fused
  // xw_probe_ product (the identical multiply the reference performs);
  // only the <= 4 machines a moved task leaves or joins need membership
  // edits. probe() calls it once per touched machine until its running
  // maximum reaches the cutoff, so a probe stops after the first sum
  // that proves the candidate is no better than the cutoff.
  bool involved = false;
  for (std::size_t k = 0; k < moved_count; ++k) {
    involved |= assignment_[moved_task_[k]] == q || moved_to_[k] == q;
  }
  double sum = 0.0;
  const std::size_t end = member_begin_[q + 1];
  if (!involved) {
    for (std::size_t idx = member_begin_[q]; idx < end; ++idx) {
      sum += xw_probe_[members_[idx]];
    }
  } else {
    // Merge the <= 2 moved-in tasks at their sorted positions and skip
    // the moved tasks' stale memberships.
    TaskIndex inc[2] = {0, 0};
    std::size_t inc_count = 0;
    for (std::size_t k = 0; k < moved_count; ++k) {
      if (moved_to_[k] == q) inc[inc_count++] = moved_task_[k];
    }
    if (inc_count == 2 && inc[0] > inc[1]) std::swap(inc[0], inc[1]);
    std::size_t k = 0;
    for (std::size_t idx = member_begin_[q]; idx < end; ++idx) {
      const TaskIndex t = members_[idx];
      while (k < inc_count && inc[k] < t) {
        sum += x_probe_[inc[k]] * ws_->time_row(inc[k])[q];
        ++k;
      }
      if (t == moved_task_[0] || t == moved_task_[1]) continue;  // moved off q (or re-merged)
      sum += xw_probe_[t];
    }
    while (k < inc_count) {
      sum += x_probe_[inc[k]] * ws_->time_row(inc[k])[q];
      ++k;
    }
  }
  return sum;
}

double IncrementalEvaluator::period_if_relocated(TaskIndex i, MachineIndex v, double cutoff) {
  MF_REQUIRE(i < assignment_.size() && v < ws_->machine_count(),
             "relocate probe out of range");
  moved_task_[0] = i;
  moved_to_[0] = v;
  moved_task_[1] = kNoTask;
  moved_to_[1] = kUnassigned;
  return probe(1, cutoff);
}

double IncrementalEvaluator::period_if_swapped(TaskIndex i, TaskIndex j, double cutoff) {
  MF_REQUIRE(i < assignment_.size() && j < assignment_.size(), "swap probe out of range");
  MF_REQUIRE(i != j, "swap probe needs distinct tasks");
  moved_task_[0] = i;
  moved_to_[0] = assignment_[j];
  moved_task_[1] = j;
  moved_to_[1] = assignment_[i];
  return probe(2, cutoff);
}

void IncrementalEvaluator::apply_relocate(TaskIndex i, MachineIndex v) {
  MF_REQUIRE(i < assignment_.size() && v < ws_->machine_count(), "relocate out of range");
  assignment_[i] = v;
  rebuild();
}

void IncrementalEvaluator::apply_swap(TaskIndex i, TaskIndex j) {
  MF_REQUIRE(i < assignment_.size() && j < assignment_.size(), "swap out of range");
  std::swap(assignment_[i], assignment_[j]);
  rebuild();
}

}  // namespace mf::core
