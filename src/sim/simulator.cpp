#include "sim/simulator.hpp"

#include <algorithm>
#include <array>

#include "sim/event_queue.hpp"
#include "support/check.hpp"

namespace mf::sim {

using core::kNoTask;
using core::MachineIndex;
using core::TaskIndex;

std::vector<double> SimulationReport::empirical_products_per_output() const {
  std::vector<double> x(per_task.size(), 0.0);
  if (finished_products == 0) return x;
  for (std::size_t i = 0; i < per_task.size(); ++i) {
    x[i] = static_cast<double>(per_task[i].attempts) /
           static_cast<double>(finished_products);
  }
  return x;
}

Simulator::Simulator(const core::Problem& problem, const core::Mapping& mapping)
    : problem_(&problem), mapping_(mapping) {
  MF_REQUIRE(mapping_.is_complete(problem.machine_count()),
             "simulator needs a complete mapping");
  MF_REQUIRE(mapping_.task_count() == problem.task_count(), "mapping size mismatch");
  machine_tasks_ = mapping_.tasks_per_machine(problem.machine_count());

  // Depth = hops to the sink. Machines serve their deepest-downstream ready
  // task first, which keeps work-in-progress near the output and lets the
  // line reach steady state quickly.
  const std::size_t n = problem.task_count();
  depth_.assign(n, 0);
  for (TaskIndex i : problem.app.backward_order()) {
    const TaskIndex succ = problem.app.successor(i);
    depth_[i] = succ == kNoTask ? 0 : depth_[succ] + 1;
  }
  for (auto& tasks : machine_tasks_) {
    std::sort(tasks.begin(), tasks.end(),
              [this](TaskIndex a, TaskIndex b) { return depth_[a] < depth_[b]; });
  }

  output_slot_.assign(n, 0);
  for (TaskIndex i = 0; i < n; ++i) {
    const TaskIndex succ = problem.app.successor(i);
    if (succ == kNoTask) continue;
    const auto& preds = problem.app.predecessors(succ);
    for (std::size_t k = 0; k < preds.size(); ++k) {
      if (preds[k] == i) {
        output_slot_[i] = k;
        break;
      }
    }
  }
}

namespace {

/// One pending-heap entry. `machine` identifies the affected machine; `task`
/// is meaningful for kAttemptComplete only.
struct Event {
  EventKind kind;
  MachineIndex machine;
  TaskIndex task;
};

/// Block-refilled uniform stream for the hot loss draws: the long-horizon
/// saturation mode consumes one coin per attempt, and drawing them 64 at a
/// time keeps the xoshiro state updates in a tight register loop instead of
/// interleaving them with the event dispatch. Consumption order is the
/// stream order, so batching never changes an outcome.
class BatchedCoins {
 public:
  explicit BatchedCoins(support::Rng rng) : rng_(rng) {}

  /// Same edge semantics as support::Rng::bernoulli: certain outcomes
  /// consume no draw (a zero-rate task never advances the stream).
  [[nodiscard]] bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    if (next_ == kBatch) refill();
    return buffer_[next_++] < p;
  }

 private:
  static constexpr std::size_t kBatch = 64;

  void refill() {
    for (double& slot : buffer_) slot = rng_.uniform();
    next_ = 0;
  }

  support::Rng rng_;
  std::array<double, kBatch> buffer_{};
  std::size_t next_ = kBatch;
};

}  // namespace

SimulationReport Simulator::run(const SimulationConfig& config, const TraceHook& trace) const {
  const core::Problem& problem = *problem_;
  const std::size_t n = problem.task_count();
  const std::size_t m = problem.machine_count();
  MF_REQUIRE(config.warmup_outputs < config.target_outputs || config.target_outputs == 0,
             "warmup must be smaller than the output target");

  // Independent RNG substreams per stochastic component: loss coins and
  // phase durations never contend for draws, so adding a breakdown to one
  // machine can never perturb another machine's losses, and the coins can be
  // drawn in batches.
  support::Rng root(config.seed);
  BatchedCoins loss_coins(root.split(1));
  support::Rng phase_rng = root.split(2);

  // edge_buffer[i][k]: products waiting at task i coming from its k-th
  // predecessor. Source tasks have no predecessors and unlimited input.
  std::vector<std::vector<std::uint64_t>> edge_buffer(n);
  for (TaskIndex i = 0; i < n; ++i) {
    edge_buffer[i].assign(problem.app.predecessors(i).size(), 0);
  }

  // Finite raw-material counters per source task (batch mode); kNoLimit in
  // saturation mode.
  constexpr std::uint64_t kNoLimit = std::numeric_limits<std::uint64_t>::max();
  std::vector<std::uint64_t> source_remaining(n, kNoLimit);
  if (config.source_supply != 0) {
    for (TaskIndex src : problem.app.sources()) source_remaining[src] = config.source_supply;
  }

  auto ready_units = [&](TaskIndex i) -> std::uint64_t {
    const auto& buffers = edge_buffer[i];
    if (buffers.empty()) return source_remaining[i];  // source task
    std::uint64_t units = kNoLimit;
    for (std::uint64_t b : buffers) units = std::min(units, b);
    return units;
  };

  // Output-side blocking: task i may only start while the buffer slot it
  // feeds holds fewer than the WIP cap. output_slot_[i] was precomputed.
  const std::uint64_t wip_cap =
      config.max_wip_per_edge == 0 ? kNoLimit : config.max_wip_per_edge;
  auto output_free = [&](TaskIndex i) -> bool {
    const TaskIndex succ = problem.app.successor(i);
    if (succ == kNoTask) return true;  // finished products leave the system
    return edge_buffer[succ][output_slot_[i]] < wip_cap;
  };

  SimulationReport report;
  report.per_task.assign(n, {});
  report.machine_busy_time.assign(m, 0.0);
  report.machine_down_time.assign(m, 0.0);

  // Per-machine state. Busy and down phases remember when they opened so
  // time accrues on phase *completion* (or clipped at termination) — the
  // accounting that keeps utilization <= 1 under max_time truncation.
  std::vector<bool> machine_busy(m, false);
  std::vector<bool> machine_down(m, false);
  std::vector<bool> fail_pending(m, false);  // up phase ended while busy
  std::vector<TaskIndex> in_flight(m, kNoTask);
  std::vector<double> busy_since(m, 0.0);
  std::vector<double> down_since(m, 0.0);

  // Phase means come from the failure model alone; without a model, or for
  // a machine whose mean uptime is 0, the machine never breaks down.
  const core::FailureModel* model = config.failure_model;
  std::vector<core::FailureModel::MachineDowntime> phases(m);
  if (model != nullptr) {
    for (MachineIndex u = 0; u < m; ++u) phases[u] = model->downtime(u);
  }

  // Machines whose blocked producers may have been released by a buffer
  // consumption; drained after every start to propagate wake-ups without
  // recursion.
  std::vector<MachineIndex> wake_queue;
  wake_queue.reserve(n + m);

  // The pending set is bounded: at most one attempt-complete plus one
  // fail-or-repair per machine. Reserving it (and the wake queue) up front
  // makes the event loop allocation-free — bench_sim gates that.
  EventQueue<Event> events;
  events.reserve(2 * m);
  double now = 0.0;
  double warmup_end_time = 0.0;

  for (MachineIndex u = 0; u < m; ++u) {
    if (phases[u].mean_uptime_ms > 0.0) {
      events.push(phase_rng.exponential(phases[u].mean_uptime_ms),
                  {EventKind::kMachineFail, u, kNoTask});
    }
  }

  // Starts the next ready, non-blocked task on an idle machine
  // (deepest-first order; safe against branch starvation thanks to the
  // WIP cap).
  auto try_start_one = [&](MachineIndex u) {
    if (machine_busy[u] || machine_down[u]) return;
    for (TaskIndex i : machine_tasks_[u]) {
      if (ready_units(i) == 0) continue;
      if (!output_free(i)) continue;  // blocked: downstream buffer full
      // Consume one product from every predecessor branch (join semantics),
      // or one unit of raw material at a source in batch mode.
      for (std::uint64_t& b : edge_buffer[i]) --b;
      if (edge_buffer[i].empty() && source_remaining[i] != kNoLimit) --source_remaining[i];
      ++report.per_task[i].attempts;
      machine_busy[u] = true;
      in_flight[u] = i;
      busy_since[u] = now;
      events.push(now + problem.platform.time(i, u), {EventKind::kAttemptComplete, u, i});
      if (trace) trace({TraceEvent::Kind::kStart, now, i, u});
      // Consuming inputs may unblock the producers feeding this task.
      for (TaskIndex pred : problem.app.predecessors(i)) {
        wake_queue.push_back(mapping_.machine_of(pred));
      }
      return;
    }
  };

  auto try_start = [&](MachineIndex u) {
    try_start_one(u);
    while (!wake_queue.empty()) {
      const MachineIndex next = wake_queue.back();
      wake_queue.pop_back();
      try_start_one(next);
    }
  };

  auto begin_repair = [&](MachineIndex u) {
    machine_down[u] = true;
    down_since[u] = now;
    events.push(now + phase_rng.exponential(phases[u].mean_repair_ms),
                {EventKind::kMachineRepair, u, kNoTask});
  };

  for (MachineIndex u = 0; u < m; ++u) try_start(u);

  while (!events.empty()) {
    const auto entry = events.pop();
    if (entry.time > config.max_time) {
      now = config.max_time;
      break;
    }
    now = entry.time;
    ++report.events_processed;
    const auto [kind, u, i] = entry.payload;

    switch (kind) {
      case EventKind::kMachineFail: {
        ++report.machine_failures;
        if (trace) trace({TraceEvent::Kind::kMachineFail, now, in_flight[u], u});
        if (machine_busy[u]) {
          // Breakdowns never interrupt the product in progress: the down
          // phase opens when the in-flight attempt completes.
          fail_pending[u] = true;
        } else {
          begin_repair(u);
        }
        break;
      }

      case EventKind::kMachineRepair: {
        ++report.machine_repairs;
        machine_down[u] = false;
        report.machine_down_time[u] += now - down_since[u];
        if (trace) trace({TraceEvent::Kind::kMachineRepair, now, kNoTask, u});
        // The next up phase starts now — every cycle is its own pair of
        // scheduled events, so idle stretches play out each breakdown.
        events.push(now + phase_rng.exponential(phases[u].mean_uptime_ms),
                    {EventKind::kMachineFail, u, kNoTask});
        try_start(u);
        break;
      }

      case EventKind::kAttemptComplete: {
        machine_busy[u] = false;
        in_flight[u] = kNoTask;
        report.machine_busy_time[u] += now - busy_since[u];

        // One loss coin per attempt, drawn at the failure model's rate at the
        // attempt's *start* time — for time-varying models the window that
        // was active when processing began is the one that applies.
        const double loss_probability =
            model == nullptr ? problem.platform.failure(i, u)
                             : model->loss_probability(problem, i, u, busy_since[u]);
        const bool lost = loss_coins.bernoulli(loss_probability);

        bool reached_target = false;
        if (lost) {
          ++report.per_task[i].losses;
          if (trace) trace({TraceEvent::Kind::kLoss, now, i, u});
        } else {
          ++report.per_task[i].successes;
          if (trace) trace({TraceEvent::Kind::kSuccess, now, i, u});
          const TaskIndex succ = problem.app.successor(i);
          if (succ == kNoTask) {
            ++report.finished_products;
            if (trace) trace({TraceEvent::Kind::kOutput, now, i, u});
            if (report.finished_products == config.warmup_outputs) warmup_end_time = now;
            if (config.target_outputs != 0 &&
                report.finished_products >= config.target_outputs) {
              reached_target = true;
            }
          } else {
            ++edge_buffer[succ][output_slot_[i]];
            // The successor's machine may have been starved; wake it.
            if (!reached_target) try_start(mapping_.machine_of(succ));
          }
        }
        if (reached_target) {
          report.reached_target = true;
          break;
        }
        if (fail_pending[u]) {
          fail_pending[u] = false;
          begin_repair(u);
        } else {
          try_start(u);
        }
        break;
      }
    }
    if (report.reached_target) break;
  }

  report.end_time = now;
  // Clip phases still open at termination to the horizon: a truncated run
  // charges in-flight attempts and unfinished repairs only up to end_time.
  for (MachineIndex u = 0; u < m; ++u) {
    if (machine_busy[u]) report.machine_busy_time[u] += now - busy_since[u];
    if (machine_down[u]) report.machine_down_time[u] += now - down_since[u];
  }
  if (report.finished_products > config.warmup_outputs && now > warmup_end_time) {
    const auto measured =
        static_cast<double>(report.finished_products - config.warmup_outputs);
    report.measured_period = (now - warmup_end_time) / measured;
    report.measured_throughput = 1.0 / report.measured_period;
  }
  report.machine_utilization.assign(m, 0.0);
  if (now > 0.0) {
    for (MachineIndex u = 0; u < m; ++u) {
      report.machine_utilization[u] = report.machine_busy_time[u] / now;
    }
  }
  return report;
}

double simulate_period(const core::Problem& problem, const core::Mapping& mapping,
                       const SimulationConfig& config) {
  const Simulator simulator(problem, mapping);
  return simulator.run(config).measured_period;
}

}  // namespace mf::sim
