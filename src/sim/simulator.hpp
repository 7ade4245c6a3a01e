// Discrete-event simulation of a mapped micro-factory.
//
// The paper evaluates mappings analytically (the period formula of
// Section 4.1) using a C++ simulator the authors did not release; this
// module is our substitute, and it goes one step further: it actually
// *plays out* the production line product by product. Machines process one
// product at a time; each processing attempt loses the product with
// probability f_{i,u} (a Bernoulli draw); surviving products move to the
// buffer of the successor task; join tasks consume one product from every
// predecessor branch. Raw material at source tasks is unlimited — the
// factory runs in saturation, which is the regime in which throughput
// equals 1/period.
//
// The engine is a single-threaded pending-event heap keyed by simulated
// time, with a first-class event taxonomy:
//
//   kAttemptComplete — a machine finishes processing one product (the loss
//                      draw happens here, at the attempt's *start*-time
//                      rates for time-varying models);
//   kMachineFail     — a machine's up phase ends. Idle machines break down
//                      on time; a busy machine finishes its in-flight
//                      product first (breakdowns never destroy products,
//                      they delay the next start);
//   kMachineRepair   — a repair completes; the next up phase is scheduled
//                      and the machine resumes work. Every up/down cycle is
//                      played out individually — consecutive phases never
//                      collapse, no matter how long a machine idles.
//
// The measured steady-state period converges to the analytic one, and
// per-task attempt counts divided by finished products converge to the x_i
// of Section 4.1 — sim/stats.hpp turns those convergence claims into
// batch-means confidence intervals and z-score gates (see
// docs/simulation.md for the methodology).
//
// Loss draws default to the base f_{i,u}; setting
// `SimulationConfig::failure_model` samples any `core::FailureModel`
// instead — one loss coin per attempt at the model's loss_probability
// (time-varying rates evaluated at the attempt's start time), and
// availability models drive per-machine up/down phases — so every model's
// analytic reduction (worst-window planning, availability-inflated times,
// shock-folded rates) is validated against an empirical Monte-Carlo period.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "core/evaluation.hpp"
#include "core/failure_model.hpp"
#include "core/mapping.hpp"
#include "core/platform.hpp"
#include "support/rng.hpp"

namespace mf::sim {

/// The event taxonomy of the pending-event heap (see the header comment).
enum class EventKind : std::uint8_t {
  kAttemptComplete,
  kMachineFail,
  kMachineRepair,
};

struct SimulationConfig {
  std::uint64_t seed = 1;
  /// Stop once this many finished products left the system (0 = no target;
  /// only meaningful together with a finite source_supply or max_time).
  std::uint64_t target_outputs = 1'000;
  /// Products finished before measurement starts (warm-up transient).
  std::uint64_t warmup_outputs = 100;
  /// Hard wall-clock (simulated ms) cap; guards pathological instances.
  double max_time = std::numeric_limits<double>::infinity();
  /// Raw products available at *each* source task. 0 = unlimited
  /// (saturation mode, the throughput-measurement regime). A finite value
  /// gives "batch mode": feed N products, run until the line drains —
  /// the regime that validates the x_i recursion (attempts per output).
  std::uint64_t source_supply = 0;

  /// Failure model to *sample* instead of the problem's base rates: each
  /// attempt's loss draw uses the model's loss probability at the attempt's
  /// start time, and each machine alternates the model's exponentially
  /// distributed up/repair phases (`downtime(u)`; a mean uptime of 0 keeps
  /// it always up), scheduled as kMachineFail/kMachineRepair events. The
  /// model is the only source of machine downtime (an extension beyond the
  /// paper's model, which attaches transient failures to products only). A
  /// breakdown never interrupts the product in progress — it delays the
  /// *next* start, so downtime stalls the line without destroying products.
  /// Null keeps the base rates and every machine always up. The caller owns
  /// the model and must keep it alive across `run()` — an `exp::Instance`
  /// holds it in a shared_ptr.
  const core::FailureModel* failure_model = nullptr;

  /// Work-in-progress cap per dependency edge (0 = unbounded). A task may
  /// only start when its successor's buffer for it holds fewer than this
  /// many products; producers *block* otherwise. Bounded buffers are what
  /// keep multi-branch lines stable: without them, a machine sharing a
  /// join's two feeder branches can overserve the well-fed branch forever
  /// and starve the other, so the join never fires. The cap is large
  /// enough that blocking losses are negligible on chains (where the flow
  /// self-regulates anyway).
  std::uint64_t max_wip_per_edge = 64;
};

/// Per-task processing counters.
struct TaskCounters {
  std::uint64_t attempts = 0;   ///< products that entered processing
  std::uint64_t successes = 0;  ///< products that survived
  std::uint64_t losses = 0;     ///< products destroyed by the failure
};

/// What happened during one simulated production campaign.
struct SimulationReport {
  bool reached_target = false;
  std::uint64_t finished_products = 0;
  double end_time = 0.0;  ///< simulated ms at termination

  /// Steady-state period: measurement-window time per finished product
  /// (excludes the warm-up window). 0 when too few products finished.
  double measured_period = 0.0;
  double measured_throughput = 0.0;

  std::vector<TaskCounters> per_task;
  /// Busy/down times accrue as phases *complete* and are clipped to the
  /// horizon for phases still open at termination, so utilization and
  /// downtime can never exceed end_time even when max_time truncates the
  /// run mid-attempt or mid-repair.
  std::vector<double> machine_busy_time;
  std::vector<double> machine_utilization;  ///< busy / end_time, always <= 1
  std::vector<double> machine_down_time;    ///< repair time accrued per machine

  /// Taxonomy counters.
  std::uint64_t events_processed = 0;  ///< heap pops handled (all kinds)
  std::uint64_t machine_failures = 0;  ///< kMachineFail events
  std::uint64_t machine_repairs = 0;   ///< kMachineRepair events

  /// attempts[i] / finished_products: the empirical x_i.
  [[nodiscard]] std::vector<double> empirical_products_per_output() const;
};

/// Observable simulator events, for tracing examples and tests. kStart /
/// kSuccess / kLoss / kOutput follow one product through one attempt;
/// kMachineFail / kMachineRepair mirror the machine-level taxonomy events
/// (task is kNoTask unless a product was in flight).
struct TraceEvent {
  enum class Kind {
    kStart,
    kSuccess,
    kLoss,
    kOutput,
    kMachineFail,
    kMachineRepair,
  } kind;
  double time;
  core::TaskIndex task;
  core::MachineIndex machine;
};

using TraceHook = std::function<void(const TraceEvent&)>;

class Simulator {
 public:
  Simulator(const core::Problem& problem, const core::Mapping& mapping);

  /// Runs one campaign. Deterministic in (config, problem, mapping): the
  /// loss draws and the up/repair phase draws each consume an independent
  /// RNG substream of config.seed, so reports are bit-identical across
  /// repeated runs and across hosts.
  [[nodiscard]] SimulationReport run(const SimulationConfig& config,
                                     const TraceHook& trace = {}) const;

 private:
  const core::Problem* problem_;
  core::Mapping mapping_;
  std::vector<std::vector<core::TaskIndex>> machine_tasks_;  // per machine
  std::vector<std::size_t> depth_;  // hops to sink; drives service priority
  /// output_slot_[i]: index of task i within its successor's predecessor
  /// list, i.e. which buffer slot its products land in (0 for sinks).
  std::vector<std::size_t> output_slot_;
};

/// Convenience wrapper: simulate and return only the measured period.
[[nodiscard]] double simulate_period(const core::Problem& problem, const core::Mapping& mapping,
                                     const SimulationConfig& config = {});

}  // namespace mf::sim
