// Pluggable failure models — the f_i generalization of Section 7.2 made
// first-class.
//
// The paper's experiments attach one i.i.d. transient-loss rate to every
// (task, machine) couple, but Section 7.2 already frames that as one point
// in a family: rates may vary per task, over time, or with the machine's
// own health. A `FailureModel` captures one member of that family as the
// *effective* per-(task, machine) failure rates (and, for availability
// models, effective processing times) that every solver, heuristic and
// bound consumes — the heuristics' binary-search ceilings (MAXx_i), the MIP
// big-M and the analytic evaluator all operate on the effective problem, so
// none of them needs to know which model produced it. The event-driven
// simulator, by contrast, samples the model directly (per-attempt loss at a
// given simulated time, machine up/down phases), which is what validates
// the analytic reductions empirically.
//
// Built-in models:
//   iid          — the paper's Section 3.3 model; the identity reduction.
//   correlated   — a machine-level shock s_u shared by every task on M_u:
//                  f_eff = 1 - (1 - f_{i,u})(1 - s_u). Machine health is a
//                  common cause, as in NHPP machine-failure studies
//                  (Zhu et al., arXiv:2506.06900).
//   time-varying — Section 7.2-style f_i(t): piecewise-constant factor
//                  windows cycling over time. Solvers plan against the
//                  *worst* window (a conservative static mapping); the
//                  analytic period combines the per-window periods
//                  harmonically (products per cycle = sum of window
//                  durations over window periods).
//   downtime     — machines alternate up/repair phases; repair windows do
//                  not destroy products but stall the line, inflating the
//                  effective w_{i,u} by 1/availability_u (the reworking /
//                  repair coupling of Shen et al., arXiv:2411.01772).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/digest.hpp"
#include "core/mapping.hpp"
#include "core/platform.hpp"

namespace mf::core {

/// Effective failure rates are clamped strictly below 1 so that a modulated
/// rate never turns a solvable instance into a Platform validation error;
/// survival_inverse at the clamp is large (1e9) but finite.
inline constexpr double kMaxEffectiveFailure = 1.0 - 1e-9;

/// One member of the failure-model family. Implementations are immutable
/// and thread-safe: one instance may serve concurrent sweeps.
class FailureModel {
 public:
  virtual ~FailureModel() = default;

  /// Scenario id (exp/scenario_registry.hpp), e.g. "iid", "correlated".
  [[nodiscard]] virtual std::string id() const = 0;
  /// One-line human description (parameters included).
  [[nodiscard]] virtual std::string describe() const = 0;

  /// Effective failure rate for (task, machine) — what the static planners
  /// must assume per attempt. Always in [0, kMaxEffectiveFailure].
  [[nodiscard]] virtual double effective_failure(const Problem& base, TaskIndex i,
                                                 MachineIndex u) const = 0;
  /// Effective processing time — base w_{i,u} inflated by any availability
  /// loss the model charges to the machine.
  [[nodiscard]] virtual double effective_time(const Problem& base, TaskIndex i,
                                              MachineIndex u) const = 0;

  /// Materializes the effective problem (same application, transformed
  /// w / f matrices) — the instance every solver actually solves.
  [[nodiscard]] Problem effective_problem(const Problem& base) const;

  /// Analytic period of `mapping` under the model. `effective` must be this
  /// model's effective_problem(base) (callers cache it; the sweep runner
  /// computes it once per instance). The default evaluates the effective
  /// problem; time-dependent models override with their exact reduction.
  [[nodiscard]] virtual double period(const Problem& base, const Problem& effective,
                                      const Mapping& mapping) const;

  /// Instantaneous probability that an attempt of task i on machine u
  /// *starting* at simulated time `time_ms` loses the product. This is what
  /// the discrete-event simulator samples; for time-independent models it
  /// equals the per-attempt rate the analytic reduction uses.
  [[nodiscard]] virtual double loss_probability(const Problem& base, TaskIndex i,
                                                MachineIndex u, double time_ms) const;

  /// Machine availability phases for the simulator: mean exponential
  /// up/repair durations; mean_uptime_ms == 0 means the machine never
  /// breaks down. Models whose only effect is rate modulation keep the
  /// default (always up).
  struct MachineDowntime {
    double mean_uptime_ms = 0.0;
    double mean_repair_ms = 0.0;
  };
  [[nodiscard]] virtual MachineDowntime downtime(MachineIndex /*u*/) const { return {}; }

  /// True for models whose effective problem is the base problem unchanged
  /// (the iid identity) — lets callers skip re-deriving matrices and keep
  /// bit-identical legacy behavior.
  [[nodiscard]] virtual bool is_identity() const { return false; }

  /// Folds the model's parameters into a content digest. Together with the
  /// id this is the model's identity; two models with equal ids and equal
  /// parameter streams are interchangeable.
  virtual void add_to_digest(DigestBuilder& builder) const = 0;
};

/// Content fingerprint of (problem, model): the problem digest extended to
/// cover the model id and parameters. For the identity model this *is*
/// `digest(base)` — scenario "iid" instances keep their pre-registry
/// digests — and any model parameter change changes it.
[[nodiscard]] Digest digest(const Problem& base, const FailureModel& model);

// --- Built-in models --------------------------------------------------------

/// The paper's Section 3.3 model: the base rates are the effective rates.
class IidFailureModel final : public FailureModel {
 public:
  [[nodiscard]] std::string id() const override { return "iid"; }
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] double effective_failure(const Problem& base, TaskIndex i,
                                         MachineIndex u) const override;
  [[nodiscard]] double effective_time(const Problem& base, TaskIndex i,
                                      MachineIndex u) const override;
  [[nodiscard]] double loss_probability(const Problem& base, TaskIndex i, MachineIndex u,
                                        double time_ms) const override;
  [[nodiscard]] bool is_identity() const override { return true; }
  void add_to_digest(DigestBuilder& builder) const override;
};

/// Machine-level shock shared across every task on a machine: while task i
/// runs on M_u the product is lost either by the task's own transient
/// failure (rate f_{i,u}) or by a machine-health shock (rate s_u),
/// independently — f_eff = 1 - (1 - f_{i,u})(1 - s_u).
class CorrelatedFailureModel final : public FailureModel {
 public:
  /// One shock probability per machine, each in [0, 1).
  explicit CorrelatedFailureModel(std::vector<double> machine_shock);

  [[nodiscard]] std::string id() const override { return "correlated"; }
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] double effective_failure(const Problem& base, TaskIndex i,
                                         MachineIndex u) const override;
  [[nodiscard]] double effective_time(const Problem& base, TaskIndex i,
                                      MachineIndex u) const override;
  void add_to_digest(DigestBuilder& builder) const override;

 private:
  std::vector<double> shock_;
};

/// Piecewise-constant time modulation of the base rates (Section 7.2's
/// f_i(t)): one cycle of `factors.size()` windows, each `window_ms` long;
/// during window k every rate is f_{i,u} * factors[k] (clamped below 1).
/// Static planners assume the worst window; the analytic period of a
/// mapping is the cycle length divided by the expected products per cycle,
/// sum_k window_ms / P_k, with P_k the window-k analytic period.
class TimeVaryingFailureModel final : public FailureModel {
 public:
  TimeVaryingFailureModel(std::vector<double> factors, double window_ms);

  [[nodiscard]] std::string id() const override { return "time-varying"; }
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] double effective_failure(const Problem& base, TaskIndex i,
                                         MachineIndex u) const override;
  [[nodiscard]] double effective_time(const Problem& base, TaskIndex i,
                                      MachineIndex u) const override;
  [[nodiscard]] double period(const Problem& base, const Problem& effective,
                              const Mapping& mapping) const override;
  [[nodiscard]] double loss_probability(const Problem& base, TaskIndex i, MachineIndex u,
                                        double time_ms) const override;
  void add_to_digest(DigestBuilder& builder) const override;

  /// The rate factor active at simulated time t (cycling).
  [[nodiscard]] double factor_at(double time_ms) const;

 private:
  std::vector<double> factors_;
  double window_ms_;
  double worst_factor_;
};

/// Repair/downtime windows: machine M_u alternates exponential up phases
/// (mean mean_uptime_ms[u]) and repair phases (mean mean_repair_ms[u]).
/// A repair never destroys the product in progress — it stalls the next
/// start — so the long-run effect is an availability factor
/// A_u = up / (up + repair) inflating the effective w_{i,u} to w / A_u.
class DowntimeFailureModel final : public FailureModel {
 public:
  DowntimeFailureModel(std::vector<double> mean_uptime_ms, std::vector<double> mean_repair_ms);

  [[nodiscard]] std::string id() const override { return "downtime"; }
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] double effective_failure(const Problem& base, TaskIndex i,
                                         MachineIndex u) const override;
  [[nodiscard]] double effective_time(const Problem& base, TaskIndex i,
                                      MachineIndex u) const override;
  [[nodiscard]] MachineDowntime downtime(MachineIndex u) const override;
  void add_to_digest(DigestBuilder& builder) const override;

  [[nodiscard]] double availability(MachineIndex u) const;

 private:
  std::vector<double> mean_uptime_ms_;
  std::vector<double> mean_repair_ms_;
};

}  // namespace mf::core
