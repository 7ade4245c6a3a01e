// Trajectory-statistics validation harness: batch means, confidence
// intervals and z-score agreement gates between the discrete-event
// simulator and the analytic period reductions.
//
// The claim under test is the contract of the whole repo: for every
// failure regime of the fixed table in exp/scenario_registry.hpp
// (correlated, downtime, iid, time-varying) and topology (chain, in-tree),
// the simulator's steady-state period converges to the failure model's
// analytic `period()` reduction. One point estimate per scenario cannot
// *gate* that claim — a tolerance wide enough to absorb Monte-Carlo noise
// also absorbs real regressions. The batch-means method turns one long
// trajectory into an estimator with an error bar:
//
//   1. run one campaign to `warmup + batch_count * batch_size` outputs;
//   2. discard the warm-up window (transient);
//   3. split the measurement window into `batch_count` consecutive batches
//      of `batch_size` outputs; the j-th batch mean is the average
//      inter-output time over batch j — for batches much longer than the
//      line's mixing time these means are approximately i.i.d. normal;
//   4. the grand mean estimates the period, the sample std over batches
//      gives its standard error, and z = (mean - analytic) / std_error is
//      the agreement statistic.
//
// The gate passes when the disagreement fits inside
//   max(z_critical * std_error, bias_tolerance * analytic)
// i.e. either the gap is statistically indistinguishable from noise, or it
// sits inside the small systematic band the analytic reductions are allowed:
// the downtime model's availability inflation and the time-varying model's
// per-window harmonic combination are long-run approximations (exact only
// as phases/windows dominate the period), and bounded WIP buffers add a
// blocking bias the saturation formula ignores. Both bands are pinned tight
// (defaults: z = 4, bias = 2%) so a broken reduction or simulator
// regression trips the gate while honest approximation error does not.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulator.hpp"

namespace mf::sim::stats {

/// Batch-means summary of one simulated trajectory's period estimate.
struct BatchMeans {
  double mean = 0.0;       ///< grand mean period (ms per output)
  double variance = 0.0;   ///< sample variance of the batch means
  double std_error = 0.0;  ///< sqrt(variance / batch_count)
  std::size_t batch_count = 0;
  std::size_t batch_size = 0;  ///< outputs per batch

  /// Half-width of the 95% confidence interval on the mean.
  [[nodiscard]] double ci95_half_width() const noexcept { return 1.96 * std_error; }
};

/// Computes batch means of the period from a trajectory's output completion
/// times (ascending, as a kOutput trace hook records them). The measurement
/// window starts at output `warmup - 1` (the last warm-up output anchors the
/// first inter-output gap) and must contain at least
/// `batch_count * batch_size` further outputs with batch_size >= 1;
/// trailing outputs beyond the last full batch are dropped.
[[nodiscard]] BatchMeans batch_means_period(const std::vector<double>& output_times,
                                            std::size_t warmup, std::size_t batch_count);

/// One-sample z statistic of `sample` against a known reference value.
/// Signed: positive when the sample mean exceeds the reference.
[[nodiscard]] double one_sample_z(const BatchMeans& sample, double reference);

/// Application graph shape to validate on.
enum class Topology : std::uint8_t {
  kChain,   ///< linear chain (the paper's Section 7 instances)
  kInTree,  ///< random in-tree with joins
};

[[nodiscard]] std::string topology_name(Topology topology);

struct ValidationConfig {
  std::uint64_t seed = 1;
  /// Instance size (kept moderate: the gate needs long trajectories, not
  /// large graphs).
  std::size_t tasks = 8;
  std::size_t machines = 4;
  std::size_t types = 2;
  /// Chance a non-sink task gets a second incoming branch (kInTree only).
  double join_probability = 0.35;

  std::size_t warmup_outputs = 2'000;
  std::size_t batch_count = 20;
  std::size_t batch_size = 1'000;  ///< outputs per batch

  /// Agreement gate: pass when |empirical - analytic| <=
  /// max(z_critical * std_error, bias_tolerance * analytic).
  double z_critical = 4.0;
  double bias_tolerance = 0.02;

  /// Mapping method the validation solves with.
  std::string solver_id = "H4w";
};

/// Outcome of one (scenario family, topology) agreement check.
struct ValidationResult {
  std::string scenario_id;
  Topology topology = Topology::kChain;
  double analytic_period = 0.0;  ///< the model's period() reduction
  BatchMeans empirical;          ///< batch-means estimate from the trajectory
  double z = 0.0;                ///< one-sample z vs analytic
  bool pass = false;
  SimulationReport report;  ///< full taxonomy counters of the campaign

  /// "scenario/topology: analytic=… empirical=…±… z=… (pass)" for logs.
  [[nodiscard]] std::string describe() const;
};

/// Runs the full agreement check for one failure regime on one
/// topology: generate the instance at `config.seed`, solve a mapping with
/// `config.solver_id`, simulate one long trajectory sampling the scenario's
/// failure model, and gate the batch-means period against the model's
/// analytic reduction. Deterministic in `config`.
[[nodiscard]] ValidationResult validate_scenario(const std::string& scenario_id,
                                                 Topology topology,
                                                 const ValidationConfig& config);

/// validate_scenario for every id of exp::scenario_ids(), on both
/// topologies — the full gate matrix CI runs at pinned seeds.
[[nodiscard]] std::vector<ValidationResult> validate_registered_scenarios(
    const ValidationConfig& config);

}  // namespace mf::sim::stats
