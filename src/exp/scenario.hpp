// Random problem-instance generation matching Section 7.
//
// "Each point in the figures is an average value of 30 simulations where
// the w_{i,u} are randomly chosen between 100 and 1000 ms ... failure rates
// f_{i,u} are randomly chosen between 0.5% and 2%". Applications are linear
// chains; task types are drawn uniformly with every type guaranteed at
// least one task (the model requires dense types). Processing times are
// drawn per (type, machine) so the Section 3.2 type-uniformity constraint
// holds by construction; failure rates are drawn per (type, machine) by
// default or per task (f_{i,u} = f_i) for the Figure 9 one-to-one setting.
#pragma once

#include <cstdint>
#include <string>

#include "core/platform.hpp"
#include "support/rng.hpp"

namespace mf::exp {

enum class FailureAttachment {
  kTypeMachine,  ///< f drawn per (type, machine) couple — the default setting
  kTaskOnly,     ///< f_{i,u} = f_i drawn per task — Figure 9's OtO setting
};

struct Scenario {
  std::size_t tasks = 10;     ///< n
  std::size_t machines = 10;  ///< m
  std::size_t types = 2;      ///< p (must be <= tasks and <= machines for feasibility)

  double time_min_ms = 100.0;  ///< w lower bound (inclusive)
  double time_max_ms = 1000.0;
  double failure_min = 0.005;  ///< f lower bound (0.5%)
  double failure_max = 0.02;   ///< f upper bound (2%)

  FailureAttachment failure_attachment = FailureAttachment::kTypeMachine;

  /// Draw integer processing times (the paper's ms granularity).
  bool integer_times = true;

  // --- Failure-model parameters (scenario_registry.hpp) ---------------------
  // Consumed only by the regime whose model they parameterize; "iid"
  // ignores all of them, so default scenarios stay bit-identical to the
  // pre-registry behavior.

  /// "correlated": machine shock s_u ~ U[shock_min, shock_max] per machine.
  double shock_min = 0.005;
  double shock_max = 0.05;

  /// "time-varying": one cycle of `window_count` piecewise-constant rate
  /// windows, each `window_ms` long; per-window factor ~ U[factor_min,
  /// factor_max] multiplies every base rate during that window.
  std::size_t window_count = 4;
  double window_ms = 20'000.0;
  double factor_min = 0.25;
  double factor_max = 2.5;

  /// "downtime": per-machine mean up/repair phase durations drawn uniformly
  /// in [0.5, 1.5] x the scenario mean (so machines differ but the
  /// scenario pins the fleet average).
  double mean_uptime_ms = 50'000.0;
  double mean_repair_ms = 2'000.0;

  [[nodiscard]] std::string describe() const;
};

/// Generates one linear-chain problem instance; deterministic in (scenario,
/// seed).
[[nodiscard]] core::Problem generate(const Scenario& scenario, std::uint64_t seed);

/// Generates a random in-tree (joins allowed) instead of a chain; used by
/// tests and the assembly-line example. `join_probability` is the chance a
/// non-sink task gets a second incoming branch.
[[nodiscard]] core::Problem generate_in_tree(const Scenario& scenario, double join_probability,
                                             std::uint64_t seed);

}  // namespace mf::exp
