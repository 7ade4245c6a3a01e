// The figure-campaign workloads: the paper's Figure 9 and Figure 12 sweeps,
// run through exp::run_sweep on a pool of one thread per CPU.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "harness.hpp"

namespace perfbench {

[[nodiscard]] bool is_campaign(const std::string& workload);

/// The sweeps one campaign runs, with `seed` as their base seed. Unknown
/// workloads throw std::invalid_argument.
[[nodiscard]] std::vector<mf::exp::SweepSpec> campaign_sweeps(const std::string& workload,
                                                              std::uint64_t seed);

/// Sets up, runs campaigns until `options.seconds` have passed, and checks
/// every counted solve. With `options.trace` it alternates untraced and
/// traced campaigns and reports per-layer metrics instead of end-to-end ones.
[[nodiscard]] WorkloadResult run_campaign(const RunOptions& options, SpanRecorder& recorder);

}  // namespace perfbench
