// Local-search refinement of specialized mappings.
//
// The paper's six heuristics are purely constructive: they place each task
// once, backward, and never revisit a decision. A natural extension — and
// a strong baseline for any future heuristic — is iterative improvement:
// starting from any valid specialized mapping, repeatedly apply the best
// period-reducing move until a local optimum. Two move kinds preserve the
// specialization invariant by construction:
//   * relocate(i, v): move task i to machine v, where v already serves
//     t(i) or is free (and freeing i's old machine when it empties);
//   * swap(i, j): exchange the machines of tasks i and j when both target
//     machines end up serving a single type.
// Every candidate is scored with the exact analytic period, so refinement
// is monotone: the result is never worse than the input. The ablation
// bench quantifies how much of the heuristic-vs-optimal gap (Figures
// 10-12) a refinement pass closes.
#pragma once

#include <cstdint>

#include "core/evaluation.hpp"
#include "core/mapping.hpp"
#include "core/platform.hpp"

namespace mf::ext {

struct RefinementOptions {
  /// Full improvement passes before giving up (each pass scans all
  /// relocate and, optionally, swap moves).
  std::size_t max_passes = 50;
  bool allow_swaps = true;
  /// Accept the first improving move of a pass (fast) instead of the best
  /// one (steepest descent).
  bool first_improvement = false;
  /// Minimum relative period gain for a move to count as an improvement;
  /// guards against floating-point ping-pong. Must lie in [0, 1).
  double min_relative_gain = 1e-9;
};

struct RefinementResult {
  core::Mapping mapping;
  double period = 0.0;          ///< period of the refined mapping
  double initial_period = 0.0;  ///< period of the input mapping
  std::size_t moves_applied = 0;
  std::size_t passes = 0;
  /// True when the final pass found no improving move (local optimum);
  /// false when max_passes stopped the search first.
  bool converged = false;
};

/// Refines a valid specialized mapping; throws std::invalid_argument when
/// the input violates the specialized rule, `max_passes` is 0 or
/// `min_relative_gain` lies outside [0, 1).
[[nodiscard]] RefinementResult refine_mapping(const core::Problem& problem,
                                              const core::Mapping& initial,
                                              const RefinementOptions& options = {});

}  // namespace mf::ext
