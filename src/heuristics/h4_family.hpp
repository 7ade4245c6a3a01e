// The greedy H4 family (Algorithms 4-6).
//
// Walking tasks backward, each task is placed on the machine minimizing the
// machine's accumulated load plus a score increment; the three variants
// differ only in the increment:
//   H4  (best performance): x * w_{i,u} * F_{i,u} — the true period
//        increment, combining speed and reliability;
//   H4w (fastest machine):  x * w_{i,u}           — failure-blind;
//   H4f (reliable machine): x * F_{i,u}           — speed-blind.
// Here x is the number of products the task's successor requires (known
// exactly at placement time thanks to the backward order) and F is the
// failure factor.
//
// The paper's notation is ambiguous about F: Section 5.1 defines
// F = 1/(1-f) (expected attempts per success) while Algorithms 4/6 caption
// F(i,u) as "the failure rate". We default to 1/(1-f), which makes H4 the
// exact greedy on period increase; `FailureFactor::kRawRate` switches to
// the literal failure rate f for the ablation bench. Both reproduce the
// paper's qualitative ranking (H4 ~ H4w >> H4f).
#pragma once

#include <optional>

#include "core/mapping.hpp"
#include "core/platform.hpp"

namespace mf::heuristics {

enum class FailureFactor {
  kAttemptsPerSuccess,  ///< F = 1/(1-f), Section 5.1's F_i (default)
  kRawRate,             ///< F = f, the literal Algorithm 4/6 caption
};

// Each builds its variant's specialized mapping, or std::nullopt when
// p > m.

/// H4 (best performance).
[[nodiscard]] std::optional<core::Mapping> h4(
    const core::Problem& problem, FailureFactor factor = FailureFactor::kAttemptsPerSuccess);

/// H4w (fastest machine).
[[nodiscard]] std::optional<core::Mapping> h4w(const core::Problem& problem);

/// H4f (reliable machine).
[[nodiscard]] std::optional<core::Mapping> h4f(
    const core::Problem& problem, FailureFactor factor = FailureFactor::kAttemptsPerSuccess);

}  // namespace mf::heuristics
