// H1 — the random heuristic (Algorithm 1).
//
// Tasks are grouped backward from the sink: while free machines remain in
// excess of the types still waiting for their first machine, each task opens
// a new group for its type; otherwise it joins a uniformly random existing
// group of its type. Groups are then placed on distinct machines chosen at
// random. H1 is the paper's baseline: it respects feasibility but is blind
// to speeds and failure rates, which is exactly why Figures 5 and 10 show it
// far above the informed heuristics.
#pragma once

#include <optional>

#include "core/mapping.hpp"
#include "core/platform.hpp"
#include "support/rng.hpp"

namespace mf::heuristics {

/// Builds H1's specialized mapping, drawing every random choice from
/// `rng`; std::nullopt when p > m. The only heuristic that reads an RNG.
[[nodiscard]] std::optional<core::Mapping> h1(const core::Problem& problem, support::Rng& rng);

}  // namespace mf::heuristics
