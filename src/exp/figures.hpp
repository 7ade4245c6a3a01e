// One SweepSpec per figure of Section 7, with the paper's exact parameters.
//
//   fig05: m=50,  p=5, n=50..150,  all six heuristics           (Figure 5)
//   fig06: m=10,  p=2, n=10..100,  H2 H3 H4 H4w                 (Figure 6)
//   fig07: m=100, p=5, n=100..200, H2 H3 H4w                    (Figure 7)
//   fig08: m=10,  p=5, n=10..100,  f in [0,10%], all six        (Figure 8)
//   fig09: m=n=100, p=20..100, f_{i,u}=f_i, H2 H3 H4w + OtO     (Figure 9)
//   fig10: m=5,   p=2, n=2..16,   all six + exact ("MIP")       (Figure 10)
//   fig12: m=9,   p=4, n=4..20,   H2 H3 H4 H4w + exact          (Figure 12)
// Figure 11 (Figure 10 normalized to the exact optimum) and the Section 7.4
// "factor from the optimal" table are reports over these sweeps, not sweeps
// of their own: `mfsched --figure fig11` renders fig10's result through
// SweepResult::ratio_table("MIP"), and `--figure summary` renders fig09's
// and fig10's through `summary_table`.
//
// Beyond the paper, one figure-style sweep per non-iid failure model
// (scenario_registry.hpp) reuses Figure 6's geometry:
//   scn-correlated / scn-time-varying / scn-downtime
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "exp/runner.hpp"

namespace mf::exp {

/// Node budget for the exact specialized solver when standing in for the
/// paper's CPLEX MIP in figure sweeps.
inline constexpr std::uint64_t kFigureExactNodeBudget = 5'000'000;

[[nodiscard]] SweepSpec figure5_spec();
[[nodiscard]] SweepSpec figure6_spec();
[[nodiscard]] SweepSpec figure7_spec();
[[nodiscard]] SweepSpec figure8_spec();
[[nodiscard]] SweepSpec figure9_spec();
[[nodiscard]] SweepSpec figure10_spec();
[[nodiscard]] SweepSpec figure12_spec();

/// Figure-style sweeps beyond the paper: Figure 6's geometry (m=10, p=2,
/// n=10..100, the four strong heuristics) re-run under each non-iid failure
/// regime of the scenario table. Named "scn-<scenario id>"; any other
/// (figure, scenario) pairing is reachable via `mfsched --figure NAME
/// --scenario ID`, which overrides the spec's scenario id.
[[nodiscard]] SweepSpec scenario_correlated_spec();
[[nodiscard]] SweepSpec scenario_time_varying_spec();
[[nodiscard]] SweepSpec scenario_downtime_spec();

/// All figure sweeps: paper order (Figure 11 derives from Figure 10), then
/// the per-model scenario sweeps.
[[nodiscard]] std::vector<SweepSpec> all_figure_specs();

/// Lookup by spec name ("fig05".."fig12"); nullopt when unknown. The
/// single source of truth for tools that take a figure by name (mfsched
/// --figure).
[[nodiscard]] std::optional<SweepSpec> figure_spec_by_name(const std::string& name);

/// Space-separated known figure names, for usage/error messages.
[[nodiscard]] std::string figure_spec_names();

/// Scales trial counts down by `factor` (at least 1 trial per point); used
/// by smoke tests and quick runs (`mfsched --scale`). Every sweep point
/// stays; a figure run without it uses the paper's full trial counts.
[[nodiscard]] SweepSpec scaled_down(SweepSpec spec, std::size_t factor);

/// Section 7.4's table: the paper's "factor from the optimal" next to the
/// measured one for H2, H3 and H4w — the mean period ratio to OtO over
/// `fig09`'s result and to MIP over `fig10`'s (SweepResult::mean_ratio_to),
/// 2 decimals; "-" where a sweep has no ratio for the method.
[[nodiscard]] support::Table summary_table(const SweepResult& fig09, const SweepResult& fig10);

}  // namespace mf::exp
