#include "exp/figures.hpp"

#include <algorithm>
#include <map>

namespace mf::exp {

namespace {

std::vector<std::size_t> range(std::size_t from, std::size_t to, std::size_t step) {
  std::vector<std::size_t> values;
  for (std::size_t v = from; v <= to; v += step) values.push_back(v);
  return values;
}

/// Section 7.4's factors from the optimal, as the paper reports them: each
/// heuristic's mean period over the one-to-one optimum (Figure 9's
/// protocol) and over the MIP (Figure 10's).
struct PaperFactor {
  const char* method;
  double vs_one_to_one;
  double vs_exact;
};

constexpr PaperFactor kPaperFactors[] = {
    {"H2", 1.84, 1.73},
    {"H3", 1.75, 1.58},
    {"H4w", 1.28, 1.33},
};

}  // namespace

SweepSpec figure5_spec() {
  SweepSpec spec;
  spec.name = "fig05";
  spec.description = "Specialized mappings, m=50 machines, p=5 types (Figure 5)";
  spec.base.machines = 50;
  spec.base.types = 5;
  spec.variable = SweepVariable::kTasks;
  spec.values = range(50, 150, 10);
  spec.methods = all_heuristic_methods();
  spec.trials = 30;
  spec.max_trials = 30;
  spec.base_seed = 0xF1605;
  return spec;
}

SweepSpec figure6_spec() {
  SweepSpec spec;
  spec.name = "fig06";
  spec.description = "Specialized mappings, m=10 machines, p=2 types (Figure 6)";
  spec.base.machines = 10;
  spec.base.types = 2;
  spec.variable = SweepVariable::kTasks;
  spec.values = range(10, 100, 10);
  spec.methods = heuristic_methods({"H2", "H3", "H4", "H4w"});
  spec.trials = 30;
  spec.max_trials = 30;
  spec.base_seed = 0xF1606;
  return spec;
}

SweepSpec figure7_spec() {
  SweepSpec spec;
  spec.name = "fig07";
  spec.description = "Specialized mappings, m=100 machines, p=5 types (Figure 7)";
  spec.base.machines = 100;
  spec.base.types = 5;
  spec.variable = SweepVariable::kTasks;
  spec.values = range(100, 200, 10);
  spec.methods = heuristic_methods({"H2", "H3", "H4w"});
  spec.trials = 30;
  spec.max_trials = 30;
  spec.base_seed = 0xF1607;
  return spec;
}

SweepSpec figure8_spec() {
  SweepSpec spec;
  spec.name = "fig08";
  spec.description =
      "High failure rates (0 <= f <= 10%), m=10 machines, p=5 types (Figure 8)";
  spec.base.machines = 10;
  spec.base.types = 5;
  spec.base.failure_min = 0.0;
  spec.base.failure_max = 0.10;
  spec.variable = SweepVariable::kTasks;
  spec.values = range(10, 100, 10);
  spec.methods = all_heuristic_methods();
  spec.trials = 30;
  spec.max_trials = 30;
  spec.base_seed = 0xF1608;
  return spec;
}

SweepSpec figure9_spec() {
  SweepSpec spec;
  spec.name = "fig09";
  spec.description =
      "One-to-one optimum vs heuristics, m=100, n=100, f_{i,u}=f_i (Figure 9)";
  spec.base.machines = 100;
  spec.base.tasks = 100;
  spec.base.failure_attachment = FailureAttachment::kTaskOnly;
  spec.variable = SweepVariable::kTypes;
  spec.values = range(20, 100, 10);
  spec.methods = heuristic_methods({"H2", "H3", "H4w"});
  spec.methods.push_back(method_optimal_one_to_one());
  spec.trials = 100;  // "run 100 simulations for each dot of the figure"
  spec.max_trials = 100;
  spec.base_seed = 0xF1609;
  return spec;
}

SweepSpec figure10_spec() {
  SweepSpec spec;
  spec.name = "fig10";
  spec.description = "Heuristics vs exact optimum (MIP), m=5, p=2 (Figure 10)";
  spec.base.machines = 5;
  spec.base.types = 2;
  spec.variable = SweepVariable::kTasks;
  spec.values = range(2, 16, 2);
  spec.methods = all_heuristic_methods();
  spec.methods.push_back(method_exact_specialized(kFigureExactNodeBudget));
  spec.trials = 30;
  spec.max_trials = 60;  // the paper's 30-successes-out-of-60 protocol
  spec.base_seed = 0xF1610;
  return spec;
}

SweepSpec figure12_spec() {
  SweepSpec spec;
  spec.name = "fig12";
  spec.description = "Heuristics vs exact optimum (MIP), m=9, p=4 (Figure 12)";
  spec.base.machines = 9;
  spec.base.types = 4;
  spec.variable = SweepVariable::kTasks;
  spec.values = range(4, 20, 2);
  spec.methods = heuristic_methods({"H2", "H3", "H4", "H4w"});
  spec.methods.push_back(method_exact_specialized(kFigureExactNodeBudget));
  spec.trials = 30;
  spec.max_trials = 60;
  spec.base_seed = 0xF1612;
  return spec;
}

namespace {

/// Shared geometry of the per-model scenario sweeps: Figure 6's setting is
/// small enough to re-run per model yet large enough that regimes separate.
/// All three share one base seed: every generator draws its base instances
/// from the (scenario, seed) stream alone, so equal seeds make the scn-*
/// tables a paired comparison across failure regimes, not three
/// independently sampled experiments.
inline constexpr std::uint64_t kScenarioSweepSeed = 0x5C0;

SweepSpec scenario_sweep_base(const std::string& scenario_id, const std::string& blurb) {
  // Derived from figure6_spec() so the "Figure 6 geometry" claim cannot rot
  // when the paper spec is touched; only identity fields are overridden.
  SweepSpec spec = figure6_spec();
  spec.name = "scn-" + scenario_id;
  spec.description = "Figure 6 geometry under the '" + scenario_id + "' failure model (" +
                     blurb + ")";
  spec.scenario_id = scenario_id;
  spec.base_seed = kScenarioSweepSeed;
  return spec;
}

}  // namespace

SweepSpec scenario_correlated_spec() {
  return scenario_sweep_base("correlated", "machine-level shocks");
}

SweepSpec scenario_time_varying_spec() {
  return scenario_sweep_base("time-varying", "piecewise-constant rate windows");
}

SweepSpec scenario_downtime_spec() {
  return scenario_sweep_base("downtime", "up/repair phases");
}

std::vector<SweepSpec> all_figure_specs() {
  return {figure5_spec(),  figure6_spec(),
          figure7_spec(),  figure8_spec(),
          figure9_spec(),  figure10_spec(),
          figure12_spec(), scenario_correlated_spec(),
          scenario_time_varying_spec(), scenario_downtime_spec()};
}

std::optional<SweepSpec> figure_spec_by_name(const std::string& name) {
  for (SweepSpec& spec : all_figure_specs()) {
    if (spec.name == name) return std::move(spec);
  }
  return std::nullopt;
}

std::string figure_spec_names() {
  std::string names;
  for (const SweepSpec& spec : all_figure_specs()) {
    if (!names.empty()) names += ' ';
    names += spec.name;
  }
  return names;
}

SweepSpec scaled_down(SweepSpec spec, std::size_t factor) {
  spec.trials = std::max<std::size_t>(1, spec.trials / factor);
  spec.max_trials = std::max<std::size_t>(spec.trials, spec.max_trials / factor);
  return spec;
}

support::Table summary_table(const SweepResult& fig09, const SweepResult& fig10) {
  const std::map<std::string, double> vs_one_to_one = fig09.mean_ratio_to("OtO");
  const std::map<std::string, double> vs_exact = fig10.mean_ratio_to("MIP");
  const auto measured = [](const std::map<std::string, double>& ratios, const char* method) {
    const auto it = ratios.find(method);
    return it == ratios.end() ? std::string("-") : support::format_double(it->second, 2);
  };
  support::Table table({"method", "vs OtO (paper)", "vs OtO (measured)", "vs MIP (paper)",
                        "vs MIP (measured)"});
  for (const PaperFactor& paper : kPaperFactors) {
    table.add_row({paper.method, support::format_double(paper.vs_one_to_one, 2),
                   measured(vs_one_to_one, paper.method),
                   support::format_double(paper.vs_exact, 2), measured(vs_exact, paper.method)});
  }
  return table;
}

}  // namespace mf::exp
