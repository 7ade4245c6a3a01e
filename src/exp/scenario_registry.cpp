#include "exp/scenario_registry.hpp"

#include <algorithm>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace mf::exp {

namespace {

using ModelPtr = std::shared_ptr<const core::FailureModel>;

ModelPtr draw_iid(const Scenario& /*scenario*/, support::Rng& /*rng*/) {
  return std::make_shared<const core::IidFailureModel>();
}

ModelPtr draw_correlated(const Scenario& scenario, support::Rng& rng) {
  MF_REQUIRE(scenario.shock_min >= 0.0 && scenario.shock_max < 1.0 &&
                 scenario.shock_max >= scenario.shock_min,
             "bad machine-shock range");
  std::vector<double> shock(scenario.machines);
  for (double& s : shock) s = rng.uniform(scenario.shock_min, scenario.shock_max);
  return std::make_shared<const core::CorrelatedFailureModel>(std::move(shock));
}

ModelPtr draw_time_varying(const Scenario& scenario, support::Rng& rng) {
  MF_REQUIRE(scenario.window_count >= 1, "time-varying scenario needs at least one window");
  MF_REQUIRE(scenario.window_ms > 0.0, "window duration must be positive");
  MF_REQUIRE(scenario.factor_min >= 0.0 && scenario.factor_max >= scenario.factor_min,
             "bad window-factor range");
  std::vector<double> factors(scenario.window_count);
  for (double& factor : factors) {
    factor = rng.uniform(scenario.factor_min, scenario.factor_max);
  }
  return std::make_shared<const core::TimeVaryingFailureModel>(std::move(factors),
                                                               scenario.window_ms);
}

ModelPtr draw_downtime(const Scenario& scenario, support::Rng& rng) {
  MF_REQUIRE(scenario.mean_uptime_ms > 0.0, "mean uptime must be positive");
  MF_REQUIRE(scenario.mean_repair_ms >= 0.0, "mean repair must be non-negative");
  std::vector<double> uptime(scenario.machines);
  std::vector<double> repair(scenario.machines);
  // Per-machine jitter around the scenario means: machines differ (the
  // per-machine plumbing is exercised) while the fleet average is pinned.
  for (std::size_t u = 0; u < scenario.machines; ++u) {
    uptime[u] = scenario.mean_uptime_ms * rng.uniform(0.5, 1.5);
    repair[u] = scenario.mean_repair_ms * rng.uniform(0.5, 1.5);
  }
  return std::make_shared<const core::DowntimeFailureModel>(std::move(uptime),
                                                            std::move(repair));
}

/// One failure regime: its id, its `--list-scenarios` line, and how it draws
/// the model's parameters from (scenario, model-parameter stream).
struct Regime {
  std::string_view id;
  std::string_view description;
  ModelPtr (*draw_model)(const Scenario& scenario, support::Rng& rng);
};

constexpr Regime kRegimes[] = {
    {"correlated",
     "machine-level shock shared by every task on a machine (NHPP-style common cause)",
     draw_correlated},
    {"downtime",
     "exponential up/repair machine phases; repairs stall the line and inflate "
     "effective processing times by 1/availability",
     draw_downtime},
    {"iid", "i.i.d. per-(task, machine) transient losses — the paper's Section 3.3 model",
     draw_iid},
    {"time-varying",
     "piecewise-constant f_i(t) rate windows (Section 7.2 generalization); "
     "solvers plan for the worst window",
     draw_time_varying},
};
// scenario_ids(), --list-scenarios and every unknown-id message list the
// rows in table order.
static_assert(std::ranges::is_sorted(kRegimes, {}, &Regime::id), "keep kRegimes sorted by id");

const Regime& find_regime(const std::string& id) {
  for (const Regime& regime : kRegimes) {
    if (regime.id == id) return regime;
  }
  std::string available;
  for (const std::string& known : scenario_ids()) {
    available += (available.empty() ? "" : ", ") + known;
  }
  throw std::invalid_argument("unknown scenario '" + id +
                              "'; available scenarios: " + available);
}

}  // namespace

const std::vector<std::string>& scenario_ids() {
  static const std::vector<std::string> ids = [] {
    std::vector<std::string> all;
    for (const Regime& regime : kRegimes) all.emplace_back(regime.id);
    return all;
  }();
  return ids;
}

std::string scenario_description(const std::string& id) {
  return std::string(find_regime(id).description);
}

Instance generate_instance(const std::string& id, const Scenario& scenario,
                           std::uint64_t seed) {
  const Regime& regime = find_regime(id);
  // The model-parameter stream: independent of the base-problem stream
  // (keyed on the seed alone) and of every other regime's stream.
  support::Rng rng(support::mix_seed(seed, support::fnv1a64(regime.id)));
  ModelPtr model = regime.draw_model(scenario, rng);
  Instance instance;
  instance.problem = std::make_shared<const core::Problem>(generate(scenario, seed));
  instance.effective = model->is_identity() ? instance.problem
                                            : std::make_shared<const core::Problem>(
                                                  model->effective_problem(*instance.problem));
  instance.model = std::move(model);
  return instance;
}

}  // namespace mf::exp
