// Named failure regimes — the experiment-side face of the failure models
// (core/failure_model.hpp).
//
// One fixed, sorted table holds the four regimes: "correlated", "downtime",
// "iid" and "time-varying". `generate_instance(id, scenario, seed)` turns
// (regime, Scenario parameters, seed) into an `Instance`: the base problem,
// the failure model that governs it, and the effective problem every solver
// consumes. Sweeps, the simulator's statistical gates, the CLI and the
// benches all select a regime by id through these three functions. A new
// regime is a `core::FailureModel` subclass plus one row in the table.
//
// Determinism contract: an instance is a pure function of (id, scenario,
// seed). Every regime draws the *base* problem through the legacy
// `generate(scenario, seed)` stream — so all regimes of one seed share one
// base instance (a paired design across failure regimes, like the paired
// design across methods within a sweep) and "iid" stays bit-identical to
// the plain generator, digests included. Model parameters draw from a
// separate stream keyed on (seed, regime id), so adding a regime never
// perturbs another's draws.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/failure_model.hpp"
#include "exp/scenario.hpp"

namespace mf::exp {

/// One generated problem instance under a failure model. `effective` is the
/// solver's view (model-transformed w / f matrices), computed once at
/// generation; for the identity model it aliases `problem`.
struct Instance {
  std::shared_ptr<const core::Problem> problem;
  std::shared_ptr<const core::FailureModel> model;
  std::shared_ptr<const core::Problem> effective;

  /// True when the model leaves the base problem untouched ("iid") — the
  /// sweep runner then trusts the solver's reported period verbatim.
  [[nodiscard]] bool model_is_identity() const noexcept { return problem == effective; }

  /// Content fingerprint of (base problem, model parameters) — equals the
  /// plain problem digest for the identity model.
  [[nodiscard]] core::Digest content_digest() const {
    return core::digest(*problem, *model);
  }
};

/// Every regime id, sorted: correlated, downtime, iid, time-varying.
[[nodiscard]] const std::vector<std::string>& scenario_ids();

/// One-line human description for `--list-scenarios` output. Throws
/// std::invalid_argument listing every id when `id` is unknown.
[[nodiscard]] std::string scenario_description(const std::string& id);

/// Deterministic in (id, scenario, seed); never returns null members.
/// Throws std::invalid_argument listing every id when `id` is unknown.
/// Thread-safe: the sweep runner generates instances from every pool
/// thread.
[[nodiscard]] Instance generate_instance(const std::string& id, const Scenario& scenario,
                                         std::uint64_t seed);

}  // namespace mf::exp
