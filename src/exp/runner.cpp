#include "exp/runner.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "core/evaluation.hpp"
#include "exp/scenario_registry.hpp"
#include "solve/service.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace mf::exp {

std::string to_string(SweepVariable variable) {
  switch (variable) {
    case SweepVariable::kTasks:
      return "number of tasks";
    case SweepVariable::kTypes:
      return "number of types";
    case SweepVariable::kMachines:
      return "number of machines";
  }
  return "?";
}

std::size_t ShardSpec::owner(std::size_t point_index, std::size_t trial,
                             std::size_t count) noexcept {
  if (count <= 1) return 0;
  return static_cast<std::size_t>(
      support::mix_seed(static_cast<std::uint64_t>(point_index),
                        static_cast<std::uint64_t>(trial)) %
      static_cast<std::uint64_t>(count));
}

namespace {

Scenario scenario_for(const SweepSpec& spec, std::size_t value) {
  Scenario scenario = spec.base;
  switch (spec.variable) {
    case SweepVariable::kTasks:
      scenario.tasks = value;
      break;
    case SweepVariable::kTypes:
      scenario.types = value;
      break;
    case SweepVariable::kMachines:
      scenario.machines = value;
      break;
  }
  return scenario;
}

/// A trial seed packs the trial index into its low kTrialBits bits, so a
/// point may draw at most kMaxTrials instances before its seeds would run
/// into the next point's.
constexpr unsigned kTrialBits = 20;
constexpr std::size_t kMaxTrials = std::size_t{1} << kTrialBits;

/// The content-addressed seed hierarchy: a trial's instance seed depends
/// only on (base_seed, point, trial), and each (trial, method) pair derives
/// its solver seed from the trial seed and a *stable* hash of the method
/// name (support::fnv1a64 — std::hash would differ across standard
/// libraries), so adding or reordering methods never perturbs another
/// column, and no seed depends on batch composition or shard assignment.
std::uint64_t trial_seed(const SweepSpec& spec, std::size_t point_index, std::size_t trial) {
  return support::mix_seed(spec.base_seed, (point_index << kTrialBits) | trial);
}

std::uint64_t method_seed(std::uint64_t trial_seed, const Method& method) {
  return support::mix_seed(trial_seed, support::fnv1a64(method.name));
}

/// A wave hands its rounds' instances to one solve_all while they hold at
/// most this many w-matrix cells (the sum of n·m); a round that holds more
/// goes alone. One fig09 point (100 instances of 100 × 100 cells) is the
/// largest batch a point-by-point runner made, and it already sets the
/// process's peak memory, so fig09 keeps one point per wave while a whole
/// fig10 or fig12 round fits in one.
constexpr std::size_t kWaveCells = std::size_t{1} << 20;

/// The size of a point's next protocol round after `drawn` instances gave
/// `successes` common successes: `trials` first, then exactly as many as
/// successes are missing, up to max_trials; 0 once the point is done. A
/// round that draws exactly the missing successes can reach the target
/// only on its last trial, so the rounds draw the same trial sequence the
/// paper's one-at-a-time protocol draws, and `attempts` matches it
/// exactly. The runner's waves and merge()'s replay both follow it.
std::size_t round_size(const SweepSpec& spec, std::size_t drawn, std::size_t successes) {
  if (drawn == 0) return spec.trials;
  if (successes >= spec.trials || drawn >= spec.max_trials) return 0;
  return std::min(spec.trials - successes, spec.max_trials - drawn);
}

std::vector<std::size_t> iota_trials(std::size_t from, std::size_t to) {
  std::vector<std::size_t> trials(to - from);
  for (std::size_t t = from; t < to; ++t) trials[t - from] = t;
  return trials;
}

/// One instance of a wave: a trial of some point's current round.
struct Draw {
  std::size_t point_index;
  std::size_t trial;
};

/// One point's way through the protocol.
struct PointProgress {
  std::vector<std::size_t> round;      ///< trials of its next round; empty once done
  std::vector<TrialOutcome> outcomes;  ///< complete runs: every drawn trial, in trial order
  std::size_t successes = 0;
};

/// Evaluates one wave through `executor` in one solve_all: one
/// SolveRequest per (draw, method), in draw then method order, all methods
/// of a draw sharing one generated instance — the paired design. Returns
/// one outcome per draw, in wave order; a trial succeeds only when every
/// method counts its result (the paper's common-success protocol).
std::vector<TrialOutcome> evaluate_trials(const SweepSpec& spec,
                                          const std::vector<Scenario>& scenarios,
                                          const std::vector<Draw>& wave,
                                          const SweepOptions& options,
                                          solve::SolveExecutor& executor,
                                          support::ThreadPool* pool) {
  const std::size_t method_count = spec.methods.size();

  // Instance generation is deterministic in (scenario, seed), so it fans
  // out over the pool like the solves do — a serial generation prefix
  // would cap the speedup of sweeps with cheap solvers (Amdahl).
  std::vector<Instance> instances(wave.size());
  const auto generate_trial = [&](std::size_t t) {
    const Draw& draw = wave[t];
    instances[t] = generate_instance(spec.scenario_id, scenarios[draw.point_index],
                                     trial_seed(spec, draw.point_index, draw.trial));
  };
  if (pool != nullptr) {
    support::parallel_for(*pool, wave.size(), generate_trial);
  } else {
    for (std::size_t t = 0; t < wave.size(); ++t) generate_trial(t);
  }

  std::vector<solve::SolveRequest> requests;
  requests.reserve(wave.size() * method_count);
  for (std::size_t t = 0; t < wave.size(); ++t) {
    const std::uint64_t seed = trial_seed(spec, wave[t].point_index, wave[t].trial);
    for (const Method& method : spec.methods) {
      solve::SolveRequest request;
      // Solvers consume the model's effective problem — the heuristics'
      // binary-search ceilings, the MIP big-M and the evaluator all see the
      // effective rates/times, never the raw base matrices.
      request.problem = instances[t].effective;
      request.solver_id = method.solver_id;
      request.params = method.params;
      request.params.seed = method_seed(seed, method);
      request.params.cache = options.cache;
      request.params.scenario = spec.scenario_id;
      request.derive_stream_seed = false;  // seeds above are already final
      requests.push_back(std::move(request));
    }
  }

  const std::vector<solve::SolveResult> results = executor.solve_all(requests);

  std::vector<TrialOutcome> outcomes(wave.size());
  for (std::size_t t = 0; t < wave.size(); ++t) {
    const Instance& instance = instances[t];
    TrialOutcome& outcome = outcomes[t];
    outcome.success = true;
    outcome.periods.reserve(method_count);
    for (std::size_t k = 0; k < method_count; ++k) {
      const solve::SolveResult& result = results[t * method_count + k];
      if (!spec.methods[k].counts(result)) {
        outcome.success = false;
        outcome.periods.clear();
        break;
      }
      // The solver reports the effective-problem period, which for
      // time-dependent models is the conservative worst-window value; the
      // figure records the model's analytic period of the mapping instead.
      outcome.periods.push_back(
          instance.model_is_identity()
              ? result.period
              : instance.model->period(*instance.problem, *instance.effective,
                                       *result.mapping));
    }
  }
  return outcomes;
}

/// Aggregates trial outcomes indexed [0, drawn) into a PointResult: the
/// first `spec.trials` successes in trial order feed the per-method stats.
/// Shared verbatim by the direct path and merge(), which is what makes a
/// merged sharded sweep bit-identical to the unsharded run.
PointResult aggregate_point(const SweepSpec& spec, std::size_t sweep_value,
                            const std::vector<TrialOutcome>& outcomes, std::size_t drawn) {
  PointResult point;
  point.sweep_value = sweep_value;
  std::vector<support::RunningStats> stats(spec.methods.size());
  std::size_t kept = 0;
  for (std::size_t t = 0; t < drawn && kept < spec.trials; ++t) {
    if (!outcomes[t].success) continue;
    ++kept;
    for (std::size_t k = 0; k < spec.methods.size(); ++k) {
      stats[k].add(outcomes[t].periods[k]);
    }
  }
  point.attempts = drawn;
  point.successes = kept;
  for (std::size_t k = 0; k < spec.methods.size(); ++k) {
    point.period_by_method[spec.methods[k].name] = stats[k].summary();
  }
  return point;
}

void validate_spec(const SweepSpec& spec) {
  MF_REQUIRE(!spec.methods.empty(), "sweep needs at least one method");
  MF_REQUIRE(!spec.values.empty(), "sweep needs at least one point");
  MF_REQUIRE(spec.max_trials >= spec.trials, "max_trials must cover trials");
  MF_REQUIRE(spec.max_trials <= kMaxTrials,
             "max_trials must be at most 2^" + std::to_string(kTrialBits) +
                 ": trial seeds keep the trial index in that many bits");
  // Unknown scenario ids fail the whole sweep up front (with the list of
  // known ids) instead of mid-flight in a pool thread.
  (void)scenario_description(spec.scenario_id);
}

/// The reference's mean period at `point`, or nullopt when the reference
/// counted no trial there (nothing to divide by).
std::optional<double> reference_mean(const PointResult& point, const std::string& reference) {
  const auto ref = point.period_by_method.find(reference);
  if (ref == point.period_by_method.end() || ref->second.count == 0 ||
      ref->second.mean <= 0.0) {
    return std::nullopt;
  }
  return ref->second.mean;
}

}  // namespace

support::Table SweepResult::to_table() const {
  std::vector<std::string> header{to_string(spec.variable)};
  for (const Method& method : spec.methods) header.push_back(method.name + " period (ms)");
  header.push_back("trials");
  support::Table table(std::move(header));
  for (const PointResult& point : points) {
    std::vector<std::string> row{std::to_string(point.sweep_value)};
    for (const Method& method : spec.methods) {
      const auto it = point.period_by_method.find(method.name);
      row.push_back(it == point.period_by_method.end() || it->second.count == 0
                        ? "-"
                        : support::format_double(it->second.mean, 1));
    }
    row.push_back(std::to_string(point.successes) + "/" + std::to_string(point.attempts));
    table.add_row(std::move(row));
  }
  return table;
}

std::string SweepResult::to_chart() const {
  support::AsciiChart chart(to_string(spec.variable), "period (ms)");
  for (const Method& method : spec.methods) {
    std::vector<double> xs;
    std::vector<double> ys;
    for (const PointResult& point : points) {
      const auto it = point.period_by_method.find(method.name);
      if (it != point.period_by_method.end() && it->second.count > 0) {
        xs.push_back(static_cast<double>(point.sweep_value));
        ys.push_back(it->second.mean);
      }
    }
    if (!xs.empty()) chart.add_series(method.name, std::move(xs), std::move(ys));
  }
  return chart.render();
}

std::map<std::string, double> SweepResult::mean_ratio_to(const std::string& reference) const {
  std::map<std::string, support::RunningStats> ratios;
  for (const PointResult& point : points) {
    const std::optional<double> ref = reference_mean(point, reference);
    if (!ref.has_value()) continue;
    for (const auto& [name, summary] : point.period_by_method) {
      if (name == reference || summary.count == 0) continue;
      ratios[name].add(summary.mean / *ref);
    }
  }
  std::map<std::string, double> result;
  for (const auto& [name, stats] : ratios) result[name] = stats.mean();
  return result;
}

support::Table SweepResult::ratio_table(const std::string& reference) const {
  std::vector<std::string> header{to_string(spec.variable)};
  for (const Method& method : spec.methods) {
    if (method.name != reference) header.push_back(method.name + " / " + reference);
  }
  support::Table table(std::move(header));
  for (const PointResult& point : points) {
    const std::optional<double> ref = reference_mean(point, reference);
    if (!ref.has_value()) continue;
    std::vector<std::string> row{std::to_string(point.sweep_value)};
    for (const Method& method : spec.methods) {
      if (method.name == reference) continue;
      const auto it = point.period_by_method.find(method.name);
      row.push_back(it == point.period_by_method.end() || it->second.count == 0
                        ? "-"
                        : support::format_double(it->second.mean / *ref, 2));
    }
    table.add_row(std::move(row));
  }
  return table;
}

SweepResult run_sweep(const SweepSpec& spec, support::ThreadPool* pool) {
  return run_sweep(spec, SweepOptions{}, pool);
}

SweepResult run_sweep(const SweepSpec& spec, const SweepOptions& options,
                      support::ThreadPool* pool) {
  validate_spec(spec);
  MF_REQUIRE(options.shard.count >= 1, "shard count must be at least 1");
  MF_REQUIRE(options.shard.index < options.shard.count,
             "shard index must be below shard count");

  // The executor seam: a sweep does not care where solving happens. The
  // default is one in-process service for the whole sweep; a caller's
  // executor takes the same requests (content-addressed seeds and all) —
  // the outcomes, and therefore the table, are bit-identical.
  solve::SolveService local(pool);
  solve::SolveExecutor& executor =
      options.executor != nullptr ? *options.executor : local;

  // Every point starts at its first round. A complete run follows the
  // protocol from there; a shard evaluates every trial it owns in
  // [0, max_trials) in one round, because how far the protocol reaches
  // depends on other shards' failures.
  const bool sharded = options.shard.is_sharded();
  const std::size_t point_count = spec.values.size();
  SweepResult result;
  result.spec = spec;
  result.shard = options.shard;
  result.points.resize(point_count);
  std::vector<Scenario> scenarios;
  scenarios.reserve(point_count);
  std::vector<PointProgress> progress(point_count);
  for (std::size_t p = 0; p < point_count; ++p) {
    result.points[p].sweep_value = spec.values[p];
    scenarios.push_back(scenario_for(spec, spec.values[p]));
    if (!sharded) {
      progress[p].round = iota_trials(0, round_size(spec, 0, 0));
      continue;
    }
    for (std::size_t trial = 0; trial < spec.max_trials; ++trial) {
      if (options.shard.owns(p, trial)) progress[p].round.push_back(trial);
    }
  }

  // One wave per pass: the next round of every unfinished point, in point
  // order, while its instances hold at most kWaveCells cells (a round that
  // holds more goes alone), solved under one solve_all barrier. Seeds and
  // aggregation do not depend on which wave a trial lands in.
  while (true) {
    std::vector<Draw> wave;
    std::vector<std::size_t> taken;
    std::size_t cells = 0;
    for (std::size_t p = 0; p < point_count; ++p) {
      const std::vector<std::size_t>& round = progress[p].round;
      if (round.empty()) continue;
      const std::size_t round_cells =
          round.size() * scenarios[p].tasks * scenarios[p].machines;
      if (!taken.empty() && cells + round_cells > kWaveCells) break;
      cells += round_cells;
      taken.push_back(p);
      for (const std::size_t trial : round) wave.push_back({p, trial});
    }
    if (taken.empty()) break;

    std::vector<TrialOutcome> outcomes =
        evaluate_trials(spec, scenarios, wave, options, executor, pool);
    for (std::size_t k = 0; k < wave.size(); ++k) {
      const Draw& draw = wave[k];
      if (sharded) {
        result.points[draw.point_index].trial_outcomes.emplace(draw.trial,
                                                                std::move(outcomes[k]));
        continue;
      }
      PointProgress& point = progress[draw.point_index];
      point.successes += outcomes[k].success ? 1 : 0;
      point.outcomes.push_back(std::move(outcomes[k]));
    }
    for (const std::size_t p : taken) {
      PointProgress& point = progress[p];
      const std::size_t drawn = point.outcomes.size();
      point.round = sharded ? std::vector<std::size_t>{}
                            : iota_trials(drawn, drawn + round_size(spec, drawn, point.successes));
    }
  }

  if (!sharded) {
    for (std::size_t p = 0; p < point_count; ++p) {
      const std::vector<TrialOutcome>& outcomes = progress[p].outcomes;
      result.points[p] = aggregate_point(spec, spec.values[p], outcomes, outcomes.size());
    }
  }
  return result;
}

SweepResult merge(std::vector<SweepResult> shards) {
  MF_REQUIRE(!shards.empty(), "merge needs at least one shard result");
  // Order by shard index so validation reads naturally and the merge is
  // independent of the order shards were collected in.
  std::sort(shards.begin(), shards.end(),
            [](const SweepResult& a, const SweepResult& b) {
              return a.shard.index < b.shard.index;
            });

  const SweepResult& first = shards.front();
  const SweepSpec& spec = first.spec;
  validate_spec(spec);
  MF_REQUIRE(shards.size() == first.shard.count,
             "merge needs exactly one result per shard");
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const SweepResult& shard = shards[s];
    MF_REQUIRE(shard.is_partial(), "merge input must be sharded partial results");
    MF_REQUIRE(shard.shard.index == s, "duplicate or missing shard index");
    MF_REQUIRE(shard.shard.count == first.shard.count, "shard counts disagree");
    MF_REQUIRE(shard.spec.name == spec.name && shard.spec.values == spec.values &&
                   shard.spec.variable == spec.variable && shard.spec.trials == spec.trials &&
                   shard.spec.max_trials == spec.max_trials &&
                   shard.spec.base_seed == spec.base_seed,
               "shard sweep specs disagree");
    MF_REQUIRE(shard.spec.scenario_id == spec.scenario_id, "shard scenario ids disagree");
    // The scenario defines the experiment: a stale shard regenerated after
    // a spec edit would otherwise merge silently into a mixed table.
    const Scenario& base = shard.spec.base;
    MF_REQUIRE(base.tasks == spec.base.tasks && base.machines == spec.base.machines &&
                   base.types == spec.base.types &&
                   base.time_min_ms == spec.base.time_min_ms &&
                   base.time_max_ms == spec.base.time_max_ms &&
                   base.failure_min == spec.base.failure_min &&
                   base.failure_max == spec.base.failure_max &&
                   base.failure_attachment == spec.base.failure_attachment &&
                   base.integer_times == spec.base.integer_times,
               "shard base scenarios disagree");
    // Model parameters are part of the experiment identity too — two shards
    // generated under different shock ranges or window factors must not mix.
    MF_REQUIRE(base.shock_min == spec.base.shock_min &&
                   base.shock_max == spec.base.shock_max &&
                   base.window_count == spec.base.window_count &&
                   base.window_ms == spec.base.window_ms &&
                   base.factor_min == spec.base.factor_min &&
                   base.factor_max == spec.base.factor_max &&
                   base.mean_uptime_ms == spec.base.mean_uptime_ms &&
                   base.mean_repair_ms == spec.base.mean_repair_ms,
               "shard model parameters disagree");
    MF_REQUIRE(shard.spec.methods.size() == spec.methods.size(),
               "shard method lists disagree");
    for (std::size_t k = 0; k < spec.methods.size(); ++k) {
      MF_REQUIRE(shard.spec.methods[k].name == spec.methods[k].name &&
                     shard.spec.methods[k].solver_id == spec.methods[k].solver_id &&
                     shard.spec.methods[k].require_proof == spec.methods[k].require_proof,
                 "shard method lists disagree");
    }
    MF_REQUIRE(shard.points.size() == spec.values.size(), "shard point counts disagree");
  }

  SweepResult result;
  result.spec = spec;
  result.points.reserve(spec.values.size());
  for (std::size_t point_index = 0; point_index < spec.values.size(); ++point_index) {
    // Reassemble the full outcome sequence from each owner shard, then
    // replay the retry protocol's rounds over it.
    std::vector<TrialOutcome> outcomes;
    outcomes.reserve(spec.max_trials);
    for (std::size_t trial = 0; trial < spec.max_trials; ++trial) {
      const std::size_t owner =
          ShardSpec::owner(point_index, trial, first.shard.count);
      const PointResult& shard_point = shards[owner].points[point_index];
      const auto it = shard_point.trial_outcomes.find(trial);
      MF_REQUIRE(it != shard_point.trial_outcomes.end(),
                 "shard result is missing an owned trial outcome");
      outcomes.push_back(it->second);
    }
    std::size_t drawn = 0;
    std::size_t successes = 0;
    while (const std::size_t round = round_size(spec, drawn, successes)) {
      for (const std::size_t end = drawn + round; drawn < end; ++drawn) {
        successes += outcomes[drawn].success ? 1 : 0;
      }
    }
    result.points.push_back(
        aggregate_point(spec, spec.values[point_index], outcomes, drawn));
  }
  return result;
}

}  // namespace mf::exp
