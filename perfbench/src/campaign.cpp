#include "campaign.hpp"

#include <bit>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>

#include "core/evaluation.hpp"
#include "exp/figures.hpp"
#include "solve/batch.hpp"
#include "support/thread_pool.hpp"

namespace perfbench {

namespace {

using mf::solve::SolveRequest;
using mf::solve::SolveResult;

constexpr std::size_t kSetupRepeats = 3;
/// The solver families whose per-call timings the traced run reports.
const char* const kCampaignSolvers[] = {"H2", "H3", "H4", "H4w", "oto", "bnb"};

/// One solve as the executor saw it.
struct SolveRecord {
  std::shared_ptr<const mf::core::Problem> problem;
  std::string solver_id;
  SolveResult result;
};

/// One `solve_all` call: its wall time, and the longest and summed solve
/// times its results report.
struct BatchRecord {
  double wall_s = 0.0;
  double longest_s = 0.0;
  double total_s = 0.0;
};

/// The campaign's executor: every batch goes to a `BatchSolver` over the
/// shared pool, exactly what `run_sweep` builds when no executor is set.
/// It keeps each batch's problems and results for the checks after the
/// timed region. With a recorder it also opens a `solve.batch` span per call.
class BenchExecutor final : public mf::solve::SolveExecutor {
 public:
  BenchExecutor(mf::support::ThreadPool& pool, SpanRecorder* recorder)
      : pool_(pool), recorder_(recorder) {}

  void set_parent(std::uint64_t span) noexcept { parent_ = span; }

  [[nodiscard]] std::vector<SolveResult> solve_all(
      const std::vector<SolveRequest>& requests) override {
    mf::solve::BatchSolver batch(&pool_);
    if (recorder_ == nullptr) {
      std::vector<SolveResult> results = batch.solve_all(requests);
      keep(requests, results);
      return results;
    }
    const std::uint64_t span =
        recorder_->begin("solve.batch", parent_, std::to_string(requests.size()) + " solves");
    const double start = recorder_->now();
    std::vector<SolveResult> results = batch.solve_all(requests);
    BatchRecord record;
    record.wall_s = recorder_->now() - start;
    recorder_->end(span);
    for (const SolveResult& result : results) {
      const double solve_s = result.diagnostics.wall_time_ms / 1000.0;
      record.longest_s = std::max(record.longest_s, solve_s);
      record.total_s += solve_s;
    }
    batches.push_back(record);
    keep(requests, results);
    return results;
  }

  std::vector<SolveRecord> solves;
  std::vector<BatchRecord> batches;  ///< traced calls only

 private:
  void keep(const std::vector<SolveRequest>& requests, const std::vector<SolveResult>& results) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      solves.push_back({requests[i].problem, requests[i].solver_id, results[i]});
    }
  }

  mf::support::ThreadPool& pool_;
  SpanRecorder* recorder_;
  std::uint64_t parent_ = 0;
};

/// One campaign: every sweep of the workload once.
struct CampaignRun {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<std::string> tables;  ///< one per sweep, the figure as printed
  std::vector<std::uint64_t> sweep_spans;
  std::size_t trials = 0;  ///< instances drawn, summed over points and sweeps
  std::vector<SolveRecord> solves;
  std::vector<BatchRecord> batches;
};

CampaignRun run_once(const std::vector<mf::exp::SweepSpec>& sweeps,
                     mf::support::ThreadPool& pool, SpanRecorder* recorder) {
  BenchExecutor executor(pool, recorder);
  mf::exp::SweepOptions options;
  options.executor = &executor;
  CampaignRun run;
  std::vector<mf::exp::SweepResult> results;
  results.reserve(sweeps.size());

  const double cpu_start = process_cpu_seconds();
  const double start = now_seconds();
  for (const mf::exp::SweepSpec& spec : sweeps) {
    const std::uint64_t span =
        recorder != nullptr ? recorder->begin("exp.sweep", 0, spec.name) : 0;
    executor.set_parent(span);
    results.push_back(mf::exp::run_sweep(spec, options, &pool));
    if (recorder != nullptr) {
      recorder->end(span);
      run.sweep_spans.push_back(span);
    }
  }
  run.wall_s = now_seconds() - start;
  run.cpu_s = process_cpu_seconds() - cpu_start;

  for (const mf::exp::SweepResult& result : results) {
    run.tables.push_back(result.to_table().to_string());
    for (const mf::exp::PointResult& point : result.points) run.trials += point.attempts;
  }
  run.solves = std::move(executor.solves);
  run.batches = std::move(executor.batches);
  return run;
}

/// Counts every solve as an attempt; a kError result or a counted solve
/// whose period `core::period` does not reproduce bit for bit is a failure.
void check_solves(const std::vector<mf::exp::SweepSpec>& sweeps, const CampaignRun& run,
                  WorkloadResult& out) {
  std::map<std::string, const mf::exp::Method*> methods;
  for (const mf::exp::Method& method : sweeps.front().methods) {
    methods.emplace(method.solver_id, &method);
  }
  std::size_t mismatches = 0;
  for (const SolveRecord& solve : run.solves) {
    ++out.attempted;
    if (solve.result.status == mf::solve::Status::kError) {
      ++out.failed;
      continue;
    }
    const auto method = methods.find(solve.solver_id);
    if (method == methods.end() || !method->second->counts(solve.result)) continue;
    const double period = mf::core::period(*solve.problem, *solve.result.mapping);
    if (std::bit_cast<std::uint64_t>(period) !=
        std::bit_cast<std::uint64_t>(solve.result.period)) {
      ++out.failed;
      if (mismatches++ == 0) {
        char line[160];
        std::snprintf(line, sizeof line, "%s period %.17g but core::period gives %.17g",
                      solve.solver_id.c_str(), solve.result.period, period);
        out.fail_check(line);
      }
    }
  }
}

/// Per-layer numbers of one traced campaign.
MetricSet layer_metrics(const CampaignRun& run, const SpanRecorder& recorder, double width) {
  MetricSet metrics;
  double self_s = 0.0;
  for (const std::uint64_t span : run.sweep_spans) self_s += recorder.self_time(span);
  metrics.set("exp.self_s", self_s, "s");
  metrics.set("exp.trials", static_cast<double>(run.trials), "count");

  double batch_s = 0.0;
  double solve_s = 0.0;
  double straggler_s = 0.0;
  for (const BatchRecord& batch : run.batches) {
    batch_s += batch.wall_s;
    solve_s += batch.total_s;
    straggler_s += batch.wall_s - std::max(batch.longest_s, batch.total_s / width);
  }
  metrics.set("solve.batches", static_cast<double>(run.batches.size()), "count");
  metrics.set("solve.batch_s", batch_s, "s");
  metrics.set("solve.pool_efficiency", batch_s > 0.0 ? solve_s / (batch_s * width) : 0.0,
              "ratio");
  metrics.set("solve.straggler_s", straggler_s, "s");

  std::map<std::string, std::vector<double>> solve_ms;
  double bnb_nodes = 0.0;
  double bnb_exhausted = 0.0;
  double bnb_proved = 0.0;
  for (const SolveRecord& solve : run.solves) {
    solve_ms[solve.solver_id].push_back(solve.result.diagnostics.wall_time_ms);
    if (solve.solver_id != "bnb") continue;
    bnb_nodes += static_cast<double>(solve.result.diagnostics.nodes_explored);
    bnb_exhausted += solve.result.status == mf::solve::Status::kBudgetExhausted ? 1.0 : 0.0;
    bnb_proved += solve.result.status == mf::solve::Status::kOptimal ? 1.0 : 0.0;
  }
  for (const char* id : kCampaignSolvers) {
    const std::vector<double>& times = solve_ms[id];
    double total_ms = 0.0;
    for (const double ms : times) total_ms += ms;
    const std::string prefix = std::string("solver.") + id;
    metrics.set(prefix + ".calls", static_cast<double>(times.size()), "count");
    metrics.set(prefix + ".total_s", total_ms / 1000.0, "s");
    metrics.set(prefix + ".p50_ms", quantile(times, 0.5), "ms");
    metrics.set(prefix + ".p90_ms", quantile(times, 0.9), "ms");
  }
  const std::vector<double>& bnb_ms = solve_ms["bnb"];
  double bnb_s = 0.0;
  for (const double ms : bnb_ms) bnb_s += ms / 1000.0;
  metrics.set("exact.bnb.nodes", bnb_nodes, "count");
  metrics.set("exact.bnb.nodes_per_s", bnb_s > 0.0 ? bnb_nodes / bnb_s : 0.0, "1/s");
  metrics.set("exact.bnb.budget_exhausted", bnb_exhausted, "count");
  metrics.set("exact.bnb.proof_ratio",
              bnb_ms.empty() ? 0.0 : bnb_proved / static_cast<double>(bnb_ms.size()), "ratio");
  return metrics;
}

/// The campaign's set-up: start the pool, then a warm-up sweep of one
/// trial per point at the figure's own published seed (fixed work, so
/// set-up time does not depend on the workload seed). All sweeps of a
/// campaign share one figure.
double set_up(const std::vector<mf::exp::SweepSpec>& sweeps,
              std::unique_ptr<mf::support::ThreadPool>& pool, std::size_t width) {
  pool.reset();
  const double start = now_seconds();
  pool = std::make_unique<mf::support::ThreadPool>(width);
  mf::exp::SweepSpec warm = *mf::exp::figure_spec_by_name(sweeps.front().name);
  warm.trials = 1;
  warm.max_trials = 1;
  (void)mf::exp::run_sweep(warm, pool.get());
  return now_seconds() - start;
}

}  // namespace

bool is_campaign(const std::string& workload) {
  return workload == "fig09-heuristics" || workload == "fig12-exact";
}

std::vector<mf::exp::SweepSpec> campaign_sweeps(const std::string& workload,
                                                std::uint64_t seed) {
  if (workload == "fig09-heuristics") {
    mf::exp::SweepSpec spec = mf::exp::figure9_spec();
    spec.base_seed = seed;
    return {spec};
  }
  if (workload != "fig12-exact") {
    throw std::invalid_argument("not a campaign workload: " + workload);
  }
  // Two replications: how many n=18/20 trials exhaust the node budget
  // varies from seed to seed, and a second sweep halves that variance.
  mf::exp::SweepSpec first = mf::exp::figure12_spec();
  first.base_seed = seed;
  mf::exp::SweepSpec second = first;
  second.base_seed = seed + 1;
  return {first, second};
}

WorkloadResult run_campaign(const RunOptions& options, SpanRecorder& recorder) {
  const std::vector<mf::exp::SweepSpec> sweeps = campaign_sweeps(options.workload, options.seed);
  const std::size_t width = pool_width();
  WorkloadResult out;

  std::unique_ptr<mf::support::ThreadPool> pool;
  std::vector<double> setups;
  for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
    setups.push_back(set_up(sweeps, pool, width));
  }

  // Identical inputs every time round, so every campaign must print the
  // same tables; traced and untraced campaigns alternate.
  std::vector<std::string> reference_tables;
  std::vector<double> walls;
  std::vector<double> cpus;
  std::vector<double> rates;
  std::vector<double> solve_ms;
  std::vector<double> traced_walls;
  std::vector<MetricSet> traced_layers;
  const auto consume = [&](CampaignRun run, bool traced) {
    check_solves(sweeps, run, out);
    if (reference_tables.empty()) {
      reference_tables = run.tables;
    } else if (run.tables != reference_tables) {
      ++out.failed;
      out.fail_check(std::string(traced ? "traced" : "untraced") +
                     " campaign printed a different figure table");
    }
    if (traced) {
      traced_walls.push_back(run.wall_s);
      traced_layers.push_back(layer_metrics(run, recorder, static_cast<double>(width)));
      return;
    }
    walls.push_back(run.wall_s / static_cast<double>(sweeps.size()));
    cpus.push_back(run.cpu_s / static_cast<double>(sweeps.size()));
    rates.push_back(static_cast<double>(run.solves.size()) / run.wall_s);
    for (const SolveRecord& solve : run.solves) {
      solve_ms.push_back(solve.result.diagnostics.wall_time_ms);
    }
  };
  const double deadline = now_seconds() + options.seconds;
  do {
    consume(run_once(sweeps, *pool, nullptr), false);
    if (options.trace) consume(run_once(sweeps, *pool, &recorder), true);
  } while (now_seconds() < deadline);

  MetricSet& metrics = out.metrics;
  if (!options.trace) {
    metrics.set("setup_s", median(setups), "s");
    metrics.set("wall_s", median(walls), "s");
    metrics.set("cpu_s", median(cpus), "s");
    metrics.set("req_per_s", median(rates), "1/s");
    metrics.set("latency_p50_ms", quantile(solve_ms, 0.5), "ms");
    metrics.set("latency_p99_ms", quantile(solve_ms, 0.99), "ms");
    return out;
  }
  // Per-layer numbers: the median over traced campaigns (counts are equal
  // in every one of them, so their median is the count itself).
  for (const Metric& metric : traced_layers.front().all()) {
    std::vector<double> values;
    for (const MetricSet& layers : traced_layers) values.push_back(*layers.get(metric.name));
    metrics.set(metric.name, median(values), metric.unit);
  }
  metrics.set("trace.overhead_s", median(traced_walls) - median(walls) * sweeps.size(), "s");
  return out;
}

}  // namespace perfbench
