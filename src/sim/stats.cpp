#include "sim/stats.hpp"

#include <cmath>
#include <sstream>
#include <utility>

#include "exp/scenario_registry.hpp"
#include "solve/solver.hpp"
#include "support/check.hpp"

namespace mf::sim::stats {

BatchMeans batch_means_period(const std::vector<double>& output_times, std::size_t warmup,
                              std::size_t batch_count) {
  MF_REQUIRE(warmup >= 1, "batch means need at least one warm-up output as the anchor");
  MF_REQUIRE(batch_count >= 2, "batch means need at least two batches for a variance");
  MF_REQUIRE(output_times.size() >= warmup + batch_count,
             "trajectory too short for the requested batching");
  const std::size_t measured = output_times.size() - warmup;
  const std::size_t batch_size = measured / batch_count;

  // Batch j's mean period is the time between its boundary outputs divided
  // by its size; the anchor is the last warm-up output.
  BatchMeans result;
  result.batch_count = batch_count;
  result.batch_size = batch_size;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (std::size_t j = 0; j < batch_count; ++j) {
    const double start = output_times[warmup - 1 + j * batch_size];
    const double end = output_times[warmup - 1 + (j + 1) * batch_size];
    const double batch_mean = (end - start) / static_cast<double>(batch_size);
    sum += batch_mean;
    sum_sq += batch_mean * batch_mean;
  }
  const auto k = static_cast<double>(batch_count);
  result.mean = sum / k;
  result.variance = std::max(0.0, (sum_sq - sum * sum / k) / (k - 1.0));
  result.std_error = std::sqrt(result.variance / k);
  return result;
}

double one_sample_z(const BatchMeans& sample, double reference) {
  MF_REQUIRE(sample.std_error > 0.0, "z statistic needs a positive standard error");
  return (sample.mean - reference) / sample.std_error;
}

std::string topology_name(Topology topology) {
  return topology == Topology::kChain ? "chain" : "in-tree";
}

namespace {

/// The instance under validation: base problem, model, effective problem
/// and a solved mapping.
struct Setup {
  std::shared_ptr<const core::Problem> problem;
  std::shared_ptr<const core::FailureModel> model;
  std::shared_ptr<const core::Problem> effective;
  core::Mapping mapping;
  double analytic_period = 0.0;
};

Setup make_setup(const std::string& scenario_id, Topology topology,
                 const ValidationConfig& config) {
  exp::Scenario scenario;
  scenario.tasks = config.tasks;
  scenario.machines = config.machines;
  scenario.types = config.types;

  // The regime's chain instance supplies the model. Model parameters are
  // per-machine (never per-graph), so the in-tree variant reuses the same
  // model over an in-tree base drawn at the same seed.
  exp::Instance instance = exp::generate_instance(scenario_id, scenario, config.seed);

  Setup setup;
  setup.model = instance.model;
  if (topology == Topology::kChain) {
    setup.problem = instance.problem;
    setup.effective = instance.effective;
  } else {
    setup.problem = std::make_shared<const core::Problem>(
        exp::generate_in_tree(scenario, config.join_probability, config.seed));
    setup.effective = setup.model->is_identity()
                          ? setup.problem
                          : std::make_shared<const core::Problem>(
                                setup.model->effective_problem(*setup.problem));
  }

  const solve::SolveResult solved = solve::run(*setup.effective, config.solver_id);
  MF_CHECK(solved.ok() && solved.has_mapping(),
           "validation solve failed for scenario " + scenario_id + ": " +
               solve::to_string(solved.status) +
               (solved.diagnostics.note.empty() ? "" : " (" + solved.diagnostics.note + ")"));
  setup.mapping = *solved.mapping;
  setup.analytic_period = setup.model->period(*setup.problem, *setup.effective, setup.mapping);
  return setup;
}

/// One long trajectory at config.seed; returns the batch-means period
/// estimate and the campaign report.
std::pair<BatchMeans, SimulationReport> run_trajectory(const Setup& setup,
                                                       const ValidationConfig& config) {
  SimulationConfig sim;
  sim.seed = config.seed;
  sim.warmup_outputs = config.warmup_outputs;
  sim.target_outputs = config.warmup_outputs + config.batch_count * config.batch_size;
  sim.failure_model = setup.model.get();

  std::vector<double> output_times;
  output_times.reserve(sim.target_outputs);
  const Simulator simulator(*setup.problem, setup.mapping);
  SimulationReport report = simulator.run(sim, [&](const TraceEvent& event) {
    if (event.kind == TraceEvent::Kind::kOutput) output_times.push_back(event.time);
  });
  MF_CHECK(report.reached_target, "validation trajectory ended before its output target");
  return {batch_means_period(output_times, config.warmup_outputs, config.batch_count),
          std::move(report)};
}

bool agreement_gate(double empirical, double analytic, double std_error,
                    const ValidationConfig& config) {
  const double gap = std::abs(empirical - analytic);
  return gap <= std::max(config.z_critical * std_error, config.bias_tolerance * analytic);
}

}  // namespace

std::string ValidationResult::describe() const {
  std::ostringstream os;
  os << scenario_id << '/' << topology_name(topology) << ": analytic=" << analytic_period
     << " empirical=" << empirical.mean << "±" << empirical.ci95_half_width() << " z=" << z
     << (pass ? " (pass)" : " (FAIL)");
  return os.str();
}

ValidationResult validate_scenario(const std::string& scenario_id, Topology topology,
                                   const ValidationConfig& config) {
  const Setup setup = make_setup(scenario_id, topology, config);

  ValidationResult result;
  result.scenario_id = scenario_id;
  result.topology = topology;
  result.analytic_period = setup.analytic_period;
  auto [estimate, report] = run_trajectory(setup, config);
  result.empirical = estimate;
  result.report = std::move(report);
  result.z = one_sample_z(result.empirical, result.analytic_period);
  result.pass = agreement_gate(result.empirical.mean, result.analytic_period,
                               result.empirical.std_error, config);
  return result;
}

std::vector<ValidationResult> validate_registered_scenarios(const ValidationConfig& config) {
  std::vector<ValidationResult> results;
  for (const std::string& id : exp::scenario_ids()) {
    for (const Topology topology : {Topology::kChain, Topology::kInTree}) {
      results.push_back(validate_scenario(id, topology, config));
    }
  }
  return results;
}

}  // namespace mf::sim::stats
