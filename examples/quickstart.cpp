// Quickstart: model a small micro-factory line, map it with every solver
// in the unified registry through the `mf::solve` facade, and compare
// throughputs.
//
//   ./quickstart [--tasks N] [--machines M] [--types P] [--seed S]
#include <cstdio>

#include "exp/scenario.hpp"
#include "solve/registry.hpp"
#include "solve/solver.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  const mf::support::CliArgs args(argc, argv);

  // 1. Describe the production problem: a chain of typed micro-assembly
  //    tasks on a platform of cells with per-(task, machine) speeds and
  //    failure rates. Here we draw a random instance with the paper's
  //    distributions; real deployments would fill the matrices from
  //    calibration data (see core/platform.hpp).
  mf::exp::Scenario scenario;
  scenario.tasks = static_cast<std::size_t>(args.get_int("tasks", 12));
  scenario.machines = static_cast<std::size_t>(args.get_int("machines", 6));
  scenario.types = static_cast<std::size_t>(args.get_int("types", 3));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const mf::core::Problem problem = mf::exp::generate(scenario, seed);

  std::printf("problem: %s\n", scenario.describe().c_str());
  std::printf("application: %s\n\n", problem.app.describe().c_str());

  // 2. Solve with every registered method. `mf::solve::run` is the single
  //    entry point: pick a solver by id ("H1".."H4f" are the paper's
  //    heuristics, "bnb" the exact branch-and-bound; append "+ls" for a
  //    local-search refinement pass) and pass the parameters in one bag.
  mf::solve::SolveParams params;
  params.seed = seed;
  mf::support::Table table({"solver", "status", "period (ms)", "throughput (/s)", "mapping"});
  for (const std::string& id : mf::solve::SolverRegistry::instance().ids()) {
    if (id == "brute") continue;  // slow twin of bnb, skip here
    const mf::solve::SolveResult result = mf::solve::run(problem, id, params);
    if (!result.has_mapping()) {
      table.add_row({id, mf::solve::to_string(result.status), "-", "-",
                     result.diagnostics.note});
      continue;
    }
    table.add_row({id, mf::solve::to_string(result.status),
                   mf::support::format_double(result.period, 1),
                   mf::support::format_double(1000.0 / result.period, 3),
                   result.mapping->describe(problem.app)});
  }

  // 3. The same entry point composes refinement: "H4w+ls" runs the
  //    paper's best heuristic, then polishes it with local search.
  const mf::solve::SolveResult refined = mf::solve::run(problem, "H4w+ls", params);
  if (refined.has_mapping()) {
    table.add_row({"H4w+ls", mf::solve::to_string(refined.status),
                   mf::support::format_double(refined.period, 1),
                   mf::support::format_double(1000.0 / refined.period, 3),
                   refined.mapping->describe(problem.app)});
  }

  std::printf("%s\n", table.to_string().c_str());
  std::printf("The 'period' is the time the busiest cell spends per finished product\n");
  std::printf("(Section 4.1 of the paper); throughput = 1/period. 'optimal' rows carry\n");
  std::printf("a proof; 'feasible' rows are heuristic constructions.\n");
  return 0;
}
