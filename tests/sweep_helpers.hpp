// Sweep fixtures shared by the runner and shard tests: a deterministic
// sometimes-failing method that drives the retry protocol, small
// multi-point specs, a bit-for-bit comparison of sweep results, and an
// executor that records what each solve_all call asked for and how much
// the exact search explored.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/digest.hpp"
#include "exp/method.hpp"
#include "exp/runner.hpp"
#include "solve/adapters.hpp"
#include "solve/registry.hpp"
#include "solve/service.hpp"

namespace mf::test {

/// A deterministic sometimes-failing method: infeasible on instances whose
/// digest has an odd low word, H2's answer otherwise. Instance-addressed
/// flakiness exercises the 30-of-60 retry protocol identically in sharded
/// and unsharded runs.
inline void ensure_flaky_solver() {
  auto& registry = solve::SolverRegistry::instance();
  if (registry.contains("flaky")) return;
  registry.register_solver(solve::make_function_solver(
      "flaky", "test solver failing on half the instances",
      [](const core::Problem& problem, const solve::SolveParams& params) {
        if ((core::digest(problem).lo & 1) != 0) return solve::SolveResult{};
        return solve::SolverRegistry::instance().find("H2")->solve(problem, params);
      }));
}

/// Three points of cheap heuristics, four trials each, no retries.
inline exp::SweepSpec small_spec() {
  exp::SweepSpec spec;
  spec.name = "tiny-shard";
  spec.description = "sharding equivalence fixture";
  spec.base.machines = 4;
  spec.base.types = 2;
  spec.variable = exp::SweepVariable::kTasks;
  spec.values = {4, 6, 8};
  spec.methods = exp::heuristic_methods({"H1", "H4w"});
  spec.trials = 4;
  spec.max_trials = 4;
  spec.base_seed = 2024;
  return spec;
}

/// small_spec() plus the flaky method, so its points need retry rounds.
inline exp::SweepSpec flaky_spec() {
  ensure_flaky_solver();
  exp::SweepSpec spec = small_spec();
  spec.name = "flaky-shard";
  spec.methods.push_back(exp::method_for("flaky"));
  spec.trials = 3;
  spec.max_trials = 12;  // the retry protocol has room to chase successes
  return spec;
}

inline void expect_identical(const exp::SweepResult& a, const exp::SweepResult& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t p = 0; p < a.points.size(); ++p) {
    EXPECT_EQ(a.points[p].sweep_value, b.points[p].sweep_value);
    EXPECT_EQ(a.points[p].successes, b.points[p].successes) << "point " << p;
    EXPECT_EQ(a.points[p].attempts, b.points[p].attempts) << "point " << p;
    ASSERT_EQ(a.points[p].period_by_method.size(), b.points[p].period_by_method.size());
    for (const auto& [name, summary] : a.points[p].period_by_method) {
      const support::Summary& other = b.points[p].period_by_method.at(name);
      // Bit-for-bit: content-addressed seeds and trial-order aggregation
      // make every execution path's floating point identical, not just
      // close.
      EXPECT_EQ(summary.count, other.count) << name;
      EXPECT_EQ(summary.mean, other.mean) << name;
      EXPECT_EQ(summary.stddev, other.stddev) << name;
      EXPECT_EQ(summary.min, other.min) << name;
      EXPECT_EQ(summary.max, other.max) << name;
    }
  }
  EXPECT_EQ(a.to_table().to_string(), b.to_table().to_string());
}

/// One partial result per shard of a `count`-way split, run serially.
inline std::vector<exp::SweepResult> run_shards(const exp::SweepSpec& spec, std::size_t count) {
  std::vector<exp::SweepResult> shards;
  for (std::size_t index = 0; index < count; ++index) {
    exp::SweepOptions options;
    options.shard = {index, count};
    shards.push_back(exp::run_sweep(spec, options));
  }
  return shards;
}

/// Forwards every solve_all to another executor and records, per call, the
/// shape of each request's problem, and every bnb solve with its nodes.
class CountingExecutor final : public solve::SolveExecutor {
 public:
  struct Shape {
    std::size_t tasks = 0;
    std::size_t machines = 0;
    std::size_t types = 0;
  };

  explicit CountingExecutor(solve::SolveExecutor& inner) : inner_(inner) {}

  [[nodiscard]] std::vector<solve::SolveResult> solve_all(
      const std::vector<solve::SolveRequest>& requests) override {
    std::vector<Shape>& call = calls.emplace_back();
    for (const solve::SolveRequest& request : requests) {
      call.push_back({request.problem->task_count(), request.problem->machine_count(),
                      request.problem->type_count()});
    }
    std::vector<solve::SolveResult> results = inner_.solve_all(requests);
    for (std::size_t k = 0; k < requests.size(); ++k) {
      if (requests[k].solver_id != "bnb") continue;
      bnb.emplace_back(requests[k].problem, results[k]);
      bnb_nodes += results[k].diagnostics.nodes_explored;
    }
    return results;
  }

  std::vector<std::vector<Shape>> calls;
  std::vector<std::pair<std::shared_ptr<const core::Problem>, solve::SolveResult>> bnb;
  std::uint64_t bnb_nodes = 0;

 private:
  solve::SolveExecutor& inner_;
};

}  // namespace mf::test
