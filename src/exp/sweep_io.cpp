#include "exp/sweep_io.hpp"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "support/check.hpp"
#include "support/record.hpp"

namespace mf::exp {

namespace {

constexpr const char* kHeader = "microfactory-sweep-shard v2";

std::string variable_token(SweepVariable variable) {
  switch (variable) {
    case SweepVariable::kTasks:
      return "tasks";
    case SweepVariable::kTypes:
      return "types";
    case SweepVariable::kMachines:
      return "machines";
  }
  return "?";
}

SweepVariable read_variable(support::RecordReader& in) {
  const std::string_view token = in.word();
  if (token == "tasks") return SweepVariable::kTasks;
  if (token == "types") return SweepVariable::kTypes;
  if (token != "machines") in.fail("unknown sweep variable '" + std::string(token) + "'");
  return SweepVariable::kMachines;
}

FailureAttachment read_attachment(support::RecordReader& in) {
  const std::string_view token = in.word();
  if (token == "task") return FailureAttachment::kTaskOnly;
  if (token != "type-machine") in.fail("unknown failure attachment '" + std::string(token) + "'");
  return FailureAttachment::kTypeMachine;
}

}  // namespace

std::string to_text(const SweepResult& result) {
  MF_REQUIRE(result.is_partial(),
             "only sharded partial results serialize; complete results print tables");
  using support::hexfloat;
  const SweepSpec& spec = result.spec;
  std::ostringstream out;
  out << kHeader << "\n";
  out << "name " << spec.name << "\n";
  out << "description " << spec.description << "\n";
  out << "variable " << variable_token(spec.variable) << "\n";
  out << "values";
  for (const std::size_t value : spec.values) out << ' ' << value;
  out << "\n";
  out << "protocol " << spec.trials << ' ' << spec.max_trials << ' ' << spec.base_seed
      << "\n";
  MF_REQUIRE(!spec.scenario_id.empty() &&
                 spec.scenario_id.find(' ') == std::string::npos,
             "scenario ids must be non-empty and space-free");
  out << "scenario-id " << spec.scenario_id << "\n";
  const Scenario& base = spec.base;
  out << "scenario " << base.tasks << ' ' << base.machines << ' ' << base.types << ' '
      << hexfloat(base.time_min_ms) << ' ' << hexfloat(base.time_max_ms) << ' '
      << hexfloat(base.failure_min) << ' ' << hexfloat(base.failure_max) << ' '
      << (base.failure_attachment == FailureAttachment::kTaskOnly ? "task" : "type-machine")
      << ' ' << (base.integer_times ? 1 : 0) << "\n";
  out << "model " << hexfloat(base.shock_min) << ' ' << hexfloat(base.shock_max) << ' '
      << base.window_count << ' ' << hexfloat(base.window_ms) << ' '
      << hexfloat(base.factor_min) << ' ' << hexfloat(base.factor_max) << ' '
      << hexfloat(base.mean_uptime_ms) << ' ' << hexfloat(base.mean_repair_ms) << "\n";
  out << "shard " << result.shard.index << ' ' << result.shard.count << "\n";
  out << "methods " << spec.methods.size() << "\n";
  for (const Method& method : spec.methods) {
    MF_REQUIRE(method.solver_id.find(' ') == std::string::npos,
               "solver ids must not contain spaces");
    out << "method " << (method.require_proof ? 1 : 0) << ' ' << method.solver_id << ' '
        << method.name << "\n";
  }
  for (std::size_t p = 0; p < result.points.size(); ++p) {
    const PointResult& point = result.points[p];
    out << "point " << p << ' ' << point.sweep_value << ' ' << point.trial_outcomes.size()
        << "\n";
    for (const auto& [trial, outcome] : point.trial_outcomes) {
      out << "trial " << trial;
      if (outcome.success) {
        out << " ok";
        for (const double period : outcome.periods) out << ' ' << hexfloat(period);
      } else {
        out << " fail";
      }
      out << "\n";
    }
  }
  out << "end\n";
  return out.str();
}

SweepResult sweep_shard_from_text(const std::string& text) {
  support::RecordReader in(text);
  in.header(kHeader);

  SweepResult result;
  SweepSpec& spec = result.spec;
  spec.name = in.line("name").rest();
  spec.description = in.line("description").rest();
  spec.variable = read_variable(in.line("variable"));
  in.line("values");
  while (!in.line_done()) spec.values.push_back(in.u64());
  if (spec.values.empty()) in.fail("no values");
  in.line("protocol");
  spec.trials = in.u64();
  spec.max_trials = in.u64();
  spec.base_seed = in.u64();
  spec.scenario_id = in.line("scenario-id").word();

  Scenario& base = spec.base;
  in.line("scenario");
  base.tasks = in.u64();
  base.machines = in.u64();
  base.types = in.u64();
  base.time_min_ms = in.real();
  base.time_max_ms = in.real();
  base.failure_min = in.real();
  base.failure_max = in.real();
  base.failure_attachment = read_attachment(in);
  base.integer_times = in.flag();
  in.line("model");
  base.shock_min = in.real();
  base.shock_max = in.real();
  base.window_count = in.u64();
  base.window_ms = in.real();
  base.factor_min = in.real();
  base.factor_max = in.real();
  base.mean_uptime_ms = in.real();
  base.mean_repair_ms = in.real();

  in.line("shard");
  result.shard.index = in.u64();
  result.shard.count = in.u64();
  if (result.shard.count < 2 || result.shard.index >= result.shard.count) {
    in.fail("bad shard index/count");
  }
  const std::uint64_t method_count = in.line("methods").u64();
  if (method_count == 0) in.fail("bad method count");
  for (std::uint64_t k = 0; k < method_count; ++k) {
    in.line("method");
    Method method;
    method.require_proof = in.flag();
    method.solver_id = in.word();
    method.name = in.rest();
    if (method.name.empty()) in.fail("method needs a display name");
    spec.methods.push_back(std::move(method));
  }

  result.points.resize(spec.values.size());
  for (std::size_t p = 0; p < spec.values.size(); ++p) {
    in.line("point");
    PointResult& point = result.points[p];
    if (in.u64() != p) in.fail("bad point index");
    point.sweep_value = in.u64();
    const std::uint64_t outcome_count = in.u64();
    for (std::uint64_t o = 0; o < outcome_count; ++o) {
      in.line("trial");
      const std::uint64_t trial = in.u64();
      const std::string_view verdict = in.word();
      TrialOutcome outcome;
      if (verdict == "ok") {
        outcome.success = true;
        while (!in.line_done()) outcome.periods.push_back(in.real());
        if (outcome.periods.size() != method_count) {
          in.fail("trial period count does not match method count");
        }
      } else if (verdict != "fail") {
        in.fail("bad trial verdict '" + std::string(verdict) + "'");
      }
      if (!point.trial_outcomes.emplace(trial, std::move(outcome)).second) {
        in.fail("duplicate trial index");
      }
    }
  }
  in.finish();
  return result;
}

void save_sweep_shard(const SweepResult& result, const std::string& path) {
  // Write-temp-then-rename, like the disk cache: a reader (`--merge`, or a
  // scheduler collecting shard files) can never observe a half-written
  // file, even when a killed shard process races its rerun on the same
  // path.
  // Serialize first: a complete result throws here, before there is a
  // temp file to leave behind.
  const std::string text = to_text(result);
  const std::string temp = path + ".tmp-" + std::to_string(::getpid());
  {
    std::ofstream out(temp);
    MF_REQUIRE(out.good(), "cannot open '" + temp + "' for writing");
    out << text;
    // Flush before checking: a failure on the buffered tail (e.g. a full
    // disk) would otherwise only surface in the destructor and be swallowed.
    out.flush();
    MF_REQUIRE(out.good(), "write to '" + temp + "' failed");
  }
  std::error_code ec;
  std::filesystem::rename(temp, path, ec);
  if (ec) {
    std::error_code cleanup;
    std::filesystem::remove(temp, cleanup);
    MF_REQUIRE(false, "cannot move '" + temp + "' into place: " + ec.message());
  }
}

SweepResult load_sweep_shard(const std::string& path) {
  std::ifstream in(path);
  MF_REQUIRE(in.good(), "cannot open '" + path + "' for reading");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return sweep_shard_from_text(buffer.str());
}

}  // namespace mf::exp
