#include "exp/sweep_io.hpp"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "support/check.hpp"

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

SweepVariable variable_from_token(const std::string& token) {
  if (token == "tasks") return SweepVariable::kTasks;
  if (token == "types") return SweepVariable::kTypes;
  if (token == "machines") return SweepVariable::kMachines;
  MF_REQUIRE(false, "unknown sweep variable '" + token + "'");
  return SweepVariable::kTasks;  // unreachable
}

std::string hex_double(double value) {
  char buffer[48];
  std::snprintf(buffer, sizeof buffer, "%a", value);
  return buffer;
}

double parse_double(const std::string& token, int line_number) {
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  MF_REQUIRE(end != nullptr && *end == '\0' && !token.empty(),
             "line " + std::to_string(line_number) + ": bad number '" + token + "'");
  return value;
}

/// Pulls the next line, tracking line numbers for error messages.
bool next_line(std::istringstream& in, std::string& line, int& line_number) {
  if (!std::getline(in, line)) return false;
  ++line_number;
  return true;
}

/// Requires a line starting with `keyword` and returns a stream over the
/// remainder.
std::istringstream expect_line(std::istringstream& in, const std::string& keyword,
                               int& line_number) {
  std::string line;
  MF_REQUIRE(next_line(in, line, line_number),
             "unexpected end of input, expected '" + keyword + "'");
  std::istringstream fields(line);
  std::string head;
  fields >> head;
  MF_REQUIRE(head == keyword, "line " + std::to_string(line_number) + ": expected '" +
                                  keyword + "', got '" + head + "'");
  return fields;
}

std::string rest_of_line(std::istringstream& fields) {
  std::string rest;
  std::getline(fields, rest);
  const std::size_t start = rest.find_first_not_of(' ');
  return start == std::string::npos ? std::string{} : rest.substr(start);
}

}  // namespace

std::string to_text(const SweepResult& result) {
  MF_REQUIRE(result.is_partial(),
             "only sharded partial results serialize; complete results print tables");
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
      << hex_double(base.time_min_ms) << ' ' << hex_double(base.time_max_ms) << ' '
      << hex_double(base.failure_min) << ' ' << hex_double(base.failure_max) << ' '
      << (base.failure_attachment == FailureAttachment::kTaskOnly ? "task" : "type-machine")
      << ' ' << (base.integer_times ? 1 : 0) << "\n";
  out << "model " << hex_double(base.shock_min) << ' ' << hex_double(base.shock_max) << ' '
      << base.window_count << ' ' << hex_double(base.window_ms) << ' '
      << hex_double(base.factor_min) << ' ' << hex_double(base.factor_max) << ' '
      << hex_double(base.mean_uptime_ms) << ' ' << hex_double(base.mean_repair_ms) << "\n";
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
        for (const double period : outcome.periods) out << ' ' << hex_double(period);
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
  std::istringstream in(text);
  int line_number = 0;
  std::string line;
  MF_REQUIRE(next_line(in, line, line_number) && line == kHeader,
             "missing '" + std::string(kHeader) + "' header");

  SweepResult result;
  SweepSpec& spec = result.spec;
  {
    auto fields = expect_line(in, "name", line_number);
    fields >> spec.name;
  }
  {
    auto fields = expect_line(in, "description", line_number);
    spec.description = rest_of_line(fields);
  }
  {
    auto fields = expect_line(in, "variable", line_number);
    std::string token;
    fields >> token;
    spec.variable = variable_from_token(token);
  }
  {
    auto fields = expect_line(in, "values", line_number);
    std::size_t value = 0;
    while (fields >> value) spec.values.push_back(value);
    MF_REQUIRE(!spec.values.empty(), "line " + std::to_string(line_number) + ": no values");
  }
  {
    auto fields = expect_line(in, "protocol", line_number);
    MF_REQUIRE(static_cast<bool>(fields >> spec.trials >> spec.max_trials >> spec.base_seed),
               "line " + std::to_string(line_number) + ": bad protocol line");
  }
  {
    auto fields = expect_line(in, "scenario-id", line_number);
    MF_REQUIRE(static_cast<bool>(fields >> spec.scenario_id),
               "line " + std::to_string(line_number) + ": bad scenario-id line");
  }
  {
    auto fields = expect_line(in, "scenario", line_number);
    std::string time_min, time_max, failure_min, failure_max, attachment;
    int integer_times = 0;
    MF_REQUIRE(static_cast<bool>(fields >> spec.base.tasks >> spec.base.machines >>
                                 spec.base.types >> time_min >> time_max >> failure_min >>
                                 failure_max >> attachment >> integer_times),
               "line " + std::to_string(line_number) + ": bad scenario line");
    spec.base.time_min_ms = parse_double(time_min, line_number);
    spec.base.time_max_ms = parse_double(time_max, line_number);
    spec.base.failure_min = parse_double(failure_min, line_number);
    spec.base.failure_max = parse_double(failure_max, line_number);
    spec.base.failure_attachment = attachment == "task" ? FailureAttachment::kTaskOnly
                                                        : FailureAttachment::kTypeMachine;
    spec.base.integer_times = integer_times != 0;
  }
  {
    auto fields = expect_line(in, "model", line_number);
    std::string shock_min, shock_max, window_ms, factor_min, factor_max, uptime, repair;
    MF_REQUIRE(static_cast<bool>(fields >> shock_min >> shock_max >> spec.base.window_count >>
                                 window_ms >> factor_min >> factor_max >> uptime >> repair),
               "line " + std::to_string(line_number) + ": bad model line");
    spec.base.shock_min = parse_double(shock_min, line_number);
    spec.base.shock_max = parse_double(shock_max, line_number);
    spec.base.window_ms = parse_double(window_ms, line_number);
    spec.base.factor_min = parse_double(factor_min, line_number);
    spec.base.factor_max = parse_double(factor_max, line_number);
    spec.base.mean_uptime_ms = parse_double(uptime, line_number);
    spec.base.mean_repair_ms = parse_double(repair, line_number);
  }
  {
    auto fields = expect_line(in, "shard", line_number);
    MF_REQUIRE(static_cast<bool>(fields >> result.shard.index >> result.shard.count),
               "line " + std::to_string(line_number) + ": bad shard line");
    MF_REQUIRE(result.shard.count > 1 && result.shard.index < result.shard.count,
               "line " + std::to_string(line_number) + ": bad shard index/count");
  }
  std::size_t method_count = 0;
  {
    auto fields = expect_line(in, "methods", line_number);
    MF_REQUIRE(static_cast<bool>(fields >> method_count) && method_count > 0,
               "line " + std::to_string(line_number) + ": bad method count");
  }
  for (std::size_t k = 0; k < method_count; ++k) {
    auto fields = expect_line(in, "method", line_number);
    int require_proof = 0;
    Method method;
    MF_REQUIRE(static_cast<bool>(fields >> require_proof >> method.solver_id),
               "line " + std::to_string(line_number) + ": bad method line");
    method.require_proof = require_proof != 0;
    method.name = rest_of_line(fields);
    MF_REQUIRE(!method.name.empty(),
               "line " + std::to_string(line_number) + ": method needs a display name");
    spec.methods.push_back(std::move(method));
  }

  result.points.resize(spec.values.size());
  for (std::size_t p = 0; p < spec.values.size(); ++p) {
    auto fields = expect_line(in, "point", line_number);
    std::size_t index = 0;
    std::size_t outcome_count = 0;
    PointResult& point = result.points[p];
    MF_REQUIRE(static_cast<bool>(fields >> index >> point.sweep_value >> outcome_count) &&
                   index == p,
               "line " + std::to_string(line_number) + ": bad point line");
    for (std::size_t o = 0; o < outcome_count; ++o) {
      auto trial_fields = expect_line(in, "trial", line_number);
      std::size_t trial = 0;
      std::string verdict;
      MF_REQUIRE(static_cast<bool>(trial_fields >> trial >> verdict),
                 "line " + std::to_string(line_number) + ": bad trial line");
      TrialOutcome outcome;
      if (verdict == "ok") {
        outcome.success = true;
        std::string token;
        while (trial_fields >> token) {
          outcome.periods.push_back(parse_double(token, line_number));
        }
        MF_REQUIRE(outcome.periods.size() == method_count,
                   "line " + std::to_string(line_number) +
                       ": trial period count does not match method count");
      } else {
        MF_REQUIRE(verdict == "fail",
                   "line " + std::to_string(line_number) + ": bad trial verdict");
      }
      MF_REQUIRE(point.trial_outcomes.emplace(trial, std::move(outcome)).second,
                 "line " + std::to_string(line_number) + ": duplicate trial index");
    }
  }
  (void)expect_line(in, "end", line_number);
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
