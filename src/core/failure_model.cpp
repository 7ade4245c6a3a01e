#include "core/failure_model.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/evaluation.hpp"
#include "core/failure.hpp"
#include "support/check.hpp"
#include "support/matrix.hpp"

namespace mf::core {

namespace {

/// Digest section tag separating model parameters from the base-problem
/// stream (core/digest.cpp owns tags 0..4 for the problem itself).
constexpr std::uint64_t kTagModel = 0x4D46'4D4F'4445'4CULL;  // "MFMODEL"

double clamp_failure(double rate) {
  return std::clamp(rate, 0.0, kMaxEffectiveFailure);
}

}  // namespace

Problem FailureModel::effective_problem(const Problem& base) const {
  const std::size_t n = base.task_count();
  const std::size_t m = base.machine_count();
  support::Matrix w(n, m);
  support::Matrix f(n, m);
  for (TaskIndex i = 0; i < n; ++i) {
    for (MachineIndex u = 0; u < m; ++u) {
      w.at(i, u) = effective_time(base, i, u);
      f.at(i, u) = effective_failure(base, i, u);
    }
  }
  return Problem{base.app, Platform{std::move(w), std::move(f)}};
}

double FailureModel::period(const Problem& base, const Problem& effective,
                            const Mapping& mapping) const {
  (void)base;
  return core::period(effective, mapping);
}

double FailureModel::loss_probability(const Problem& base, TaskIndex i, MachineIndex u,
                                      double time_ms) const {
  (void)time_ms;
  return effective_failure(base, i, u);
}

Digest digest(const Problem& base, const FailureModel& model) {
  const Digest base_digest = digest(base);
  if (model.is_identity()) return base_digest;
  DigestBuilder builder;
  builder.add_u64(base_digest.hi).add_u64(base_digest.lo);
  builder.add_u64(kTagModel);
  builder.add_bytes(model.id());
  model.add_to_digest(builder);
  return builder.finish();
}

// --- iid --------------------------------------------------------------------

std::string IidFailureModel::describe() const {
  return "i.i.d. per-(task, machine) transient losses (Section 3.3)";
}

double IidFailureModel::effective_failure(const Problem& base, TaskIndex i,
                                          MachineIndex u) const {
  return base.platform.failure(i, u);
}

double IidFailureModel::effective_time(const Problem& base, TaskIndex i,
                                       MachineIndex u) const {
  return base.platform.time(i, u);
}

double IidFailureModel::loss_probability(const Problem& base, TaskIndex i, MachineIndex u,
                                         double /*time_ms*/) const {
  return base.platform.failure(i, u);
}

void IidFailureModel::add_to_digest(DigestBuilder& /*builder*/) const {
  // The identity model has no parameters; digest(base, iid) == digest(base).
}

// --- correlated -------------------------------------------------------------

CorrelatedFailureModel::CorrelatedFailureModel(std::vector<double> machine_shock)
    : shock_(std::move(machine_shock)) {
  MF_REQUIRE(!shock_.empty(), "correlated model needs one shock per machine");
  for (const double s : shock_) {
    MF_REQUIRE(s >= 0.0 && s < 1.0, "machine shock probability out of [0, 1)");
  }
}

std::string CorrelatedFailureModel::describe() const {
  const auto [lo, hi] = std::minmax_element(shock_.begin(), shock_.end());
  std::ostringstream os;
  os << "machine-level shock shared across tasks, s_u in [" << *lo * 100 << "%," << *hi * 100
     << "%]";
  return os.str();
}

double CorrelatedFailureModel::effective_failure(const Problem& base, TaskIndex i,
                                                 MachineIndex u) const {
  MF_REQUIRE(u < shock_.size(), "machine index beyond the shock vector");
  const double f = base.platform.failure(i, u);
  return clamp_failure(1.0 - (1.0 - f) * (1.0 - shock_[u]));
}

double CorrelatedFailureModel::effective_time(const Problem& base, TaskIndex i,
                                              MachineIndex u) const {
  return base.platform.time(i, u);
}

void CorrelatedFailureModel::add_to_digest(DigestBuilder& builder) const {
  builder.add_u64(shock_.size());
  for (const double s : shock_) builder.add_double(s);
}

// --- time-varying -----------------------------------------------------------

TimeVaryingFailureModel::TimeVaryingFailureModel(std::vector<double> factors, double window_ms)
    : factors_(std::move(factors)), window_ms_(window_ms) {
  MF_REQUIRE(!factors_.empty(), "time-varying model needs at least one window");
  MF_REQUIRE(window_ms_ > 0.0 && std::isfinite(window_ms_),
             "window duration must be positive and finite");
  for (const double factor : factors_) {
    MF_REQUIRE(factor >= 0.0 && std::isfinite(factor),
               "window factors must be non-negative and finite");
  }
  worst_factor_ = *std::max_element(factors_.begin(), factors_.end());
}

std::string TimeVaryingFailureModel::describe() const {
  std::ostringstream os;
  os << factors_.size() << " piecewise-constant rate windows of " << window_ms_
     << " ms, factors in [" << *std::min_element(factors_.begin(), factors_.end()) << ","
     << worst_factor_ << "]";
  return os.str();
}

double TimeVaryingFailureModel::factor_at(double time_ms) const {
  const double cycle = window_ms_ * static_cast<double>(factors_.size());
  double offset = std::fmod(time_ms, cycle);
  if (offset < 0.0) offset += cycle;
  const auto window = std::min(factors_.size() - 1,
                               static_cast<std::size_t>(offset / window_ms_));
  return factors_[window];
}

double TimeVaryingFailureModel::effective_failure(const Problem& base, TaskIndex i,
                                                  MachineIndex u) const {
  // Static planners must survive the worst window.
  return clamp_failure(base.platform.failure(i, u) * worst_factor_);
}

double TimeVaryingFailureModel::effective_time(const Problem& base, TaskIndex i,
                                               MachineIndex u) const {
  return base.platform.time(i, u);
}

double TimeVaryingFailureModel::loss_probability(const Problem& base, TaskIndex i,
                                                 MachineIndex u, double time_ms) const {
  return clamp_failure(base.platform.failure(i, u) * factor_at(time_ms));
}

double TimeVaryingFailureModel::period(const Problem& base, const Problem& /*effective*/,
                                       const Mapping& mapping) const {
  // Products per cycle = sum_k window_ms / P_k, with P_k the analytic
  // period under window k's rates; the model period is cycle time over
  // products per cycle. A window driven to f >= 1 contributes ~zero
  // throughput (P_k explodes), which is exactly the right limit.
  //
  // P_k is evaluated directly from the base matrices (the x_i recursion of
  // Section 4.1 with modulated rates): period() runs once per (trial,
  // method) in a sweep, so materializing one effective Problem per window
  // per call — K full matrix copies plus validation — would dominate the
  // evaluation.
  const std::size_t n = base.task_count();
  MF_REQUIRE(mapping.task_count() == n && mapping.is_complete(base.machine_count()),
             "time-varying period needs a complete mapping");
  std::vector<double> x(n, 0.0);
  std::vector<double> machine_period(base.machine_count(), 0.0);
  double products_per_cycle = 0.0;
  for (const double factor : factors_) {
    for (const TaskIndex i : base.app.backward_order()) {
      const TaskIndex succ = base.app.successor(i);
      const double downstream = succ == kNoTask ? 1.0 : x[succ];
      const double f =
          clamp_failure(base.platform.failure(i, mapping.machine_of(i)) * factor);
      x[i] = downstream * survival_inverse(f);
    }
    std::fill(machine_period.begin(), machine_period.end(), 0.0);
    for (TaskIndex i = 0; i < n; ++i) {
      const MachineIndex u = mapping.machine_of(i);
      machine_period[u] += x[i] * base.platform.time(i, u);
    }
    const double window_period =
        *std::max_element(machine_period.begin(), machine_period.end());
    products_per_cycle += window_ms_ / window_period;
  }
  MF_CHECK(products_per_cycle > 0.0, "no window produces output");
  return window_ms_ * static_cast<double>(factors_.size()) / products_per_cycle;
}

void TimeVaryingFailureModel::add_to_digest(DigestBuilder& builder) const {
  builder.add_u64(factors_.size()).add_double(window_ms_);
  for (const double factor : factors_) builder.add_double(factor);
}

// --- downtime ---------------------------------------------------------------

DowntimeFailureModel::DowntimeFailureModel(std::vector<double> mean_uptime_ms,
                                           std::vector<double> mean_repair_ms)
    : mean_uptime_ms_(std::move(mean_uptime_ms)), mean_repair_ms_(std::move(mean_repair_ms)) {
  MF_REQUIRE(!mean_uptime_ms_.empty() && mean_uptime_ms_.size() == mean_repair_ms_.size(),
             "downtime model needs one up/repair pair per machine");
  for (std::size_t u = 0; u < mean_uptime_ms_.size(); ++u) {
    MF_REQUIRE(mean_uptime_ms_[u] > 0.0 && std::isfinite(mean_uptime_ms_[u]),
               "mean uptime must be positive and finite");
    MF_REQUIRE(mean_repair_ms_[u] >= 0.0 && std::isfinite(mean_repair_ms_[u]),
               "mean repair must be non-negative and finite");
  }
}

std::string DowntimeFailureModel::describe() const {
  double lo = 1.0;
  double hi = 0.0;
  for (MachineIndex u = 0; u < mean_uptime_ms_.size(); ++u) {
    lo = std::min(lo, availability(u));
    hi = std::max(hi, availability(u));
  }
  std::ostringstream os;
  os << "exponential up/repair phases, availability in [" << lo * 100 << "%," << hi * 100
     << "%]";
  return os.str();
}

double DowntimeFailureModel::availability(MachineIndex u) const {
  MF_REQUIRE(u < mean_uptime_ms_.size(), "machine index beyond the downtime vectors");
  return mean_uptime_ms_[u] / (mean_uptime_ms_[u] + mean_repair_ms_[u]);
}

double DowntimeFailureModel::effective_failure(const Problem& base, TaskIndex i,
                                               MachineIndex u) const {
  return base.platform.failure(i, u);
}

double DowntimeFailureModel::effective_time(const Problem& base, TaskIndex i,
                                            MachineIndex u) const {
  return base.platform.time(i, u) / availability(u);
}

FailureModel::MachineDowntime DowntimeFailureModel::downtime(MachineIndex u) const {
  MF_REQUIRE(u < mean_uptime_ms_.size(), "machine index beyond the downtime vectors");
  return {mean_uptime_ms_[u], mean_repair_ms_[u]};
}

void DowntimeFailureModel::add_to_digest(DigestBuilder& builder) const {
  builder.add_u64(mean_uptime_ms_.size());
  for (const double up : mean_uptime_ms_) builder.add_double(up);
  for (const double repair : mean_repair_ms_) builder.add_double(repair);
}

}  // namespace mf::core
