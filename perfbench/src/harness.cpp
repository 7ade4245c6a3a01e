#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "core/simd.hpp"

namespace perfbench {

void MetricSet::set(const std::string& name, double value, const std::string& unit) {
  for (Metric& metric : metrics_) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

std::optional<double> MetricSet::get(const std::string& name) const {
  for (const Metric& metric : metrics_) {
    if (metric.name == name) return metric.value;
  }
  return std::nullopt;
}

void WorkloadResult::fail_check(std::string what) {
  std::fprintf(stderr, "check failed: %s\n", what.c_str());
  check_failures.push_back(std::move(what));
}

double SpanRecorder::now() const noexcept {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
}

std::uint64_t SpanRecorder::add(std::string name, std::uint64_t parent, double start_s,
                                double end_s, std::string detail) {
  std::lock_guard lock(mutex_);
  Span span;
  span.name = std::move(name);
  span.id = next_id_++;
  span.parent = parent;
  span.trace_id = span.id;
  if (parent != 0) {
    for (const Span& other : spans_) {
      if (other.id == parent) {
        span.trace_id = other.trace_id;
        break;
      }
    }
  }
  span.start_s = start_s;
  span.end_s = end_s;
  span.detail = std::move(detail);
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::uint64_t SpanRecorder::begin(std::string name, std::uint64_t parent, std::string detail) {
  const double start = now();
  return add(std::move(name), parent, start, start, std::move(detail));
}

void SpanRecorder::end(std::uint64_t id) {
  const double stop = now();
  std::lock_guard lock(mutex_);
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->id == id) {
      it->end_s = stop;
      return;
    }
  }
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

double SpanRecorder::self_time(std::uint64_t id) const {
  std::lock_guard lock(mutex_);
  const auto self = std::find_if(spans_.begin(), spans_.end(),
                                 [id](const Span& span) { return span.id == id; });
  if (self == spans_.end()) return 0.0;
  std::vector<std::pair<double, double>> covered;
  for (const Span& span : spans_) {
    if (span.parent != id) continue;
    covered.emplace_back(std::max(span.start_s, self->start_s),
                         std::min(span.end_s, self->end_s));
  }
  std::sort(covered.begin(), covered.end());
  double busy = 0.0;
  double reach = self->start_s;
  for (const auto& [start, end] : covered) {
    const double from = std::max(start, reach);
    if (end > from) {
      busy += end - from;
      reach = end;
    }
  }
  return (self->end_s - self->start_s) - busy;
}

void SpanRecorder::write_jsonl(const std::string& path,
                               const std::string& provenance_json) const {
  std::ofstream out(path);
  if (!out.good()) throw std::runtime_error("cannot write span file " + path);
  out << "{\"provenance\": " << provenance_json << "}\n";
  for (const Span& span : spans()) {
    out << "{\"name\": " << json_string(span.name) << ", \"id\": " << span.id
        << ", \"parent\": " << span.parent << ", \"trace\": " << span.trace_id
        << ", \"start_s\": " << json_number(span.start_s)
        << ", \"end_s\": " << json_number(span.end_s)
        << ", \"detail\": " << json_string(span.detail) << "}\n";
  }
}

double now_seconds() noexcept {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_seconds() noexcept {
  rusage usage{};
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<std::size_t>(rank);
  const std::size_t upper = std::min(lower + 1, values.size() - 1);
  const double fraction = rank - static_cast<double>(lower);
  return values[lower] + fraction * (values[upper] - values[lower]);
}

std::size_t pool_width() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<std::size_t>(count);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

namespace {

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    std::size_t begin = colon + 1;
    while (begin < line.size() && line[begin] == ' ') ++begin;
    return line.substr(begin);
  }
  return "unknown";
}

}  // namespace

HostTicks host_ticks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  HostTicks ticks;
  if (!(stat >> label) || label != "cpu") return ticks;
  // user nice system idle iowait irq softirq steal ...
  std::uint64_t value = 0;
  for (int field = 0; field < 8 && stat >> value; ++field) {
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

Provenance make_provenance(const RunOptions& options, std::size_t width,
                           std::size_t connections, const HostTicks& start) {
  Provenance provenance;
  const HostTicks end = host_ticks();
  if (end.total > start.total) {
    provenance.steal_share = static_cast<double>(end.steal - start.steal) /
                             static_cast<double>(end.total - start.total);
  }
  provenance.workload = options.workload;
  provenance.seed = options.seed;
  provenance.commit = options.commit;
  provenance.simd_isa = mf::core::simd::isa_name(mf::core::simd::active().isa);
  provenance.cpu_model = cpu_model();
  provenance.nproc = std::max(1u, std::thread::hardware_concurrency());
  provenance.pool_width = width;
  provenance.connections = connections;
  provenance.trace = options.trace;
  return provenance;
}

std::string Provenance::to_json() const {
  return "{\"workload\": " + json_string(workload) + ", \"seed\": " + std::to_string(seed) +
         ", \"commit\": " + json_string(commit) + ", \"simd_isa\": " + json_string(simd_isa) +
         ", \"cpu_model\": " + json_string(cpu_model) + ", \"nproc\": " +
         std::to_string(nproc) + ", \"pool_width\": " + std::to_string(pool_width) +
         ", \"connections\": " + std::to_string(connections) +
         ", \"trace\": " + (trace ? "true" : "false") +
         ", \"steal_share\": " + json_number(steal_share) + "}";
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char escaped[8];
          std::snprintf(escaped, sizeof escaped, "\\u%04x", c);
          out += escaped;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char text[64];
  std::snprintf(text, sizeof text, "%.17g", value);
  return text;
}

}  // namespace perfbench
