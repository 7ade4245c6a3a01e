// Shared plumbing of the end-to-end benchmark: named metrics, in-memory
// spans, clocks, percentiles and the provenance stamp every result carries.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// What the command line asks for; one process runs one workload once.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";  ///< source revision, stamped into results
  std::string out_dir = ".";       ///< where the span and result files go
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Metrics in insertion order; setting a name twice overwrites it.
class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] std::optional<double> get(const std::string& name) const;
  [[nodiscard]] const std::vector<Metric>& all() const noexcept { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// What one workload run reports back to main().
struct WorkloadResult {
  MetricSet metrics;
  std::uint64_t attempted = 0;  ///< solve requests issued in the timed region
  std::uint64_t failed = 0;     ///< kError, refused/closed, or failed a check
  std::vector<std::string> check_failures;  ///< one line per failed check

  [[nodiscard]] bool correct() const noexcept { return check_failures.empty(); }
  void fail_check(std::string what);
};

/// One traced interval at a layer boundary. `parent` is 0 for a root span;
/// spans of one request or sweep share the root's id as `trace_id`.
struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t trace_id = 0;
  double start_s = 0.0;  ///< seconds since the recorder was made
  double end_s = 0.0;
  std::string detail;
};

/// Spans kept in memory and written out when the run ends. Thread-safe:
/// the serve workload records from every client thread.
class SpanRecorder {
 public:
  SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

  [[nodiscard]] double now() const noexcept;
  /// Records a finished span and returns its id.
  std::uint64_t add(std::string name, std::uint64_t parent, double start_s, double end_s,
                    std::string detail = {});
  /// Opens a span now (so children can name it as parent); `end` closes it.
  std::uint64_t begin(std::string name, std::uint64_t parent, std::string detail = {});
  void end(std::uint64_t id);
  [[nodiscard]] std::vector<Span> spans() const;
  /// The span's duration minus the part of it its children cover.
  [[nodiscard]] double self_time(std::uint64_t id) const;
  /// One JSON object per line, after a provenance line.
  void write_jsonl(const std::string& path, const std::string& provenance_json) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

/// Seconds on the monotonic clock since an arbitrary origin.
[[nodiscard]] double now_seconds() noexcept;
/// User plus system CPU seconds this process has used so far.
[[nodiscard]] double process_cpu_seconds() noexcept;

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Host-wide CPU time counters from /proc/stat (zero where unreadable).
struct HostTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
[[nodiscard]] HostTicks host_ticks();

/// Where a number came from: the dispatched SIMD ISA, CPU model, thread
/// counts, seed and source revision. Numbers with different stamps never
/// mix. `steal_share` is the share of host CPU time the hypervisor took
/// from this VM during the run; a run with a high share measured contention.
struct Provenance {
  std::string workload;
  std::uint64_t seed = 0;
  std::string commit;
  std::string simd_isa;
  std::string cpu_model;
  std::size_t nproc = 0;
  std::size_t pool_width = 0;
  std::size_t connections = 0;  ///< client connections (0 for campaigns)
  bool trace = false;
  double steal_share = 0.0;

  [[nodiscard]] std::string to_json() const;
};

[[nodiscard]] Provenance make_provenance(const RunOptions& options, std::size_t pool_width,
                                         std::size_t connections, const HostTicks& start);

/// Width of the solver pool every workload uses: one thread per CPU.
[[nodiscard]] std::size_t pool_width();

/// JSON string literal for `text` (quotes and control characters escaped).
[[nodiscard]] std::string json_string(const std::string& text);
/// A number with all its digits; non-finite values become 0.
[[nodiscard]] std::string json_number(double value);

}  // namespace perfbench
