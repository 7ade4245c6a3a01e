#include "serve/protocol.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "core/io.hpp"

namespace mf::serve {

namespace {

constexpr const char* kRequestHeader = "mf-serve-request v1";
constexpr const char* kStatsHeader = "mf-serve-stats v1";

std::string hex_double(double value) {
  char buffer[48];
  std::snprintf(buffer, sizeof buffer, "%a", value);
  return buffer;
}

bool parse_double_token(const std::string& token, double& value) {
  if (token.empty()) return false;
  char* end = nullptr;
  value = std::strtod(token.c_str(), &end);
  return end != nullptr && *end == '\0';
}

bool parse_u64_token(const std::string& token, std::uint64_t& value) {
  if (token.empty() || token[0] == '-') return false;
  errno = 0;
  char* end = nullptr;
  value = std::strtoull(token.c_str(), &end, 10);
  return end != nullptr && *end == '\0' && errno != ERANGE;
}

/// Folds line breaks out of free-text fields so one field stays one line.
std::string one_line(std::string text) {
  for (char& c : text) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return text;
}

/// Line-oriented pull parser (the disk-cache entry parser's sibling):
/// every accessor reports failure through its return value and the caller
/// bails to "malformed".
class BodyReader {
 public:
  explicit BodyReader(const std::string& text) : text_(text) {}

  /// Consumes the next line, requires it to start with `keyword`, and
  /// leaves a token stream over the remaining fields.
  bool expect(const std::string& keyword) {
    std::string line;
    if (!next_line(line)) return false;
    fields_ = std::istringstream(line);
    std::string head;
    fields_ >> head;
    return head == keyword;
  }

  template <typename T>
  bool read(T& value) {
    return static_cast<bool>(fields_ >> value);
  }

  bool read_u64(std::uint64_t& value) {
    std::string token;
    if (!(fields_ >> token)) return false;
    return parse_u64_token(token, value);
  }

  bool read_double(double& value) {
    std::string token;
    if (!(fields_ >> token)) return false;
    return parse_double_token(token, value);
  }

  bool read_bool(bool& value) {
    int flag = 0;
    if (!(fields_ >> flag) || (flag != 0 && flag != 1)) return false;
    value = flag != 0;
    return true;
  }

  /// Remainder of the current line, leading space stripped ("" when empty).
  std::string rest_of_line() {
    std::string rest;
    std::getline(fields_, rest);
    const std::size_t start = rest.find_first_not_of(' ');
    return start == std::string::npos ? std::string{} : rest.substr(start);
  }

  /// Takes the next `count` raw bytes (the embedded problem blob — it
  /// contains newlines, so it cannot travel line-by-line).
  bool read_blob(std::size_t count, std::string& out) {
    if (count > text_.size() - pos_) return false;
    out.assign(text_, pos_, count);
    pos_ += count;
    // The blob is followed by exactly one separator newline.
    if (pos_ >= text_.size() || text_[pos_] != '\n') return false;
    ++pos_;
    return true;
  }

  [[nodiscard]] bool at_end() const { return pos_ == text_.size(); }

 private:
  bool next_line(std::string& line) {
    if (pos_ >= text_.size()) return false;
    const std::size_t nl = text_.find('\n', pos_);
    if (nl == std::string::npos) return false;  // strict: every line terminated
    line.assign(text_, pos_, nl - pos_);
    pos_ = nl + 1;
    return true;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::istringstream fields_;
};

/// Blocking read of exactly `size` bytes; false on EOF or error.
bool read_all(int fd, char* data, std::size_t size) {
  while (size > 0) {
    const ::ssize_t got = ::read(fd, data, size);
    if (got < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (got == 0) return false;
    data += got;
    size -= static_cast<std::size_t>(got);
  }
  return true;
}

}  // namespace

std::string to_string(FrameType type) {
  switch (type) {
    case FrameType::kSolve:
      return "solve";
    case FrameType::kStats:
      return "stats";
    case FrameType::kPing:
      return "ping";
    case FrameType::kOk:
      return "ok";
    case FrameType::kError:
      return "error";
  }
  return "?";
}

std::optional<FrameType> frame_type_from_string(const std::string& token) {
  if (token == "solve") return FrameType::kSolve;
  if (token == "stats") return FrameType::kStats;
  if (token == "ping") return FrameType::kPing;
  if (token == "ok") return FrameType::kOk;
  if (token == "error") return FrameType::kError;
  return std::nullopt;
}

std::string frame_to_bytes(const Frame& frame) {
  std::string bytes = kProtocolMagic;
  bytes += ' ';
  bytes += to_string(frame.type);
  bytes += ' ';
  bytes += std::to_string(frame.body.size());
  bytes += '\n';
  bytes += frame.body;
  return bytes;
}

ReadResult read_frame(int fd, std::size_t max_body_bytes) {
  ReadResult result;

  // Header: byte-at-a-time up to the newline. Headers are ~25 bytes, so
  // the syscall-per-byte cost is noise next to a solve; what it buys is a
  // reader with no lookahead buffer to desynchronize.
  std::string header;
  for (;;) {
    char c = 0;
    const ::ssize_t got = ::read(fd, &c, 1);
    if (got < 0) {
      if (errno == EINTR) continue;
      result.status = header.empty() ? ReadStatus::kClosed : ReadStatus::kMalformed;
      result.detail = "read error before header end";
      return result;
    }
    if (got == 0) {
      if (header.empty()) {
        result.status = ReadStatus::kClosed;  // clean EOF between frames
        result.detail = "connection closed";
      } else {
        result.status = ReadStatus::kMalformed;
        result.detail = "EOF inside frame header";
      }
      return result;
    }
    if (c == '\n') break;
    header += c;
    if (header.size() > kMaxHeaderBytes) {
      result.status = ReadStatus::kMalformed;
      result.detail = "frame header exceeds " + std::to_string(kMaxHeaderBytes) + " bytes";
      return result;
    }
  }

  const HeaderParse parsed = parse_frame_header(header, max_body_bytes);
  if (parsed.status != ReadStatus::kOk) {
    result.status = parsed.status;
    result.detail = parsed.detail;
    return result;
  }

  result.frame.type = parsed.type;
  result.frame.body.resize(static_cast<std::size_t>(parsed.length));
  if (parsed.length > 0 &&
      !read_all(fd, result.frame.body.data(), result.frame.body.size())) {
    result.status = ReadStatus::kMalformed;
    result.detail =
        "truncated body (declared " + std::to_string(parsed.length) + " bytes)";
    result.frame.body.clear();
    return result;
  }
  result.status = ReadStatus::kOk;
  return result;
}

HeaderParse parse_frame_header(const std::string& header,
                               std::size_t max_body_bytes) {
  HeaderParse result;

  // Strictly three tokens: magic, type, decimal length — nothing more.
  std::istringstream fields(header);
  std::string magic;
  std::string type_token;
  std::string length_token;
  std::string excess;
  fields >> magic >> type_token >> length_token;
  if (fields >> excess) {
    result.detail = "trailing tokens in frame header";
    return result;
  }
  if (magic != kProtocolMagic) {
    result.detail = "bad magic '" + one_line(magic) + "' (want " + kProtocolMagic + ")";
    return result;
  }
  const std::optional<FrameType> type = frame_type_from_string(type_token);
  if (!type.has_value()) {
    result.detail = "unknown frame type '" + one_line(type_token) + "'";
    return result;
  }
  if (!parse_u64_token(length_token, result.length)) {
    result.detail = "unparsable content length '" + one_line(length_token) + "'";
    return result;
  }
  result.type = *type;
  if (result.length > max_body_bytes) {
    result.status = ReadStatus::kTooLarge;
    result.detail = "declared body of " + std::to_string(result.length) +
                    " bytes exceeds limit of " + std::to_string(max_body_bytes);
    return result;
  }
  result.status = ReadStatus::kOk;
  return result;
}

std::string request_to_text(const WireRequest& wire) {
  const solve::SolveRequest& request = wire.request;
  const solve::SolveParams& params = request.params;
  const std::string problem_text = core::to_text(*request.problem);

  std::ostringstream out;
  out << kRequestHeader << "\n";
  out << "client " << one_line(wire.client_id) << "\n";
  out << "solver " << one_line(request.solver_id) << "\n";
  out << "scenario " << one_line(params.scenario) << "\n";
  out << "seed " << params.seed << "\n";
  out << "budget " << (params.max_nodes.has_value() ? 1 : 0) << ' '
      << params.max_nodes.value_or(0) << "\n";
  out << "limit " << hex_double(params.time_limit_ms) << "\n";
  out << "local-search " << (params.local_search ? 1 : 0) << "\n";
  out << "refine " << params.refinement.max_passes << ' '
      << (params.refinement.allow_swaps ? 1 : 0) << ' '
      << (params.refinement.first_improvement ? 1 : 0) << ' '
      << hex_double(params.refinement.min_relative_gain) << "\n";
  out << "cache " << solve::to_string(params.cache) << "\n";
  out << "problem " << problem_text.size() << "\n";
  out << problem_text << "\n";
  out << "end\n";
  return out.str();
}

std::optional<WireRequest> request_from_text(const std::string& text) {
  BodyReader reader(text);
  if (!reader.expect("mf-serve-request") ||
      "mf-serve-request " + reader.rest_of_line() != kRequestHeader) {
    return std::nullopt;
  }

  WireRequest wire;
  solve::SolveParams& params = wire.request.params;
  if (!reader.expect("client")) return std::nullopt;
  wire.client_id = reader.rest_of_line();
  if (wire.client_id.empty()) return std::nullopt;
  if (!reader.expect("solver")) return std::nullopt;
  wire.request.solver_id = reader.rest_of_line();
  if (wire.request.solver_id.empty()) return std::nullopt;
  if (!reader.expect("scenario")) return std::nullopt;
  params.scenario = reader.rest_of_line();
  if (!reader.expect("seed") || !reader.read_u64(params.seed)) return std::nullopt;
  {
    bool has_budget = false;
    std::uint64_t budget = 0;
    if (!reader.expect("budget") || !reader.read_bool(has_budget) ||
        !reader.read_u64(budget)) {
      return std::nullopt;
    }
    if (has_budget) params.max_nodes = budget;
  }
  if (!reader.expect("limit") || !reader.read_double(params.time_limit_ms)) {
    return std::nullopt;
  }
  if (!reader.expect("local-search") || !reader.read_bool(params.local_search)) {
    return std::nullopt;
  }
  {
    std::uint64_t passes = 0;
    if (!reader.expect("refine") || !reader.read_u64(passes) ||
        !reader.read_bool(params.refinement.allow_swaps) ||
        !reader.read_bool(params.refinement.first_improvement) ||
        !reader.read_double(params.refinement.min_relative_gain)) {
      return std::nullopt;
    }
    params.refinement.max_passes = static_cast<std::size_t>(passes);
  }
  {
    if (!reader.expect("cache")) return std::nullopt;
    std::string token;
    if (!reader.read(token)) return std::nullopt;
    const std::optional<solve::CachePolicy> policy = solve::cache_policy_from_string(token);
    if (!policy.has_value()) return std::nullopt;
    params.cache = *policy;
  }
  {
    std::uint64_t problem_bytes = 0;
    if (!reader.expect("problem") || !reader.read_u64(problem_bytes)) return std::nullopt;
    std::string problem_text;
    if (!reader.read_blob(static_cast<std::size_t>(problem_bytes), problem_text)) {
      return std::nullopt;
    }
    try {
      wire.request.problem =
          std::make_shared<const core::Problem>(core::problem_from_text(problem_text));
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  // Trailing sentinel plus nothing after it: a concatenated or padded body
  // is rejected, the frame length is the whole truth.
  if (!reader.expect("end") || !reader.at_end()) return std::nullopt;
  wire.request.derive_stream_seed = false;  // wire requests are final
  return wire;
}

std::string error_body(const std::string& code, const std::string& detail) {
  return code + " " + one_line(detail) + "\n";
}

std::optional<std::pair<std::string, std::string>> parse_error_body(const std::string& body) {
  std::istringstream in(body);
  std::string code;
  if (!(in >> code)) return std::nullopt;
  std::string detail;
  std::getline(in, detail);
  const std::size_t start = detail.find_first_not_of(' ');
  detail = start == std::string::npos ? std::string{} : detail.substr(start);
  return std::make_pair(std::move(code), std::move(detail));
}

std::string stats_to_text(const DaemonStatsSnapshot& stats) {
  std::ostringstream out;
  out << kStatsHeader << "\n";
  out << "submitted " << stats.service.submitted << "\n";
  out << "completed " << stats.service.completed << "\n";
  out << "solved " << stats.service.solved << "\n";
  out << "cache-hits " << stats.service.cache_hits << "\n";
  out << "dedup-joined " << stats.service.dedup_joined << "\n";
  out << "rejected-queue-full " << stats.service.rejected_queue_full << "\n";
  out << "rejected-rate-limited " << stats.service.rejected_rate_limited << "\n";
  out << "cache " << stats.cache.hits << ' ' << stats.cache.misses << ' '
      << stats.cache.insertions << ' ' << stats.cache.evictions << ' ' << stats.cache.size
      << ' ' << stats.cache.bytes << "\n";
  out << "connections " << stats.connections_active << ' ' << stats.connections_total << "\n";
  out << "pending " << stats.pending << "\n";
  out << "pool " << stats.pool_queue_depth << ' ' << stats.pool_in_flight << "\n";
  out << "loop " << stats.loop_wakeups << ' ' << stats.loop_timers_fired << ' '
      << stats.idle_closes << ' ' << stats.backpressure_bytes << "\n";
  out << "gc " << stats.gc_runs << ' ' << stats.gc_entries_removed << ' '
      << stats.gc_bytes_removed << "\n";
  out << "latency-count " << stats.latency_count << "\n";
  out << "latency-p50 " << hex_double(stats.latency_p50_ms) << "\n";
  out << "latency-p90 " << hex_double(stats.latency_p90_ms) << "\n";
  out << "latency-p99 " << hex_double(stats.latency_p99_ms) << "\n";
  out << "end\n";
  return out.str();
}

std::optional<DaemonStatsSnapshot> stats_from_text(const std::string& text) {
  BodyReader reader(text);
  if (!reader.expect("mf-serve-stats") ||
      "mf-serve-stats " + reader.rest_of_line() != kStatsHeader) {
    return std::nullopt;
  }
  DaemonStatsSnapshot stats;
  if (!reader.expect("submitted") || !reader.read_u64(stats.service.submitted)) {
    return std::nullopt;
  }
  if (!reader.expect("completed") || !reader.read_u64(stats.service.completed)) {
    return std::nullopt;
  }
  if (!reader.expect("solved") || !reader.read_u64(stats.service.solved)) return std::nullopt;
  if (!reader.expect("cache-hits") || !reader.read_u64(stats.service.cache_hits)) {
    return std::nullopt;
  }
  if (!reader.expect("dedup-joined") || !reader.read_u64(stats.service.dedup_joined)) {
    return std::nullopt;
  }
  if (!reader.expect("rejected-queue-full") ||
      !reader.read_u64(stats.service.rejected_queue_full)) {
    return std::nullopt;
  }
  if (!reader.expect("rejected-rate-limited") ||
      !reader.read_u64(stats.service.rejected_rate_limited)) {
    return std::nullopt;
  }
  {
    std::uint64_t size = 0;
    if (!reader.expect("cache") || !reader.read_u64(stats.cache.hits) ||
        !reader.read_u64(stats.cache.misses) || !reader.read_u64(stats.cache.insertions) ||
        !reader.read_u64(stats.cache.evictions) || !reader.read_u64(size) ||
        !reader.read_u64(stats.cache.bytes)) {
      return std::nullopt;
    }
    stats.cache.size = static_cast<std::size_t>(size);
  }
  if (!reader.expect("connections") || !reader.read_u64(stats.connections_active) ||
      !reader.read_u64(stats.connections_total)) {
    return std::nullopt;
  }
  if (!reader.expect("pending") || !reader.read_u64(stats.pending)) return std::nullopt;
  if (!reader.expect("pool") || !reader.read_u64(stats.pool_queue_depth) ||
      !reader.read_u64(stats.pool_in_flight)) {
    return std::nullopt;
  }
  if (!reader.expect("loop") || !reader.read_u64(stats.loop_wakeups) ||
      !reader.read_u64(stats.loop_timers_fired) ||
      !reader.read_u64(stats.idle_closes) ||
      !reader.read_u64(stats.backpressure_bytes)) {
    return std::nullopt;
  }
  if (!reader.expect("gc") || !reader.read_u64(stats.gc_runs) ||
      !reader.read_u64(stats.gc_entries_removed) ||
      !reader.read_u64(stats.gc_bytes_removed)) {
    return std::nullopt;
  }
  if (!reader.expect("latency-count") || !reader.read_u64(stats.latency_count)) {
    return std::nullopt;
  }
  if (!reader.expect("latency-p50") || !reader.read_double(stats.latency_p50_ms)) {
    return std::nullopt;
  }
  if (!reader.expect("latency-p90") || !reader.read_double(stats.latency_p90_ms)) {
    return std::nullopt;
  }
  if (!reader.expect("latency-p99") || !reader.read_double(stats.latency_p99_ms)) {
    return std::nullopt;
  }
  if (!reader.expect("end")) return std::nullopt;
  return stats;
}

}  // namespace mf::serve
