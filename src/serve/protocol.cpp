#include "serve/protocol.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/io.hpp"
#include "support/record.hpp"

namespace mf::serve {

namespace {

using support::hexfloat;
using support::one_line;

constexpr const char* kRequestHeader = "mf-serve-request v1";
constexpr const char* kStatsHeader = "mf-serve-stats v1";

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
  const std::optional<std::uint64_t> length = support::parse_u64(length_token);
  if (!length.has_value()) {
    result.detail = "unparsable content length '" + one_line(length_token) + "'";
    return result;
  }
  result.length = *length;
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

std::optional<ReadResult> FrameDecoder::feed(std::string_view& input) {
  ReadResult result;
  if (!in_body_) {
    const std::size_t newline = input.find('\n');
    const std::size_t line = std::min(newline, input.size());
    if (header_.size() + line > kMaxHeaderBytes) {
      header_.clear();
      result.detail = "frame header exceeds " + std::to_string(kMaxHeaderBytes) + " bytes";
      return result;
    }
    header_.append(input.substr(0, line));
    if (newline == std::string_view::npos) {
      input = {};
      return std::nullopt;
    }
    input.remove_prefix(newline + 1);
    HeaderParse parsed = parse_frame_header(header_, max_body_bytes_);
    header_.clear();
    if (parsed.status != ReadStatus::kOk) {
      // kTooLarge refuses on the declared length alone: no body byte is kept.
      result.status = parsed.status;
      result.detail = std::move(parsed.detail);
      return result;
    }
    frame_.type = parsed.type;
    body_length_ = static_cast<std::size_t>(parsed.length);
    in_body_ = true;
  }
  const std::size_t take = std::min(body_length_ - frame_.body.size(), input.size());
  frame_.body.append(input.substr(0, take));
  input.remove_prefix(take);
  if (frame_.body.size() < body_length_) return std::nullopt;
  in_body_ = false;
  result.status = ReadStatus::kOk;
  result.frame = std::exchange(frame_, Frame{});
  return result;
}

ReadResult FrameDecoder::at_eof() const {
  ReadResult result;
  if (in_body_) {
    result.detail = "truncated body (declared " + std::to_string(body_length_) + " bytes)";
  } else if (!header_.empty()) {
    result.detail = "EOF inside frame header";
  } else {
    result.status = ReadStatus::kClosed;
    result.detail = "connection closed";
  }
  return result;
}

ReadResult FrameReader::next() {
  for (;;) {
    std::string_view input = pending_;
    std::optional<ReadResult> result = decoder_.feed(input);
    pending_.erase(0, pending_.size() - input.size());
    if (result.has_value()) return std::move(*result);

    char chunk[65536];
    const ::ssize_t got = ::read(fd_, chunk, sizeof chunk);
    if (got > 0) {
      pending_.assign(chunk, static_cast<std::size_t>(got));
    } else if (got == 0) {
      return decoder_.at_eof();
    } else if (errno != EINTR) {
      ReadResult failed = decoder_.at_eof();
      if (!decoder_.in_body()) failed.detail = "read error before header end";
      return failed;
    }
  }
}

std::string request_to_text(const WireRequest& wire) {
  const solve::SolveRequest& request = wire.request;
  const solve::SolveParams& params = request.params;
  std::string out = std::string(kRequestHeader) + "\n";
  out += "client " + one_line(wire.client_id) + "\n";
  out += "solver " + one_line(request.solver_id) + "\n";
  out += "scenario " + one_line(params.scenario) + "\n";
  out += "seed " + std::to_string(params.seed) + "\n";
  out += params.max_nodes.has_value() ? "budget 1 " : "budget 0 ";
  out += std::to_string(params.max_nodes.value_or(0)) + "\n";
  out += "limit " + hexfloat(params.time_limit_ms) + "\n";
  out += params.local_search ? "local-search 1\n" : "local-search 0\n";
  out += "refine " + std::to_string(params.refinement.max_passes);
  out += params.refinement.allow_swaps ? " 1" : " 0";
  out += params.refinement.first_improvement ? " 1 " : " 0 ";
  out += hexfloat(params.refinement.min_relative_gain) + "\n";
  out += "cache " + solve::to_string(params.cache) + "\n";
  out += "problem ";
  // The problem text is written into the body in place; its byte count,
  // which comes first, goes in front of it once it is known.
  const std::size_t count_at = out.size();
  out += '\n';
  core::append_text(out, *request.problem);
  out.insert(count_at, std::to_string(out.size() - count_at - 1));
  out += "\nend\n";
  return out;
}

std::optional<WireRequest> request_from_text(const std::string& text) {
  try {
    support::RecordReader in(text);
    in.header(kRequestHeader);
    WireRequest wire;
    solve::SolveParams& params = wire.request.params;
    wire.client_id = in.line("client").rest();
    if (wire.client_id.empty()) in.fail("empty client id");
    wire.request.solver_id = in.line("solver").rest();
    if (wire.request.solver_id.empty()) in.fail("empty solver id");
    params.scenario = in.line("scenario").rest();
    params.seed = in.line("seed").u64();
    in.line("budget");
    const bool has_budget = in.flag();
    const std::uint64_t budget = in.u64();
    if (has_budget) params.max_nodes = budget;
    params.time_limit_ms = in.line("limit").real();
    params.local_search = in.line("local-search").flag();
    in.line("refine");
    params.refinement.max_passes = in.u64();
    params.refinement.allow_swaps = in.flag();
    params.refinement.first_improvement = in.flag();
    params.refinement.min_relative_gain = in.real();
    const std::string_view policy = in.line("cache").word();
    const std::optional<solve::CachePolicy> cache =
        solve::cache_policy_from_string(std::string(policy));
    if (!cache.has_value()) in.fail("unknown cache policy '" + std::string(policy) + "'");
    params.cache = *cache;
    in.line("problem");
    wire.request.problem =
        std::make_shared<const core::Problem>(core::problem_from_text(in.blob(in.u64())));
    // Nothing may follow `end`: a concatenated or padded body is refused,
    // the frame length is the whole truth.
    in.finish();
    wire.request.derive_stream_seed = false;  // wire requests are final
    return wire;
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
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
  out << "latency-p50 " << hexfloat(stats.latency_p50_ms) << "\n";
  out << "latency-p90 " << hexfloat(stats.latency_p90_ms) << "\n";
  out << "latency-p99 " << hexfloat(stats.latency_p99_ms) << "\n";
  out << "end\n";
  return out.str();
}

std::optional<DaemonStatsSnapshot> stats_from_text(const std::string& text) {
  try {
    support::RecordReader in(text);
    in.header(kStatsHeader);
    DaemonStatsSnapshot stats;
    stats.service.submitted = in.line("submitted").u64();
    stats.service.completed = in.line("completed").u64();
    stats.service.solved = in.line("solved").u64();
    stats.service.cache_hits = in.line("cache-hits").u64();
    stats.service.dedup_joined = in.line("dedup-joined").u64();
    stats.service.rejected_queue_full = in.line("rejected-queue-full").u64();
    stats.service.rejected_rate_limited = in.line("rejected-rate-limited").u64();
    in.line("cache");
    stats.cache.hits = in.u64();
    stats.cache.misses = in.u64();
    stats.cache.insertions = in.u64();
    stats.cache.evictions = in.u64();
    stats.cache.size = in.u64();
    stats.cache.bytes = in.u64();
    in.line("connections");
    stats.connections_active = in.u64();
    stats.connections_total = in.u64();
    stats.pending = in.line("pending").u64();
    in.line("pool");
    stats.pool_queue_depth = in.u64();
    stats.pool_in_flight = in.u64();
    in.line("loop");
    stats.loop_wakeups = in.u64();
    stats.loop_timers_fired = in.u64();
    stats.idle_closes = in.u64();
    stats.backpressure_bytes = in.u64();
    in.line("gc");
    stats.gc_runs = in.u64();
    stats.gc_entries_removed = in.u64();
    stats.gc_bytes_removed = in.u64();
    stats.latency_count = in.line("latency-count").u64();
    stats.latency_p50_ms = in.line("latency-p50").real();
    stats.latency_p90_ms = in.line("latency-p90").real();
    stats.latency_p99_ms = in.line("latency-p99").real();
    in.finish();
    return stats;
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
}

}  // namespace mf::serve
