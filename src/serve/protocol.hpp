// The wire protocol of the scheduler daemon: a small, line/frame-based
// request/response protocol over TCP, designed to be testable byte-for-byte
// without a network in sight.
//
// Every message is one frame:
//
//   mf-serve/1 <type> <content-length>\n
//   <content-length bytes of body>
//
// Request types are `solve`, `stats`, and `ping`; responses are `ok` or
// `error`. An error body is a single line `<code> <detail>`, where the code
// is machine-readable (`bad-request`, `too-large`, `queue-full`,
// `rate-limited`, `draining`, `internal`) — admission control and rate
// limiting are explicit protocol outcomes, never silent buffering.
//
// Bodies are records in the one text codec of support/record.hpp, the
// hexfloat form shard files and cache entries already use:
//
//   * A solve request body (`request_to_text`/`request_from_text`) carries
//     the client id, the full `SolveParams` (doubles as C99 hexfloats), and
//     the problem in the core/io.hpp v1 format (doubles as decimal "%.17g",
//     which reads back to the same bits) — the round-trip preserves the
//     problem's 128-bit digest, so the daemon computes the same cache key
//     the client would in-process.
//   * A solve response body IS a disk-cache entry (`entry_to_text` /
//     `entry_from_text`, solve/disk_cache.hpp): the full `CacheKey` plus
//     the bit-exact `SolveResult`. One serialized form for "result at
//     rest" and "result in flight" means one strict parser and one set of
//     robustness tests.
//
// Parsing is strict everywhere: a malformed header, an oversized declared
// length, a truncated body, or a body the record reader refuses (unknown,
// missing or unparsable field, trailing bytes) is rejected (nullopt / error
// response), never guessed at.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "solve/cache_backend.hpp"
#include "solve/service.hpp"

namespace mf::serve {

/// Protocol magic + version; bumping invalidates every client.
inline constexpr const char* kProtocolMagic = "mf-serve/1";

/// Frames larger than this are rejected with `too-large` before the body is
/// read — the daemon never buffers an attacker-sized allocation.
inline constexpr std::size_t kDefaultMaxFrameBytes = 4u << 20;

/// A frame header line may not exceed this many bytes (newline excluded);
/// `FrameDecoder` enforces it, so a client dribbling garbage cannot grow an
/// unbounded header buffer.
inline constexpr std::size_t kMaxHeaderBytes = 128;

/// Machine-readable error codes carried as the first token of an `error`
/// response body.
inline constexpr const char* kErrBadRequest = "bad-request";
inline constexpr const char* kErrTooLarge = "too-large";
inline constexpr const char* kErrQueueFull = "queue-full";
inline constexpr const char* kErrRateLimited = "rate-limited";
inline constexpr const char* kErrDraining = "draining";
inline constexpr const char* kErrInternal = "internal";

enum class FrameType { kSolve, kStats, kPing, kOk, kError };

[[nodiscard]] std::string to_string(FrameType type);
[[nodiscard]] std::optional<FrameType> frame_type_from_string(const std::string& token);

struct Frame {
  FrameType type = FrameType::kError;
  std::string body;
};

/// Serializes a frame (header line + body) into wire bytes.
[[nodiscard]] std::string frame_to_bytes(const Frame& frame);

/// Outcome of reading one frame from a byte stream. `kClosed` is a clean
/// EOF before any header byte (the peer hung up between requests);
/// everything else mid-frame is a `kMalformed`/`kTooLarge` protocol error.
enum class ReadStatus { kOk, kClosed, kMalformed, kTooLarge };

struct ReadResult {
  ReadStatus status = ReadStatus::kMalformed;
  Frame frame;          ///< valid only when status == kOk
  std::string detail;   ///< human-readable reason for non-kOk
};

/// Result of validating one complete header line (newline stripped).
/// kOk means `type`/`length` are usable; kTooLarge means the declared
/// length exceeds `max_body_bytes` (refuse before reading any body byte);
/// kMalformed carries the reason in `detail`.
struct HeaderParse {
  ReadStatus status = ReadStatus::kMalformed;
  FrameType type = FrameType::kError;
  std::uint64_t length = 0;
  std::string detail;
};

/// The strict header parser `FrameDecoder` runs on each header line:
/// strictly three tokens (`mf-serve/1 <type> <len>`).
[[nodiscard]] HeaderParse parse_frame_header(const std::string& header,
                                             std::size_t max_body_bytes);

/// The frame stream's rules, for both ends of the wire: the daemon's
/// reactor and `FrameReader` feed it bytes as they arrive. It refuses a
/// header line over `kMaxHeaderBytes`, runs `parse_frame_header`, refuses a
/// declared length over `max_body_bytes` before it keeps any body byte, and
/// fills the body.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_body_bytes = kDefaultMaxFrameBytes)
      : max_body_bytes_(max_body_bytes) {}

  /// Takes bytes from the front of `input` until a frame completes or is
  /// refused (kMalformed/kTooLarge), and returns that; nullopt once it has
  /// taken all of `input` and needs more. After a result it starts afresh.
  [[nodiscard]] std::optional<ReadResult> feed(std::string_view& input);

  /// EOF here: kClosed between frames, kMalformed inside a header or body.
  [[nodiscard]] ReadResult at_eof() const;

  /// True once a header is accepted and until its body is complete.
  [[nodiscard]] bool in_body() const { return in_body_; }

 private:
  std::size_t max_body_bytes_;
  std::string header_;  ///< header line so far, newline excluded
  bool in_body_ = false;
  std::size_t body_length_ = 0;
  Frame frame_;
};

/// Reads frames off a blocking file descriptor, which the caller owns. It
/// reads in chunks and keeps the bytes past a frame for the next call, so
/// a response costs one or two `read()` calls.
class FrameReader {
 public:
  explicit FrameReader(int fd, std::size_t max_body_bytes = kDefaultMaxFrameBytes)
      : fd_(fd), decoder_(max_body_bytes) {}

  /// Blocks until the next frame completes, is refused, or meets EOF
  /// (`FrameDecoder::at_eof`). A read error reads kClosed between frames
  /// and kMalformed inside one.
  [[nodiscard]] ReadResult next();

 private:
  int fd_;
  FrameDecoder decoder_;
  std::string pending_;  ///< bytes read past the last frame
};

/// A solve request as it travels: the client's identity (the rate-limiter
/// key) plus the `SolveRequest` itself. The wire form is final — stream
/// seeds are derived client-side, exactly like `SolveService::submit`.
struct WireRequest {
  std::string client_id = "anon";
  solve::SolveRequest request;
};

/// Serializes a solve request body: client id, canonical hexfloat params,
/// and the problem in the core/io.hpp text format.
[[nodiscard]] std::string request_to_text(const WireRequest& request);

/// Parses a solve request body; nullopt on any malformation (missing field,
/// unparsable number, truncated problem blob, trailing bytes).
[[nodiscard]] std::optional<WireRequest> request_from_text(const std::string& text);

/// Builds the error-response body `<code> <detail>` (detail folded to one
/// line).
[[nodiscard]] std::string error_body(const std::string& code, const std::string& detail);

/// Splits an error body back into (code, detail); nullopt when empty.
[[nodiscard]] std::optional<std::pair<std::string, std::string>> parse_error_body(
    const std::string& body);

/// Everything the `stats` endpoint reports: the daemon's service counters
/// (admission rejections included), its cache backend's counters, the
/// connection/pool gauges, and the latency distribution of completed
/// solves.
struct DaemonStatsSnapshot {
  solve::ServiceStats service;
  solve::CacheStats cache;
  std::uint64_t connections_active = 0;
  std::uint64_t connections_total = 0;
  std::uint64_t pending = 0;  ///< solve requests admitted and not yet answered
  std::uint64_t pool_queue_depth = 0;
  std::uint64_t pool_in_flight = 0;
  // Event-loop gauges: epoll wakeups with work, timer handlers run,
  // connections closed by the idle timeout, and bytes currently buffered
  // for writers whose peer is slow to read (backpressure).
  std::uint64_t loop_wakeups = 0;
  std::uint64_t loop_timers_fired = 0;
  std::uint64_t idle_closes = 0;
  std::uint64_t backpressure_bytes = 0;
  // In-daemon periodic cache GC (the `--cache-gc-interval` timer).
  std::uint64_t gc_runs = 0;
  std::uint64_t gc_entries_removed = 0;
  std::uint64_t gc_bytes_removed = 0;
  std::uint64_t latency_count = 0;
  double latency_p50_ms = 0.0;
  double latency_p90_ms = 0.0;
  double latency_p99_ms = 0.0;
};

/// Serializes/parses the `stats` response body (hexfloat latencies).
[[nodiscard]] std::string stats_to_text(const DaemonStatsSnapshot& stats);
[[nodiscard]] std::optional<DaemonStatsSnapshot> stats_from_text(const std::string& text);

}  // namespace mf::serve
