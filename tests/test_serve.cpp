// Tests for the scheduler daemon and its wire protocol: bit-exact
// round-trips of requests, results, and stats over the canonical hexfloat
// text forms; strict rejection of malformed, truncated, and oversized
// frames (the daemon answers with an error and survives); admission
// control (queue-full, rate-limited) as explicit protocol outcomes; and
// the serving contract itself — concurrent clients asking for the same
// work cost one solve (single-flight across TCP connections), and a warm
// daemon re-solves nothing.
//
// A dedicated test replays every refusal against a live daemon and compares
// the responses with golden wire bytes. Byte-level abuse — dribbled
// headers, pipelined frames, idle timeouts, a full fd table — is exercised
// through a raw socket, below the Client helper. The FrameDecoder suite
// feeds the same refusal bytes to the one decoder both ends read through,
// split every way.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/digest.hpp"
#include "core/io.hpp"
#include "exp/scenario.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/latency.hpp"
#include "serve/protocol.hpp"
#include "serve/rate_limiter.hpp"
#include "solve/cache.hpp"
#include "solve/disk_cache.hpp"
#include "solve/registry.hpp"
#include "solve/service.hpp"

namespace mf::serve {
namespace {

core::Problem small_problem(std::uint64_t seed = 7) {
  exp::Scenario scenario;
  scenario.tasks = 8;
  scenario.machines = 4;
  scenario.types = 2;
  return exp::generate(scenario, seed);
}

WireRequest sample_request() {
  WireRequest wire;
  wire.client_id = "test-client";
  wire.request.problem = std::make_shared<const core::Problem>(small_problem());
  wire.request.solver_id = "H1";
  wire.request.params.seed = 42;
  wire.request.params.max_nodes = 123456789;
  wire.request.params.time_limit_ms = 0x1.5555555555555p+7;  // full mantissa
  wire.request.params.local_search = true;
  wire.request.params.refinement.max_passes = 17;
  wire.request.params.refinement.first_improvement = true;
  wire.request.params.refinement.min_relative_gain = 0x1.0000000000001p-30;
  wire.request.params.cache = solve::CachePolicy::kReadWrite;
  wire.request.params.scenario = "weibull-2x";
  return wire;
}

/// Pushes `bytes` through a pipe and reads one frame back — the
/// fd-level reader exercised without a socket.
ReadResult frame_through_pipe(const std::string& bytes,
                              std::size_t max_body = kDefaultMaxFrameBytes) {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::pipe(fds), 0);
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ::ssize_t wrote = ::write(fds[1], bytes.data() + written, bytes.size() - written);
    if (wrote <= 0) {
      ADD_FAILURE() << "pipe write failed";
      break;
    }
    written += static_cast<std::size_t>(wrote);
  }
  ::close(fds[1]);
  const ReadResult result = FrameReader(fds[0], max_body).next();
  ::close(fds[0]);
  return result;
}

// ---------------------------------------------------------------------------
// Wire serialization round-trips
// ---------------------------------------------------------------------------

TEST(ServeProtocol, FrameRoundTripsThroughAnFd) {
  const Frame frame{FrameType::kSolve, "hello body\nwith newlines\n"};
  const ReadResult result = frame_through_pipe(frame_to_bytes(frame));
  ASSERT_EQ(result.status, ReadStatus::kOk);
  EXPECT_EQ(result.frame.type, FrameType::kSolve);
  EXPECT_EQ(result.frame.body, frame.body);
}

TEST(ServeProtocol, EmptyBodyFrameRoundTrips) {
  const ReadResult result = frame_through_pipe(frame_to_bytes({FrameType::kPing, ""}));
  ASSERT_EQ(result.status, ReadStatus::kOk);
  EXPECT_EQ(result.frame.type, FrameType::kPing);
  EXPECT_TRUE(result.frame.body.empty());
}

TEST(ServeProtocol, RequestRoundTripsBitExact) {
  const WireRequest original = sample_request();
  const std::optional<WireRequest> parsed = request_from_text(request_to_text(original));
  ASSERT_TRUE(parsed.has_value());

  EXPECT_EQ(parsed->client_id, original.client_id);
  EXPECT_EQ(parsed->request.solver_id, original.request.solver_id);
  EXPECT_FALSE(parsed->request.derive_stream_seed);  // wire requests are final

  const solve::SolveParams& a = original.request.params;
  const solve::SolveParams& b = parsed->request.params;
  EXPECT_EQ(b.seed, a.seed);
  EXPECT_EQ(b.max_nodes, a.max_nodes);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(b.time_limit_ms),
            std::bit_cast<std::uint64_t>(a.time_limit_ms));
  EXPECT_EQ(b.local_search, a.local_search);
  EXPECT_EQ(b.refinement.max_passes, a.refinement.max_passes);
  EXPECT_EQ(b.refinement.allow_swaps, a.refinement.allow_swaps);
  EXPECT_EQ(b.refinement.first_improvement, a.refinement.first_improvement);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(b.refinement.min_relative_gain),
            std::bit_cast<std::uint64_t>(a.refinement.min_relative_gain));
  EXPECT_EQ(b.cache, a.cache);
  EXPECT_EQ(b.scenario, a.scenario);

  // The round-trip preserves the problem's digest — the daemon computes
  // the same cache key the client would have in-process.
  EXPECT_EQ(core::digest(*parsed->request.problem), core::digest(*original.request.problem));
}

TEST(ServeProtocol, RequestRoundTripsExtremeDoubles) {
  WireRequest wire = sample_request();
  wire.request.params.time_limit_ms = std::numeric_limits<double>::infinity();
  wire.request.params.refinement.min_relative_gain =
      -std::numeric_limits<double>::infinity();
  std::optional<WireRequest> parsed = request_from_text(request_to_text(wire));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(std::isinf(parsed->request.params.time_limit_ms));
  EXPECT_TRUE(std::isinf(parsed->request.params.refinement.min_relative_gain));
  EXPECT_LT(parsed->request.params.refinement.min_relative_gain, 0.0);

  wire.request.params.time_limit_ms = std::numeric_limits<double>::quiet_NaN();
  parsed = request_from_text(request_to_text(wire));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(std::isnan(parsed->request.params.time_limit_ms));

  // Unset node budget is distinguished from budget 0.
  wire = sample_request();
  wire.request.params.max_nodes.reset();
  parsed = request_from_text(request_to_text(wire));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->request.params.max_nodes.has_value());
  wire.request.params.max_nodes = 0;
  parsed = request_from_text(request_to_text(wire));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->request.params.max_nodes.has_value());
  EXPECT_EQ(*parsed->request.params.max_nodes, 0u);
}

TEST(ServeProtocol, ResultEntryRoundTripsExtremeValuesAndEmptyDiagnostics) {
  // The solve response body IS a disk-cache entry; the wire inherits its
  // bit-exactness, including non-finite values and all-default
  // diagnostics.
  solve::SolveParams params;
  const solve::CacheKey key =
      solve::make_cache_key(core::digest(small_problem()), "H1", params);

  solve::SolveResult result;  // empty diagnostics, no mapping
  result.status = solve::Status::kInfeasible;
  result.period = std::numeric_limits<double>::quiet_NaN();
  result.diagnostics.wall_time_ms = -std::numeric_limits<double>::infinity();

  const auto restored = solve::entry_from_text(solve::entry_to_text(key, result));
  ASSERT_TRUE(restored.has_value());
  EXPECT_TRUE(restored->first == key);
  EXPECT_EQ(restored->second.status, result.status);
  EXPECT_TRUE(std::isnan(restored->second.period));
  EXPECT_TRUE(std::isinf(restored->second.diagnostics.wall_time_ms));
  EXPECT_EQ(restored->second.diagnostics.solver_id, "");
  EXPECT_FALSE(restored->second.mapping.has_value());
}

TEST(ServeProtocol, MalformedRequestBodiesAreRejected) {
  const std::string good = request_to_text(sample_request());
  ASSERT_TRUE(request_from_text(good).has_value());

  // Truncation at any line boundary (and mid-blob) must fail, never guess.
  for (std::size_t cut = 0; cut < good.size(); cut += 97) {
    EXPECT_FALSE(request_from_text(good.substr(0, cut)).has_value())
        << "accepted a prefix of " << cut << " bytes";
  }
  // Trailing garbage after the end sentinel is a lie about the length.
  EXPECT_FALSE(request_from_text(good + "extra\n").has_value());
  // A corrupt problem blob (byte count intact) fails the problem parser.
  std::string corrupt = good;
  const std::size_t blob = corrupt.find("problem ");
  ASSERT_NE(blob, std::string::npos);
  corrupt[blob + 40] = '?';
  EXPECT_FALSE(request_from_text(corrupt).has_value());
  // Unknown cache policy token.
  std::string bad_cache = good;
  const std::size_t cache_at = bad_cache.find("cache read-write");
  ASSERT_NE(cache_at, std::string::npos);
  bad_cache.replace(cache_at, 16, "cache sometimes!");
  EXPECT_FALSE(request_from_text(bad_cache).has_value());
  // A line with a field nobody reads.
  std::string extra_field = good;
  const std::size_t seed_at = extra_field.find("\nseed 42\n");
  ASSERT_NE(seed_at, std::string::npos);
  extra_field.replace(seed_at + 1, 7, "seed 1 2");
  EXPECT_FALSE(request_from_text(extra_field).has_value());
}

TEST(ServeProtocol, MalformedFramesAreRejectedAtTheReader) {
  // Wrong magic.
  EXPECT_EQ(frame_through_pipe("mf-serve/9 solve 0\n").status, ReadStatus::kMalformed);
  // Unknown type.
  EXPECT_EQ(frame_through_pipe("mf-serve/1 shout 0\n").status, ReadStatus::kMalformed);
  // Unparsable and negative lengths.
  EXPECT_EQ(frame_through_pipe("mf-serve/1 solve many\n").status, ReadStatus::kMalformed);
  EXPECT_EQ(frame_through_pipe("mf-serve/1 solve -1\n").status, ReadStatus::kMalformed);
  // Trailing token in the header.
  EXPECT_EQ(frame_through_pipe("mf-serve/1 solve 0 extra\n").status,
            ReadStatus::kMalformed);
  // Unterminated, oversized header.
  EXPECT_EQ(frame_through_pipe(std::string(300, 'x')).status, ReadStatus::kMalformed);
  // Declared length beyond the cap is kTooLarge before any body is read.
  EXPECT_EQ(frame_through_pipe("mf-serve/1 solve 999999999\n", 1024).status,
            ReadStatus::kTooLarge);
  // Body shorter than declared: truncated.
  EXPECT_EQ(frame_through_pipe("mf-serve/1 solve 10\nabc").status, ReadStatus::kMalformed);
  // Clean EOF before any byte is kClosed, not an error.
  EXPECT_EQ(frame_through_pipe("").status, ReadStatus::kClosed);
}

TEST(ServeProtocol, ErrorBodyRoundTrips) {
  const std::string body = error_body(kErrQueueFull, "pending queue at capacity (64)");
  const auto parsed = parse_error_body(body);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->first, kErrQueueFull);
  EXPECT_EQ(parsed->second, "pending queue at capacity (64)");
  EXPECT_FALSE(parse_error_body("").has_value());
}

TEST(ServeProtocol, StatsRoundTripHexfloatLatencies) {
  DaemonStatsSnapshot stats;
  stats.service.submitted = 100;
  stats.service.solved = 7;
  stats.service.rejected_queue_full = 3;
  stats.service.rejected_rate_limited = 5;
  stats.cache.hits = 93;
  stats.cache.bytes = 1u << 20;
  stats.connections_active = 4;
  stats.connections_total = 12;
  stats.pending = 2;
  stats.pool_queue_depth = 1;
  stats.pool_in_flight = 3;
  stats.loop_wakeups = 4242;
  stats.loop_timers_fired = 17;
  stats.idle_closes = 6;
  stats.backpressure_bytes = 65536;
  stats.gc_runs = 3;
  stats.gc_entries_removed = 21;
  stats.gc_bytes_removed = 9001;
  stats.latency_count = 100;
  stats.latency_p50_ms = 0x1.8p1;
  stats.latency_p90_ms = 0x1.9p3;
  stats.latency_p99_ms = 0x1.ap5;

  const std::optional<DaemonStatsSnapshot> parsed = stats_from_text(stats_to_text(stats));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->service.submitted, 100u);
  EXPECT_EQ(parsed->service.rejected_queue_full, 3u);
  EXPECT_EQ(parsed->service.rejected_rate_limited, 5u);
  EXPECT_EQ(parsed->cache.hits, 93u);
  EXPECT_EQ(parsed->cache.bytes, 1u << 20);
  EXPECT_EQ(parsed->connections_total, 12u);
  EXPECT_EQ(parsed->pending, 2u);
  EXPECT_EQ(parsed->pool_in_flight, 3u);
  EXPECT_EQ(parsed->loop_wakeups, 4242u);
  EXPECT_EQ(parsed->loop_timers_fired, 17u);
  EXPECT_EQ(parsed->idle_closes, 6u);
  EXPECT_EQ(parsed->backpressure_bytes, 65536u);
  EXPECT_EQ(parsed->gc_runs, 3u);
  EXPECT_EQ(parsed->gc_entries_removed, 21u);
  EXPECT_EQ(parsed->gc_bytes_removed, 9001u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed->latency_p99_ms),
            std::bit_cast<std::uint64_t>(stats.latency_p99_ms));
  EXPECT_FALSE(stats_from_text("mf-serve-stats v1\nsubmitted ten\n").has_value());
}

TEST(ServeProtocol, ParseHostPort) {
  auto parsed = parse_host_port("127.0.0.1:8080");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->first, "127.0.0.1");
  EXPECT_EQ(parsed->second, 8080);
  EXPECT_FALSE(parse_host_port("no-port").has_value());
  EXPECT_FALSE(parse_host_port(":8080").has_value());
  EXPECT_FALSE(parse_host_port("host:").has_value());
  EXPECT_FALSE(parse_host_port("host:0").has_value());
  EXPECT_FALSE(parse_host_port("host:99999").has_value());
}

// ---------------------------------------------------------------------------
// Rate limiter and latency histogram
// ---------------------------------------------------------------------------

TEST(RateLimiter, BurstThenRefill) {
  RateLimiter limiter(2.0, 1.0);  // burst 2, one token/second
  EXPECT_TRUE(limiter.try_acquire("a", 0.0));
  EXPECT_TRUE(limiter.try_acquire("a", 0.0));
  EXPECT_FALSE(limiter.try_acquire("a", 0.0));  // burst spent
  EXPECT_FALSE(limiter.try_acquire("a", 0.5));  // half a token is not one
  EXPECT_TRUE(limiter.try_acquire("a", 1.5));   // refilled
  // Distinct clients have independent buckets.
  EXPECT_TRUE(limiter.try_acquire("b", 0.0));
  EXPECT_EQ(limiter.clients(), 2u);
}

TEST(RateLimiter, CapacityZeroDisablesLimiting) {
  RateLimiter limiter(0.0, 0.0);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(limiter.try_acquire("a", 0.0));
}

TEST(RateLimiter, RefillNeverOverfillsPastCapacity) {
  RateLimiter limiter(1.0, 1000.0);
  EXPECT_TRUE(limiter.try_acquire("a", 0.0));
  // A long idle period refills to capacity 1, not 1000.
  EXPECT_TRUE(limiter.try_acquire("a", 100.0));
  EXPECT_FALSE(limiter.try_acquire("a", 100.0));
}

TEST(LatencyHistogram, QuantilesBoundSamplesWithinABucket) {
  LatencyHistogram histogram;
  for (int i = 0; i < 90; ++i) histogram.record_us(1000);    // ~1 ms
  for (int i = 0; i < 10; ++i) histogram.record_us(100000);  // ~100 ms
  EXPECT_EQ(histogram.count(), 100u);
  // Log buckets answer with the bucket's upper edge: within 2x above.
  EXPECT_GE(histogram.quantile_ms(0.5), 1.0);
  EXPECT_LE(histogram.quantile_ms(0.5), 2.048);
  EXPECT_GE(histogram.quantile_ms(0.99), 100.0);
  EXPECT_LE(histogram.quantile_ms(0.99), 262.144);
  EXPECT_EQ(LatencyHistogram{}.quantile_ms(0.5), 0.0);
  // The median of three samples is the 2nd smallest, ceil(0.5 * 3): 3 ms,
  // whose bucket [2048, 4096) us reads 4.096 ms.
  LatencyHistogram three;
  for (const std::uint64_t us : {1000, 3000, 40000}) three.record_us(us);
  EXPECT_EQ(three.quantile_ms(0.5), 4.096);
}

// ---------------------------------------------------------------------------
// Live daemon over TCP
// ---------------------------------------------------------------------------

/// A deterministic solver whose solve() blocks on a gate until released —
/// proves "twins over separate TCP connections share one flight" without
/// races — registered once per process under "serve-gated".
class ServeGatedSolver final : public solve::Solver {
 public:
  struct State {
    std::mutex mutex;
    std::condition_variable cv;
    bool released = false;
    std::atomic<int> invocations{0};

    void release() {
      {
        std::lock_guard lock(mutex);
        released = true;
      }
      cv.notify_all();
    }
    void reset() {
      std::lock_guard lock(mutex);
      released = false;
      invocations.store(0);
    }
  };

  static State& state() {
    static State instance;
    return instance;
  }

  [[nodiscard]] std::string id() const override { return "serve-gated"; }
  [[nodiscard]] std::string description() const override {
    return "test double: blocks until released, counts invocations";
  }
  [[nodiscard]] solve::SolveResult solve(const core::Problem& problem,
                                         const solve::SolveParams& params) const override {
    state().invocations.fetch_add(1);
    std::unique_lock lock(state().mutex);
    state().cv.wait(lock, [] { return state().released; });
    solve::SolveResult result;
    result.status = solve::Status::kFeasible;
    result.mapping = core::Mapping(
        std::vector<core::MachineIndex>(problem.task_count(), params.seed % 2));
    result.period = static_cast<double>(params.seed) + 0.25;
    return result;
  }
};

void ensure_gated_solver() {
  static const bool registered = [] {
    solve::SolverRegistry::instance().register_solver(std::make_shared<ServeGatedSolver>());
    return true;
  }();
  (void)registered;
}

struct GateGuard {
  GateGuard() { ServeGatedSolver::state().reset(); }
  ~GateGuard() { ServeGatedSolver::state().release(); }
};

/// An ephemeral-port daemon wired to its own cache, torn down per test.
struct TestDaemon {
  explicit TestDaemon(DaemonOptions options = {}) : cache(64) {
    if (options.cache == nullptr) options.cache = &cache;
    if (options.threads == 0) options.threads = 4;
    daemon = std::make_unique<Daemon>(options);
    daemon->start();
  }
  solve::ResultCache cache;
  std::unique_ptr<Daemon> daemon;
};

/// A loopback TCP socket connected to `port`; throws when there is none.
int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("raw socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("raw connect() failed");
  }
  return fd;
}

/// A bare client socket for byte-level protocol abuse: partial writes,
/// dribbled headers, half-closes. MSG_NOSIGNAL everywhere — a test poking
/// a daemon that hung up must see an error, not SIGPIPE. One FrameReader
/// reads every response, so bytes read past one frame stay for the next.
struct RawConn {
  int fd;
  FrameReader reader;

  explicit RawConn(std::uint16_t port) : fd(connect_loopback(port)), reader(fd) {}
  ~RawConn() { ::close(fd); }
  RawConn(const RawConn&) = delete;
  RawConn& operator=(const RawConn&) = delete;

  /// Sends every byte (EINTR-retried); false when the peer is gone.
  bool send_all(const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ::ssize_t wrote =
          ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      if (wrote < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      sent += static_cast<std::size_t>(wrote);
    }
    return true;
  }

  /// Half-closes the write side, so the daemon sees EOF after our bytes.
  void finish_writing() { ::shutdown(fd, SHUT_WR); }

  /// Reads (discarding bytes) until the daemon hangs up; false when
  /// `deadline_seconds` passes first with the connection still open.
  bool drain_until_eof(double deadline_seconds) {
    timeval tv{};
    tv.tv_usec = 50000;  // poll in 50 ms slices
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(deadline_seconds);
    char buffer[4096];
    while (std::chrono::steady_clock::now() < deadline) {
      const ::ssize_t got = ::recv(fd, buffer, sizeof buffer, 0);
      if (got == 0) return true;
      if (got < 0 && errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) {
        return true;  // reset by the daemon: also "closed"
      }
    }
    return false;
  }
};

/// One complete response frame read off a raw socket, normalized to the
/// tuple the wire format determines bytes from — comparing these IS
/// comparing wire bytes (the header re-serializes canonically from type +
/// body length).
struct WireObservation {
  ReadStatus status = ReadStatus::kMalformed;
  FrameType type = FrameType::kError;
  std::string body;
};

WireObservation observe_response(RawConn& conn) {
  const ReadResult result = conn.reader.next();
  WireObservation seen;
  seen.status = result.status;
  if (result.status == ReadStatus::kOk) {
    seen.type = result.frame.type;
    seen.body = result.frame.body;
  }
  return seen;
}

TEST(ServeDaemon, PingStatsAndSolveRoundTrip) {
  TestDaemon server;
  Client client("127.0.0.1", server.daemon->port());
  EXPECT_TRUE(client.ping());

  WireRequest wire = sample_request();
  wire.request.params.local_search = false;
  wire.request.params.cache = solve::CachePolicy::kReadWrite;
  const Client::Outcome outcome = client.solve(wire);
  ASSERT_TRUE(outcome.ok) << outcome.error_code << ": " << outcome.detail;
  EXPECT_TRUE(outcome.result.ok());

  // The remote result is bit-identical to solving the same final request
  // in-process: one canonical serialization, one solve identity.
  solve::SolveService local(nullptr, nullptr);
  solve::SolveRequest twin = wire.request;
  twin.params.cache = solve::CachePolicy::kOff;  // don't touch the global cache
  const solve::SolveResult expected = local.submit(std::move(twin)).get();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(outcome.result.period),
            std::bit_cast<std::uint64_t>(expected.period));
  ASSERT_TRUE(outcome.result.mapping.has_value());
  EXPECT_EQ(outcome.result.mapping->assignment(), expected.mapping->assignment());

  const std::optional<DaemonStatsSnapshot> stats = client.stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->service.submitted, 1u);
  EXPECT_EQ(stats->service.solved, 1u);
  EXPECT_EQ(stats->latency_count, 1u);
  EXPECT_GE(stats->connections_total, 1u);
  // The reactor demonstrably multiplexed this exchange.
  EXPECT_GT(stats->loop_wakeups, 0u);
}

TEST(ServeDaemon, ConcurrentTwinsAcrossConnectionsShareOneFlight) {
  ensure_gated_solver();
  GateGuard gate;
  TestDaemon server;

  WireRequest wire = sample_request();
  wire.request.solver_id = "serve-gated";
  wire.request.params.local_search = false;
  wire.request.params.cache = solve::CachePolicy::kRead;
  wire.request.params.time_limit_ms = 0.0;

  constexpr int kClients = 4;
  std::vector<Client::Outcome> outcomes(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Client client("127.0.0.1", server.daemon->port());
      outcomes[i] = client.solve(wire);
    });
  }

  // Wait (via a separate stats connection — never blocked by solves) until
  // every request has been admitted, THEN open the gate: all twins
  // demonstrably arrived while the leader was still in flight.
  Client stats_client("127.0.0.1", server.daemon->port());
  for (;;) {
    const std::optional<DaemonStatsSnapshot> stats = stats_client.stats();
    ASSERT_TRUE(stats.has_value());
    if (stats->service.submitted >= kClients) break;
    std::this_thread::yield();
  }
  ServeGatedSolver::state().release();
  for (std::thread& thread : threads) thread.join();

  for (const Client::Outcome& outcome : outcomes) {
    ASSERT_TRUE(outcome.ok) << outcome.error_code << ": " << outcome.detail;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(outcome.result.period),
              std::bit_cast<std::uint64_t>(outcomes[0].result.period));
  }
  EXPECT_EQ(ServeGatedSolver::state().invocations.load(), 1);
  const std::optional<DaemonStatsSnapshot> stats = stats_client.stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->service.solved, 1u);
  EXPECT_EQ(stats->service.dedup_joined, kClients - 1u);
}

TEST(ServeDaemon, WarmDaemonRepeatedClientsCostZeroNewSolves) {
  TestDaemon server;
  WireRequest wire = sample_request();
  wire.request.params.local_search = false;
  wire.request.params.cache = solve::CachePolicy::kReadWrite;

  {
    Client first("127.0.0.1", server.daemon->port());
    ASSERT_TRUE(first.solve(wire).ok);
  }
  std::optional<DaemonStatsSnapshot> stats;
  {
    Client probe("127.0.0.1", server.daemon->port());
    stats = probe.stats();
  }
  ASSERT_TRUE(stats.has_value());
  const std::uint64_t solved_after_warmup = stats->service.solved;
  EXPECT_EQ(solved_after_warmup, 1u);

  // Five fresh connections re-request the identical sweep point: all are
  // answered from the shared cache; Solver::solve runs zero more times.
  // (The response body is a cache entry, which carries result content only
  // — delivery metadata like diagnostics.cache_hit intentionally does not
  // travel; the daemon's counters are the observable.)
  for (int i = 0; i < 5; ++i) {
    Client repeat("127.0.0.1", server.daemon->port());
    const Client::Outcome outcome = repeat.solve(wire);
    ASSERT_TRUE(outcome.ok);
    EXPECT_TRUE(outcome.result.ok());
  }
  Client probe("127.0.0.1", server.daemon->port());
  stats = probe.stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->service.solved, solved_after_warmup);  // zero new solves
  EXPECT_GE(stats->service.cache_hits, 5u);
}

TEST(ServeDaemon, MalformedBytesGetErrorResponsesAndTheDaemonSurvives) {
  TestDaemon server;
  {
    // Garbage magic: error response, then the daemon hangs up.
    Client client("127.0.0.1", server.daemon->port());
    const ReadResult response = client.roundtrip_raw("GET / HTTP/1.1\r\n");
    ASSERT_EQ(response.status, ReadStatus::kOk);
    EXPECT_EQ(response.frame.type, FrameType::kError);
    const auto parsed = parse_error_body(response.frame.body);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->first, kErrBadRequest);
  }
  {
    // Oversized declared body: rejected before it is read.
    Client client("127.0.0.1", server.daemon->port());
    DaemonOptions options;
    const ReadResult response = client.roundtrip_raw(
        "mf-serve/1 solve " + std::to_string(options.max_frame_bytes + 1) + "\n");
    ASSERT_EQ(response.status, ReadStatus::kOk);
    EXPECT_EQ(response.frame.type, FrameType::kError);
    EXPECT_EQ(parse_error_body(response.frame.body)->first, kErrTooLarge);
  }
  {
    // A well-framed but unparsable solve body: bad-request, and the
    // connection stays usable (frame boundaries were never lost).
    Client client("127.0.0.1", server.daemon->port());
    const ReadResult response =
        client.roundtrip({FrameType::kSolve, "mf-serve-request v1\ngarbage\n"});
    ASSERT_EQ(response.status, ReadStatus::kOk);
    EXPECT_EQ(response.frame.type, FrameType::kError);
    EXPECT_EQ(parse_error_body(response.frame.body)->first, kErrBadRequest);
    EXPECT_TRUE(client.ping());  // same connection still serves
  }
  // And the daemon as a whole still serves real work.
  Client client("127.0.0.1", server.daemon->port());
  WireRequest wire = sample_request();
  wire.request.params.local_search = false;
  EXPECT_TRUE(client.solve(wire).ok);
}

TEST(ServeDaemon, MipIsRefusedAsAnUnknownSolver) {
  // The Section 6.1 MIP is a test oracle, not a served solver: a client
  // asking for it gets bad-request naming the id, nothing reaches the
  // service, and the connection still serves.
  TestDaemon server;
  Client client("127.0.0.1", server.daemon->port());
  WireRequest wire = sample_request();
  wire.request.solver_id = "mip";
  const Client::Outcome outcome = client.solve(wire);
  ASSERT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.error_code, kErrBadRequest);
  EXPECT_NE(outcome.detail.find("unknown solver 'mip'"), std::string::npos) << outcome.detail;
  EXPECT_TRUE(client.ping());
  const std::optional<DaemonStatsSnapshot> stats = client.stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->service.submitted, 0u);
}

TEST(ServeDaemon, RepeatedLsSuffixIsRefusedAndTheDaemonKeepsServing) {
  // An id takes at most one "+ls". One frame repeating it 100,000 times
  // (300,003 bytes, well under the frame cap) would otherwise nest as many
  // refinement stages, which recurse on every solve; it gets bad-request,
  // naming the suffix without echoing the whole id, and the next solve is
  // answered.
  TestDaemon server;
  Client client("127.0.0.1", server.daemon->port());
  WireRequest wire = sample_request();
  wire.request.solver_id = "H4w";
  for (int k = 0; k < 100'000; ++k) wire.request.solver_id += "+ls";
  const Client::Outcome refused = client.solve(wire);
  ASSERT_FALSE(refused.ok);
  EXPECT_EQ(refused.error_code, kErrBadRequest);
  EXPECT_NE(refused.detail.find("unsupported solver suffix '+ls+ls"), std::string::npos)
      << refused.detail.substr(0, 200);
  EXPECT_LT(refused.detail.size(), 1'000u) << "the error body echoes the unbounded id";

  wire.request.solver_id = "H4w+ls";
  const Client::Outcome answered = client.solve(wire);
  ASSERT_TRUE(answered.ok) << answered.error_code << ": " << answered.detail;
  EXPECT_TRUE(answered.result.has_mapping());
}

TEST(ServeDaemon, QueueFullRejectionIsExplicit) {
  DaemonOptions options;
  options.max_pending = 0;  // reject every solve
  TestDaemon server(options);
  Client client("127.0.0.1", server.daemon->port());
  const Client::Outcome outcome = client.solve(sample_request());
  ASSERT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.error_code, kErrQueueFull);
  const std::optional<DaemonStatsSnapshot> stats = client.stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->service.rejected_queue_full, 1u);
  EXPECT_EQ(stats->service.submitted, 0u);  // refused before submit()
}

TEST(ServeDaemon, RateLimitRejectionIsPerClient) {
  DaemonOptions options;
  options.rate_capacity = 1.0;  // one request, then dry
  options.rate_refill_per_sec = 0.0;
  TestDaemon server(options);

  WireRequest wire = sample_request();
  wire.request.params.local_search = false;
  wire.client_id = "greedy";
  Client client("127.0.0.1", server.daemon->port());
  ASSERT_TRUE(client.solve(wire).ok);
  const Client::Outcome second = client.solve(wire);
  ASSERT_FALSE(second.ok);
  EXPECT_EQ(second.error_code, kErrRateLimited);

  // The bucket is keyed on client id, not connection: another identity on
  // a fresh connection is admitted.
  wire.client_id = "patient";
  Client other("127.0.0.1", server.daemon->port());
  EXPECT_TRUE(other.solve(wire).ok);

  const std::optional<DaemonStatsSnapshot> stats = client.stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->service.rejected_rate_limited, 1u);
}

TEST(ServeDaemon, RateLimitRefusalQuotesAtMost64BytesOfTheClientId) {
  // A client id has no length limit below the frame cap, so the refusal
  // names the client by the first 64 bytes of its id, like resolve errors
  // quote a solver id.
  DaemonOptions options;
  options.rate_capacity = 1.0;
  options.rate_refill_per_sec = 0.0;
  TestDaemon server(options);

  WireRequest wire = sample_request();
  wire.request.params.local_search = false;
  wire.client_id.assign(std::size_t{1} << 20, 'x');
  for (std::size_t k = 0; k < 80; ++k) wire.client_id[k] = static_cast<char>('a' + k % 26);
  Client client("127.0.0.1", server.daemon->port());
  ASSERT_TRUE(client.solve(wire).ok);
  const Client::Outcome second = client.solve(wire);
  ASSERT_FALSE(second.ok);
  EXPECT_EQ(second.error_code, kErrRateLimited);
  EXPECT_LT(second.detail.size(), 1'000u) << "the error body echoes the unbounded id";
  EXPECT_NE(second.detail.find("client '" + wire.client_id.substr(0, 64) + "...'"),
            std::string::npos)
      << second.detail.substr(0, 200);
}

TEST(ServeDaemon, DrainRefusesNewWorkAndStopsAccepting) {
  TestDaemon server;
  const std::uint16_t port = server.daemon->port();
  {
    Client client("127.0.0.1", port);
    ASSERT_TRUE(client.ping());
  }
  server.daemon->drain();
  server.daemon->wait();
  // The listen socket is down: new connections fail outright.
  EXPECT_THROW(Client("127.0.0.1", port), std::runtime_error);
  // Stats remain readable in-process after the drain.
  const DaemonStatsSnapshot stats = server.daemon->stats_snapshot();
  EXPECT_EQ(stats.connections_active, 0u);
}

TEST(ServeDaemon, RemoteExecutorMatchesLocalBatchBitForBit) {
  TestDaemon server;
  RemoteExecutorOptions remote_options;
  remote_options.port = server.daemon->port();
  remote_options.connections = 3;
  RemoteExecutor remote(remote_options);

  // A batch with derive_stream_seed on: the executor must apply the same
  // (seed, index) stream derivation solve_all does locally.
  const auto problem = std::make_shared<const core::Problem>(small_problem());
  std::vector<solve::SolveRequest> requests;
  for (int i = 0; i < 6; ++i) {
    solve::SolveRequest request;
    request.problem = problem;
    request.solver_id = "H1";
    request.params.seed = 99;
    request.params.cache = solve::CachePolicy::kOff;
    requests.push_back(std::move(request));
  }

  const std::vector<solve::SolveResult> remote_results = remote.solve_all(requests);
  solve::SolveService local(nullptr, nullptr);
  const std::vector<solve::SolveResult> local_results = local.solve_all(requests);

  ASSERT_EQ(remote_results.size(), local_results.size());
  for (std::size_t i = 0; i < remote_results.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(remote_results[i].period),
              std::bit_cast<std::uint64_t>(local_results[i].period))
        << "request " << i;
    ASSERT_TRUE(remote_results[i].mapping.has_value());
    EXPECT_EQ(remote_results[i].mapping->assignment(),
              local_results[i].mapping->assignment());
  }
}

// ---------------------------------------------------------------------------
// Byte-level abuse: partial frames, slow-loris dribblers, idle timeouts
// ---------------------------------------------------------------------------

TEST(ServeDaemon, SlowLorisDribblerDoesNotStallOtherClients) {
  TestDaemon server;
  // A dribbler parks mid-header and goes quiet...
  RawConn dribbler(server.daemon->port());
  ASSERT_TRUE(dribbler.send_all("mf-serve/1 pi"));

  // ...while a well-behaved client on another connection is served in
  // full — the stalled header must not hold the daemon hostage.
  Client fast("127.0.0.1", server.daemon->port());
  EXPECT_TRUE(fast.ping());
  WireRequest wire = sample_request();
  wire.request.params.local_search = false;
  EXPECT_TRUE(fast.solve(wire).ok);

  // The dribbler's frame resumes exactly where it paused.
  ASSERT_TRUE(dribbler.send_all("ng 0\n"));
  const WireObservation pong = observe_response(dribbler);
  ASSERT_EQ(pong.status, ReadStatus::kOk);
  EXPECT_EQ(pong.type, FrameType::kOk);
  EXPECT_EQ(pong.body, "pong\n");
}

TEST(ServeDaemon, PartialAndPipelinedFramesKeepBoundaries) {
  TestDaemon server;
  RawConn conn(server.daemon->port());

  // One byte per write: the frame assembles across arbitrarily bad
  // packetization.
  const std::string ping = frame_to_bytes({FrameType::kPing, ""});
  for (const char c : ping) ASSERT_TRUE(conn.send_all(std::string(1, c)));
  WireObservation seen = observe_response(conn);
  ASSERT_EQ(seen.status, ReadStatus::kOk);
  EXPECT_EQ(seen.body, "pong\n");

  // The other extreme — three requests in one write — answers three
  // frames in order (the pipelined bytes must not be dropped between
  // responses).
  ASSERT_TRUE(conn.send_all(ping + ping + frame_to_bytes({FrameType::kStats, ""})));
  for (int i = 0; i < 2; ++i) {
    seen = observe_response(conn);
    ASSERT_EQ(seen.status, ReadStatus::kOk) << "pipelined ping " << i;
    EXPECT_EQ(seen.body, "pong\n");
  }
  seen = observe_response(conn);
  ASSERT_EQ(seen.status, ReadStatus::kOk);
  EXPECT_EQ(seen.type, FrameType::kOk);
  EXPECT_TRUE(stats_from_text(seen.body).has_value());
}

TEST(ServeDaemon, PipelinedFramesWaitForTheSolveInFlight) {
  // A ping pipelined behind a solve is read only once the solve's answer
  // is on the wire: the client gets its answers in request order.
  ensure_gated_solver();
  GateGuard gate;
  TestDaemon server;
  WireRequest wire = sample_request();
  wire.request.solver_id = "serve-gated";
  wire.request.params.local_search = false;
  wire.request.params.cache = solve::CachePolicy::kOff;
  RawConn conn(server.daemon->port());
  ASSERT_TRUE(conn.send_all(frame_to_bytes({FrameType::kSolve, request_to_text(wire)}) +
                            frame_to_bytes({FrameType::kPing, ""})));

  Client stats_client("127.0.0.1", server.daemon->port());
  for (;;) {
    const std::optional<DaemonStatsSnapshot> stats = stats_client.stats();
    ASSERT_TRUE(stats.has_value());
    if (stats->service.submitted >= 1) break;
    std::this_thread::yield();
  }
  ServeGatedSolver::state().release();

  const WireObservation solved = observe_response(conn);
  ASSERT_EQ(solved.status, ReadStatus::kOk);
  ASSERT_EQ(solved.type, FrameType::kOk) << solved.body;
  const auto entry = solve::entry_from_text(solved.body);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->second.period, 42.25);
  const WireObservation pong = observe_response(conn);
  ASSERT_EQ(pong.status, ReadStatus::kOk);
  EXPECT_EQ(pong.body, "pong\n");
}

TEST(ServeDaemon, IdleTimeoutClosesAStalledConnection) {
  DaemonOptions options;
  options.idle_timeout_seconds = 0.2;
  TestDaemon server(options);

  RawConn stalled(server.daemon->port());
  ASSERT_TRUE(stalled.send_all("mf-serve/1 s"));  // mid-header, then silence
  // The daemon hangs up on its own.
  EXPECT_TRUE(stalled.drain_until_eof(5.0));
  EXPECT_GE(server.daemon->stats_snapshot().idle_closes, 1u);
}

TEST(ServeDaemon, ByteDribbleCannotEvadeFrameIdleClock) {
  // The daemon counts idleness frame-to-frame, so a slow-loris client
  // feeding one byte at a time — always faster than any per-read timeout —
  // is still closed on schedule.
  DaemonOptions options;
  options.idle_timeout_seconds = 0.3;
  TestDaemon server(options);

  RawConn dribbler(server.daemon->port());
  timeval tv{};
  tv.tv_usec = 30000;
  ::setsockopt(dribbler.fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);

  bool closed = false;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  // Stay under kMaxHeaderBytes so the close can only come from the idle
  // clock, never the header-size guard.
  for (int i = 0; i < 100 && std::chrono::steady_clock::now() < deadline; ++i) {
    if (!dribbler.send_all("x")) {
      closed = true;
      break;
    }
    char byte = 0;
    const ::ssize_t got = ::recv(dribbler.fd, &byte, 1, 0);  // 30 ms pacing
    if (got == 0) {
      closed = true;
      break;
    }
  }
  EXPECT_TRUE(closed) << "dribbler outlived the idle timeout";
  EXPECT_GE(server.daemon->stats_snapshot().idle_closes, 1u);
}

TEST(ServeDaemon, OversizedFrameIsRefusedBeforeItsBodyArrives) {
  DaemonOptions options;
  TestDaemon server(options);
  RawConn conn(server.daemon->port());
  // Header only — the declared body is never sent, so a daemon that
  // buffered before refusing would hang here instead of answering.
  ASSERT_TRUE(conn.send_all("mf-serve/1 solve " +
                            std::to_string(options.max_frame_bytes + 1) + "\n"));
  const WireObservation seen = observe_response(conn);
  ASSERT_EQ(seen.status, ReadStatus::kOk);
  EXPECT_EQ(seen.type, FrameType::kError);
  const auto parsed = parse_error_body(seen.body);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->first, kErrTooLarge);
  // The stream is out of sync past a refused header: the daemon hangs up.
  EXPECT_TRUE(conn.drain_until_eof(2.0));
}

/// Every refusal the admission gauntlet and the frame reader can emit: the
/// bytes a client sends, whether it then half-closes, and the exact `error`
/// bodies a daemon run with `refusal_options()` answers. These literals are
/// the wire contract. (`draining` and `internal` have no deterministic wire
/// trigger; they come from admit_solve and the solve catch blocks.)
struct RefusalProbe {
  const char* name;
  std::string bytes;
  bool half_close;
  std::vector<std::string> error_bodies;
};

DaemonOptions refusal_options() {
  DaemonOptions options;
  options.max_pending = 0;      // any admitted solve → queue-full
  options.rate_capacity = 1.0;  // second solve from one client → rate-limited
  options.rate_refill_per_sec = 0.0;
  return options;
}

std::vector<RefusalProbe> refusal_probes() {
  const DaemonOptions options = refusal_options();
  const std::string solve_bytes =
      frame_to_bytes({FrameType::kSolve, request_to_text(sample_request())});
  return {
      {"bad-magic", "GET / HTTP/1.1\r\n", false,
       {"bad-request bad magic 'GET' (want mf-serve/1)\n"}},
      {"unknown-type", "mf-serve/1 shout 0\n", false,
       {"bad-request unknown frame type 'shout'\n"}},
      {"unparsable-length", "mf-serve/1 solve many\n", false,
       {"bad-request unparsable content length 'many'\n"}},
      {"negative-length", "mf-serve/1 solve -1\n", false,
       {"bad-request unparsable content length '-1'\n"}},
      {"trailing-token", "mf-serve/1 solve 0 extra\n", false,
       {"bad-request trailing tokens in frame header\n"}},
      {"oversized-header", std::string(200, 'x'), true,
       {"bad-request frame header exceeds 128 bytes\n"}},
      {"declared-too-large",
       "mf-serve/1 solve " + std::to_string(options.max_frame_bytes + 1) + "\n", false,
       {"too-large declared body of 4194305 bytes exceeds limit of 4194304\n"}},
      {"truncated-body", "mf-serve/1 solve 10\nabc", true,
       {"bad-request truncated body (declared 10 bytes)\n"}},
      {"response-type-frame", "mf-serve/1 ok 0\n", false,
       {"bad-request frame type 'ok' is not a request\n"}},
      {"unparsable-solve-body", frame_to_bytes({FrameType::kSolve, "garbage\n"}), false,
       {"bad-request malformed solve request body\n"}},
      // One pipelined write, two refusals: the first admitted solve hits
      // the zero-length pending queue, the retry has drained its bucket.
      {"queue-full-then-rate-limited", solve_bytes + solve_bytes, false,
       {"queue-full pending queue at capacity (0)\n",
        "rate-limited client 'test-client' exceeded its request budget\n"}},
  };
}

TEST(ServeDaemon, RefusalsMatchGoldenWireBytes) {
  // Every refusal probe, replayed against a live daemon and compared with
  // the exact response it must produce: status, frame type, and body, byte
  // for byte.
  TestDaemon server(refusal_options());
  for (const RefusalProbe& probe : refusal_probes()) {
    RawConn conn(server.daemon->port());
    EXPECT_TRUE(conn.send_all(probe.bytes)) << probe.name;
    if (probe.half_close) conn.finish_writing();
    for (const std::string& body : probe.error_bodies) {
      const WireObservation seen = observe_response(conn);
      EXPECT_EQ(seen.status, ReadStatus::kOk) << probe.name;
      EXPECT_EQ(seen.type, FrameType::kError) << probe.name;
      EXPECT_EQ(seen.body, body) << probe.name;
    }
  }
}

// ---------------------------------------------------------------------------
// FrameDecoder: one set of frame rules for the daemon and FrameReader
// ---------------------------------------------------------------------------

/// One decoder outcome as text, so sequences of them compare with EXPECT_EQ.
std::string describe(const ReadResult& result) {
  return std::to_string(static_cast<int>(result.status)) + " " +
         (result.status == ReadStatus::kOk
              ? to_string(result.frame.type) + " [" + result.frame.body + "]"
              : result.detail);
}

/// Feeds `chunks` in order through one decoder and lists what it yields:
/// every frame, then what EOF means there. A refusal ends the list, since
/// the stream is out of sync past it.
std::vector<std::string> decode(const std::vector<std::string_view>& chunks,
                                std::size_t max_body = kDefaultMaxFrameBytes) {
  FrameDecoder decoder(max_body);
  std::vector<std::string> yielded;
  for (std::string_view input : chunks) {
    while (!input.empty()) {
      const std::optional<ReadResult> read = decoder.feed(input);
      if (!read.has_value()) break;
      yielded.push_back(describe(*read));
      if (read->status != ReadStatus::kOk) return yielded;
    }
  }
  yielded.push_back(describe(decoder.at_eof()));
  return yielded;
}

TEST(FrameDecoder, EveryChunkingYieldsTheSameFrames) {
  // Each refusal probe's bytes and a pipelined ping+ping+stats+solve
  // stream, fed whole, one byte at a time, and split in two at every
  // offset: each way must yield the same frames, refusal and EOF, in order.
  const std::string ping = frame_to_bytes({FrameType::kPing, ""});
  const std::string solve_body = request_to_text(sample_request());
  const std::string pipelined = ping + ping + frame_to_bytes({FrameType::kStats, ""}) +
                                frame_to_bytes({FrameType::kSolve, solve_body});
  const auto ok = [](FrameType type, const std::string& body) {
    return describe({ReadStatus::kOk, {type, body}, ""});
  };
  EXPECT_EQ(decode({pipelined}),
            (std::vector<std::string>{ok(FrameType::kPing, ""), ok(FrameType::kPing, ""),
                                      ok(FrameType::kStats, ""), ok(FrameType::kSolve, solve_body),
                                      describe({ReadStatus::kClosed, {}, "connection closed"})}));

  std::vector<std::pair<std::string, std::string>> streams = {{"pipelined", pipelined}};
  for (const RefusalProbe& probe : refusal_probes()) streams.emplace_back(probe.name, probe.bytes);
  for (const auto& [name, bytes] : streams) {
    SCOPED_TRACE(name);
    const std::string_view view = bytes;
    const std::vector<std::string> whole = decode({view});
    std::vector<std::string_view> bytewise;
    for (std::size_t k = 0; k < view.size(); ++k) bytewise.push_back(view.substr(k, 1));
    EXPECT_EQ(decode(bytewise), whole) << "one byte at a time";
    for (std::size_t split = 0; split <= view.size(); ++split) {
      ASSERT_EQ(decode({view.substr(0, split), view.substr(split)}), whole) << "split at " << split;
    }
  }
}

TEST(FrameDecoder, MalformedInputsReadAlikeThroughDecoderReaderAndDaemon) {
  // The malformed frames of MalformedFramesAreRejectedAtTheReader, plus EOF
  // at every offset of a valid frame. Each reads the same status and detail
  // through the decoder and through FrameReader over a pipe, and the
  // daemon answers it with that detail in its refusal body (or, for EOF
  // between frames, hangs up without one).
  constexpr std::size_t kCap = 1024;
  std::vector<std::string> inputs = {
      "mf-serve/9 solve 0\n",        "mf-serve/1 shout 0\n",
      "mf-serve/1 solve many\n",     "mf-serve/1 solve -1\n",
      "mf-serve/1 solve 0 extra\n",  std::string(300, 'x'),
      "mf-serve/1 solve 999999999\n", "mf-serve/1 solve 10\nabc",
  };
  const std::string valid = frame_to_bytes({FrameType::kSolve, "abc\n"});
  for (std::size_t cut = 0; cut < valid.size(); ++cut) inputs.push_back(valid.substr(0, cut));

  DaemonOptions options;
  options.max_frame_bytes = kCap;
  TestDaemon server(options);
  const std::size_t header_end = valid.find('\n') + 1;
  for (const std::string& input : inputs) {
    SCOPED_TRACE("input '" + input + "'");
    const std::vector<std::string> decoded = decode({input}, kCap);
    ASSERT_EQ(decoded.size(), 1u);
    const ReadResult piped = frame_through_pipe(input, kCap);
    ASSERT_NE(piped.status, ReadStatus::kOk);
    EXPECT_EQ(describe(piped), decoded[0]);

    if (input.size() < valid.size() && valid.compare(0, input.size(), input) == 0) {
      const std::string eof = input.empty()                  ? "connection closed"
                              : input.size() < header_end    ? "EOF inside frame header"
                                                             : "truncated body (declared 4 bytes)";
      EXPECT_EQ(piped.detail, eof);
    }

    RawConn conn(server.daemon->port());
    ASSERT_TRUE(conn.send_all(input));
    conn.finish_writing();
    const WireObservation seen = observe_response(conn);
    if (piped.status == ReadStatus::kClosed) {
      EXPECT_EQ(seen.status, ReadStatus::kClosed);
      continue;
    }
    ASSERT_EQ(seen.status, ReadStatus::kOk);
    EXPECT_EQ(seen.type, FrameType::kError);
    const char* code = piped.status == ReadStatus::kTooLarge ? kErrTooLarge : kErrBadRequest;
    EXPECT_EQ(seen.body, error_body(code, piped.detail));
  }
}

TEST(ServeDaemon, AcceptBacksOffWhileDescriptorsRunOut) {
  // With the fd table full, accept4 fails and the connection stays in the
  // backlog. A level-triggered listener would re-fire at once and spin the
  // loop thread; the daemon must instead park the listener and retry on a
  // timer, then serve the waiting client as soon as an fd frees up.
  TestDaemon server;
  // Run the accept, dispatch and stats paths once while descriptors are
  // plentiful: UBSan's vptr check probes memory through pipe(2), so a
  // polymorphic call first seen inside the exhausted window would fail.
  {
    Client warm("127.0.0.1", server.daemon->port());
    ASSERT_TRUE(warm.ping());
  }
  (void)server.daemon->stats_snapshot();

  rlimit original{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &original), 0);
  rlimit lowered = original;
  lowered.rlim_cur = std::min<rlim_t>(original.rlim_cur, 4096);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);

  std::vector<int> ballast;
  for (;;) {
    const int fd = ::dup(STDIN_FILENO);
    if (fd < 0) break;
    ballast.push_back(fd);
  }
  const int exhausted_errno = errno;
  const auto release_all = [&] {
    for (const int fd : ballast) ::close(fd);
    ballast.clear();
    ::setrlimit(RLIMIT_NOFILE, &original);
  };
  if (exhausted_errno != EMFILE || ballast.size() < 2) {
    release_all();
    FAIL() << "could not exhaust the fd table (errno " << exhausted_errno << ")";
  }

  // One free slot: the client's socket takes it, the daemon's accept finds none.
  ::close(ballast.back());
  ballast.pop_back();
  std::unique_ptr<RawConn> client;
  try {
    client = std::make_unique<RawConn>(server.daemon->port());
  } catch (const std::exception& error) {
    release_all();
    FAIL() << error.what();
  }
  timeval tv{};
  tv.tv_sec = 5;
  ::setsockopt(client->fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  EXPECT_TRUE(client->send_all(frame_to_bytes({FrameType::kPing, ""})));

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const std::uint64_t before = server.daemon->stats_snapshot().loop_wakeups;
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const std::uint64_t during = server.daemon->stats_snapshot().loop_wakeups - before;
  EXPECT_LE(during, 20u) << "the loop spun while accept4 had no descriptor";

  // Free a descriptor: the parked listener comes back and answers.
  ::close(ballast.back());
  ballast.pop_back();
  const WireObservation pong = observe_response(*client);
  release_all();
  EXPECT_EQ(pong.status, ReadStatus::kOk);
  EXPECT_EQ(pong.body, "pong\n");
}

TEST(ServeDaemon, GcTimerCompactsTheDiskCachePeriodically) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "mf-serve-gc-timer-test";
  std::filesystem::remove_all(dir);
  {
    solve::DiskCache disk(dir);
    solve::SolveResult result;
    result.status = solve::Status::kFeasible;
    result.period = 1.0;
    solve::SolveParams params;
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      params.seed = seed;
      disk.insert(solve::make_cache_key(core::digest(small_problem()), "H1", params),
                  result);
    }
    ASSERT_EQ(disk.stats().size, 2u);

    solve::ResultCache cache(64, &disk);
    DaemonOptions options;
    options.cache_gc_interval_seconds = 0.05;
    options.cache = &cache;
    options.gc_max_bytes = 1;  // over any real entry: the timer evicts both
    TestDaemon server(options);

    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    DaemonStatsSnapshot stats;
    for (;;) {
      stats = server.daemon->stats_snapshot();
      if (stats.gc_runs >= 1 && stats.gc_entries_removed >= 2) break;
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "gc timer never compacted the cache";
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_GE(stats.gc_bytes_removed, 1u);
    EXPECT_EQ(disk.stats().size, 0u);
  }
  std::filesystem::remove_all(dir);
}

TEST(ServeDaemon, RemoteExecutorSurfacesUnknownSolverAsErrorResult) {
  TestDaemon server;
  RemoteExecutorOptions remote_options;
  remote_options.port = server.daemon->port();
  RemoteExecutor remote(remote_options);

  solve::SolveRequest request;
  request.problem = std::make_shared<const core::Problem>(small_problem());
  request.solver_id = "no-such-solver";
  const std::vector<solve::SolveResult> results = remote.solve_all({request});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, solve::Status::kError);
  EXPECT_NE(results[0].diagnostics.note.find("bad-request"), std::string::npos);
}

}  // namespace
}  // namespace mf::serve
