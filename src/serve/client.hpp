// The client side of the scheduler daemon: a blocking single-connection
// `Client`, and a `RemoteExecutor` that makes a whole figure sweep run
// against a daemon instead of an in-process pool.
//
// `RemoteExecutor` implements `solve::SolveExecutor`, so it plugs straight
// into `exp::SweepOptions::executor`. It reproduces `SolveService::
// solve_all`'s seed discipline exactly — stream seeds are derived
// client-side per batch index, and wire requests travel as final — so a
// sweep solved remotely is bit-identical to the same sweep solved locally.
// Transient admission rejections (`queue-full`, `rate-limited`) are
// retried with backoff; persistent failures become Status::kError results,
// never exceptions, matching the in-process batch contract.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "serve/protocol.hpp"
#include "solve/service.hpp"

namespace mf::serve {

/// One blocking TCP connection to a daemon. Not thread-safe — the protocol
/// is strictly request/response per connection; give each thread its own.
class Client {
 public:
  /// Connects immediately; throws `std::runtime_error` when the daemon is
  /// unreachable.
  Client(const std::string& host, std::uint16_t port);

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  ~Client();

  /// What one round-trip produced: the result on success, the daemon's
  /// error code + detail otherwise (code "closed" when the connection
  /// died mid-exchange).
  struct Outcome {
    bool ok = false;
    solve::SolveResult result;
    std::string error_code;
    std::string detail;
  };

  /// Sends one solve request and blocks for the response.
  [[nodiscard]] Outcome solve(const WireRequest& request);

  /// Fetches the daemon's stats snapshot; nullopt on a protocol failure.
  [[nodiscard]] std::optional<DaemonStatsSnapshot> stats();

  /// Round-trips a ping; false when the connection is unusable.
  [[nodiscard]] bool ping();

  /// Sends a raw frame and reads one response — the robustness tests use
  /// this to poke malformed bytes at a live daemon.
  [[nodiscard]] ReadResult roundtrip(const Frame& frame);

  /// Writes raw bytes (not necessarily a valid frame) and reads one
  /// response frame.
  [[nodiscard]] ReadResult roundtrip_raw(const std::string& bytes);

 private:
  int fd_;
  FrameReader reader_;
};

/// `host:port` → (host, port); nullopt when the port is absent/unparsable.
[[nodiscard]] std::optional<std::pair<std::string, std::uint16_t>> parse_host_port(
    const std::string& text);

struct RemoteExecutorOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Parallel connections to spread a batch over; 0 = 4.
  std::size_t connections = 0;
  /// Client id sent with every request (the daemon's rate-limiter key).
  std::string client_id = "anon";
  /// Bounded retries for queue-full/rate-limited rejections before the
  /// request is reported as Status::kError.
  std::size_t max_retries = 200;
};

/// Ships every request of a batch to one daemon over N connections.
class RemoteExecutor final : public solve::SolveExecutor {
 public:
  explicit RemoteExecutor(RemoteExecutorOptions options) : options_(std::move(options)) {}

  /// Solves the batch remotely; `results[i]` corresponds to `requests[i]`.
  /// Connection or daemon failures surface as kError results for the
  /// affected requests only.
  [[nodiscard]] std::vector<solve::SolveResult> solve_all(
      const std::vector<solve::SolveRequest>& requests) override;

 private:
  RemoteExecutorOptions options_;
};

}  // namespace mf::serve
