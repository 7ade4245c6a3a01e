#include "serve/daemon.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "core/digest.hpp"
#include "serve/event_loop.hpp"
#include "solve/disk_cache.hpp"
#include "solve/solver.hpp"
#include "support/record.hpp"

namespace mf::serve {

namespace {

void close_quietly(int fd) {
  if (fd >= 0) ::close(fd);
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// How long the listener stays parked after accept4 ran out of
/// descriptors (or kernel memory) before the reactor tries again.
constexpr double kAcceptRetrySeconds = 0.1;

}  // namespace

// ---------------------------------------------------------------------------
// The reactor: one loop thread multiplexing every connection.
//
// Each connection feeds the bytes it reads to its FrameDecoder, which holds
// the frame stream's rules; a complete frame dispatches on its type, and a
// refused one is answered before the daemon hangs up. A solve marks the
// connection `solving` with the socket deregistered from epoll — the
// daemon reads nothing more from that client until its answer is on the
// wire (one request at a time per connection).
// Responses are written immediately; a short write parks the remainder in
// `out` and arms EPOLLOUT (the backpressure_bytes gauge counts those
// bytes). Solve completion happens on a pool thread, which serializes the
// response there and re-enters the loop via EventLoop::post.
// ---------------------------------------------------------------------------
struct EpollServer {
  explicit EpollServer(Daemon& daemon)
      : daemon_(daemon), loop_(std::make_shared<EventLoop>()) {}

  struct Connection {
    int fd = -1;
    std::uint64_t id = 0;
    FrameDecoder decoder;      ///< the frame being assembled
    std::string in_carry;      ///< bytes read but not yet consumed
    std::string out;           ///< response bytes not yet written
    std::size_t out_pos = 0;
    std::int64_t gauge_bytes = 0;  ///< this conn's backpressure_bytes share
    std::uint32_t events = 0;  ///< interest set currently registered (0 = off)
    bool solving = false;      ///< a solve is in flight; nothing is read
    bool close_after_flush = false;
    bool closed = false;
    bool consuming = false;    ///< re-entrancy guard for consume_input
    double last_activity = 0.0;
  };

  Daemon& daemon_;
  /// shared_ptr so solve-completion callbacks on pool threads can hold the
  /// loop alive across the post — a late completion must never touch a
  /// destroyed reactor.
  std::shared_ptr<EventLoop> loop_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Connection>> connections_;
  std::uint64_t next_conn_id_ = 1;
  bool listen_registered_ = false;
  bool drain_requested_ = false;

  void start() {
    watch_listener();
    arm_housekeeping();
    if (daemon_.options_.cache_gc_interval_seconds > 0.0 &&
        daemon_.service_->cache().disk() != nullptr) {
      arm_gc();
    }
  }

  void arm_housekeeping() {
    // Fire well inside the idle timeout so a timed-out connection is closed
    // promptly; with no timeout configured a 1 s tick still prunes refilled
    // rate-limiter buckets.
    const double timeout = daemon_.options_.idle_timeout_seconds;
    const double period =
        timeout > 0.0 ? std::clamp(timeout / 4.0, 0.01, 1.0) : 1.0;
    loop_->add_timer_after(period, [this] { housekeeping(); });
  }

  void housekeeping() {
    const double now = EventLoop::now_seconds();
    const double timeout = daemon_.options_.idle_timeout_seconds;
    if (timeout > 0.0) {
      std::vector<std::shared_ptr<Connection>> idle;
      for (const auto& [id, conn] : connections_) {
        // A solving connection is never idle — its silence is ours. Frame
        // activity (not byte activity) is what resets the clock, so a
        // slow-loris dribbler ages out on schedule.
        if (!conn->solving && now - conn->last_activity > timeout) {
          idle.push_back(conn);
        }
      }
      for (const auto& conn : idle) destroy(conn, /*idle_close=*/true);
    }
    daemon_.limiter_.prune_full(now);
    if (!drain_requested_) arm_housekeeping();
  }

  void arm_gc() {
    loop_->add_timer_after(daemon_.options_.cache_gc_interval_seconds, [this] {
      daemon_.run_gc_once();
      if (!drain_requested_) arm_gc();
    });
  }

  void watch_listener() {
    loop_->add_fd(daemon_.listen_fd_, EPOLLIN, [this](std::uint32_t) { on_accept(); });
    listen_registered_ = true;
  }

  /// Out of descriptors or memory: the pending connection stays in the
  /// backlog, so the level-triggered listener would re-fire at once and
  /// spin the loop. Stop watching it and look again after a short pause.
  void park_listener() {
    loop_->remove_fd(daemon_.listen_fd_);
    listen_registered_ = false;
    loop_->add_timer_after(kAcceptRetrySeconds, [this] {
      if (!drain_requested_) watch_listener();
    });
  }

  void on_accept() {
    for (;;) {
      const int fd = ::accept4(daemon_.listen_fd_, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) continue;
        if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS || errno == ENOMEM) {
          park_listener();
        }
        return;  // EAGAIN (drained the backlog) or the listener died
      }
      if (drain_requested_ ||
          daemon_.draining_.load(std::memory_order_relaxed)) {
        // Lost the race with drain(): refuse politely (best effort — the
        // socket buffer of a fresh connection always has room).
        const std::string bytes = frame_to_bytes(
            {FrameType::kError, error_body(kErrDraining, "daemon is draining")});
        (void)!::write(fd, bytes.data(), bytes.size());
        close_quietly(fd);
        continue;
      }
      auto conn = std::make_shared<Connection>();
      conn->fd = fd;
      conn->id = next_conn_id_++;
      conn->decoder = FrameDecoder(daemon_.options_.max_frame_bytes);
      conn->last_activity = EventLoop::now_seconds();
      connections_.emplace(conn->id, conn);
      set_events(conn, EPOLLIN);
      daemon_.connections_total_.fetch_add(1, std::memory_order_relaxed);
      daemon_.connections_active_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void set_events(const std::shared_ptr<Connection>& conn, std::uint32_t want) {
    if (conn->closed || want == conn->events) return;
    if (want == 0) {
      loop_->remove_fd(conn->fd);
    } else if (conn->events == 0) {
      loop_->add_fd(conn->fd, want,
                    [this, conn](std::uint32_t events) { on_io(conn, events); });
    } else {
      loop_->modify_fd(conn->fd, want);
    }
    conn->events = want;
  }

  /// Computes and applies the interest set the connection's state implies:
  /// unflushed output wants EPOLLOUT (and pauses reading), a solve in
  /// flight wants nothing, otherwise we read.
  void update_interest(const std::shared_ptr<Connection>& conn) {
    if (conn->closed) return;
    const std::uint32_t want = conn->out_pos < conn->out.size() ? EPOLLOUT
                               : conn->solving                 ? 0u
                                                               : EPOLLIN;
    set_events(conn, want);
  }

  void on_io(const std::shared_ptr<Connection>& conn, std::uint32_t events) {
    if (conn->closed) return;
    if (events & EPOLLIN) {
      on_readable(conn);
      if (conn->closed) return;
    }
    if (events & EPOLLOUT) {
      flush(conn);
      if (conn->closed) return;
    }
    if ((events & (EPOLLERR | EPOLLHUP)) && !(events & (EPOLLIN | EPOLLOUT))) {
      destroy(conn);
    }
  }

  void on_readable(const std::shared_ptr<Connection>& conn) {
    // One read per readiness event; level-triggered epoll re-fires while
    // more bytes wait, which keeps one flooding client from monopolizing a
    // dispatch batch.
    char buffer[65536];
    ssize_t got;
    do {
      got = ::read(conn->fd, buffer, sizeof buffer);
    } while (got < 0 && errno == EINTR);
    if (got < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      destroy(conn);
      return;
    }
    if (got == 0) {
      on_eof(conn);
      return;
    }
    conn->in_carry.append(buffer, static_cast<std::size_t>(got));
    consume_input(conn);
  }

  void on_eof(const std::shared_ptr<Connection>& conn) {
    // consume_input leaves no bytes behind while the connection reads, so
    // the decoder alone knows whether EOF fell between frames.
    const ReadResult eof = conn->decoder.at_eof();
    if (eof.status == ReadStatus::kClosed) {
      destroy(conn);
      return;
    }
    conn->close_after_flush = true;
    respond(conn, {FrameType::kError, error_body(kErrBadRequest, eof.detail)});
  }

  /// Feeds `in_carry` to the decoder and dispatches each frame it
  /// completes. Stops when input runs out, a solve is in flight, the
  /// stream is refused, or the connection is destroyed.
  void consume_input(const std::shared_ptr<Connection>& conn) {
    conn->consuming = true;
    std::string_view input = conn->in_carry;
    while (!conn->closed && !conn->solving && !input.empty()) {
      std::optional<ReadResult> read = conn->decoder.feed(input);
      if (!read.has_value()) break;
      if (read->status != ReadStatus::kOk) {
        // Past a refusal the stream is out of sync: answer and hang up.
        conn->close_after_flush = true;
        const char* code = read->status == ReadStatus::kTooLarge ? kErrTooLarge : kErrBadRequest;
        respond(conn, {FrameType::kError, error_body(code, read->detail)});
        break;
      }
      dispatch_frame(conn, read->frame);
    }
    if (!conn->closed) {
      conn->in_carry.erase(0, conn->in_carry.size() - input.size());
      conn->consuming = false;
      update_interest(conn);
    }
  }

  void dispatch_frame(const std::shared_ptr<Connection>& conn, const Frame& request) {
    conn->last_activity = EventLoop::now_seconds();  // a full frame arrived
    switch (request.type) {
      case FrameType::kPing:
        respond(conn, {FrameType::kOk, "pong\n"});
        break;
      case FrameType::kStats:
        respond(conn, {FrameType::kOk, stats_to_text(daemon_.stats_snapshot())});
        break;
      case FrameType::kSolve:
        handle_solve_frame(conn, request.body);
        break;
      case FrameType::kOk:
      case FrameType::kError:
        // Response types are not requests; a peer sending one is confused.
        respond(conn, {FrameType::kError,
                       error_body(kErrBadRequest,
                                  "frame type '" + to_string(request.type) +
                                      "' is not a request")});
        break;
    }
  }

  void handle_solve_frame(const std::shared_ptr<Connection>& conn,
                          const std::string& body) {
    Frame refusal;
    std::optional<WireRequest> wire = daemon_.admit_solve(body, refusal);
    if (!wire.has_value()) {
      respond(conn, refusal);
      return;
    }
    // Admitted: a pending slot is held until finish_solve releases it.
    const auto started = std::chrono::steady_clock::now();
    conn->solving = true;
    const std::uint64_t conn_id = conn->id;
    try {
      // The response body needs the canonical key even when the request's
      // cache policy is kOff (submit builds none then) — compute it here,
      // from exactly the fields the service would use, and hand the service
      // the digest so the problem is hashed once.
      const core::Digest digest = core::digest(*wire->request.problem);
      const solve::CacheKey key = solve::make_cache_key(
          digest, solve::effective_solver_id(wire->request.solver_id, wire->request.params),
          wire->request.params);
      daemon_.service_->submit_async(
          std::move(wire->request),
          [this, loop = loop_, conn_id, key, started](solve::SolveResult result) {
            // Completing thread serializes the (possibly large) response,
            // so a pool-thread completion hands the reactor only bytes.
            Frame response{FrameType::kOk, solve::entry_to_text(key, result)};
            if (loop->on_loop_thread()) {
              // Warm identity: the service answered from cache inside
              // submit_async, on this very thread. Finish inline — no
              // eventfd round-trip, no extra epoll_wait — which is what
              // keeps the reactor's cache-hit serving competitive with a
              // dedicated blocking thread per connection.
              finish_solve(conn_id, std::move(response), started);
              return;
            }
            loop->post([this, conn_id, response = std::move(response),
                        started]() mutable {
              finish_solve(conn_id, std::move(response), started);
            });
          },
          digest);
    } catch (const std::invalid_argument& error) {
      finish_solve(conn_id,
                   {FrameType::kError, error_body(kErrBadRequest, error.what())},
                   started);
    } catch (const std::exception& error) {
      finish_solve(conn_id,
                   {FrameType::kError, error_body(kErrInternal, error.what())},
                   started);
    }
    // Only park the socket when the solve is genuinely in flight — an
    // inline completion above has already cleared `solving` (and possibly
    // destroyed the connection). Deregistering while quiet is what gives
    // one-request-at-a-time backpressure: the daemon reads nothing more
    // from this client until its answer is on the wire.
    if (!conn->closed && conn->solving) {
      set_events(conn, 0);
    }
  }

  void finish_solve(std::uint64_t conn_id, Frame response,
                    std::chrono::steady_clock::time_point started) {
    const auto elapsed = std::chrono::steady_clock::now() - started;
    daemon_.latency_.record_us(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count()));
    daemon_.pending_.fetch_sub(1, std::memory_order_relaxed);
    const auto it = connections_.find(conn_id);
    if (it == connections_.end()) return;  // client left; the result is cached
    const std::shared_ptr<Connection> conn = it->second;
    conn->solving = false;
    respond(conn, response);
  }

  void respond(const std::shared_ptr<Connection>& conn, const Frame& frame) {
    conn->out += frame_to_bytes(frame);
    flush(conn);
  }

  void flush(const std::shared_ptr<Connection>& conn) {
    while (conn->out_pos < conn->out.size()) {
      const ssize_t wrote = ::write(conn->fd, conn->out.data() + conn->out_pos,
                                    conn->out.size() - conn->out_pos);
      if (wrote > 0) {
        conn->out_pos += static_cast<std::size_t>(wrote);
        continue;
      }
      if (wrote < 0 && errno == EINTR) continue;
      if (wrote < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      destroy(conn);  // peer is gone; nothing left to say to it
      return;
    }
    sync_gauge(conn);
    if (conn->out_pos < conn->out.size()) {
      update_interest(conn);  // arms EPOLLOUT, pauses reading
      return;
    }
    conn->out.clear();
    conn->out_pos = 0;
    conn->last_activity = EventLoop::now_seconds();  // a response flushed
    if (conn->close_after_flush || drain_requested_) {
      destroy(conn);
      return;
    }
    update_interest(conn);
    // A pipelining client may have the next request already buffered.
    if (!conn->consuming && !conn->in_carry.empty() && !conn->solving) {
      consume_input(conn);
    }
  }

  void sync_gauge(const std::shared_ptr<Connection>& conn) {
    const std::int64_t buffered =
        static_cast<std::int64_t>(conn->out.size() - conn->out_pos);
    daemon_.backpressure_bytes_.fetch_add(buffered - conn->gauge_bytes,
                                          std::memory_order_relaxed);
    conn->gauge_bytes = buffered;
  }

  void destroy(const std::shared_ptr<Connection>& conn, bool idle_close = false) {
    if (conn->closed) return;
    conn->closed = true;
    daemon_.backpressure_bytes_.fetch_sub(conn->gauge_bytes,
                                          std::memory_order_relaxed);
    conn->gauge_bytes = 0;
    // Count BEFORE closing the fd: the peer observes EOF the instant
    // close() runs, and a test (or monitor) reacting to that EOF must
    // already see the gauge incremented.
    if (idle_close) daemon_.idle_closes_.fetch_add(1, std::memory_order_relaxed);
    if (conn->events != 0) loop_->remove_fd(conn->fd);
    close_quietly(conn->fd);
    connections_.erase(conn->id);
    daemon_.connections_active_.fetch_sub(1, std::memory_order_relaxed);
    maybe_finish_drain();
  }

  /// Loop-thread half of Daemon::drain(): stop accepting, close idle
  /// connections, and let solving/flushing ones retire through flush().
  void request_drain() {
    if (drain_requested_) return;
    drain_requested_ = true;
    if (listen_registered_) {
      loop_->remove_fd(daemon_.listen_fd_);
      listen_registered_ = false;
    }
    // Reset anything still sitting in the backlog; wait() closes the fd
    // after the loop thread has joined.
    ::shutdown(daemon_.listen_fd_, SHUT_RDWR);
    std::vector<std::shared_ptr<Connection>> idle;
    for (const auto& [id, conn] : connections_) {
      if (!conn->solving && conn->out_pos >= conn->out.size()) {
        idle.push_back(conn);
      }
    }
    for (const auto& conn : idle) destroy(conn);
    maybe_finish_drain();
  }

  void maybe_finish_drain() {
    if (drain_requested_ && connections_.empty()) loop_->stop();
  }
};

// ---------------------------------------------------------------------------
// Daemon
// ---------------------------------------------------------------------------

Daemon::Daemon(DaemonOptions options)
    : options_(options),
      pool_(std::make_unique<support::ThreadPool>(
          options.threads == 0 ? support::default_thread_count() : options.threads)),
      service_(std::make_unique<solve::SolveService>(pool_.get(), options.cache)),
      limiter_(options.rate_capacity, options.rate_refill_per_sec),
      epoll_(std::make_unique<EpollServer>(*this)) {}

Daemon::~Daemon() {
  drain();
  wait();
}

void Daemon::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("serve: socket() failed");
  const int enable = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof enable);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string detail = std::strerror(errno);
    close_quietly(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: cannot bind port " + std::to_string(options_.port) +
                             ": " + detail);
  }
  if (::listen(listen_fd_, SOMAXCONN) != 0) {
    close_quietly(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: listen() failed");
  }

  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }

  set_nonblocking(listen_fd_);
  epoll_->start();
  loop_thread_ = std::thread([loop = epoll_->loop_] { loop->run(); });
}

void Daemon::drain() {
  if (draining_.exchange(true)) return;
  // Everything happens on the loop thread — no lock dance with the
  // connection table. draining_ is already set, so admissions refuse
  // `draining` even before the posted closure runs.
  epoll_->loop_->post([server = epoll_.get()] { server->request_drain(); });
}

void Daemon::wait() {
  if (loop_thread_.joinable()) loop_thread_.join();
  close_quietly(listen_fd_);
  listen_fd_ = -1;
}

DaemonStatsSnapshot Daemon::stats_snapshot() const {
  DaemonStatsSnapshot stats;
  stats.service = service_->stats();
  stats.cache = service_->cache().stats();
  stats.connections_active = connections_active_.load(std::memory_order_relaxed);
  stats.connections_total = connections_total_.load(std::memory_order_relaxed);
  stats.pending = pending_.load(std::memory_order_relaxed);
  stats.pool_queue_depth = pool_->queue_depth();
  stats.pool_in_flight = pool_->in_flight();
  stats.loop_wakeups = epoll_->loop_->wakeups();
  stats.loop_timers_fired = epoll_->loop_->timers_fired();
  stats.idle_closes = idle_closes_.load(std::memory_order_relaxed);
  stats.backpressure_bytes = static_cast<std::uint64_t>(
      std::max<std::int64_t>(0, backpressure_bytes_.load(std::memory_order_relaxed)));
  stats.gc_runs = gc_runs_.load(std::memory_order_relaxed);
  stats.gc_entries_removed = gc_entries_removed_.load(std::memory_order_relaxed);
  stats.gc_bytes_removed = gc_bytes_removed_.load(std::memory_order_relaxed);
  stats.latency_count = latency_.count();
  stats.latency_p50_ms = latency_.quantile_ms(0.50);
  stats.latency_p90_ms = latency_.quantile_ms(0.90);
  stats.latency_p99_ms = latency_.quantile_ms(0.99);
  return stats;
}

void Daemon::run_gc_once() {
  solve::DiskCache* const disk = service_->cache().disk();
  if (disk == nullptr) return;
  const std::uint64_t cap = options_.gc_max_bytes == 0
                                ? std::numeric_limits<std::uint64_t>::max()
                                : options_.gc_max_bytes;
  const solve::DiskGcReport report =
      disk->gc(cap, std::chrono::seconds(options_.gc_max_age_seconds));
  gc_runs_.fetch_add(1, std::memory_order_relaxed);
  gc_entries_removed_.fetch_add(report.entries_removed, std::memory_order_relaxed);
  gc_bytes_removed_.fetch_add(report.bytes_removed, std::memory_order_relaxed);
}

std::optional<WireRequest> Daemon::admit_solve(const std::string& body, Frame& refusal) {
  if (draining_.load(std::memory_order_relaxed)) {
    refusal = {FrameType::kError, error_body(kErrDraining, "daemon is draining")};
    return std::nullopt;
  }

  std::optional<WireRequest> wire = request_from_text(body);
  if (!wire.has_value()) {
    refusal = {FrameType::kError,
               error_body(kErrBadRequest, "malformed solve request body")};
    return std::nullopt;
  }

  if (!limiter_.try_acquire(wire->client_id, EventLoop::now_seconds())) {
    service_->note_rejected_rate_limited();
    refusal = {FrameType::kError,
               error_body(kErrRateLimited,
                          "client '" + support::clipped(wire->client_id) +
                              "' exceeded its request budget")};
    return std::nullopt;
  }

  // Bounded pending queue: claim a slot or reject. fetch_add/fetch_sub
  // keeps the fast path lock-free; a transient overshoot under contention
  // only rejects, never over-admits by more than the racing claimants.
  if (pending_.fetch_add(1, std::memory_order_relaxed) >= options_.max_pending) {
    pending_.fetch_sub(1, std::memory_order_relaxed);
    service_->note_rejected_queue_full();
    refusal = {FrameType::kError,
               error_body(kErrQueueFull,
                          "pending queue at capacity (" +
                              std::to_string(options_.max_pending) + ")")};
    return std::nullopt;
  }
  return wire;
}

}  // namespace mf::serve
