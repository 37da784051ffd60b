// FrameServer — the transport half of the fsdl serving stack, factored out
// of Server so the shard router (shard/router.hpp) and the label server
// speak the identical wire protocol with identical fault-tolerance
// behavior instead of two divergent copies.
//
//   listener ─► Reactor event loop(s) ─► ThreadPool ─► virtual handle()
//                 │  (epoll, nonblocking      │
//                 │   sockets: accept,        └─► framed responses posted
//                 │   framing, decode,            back to the owning
//                 │   coalescing, writes,         reactor, fanned out in
//                 │   deadlines)                  per-connection order
//                 └─► Metrics (connections, sheds, evictions, batches, ...)
//
// Each reactor thread owns a disjoint set of connections outright: all
// per-connection state is touched only on the owning reactor thread, so
// 100k idle connections cost 100k small structs and zero threads, not
// 100k blocked stacks. Workers only ever run handle() on fully decoded
// requests, one request per pool job; results travel back through a
// mailbox + eventfd wakeup.
//
// Cross-request fault-set coalescing rides on the reactor: decoded DIST
// and BATCH requests are keyed by the same canonical fault-set hash the
// PreparedFaults LRU uses. The first request for a key is the leader and
// dispatches immediately (it pays the prepare). Same-key requests arriving
// while the leader is in flight park behind it; when the leader finishes,
// every parked follower is dispatched as its own pool job. By then the
// prepare is cached, so a K-request flash crowd pays for one prepare and
// its K-1 cache-hit queries spread over every worker. Uncontended traffic
// never waits: a lone request is always a leader. The pool is unbounded
// and outlives the reactors, so a dispatched job always runs and a parked
// group always has its leader in flight.
//
// What lives here (and is therefore shared): the accept path with
// transient-errno backoff, admission control (per-request OVERLOADED shed
// when the pending-request line is full — the connection stays open and
// usable), deadline eviction through the reactor's timing wheel, frame
// decode/CRC handling, slow-reader write backpressure, and graceful drain
// (in-flight requests finish, late frames get DRAINING, HEALTH stays
// answered so probers can tell a goodbye from a crash).
//
// What subclasses own: everything behind handle() — labels, caches,
// reloads for Server; scatter-gather fan-out for shard::Router.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "server/metrics.hpp"
#include "server/protocol.hpp"
#include "util/thread_pool.hpp"

namespace fsdl::server {

class Reactor;

/// `max_queued_requests` value that disables admission control.
inline constexpr std::size_t kUnboundedQueue = static_cast<std::size_t>(-1);

/// Socket/worker knobs common to every frame service (the subset of
/// ServerOptions that is about the transport, not the labels).
struct TransportOptions {
  /// 0 = let the kernel pick an ephemeral port (read it back via port()).
  std::uint16_t port = 0;
  unsigned workers = 4;
  /// listen(2) backlog (<= 0 coerced to 64 at start()).
  int listen_backlog = 64;
  /// Receive deadline, milliseconds; 0 disables. Enforced by the event
  /// loop's timing wheel: a connection idle (or stalled mid-frame) past the
  /// deadline with no request in flight is evicted with a TIMEOUT frame.
  unsigned recv_timeout_ms = 0;
  /// Send deadline, milliseconds; 0 disables. A connection whose write
  /// buffer has made no progress for this long (peer stopped reading) is
  /// torn down.
  unsigned send_timeout_ms = 0;
  /// Admission-control depth: *requests* allowed to wait for a worker
  /// beyond the `workers` already being served. An arrival past the bound
  /// is shed with a per-request OVERLOADED reply and the connection stays
  /// open. kUnboundedQueue disables shedding.
  std::size_t max_queued_requests = kUnboundedQueue;
  /// How long stop() waits for in-flight requests to finish before tearing
  /// connections down, milliseconds. 0 = hard stop.
  unsigned drain_deadline_ms = 0;
  /// Event-loop threads (0 coerced to 1). Connections are assigned
  /// round-robin and never migrate. Fault-set coalescing works within one
  /// reactor: >1 reactors trade perfect flash-crowd coalescing for
  /// read/write parallelism.
  unsigned reactor_threads = 1;
  /// Watchdog sampling interval, milliseconds; 0 disables the watchdog
  /// thread entirely. Each sample checks that every reactor loop has
  /// iterated and that a saturated worker pool is still retiring jobs.
  unsigned watchdog_interval_ms = 250;
  /// A unit frozen for this long counts one stall (fsdl_reactor_stalls_total
  /// / fsdl_worker_stalls_total) and flips health to "degraded" until
  /// liveness returns. Keep comfortably above the 100ms epoll tick.
  unsigned watchdog_stall_ms = 2000;
  /// Opt-in hard-wedge escape hatch: a unit frozen for this long gets a
  /// state dump on stderr and SIGABRT (so the supervisor restarts a core
  /// instead of babysitting a zombie). 0 = never abort.
  unsigned watchdog_abort_ms = 0;
};

class FrameServer {
 public:
  explicit FrameServer(const TransportOptions& transport);
  virtual ~FrameServer();

  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  /// Bind, listen on 127.0.0.1, spawn the reactor threads + workers.
  /// Throws std::runtime_error on socket failure.
  void start();

  /// Begin draining: close the listener (no new connections), keep serving
  /// requests already in flight, answer frames that arrive after the flip
  /// with a DRAINING frame (HEALTH excepted). Idempotent.
  void begin_drain();

  /// Graceful stop: drain (waiting up to drain_deadline_ms for in-flight
  /// requests), then tear down connections, drain the pool, join.
  /// Idempotent; subclass destructors call it.
  void stop();

  bool draining() const noexcept {
    return draining_.load(std::memory_order_acquire);
  }

  /// True while the watchdog observes a stalled reactor loop or a wedged
  /// worker pool; health_text() implementations report "degraded".
  bool watchdog_degraded() const noexcept {
    return degraded_.load(std::memory_order_relaxed);
  }

  /// Bound port (valid after start()).
  std::uint16_t port() const noexcept { return port_; }

  /// Whole seconds since start() finished (0 before).
  std::uint64_t uptime_s() const noexcept;
  /// Currently open client connections (the fsdl_open_connections gauge).
  std::int64_t open_connections() const noexcept {
    return metrics_.open_connections();
  }

  const Metrics& metrics() const noexcept { return metrics_; }

  /// Answer one decoded request — the transport-independent core, public so
  /// tests can exercise dispatch without sockets.
  virtual Response handle(const Request& req) = 0;

 protected:
  /// Subclass warm-up run by start() before the listener binds (decode
  /// labels, probe upstream shards, ...). Throwing aborts the start.
  virtual void on_start() {}

  Metrics metrics_;
  TransportOptions transport_;

 private:
  friend class Reactor;

  /// Admitted requests allowed to be pending at once (workers currently
  /// serving + the waiting line), or SIZE_MAX when unbounded.
  std::size_t pending_cap() const;

  // --- watchdog ---
  void watchdog_loop();

  std::vector<std::unique_ptr<Reactor>> reactors_;
  std::unique_ptr<ThreadPool> pool_;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_done_{false};
  /// Requests admitted but not yet answered — what both drain and
  /// admission control count.
  std::atomic<int> in_flight_{0};
  // Written by start()/stop(), read by the reactor threads.
  std::atomic<int> listen_fd_{-1};
  /// Round-robin cursor for placing accepted connections onto reactors.
  std::atomic<unsigned> next_reactor_{0};
  std::uint16_t port_ = 0;

  std::thread watchdog_thread_;
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;
  std::atomic<bool> degraded_{false};
  /// Steady-clock ms when start() finished (uptime_s anchor); 0 before.
  std::atomic<std::uint64_t> started_ms_{0};
};

}  // namespace fsdl::server
