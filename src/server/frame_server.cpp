#include "server/frame_server.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "server/reactor.hpp"

namespace fsdl::server {

namespace {

std::uint64_t steady_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

FrameServer::FrameServer(const TransportOptions& transport)
    : transport_(transport) {}

FrameServer::~FrameServer() {
  // Subclass destructors call stop() themselves (their handle() must stay
  // callable while workers drain); this is the backstop for subclasses that
  // never started.
  stop();
}

std::size_t FrameServer::pending_cap() const {
  if (transport_.max_queued_requests == kUnboundedQueue) {
    return static_cast<std::size_t>(-1);
  }
  // `workers` requests being served + the configured waiting line.
  return static_cast<std::size_t>(transport_.workers) +
         transport_.max_queued_requests;
}

void FrameServer::start() {
  if (running_.load()) throw std::logic_error("server already started");
  on_start();

  const int lfd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (lfd < 0) throw std::runtime_error("socket() failed");
  const int one = 1;
  ::setsockopt(lfd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(transport_.port);
  if (::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(lfd);
    throw std::runtime_error(std::string("bind() failed: ") +
                             std::strerror(errno));
  }
  socklen_t len = sizeof addr;
  ::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  if (transport_.listen_backlog <= 0) transport_.listen_backlog = 64;
  if (::listen(lfd, transport_.listen_backlog) < 0) {
    ::close(lfd);
    throw std::runtime_error("listen() failed");
  }
  listen_fd_.store(lfd);

  // The pool queue is unbounded — admission is the pending-request
  // accounting in Reactor::admit (per-request sheds that keep the
  // connection) — so submit() refuses nothing until stop() shuts the pool
  // down, which happens only after every reactor has joined.
  pool_ = std::make_unique<ThreadPool>(transport_.workers);
  running_.store(true);
  draining_.store(false);
  stop_done_.store(false);
  if (transport_.reactor_threads == 0) transport_.reactor_threads = 1;
  reactors_.reserve(transport_.reactor_threads);
  for (unsigned k = 0; k < transport_.reactor_threads; ++k) {
    reactors_.push_back(std::make_unique<Reactor>(*this, k));
  }
  for (unsigned k = 0; k < transport_.reactor_threads; ++k) {
    reactors_[k]->start(k == 0 ? lfd : -1);
  }
  started_ms_.store(steady_ms(), std::memory_order_relaxed);
  if (transport_.watchdog_interval_ms > 0) {
    watchdog_thread_ = std::thread([this] { watchdog_loop(); });
  }
}

void FrameServer::begin_drain() {
  if (!running_.load()) return;
  draining_.store(true, std::memory_order_release);
  // Closing the listener stops new connections. The epoll set drops a
  // closed fd automatically; reactors also observe the -1 and forget their
  // cached copy.
  if (const int lfd = listen_fd_.exchange(-1); lfd >= 0) {
    ::shutdown(lfd, SHUT_RDWR);
    ::close(lfd);
  }
  for (auto& r : reactors_) r->wake();
}

void FrameServer::stop() {
  if (stop_done_.exchange(true)) return;
  if (!running_.load()) return;

  begin_drain();
  if (transport_.drain_deadline_ms > 0) {
    // Wait for in-flight requests to complete. Connections merely idle
    // hold no request, so they never delay the drain.
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(transport_.drain_deadline_ms);
    while (in_flight_.load(std::memory_order_acquire) > 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  // Stop the watchdog before tearing the reactors down — it reads them.
  {
    std::lock_guard<std::mutex> lock(watchdog_mu_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_thread_.joinable()) watchdog_thread_.join();

  running_.store(false);
  // Join the loops first (they close their connections on exit), then
  // drain the pool: any jobs still queued finish and post completions into
  // dead mailboxes, where they are dropped harmlessly.
  for (auto& r : reactors_) r->stop_and_join();
  if (pool_) pool_->shutdown();
  reactors_.clear();
}

std::uint64_t FrameServer::uptime_s() const noexcept {
  const std::uint64_t t0 = started_ms_.load(std::memory_order_relaxed);
  if (t0 == 0) return 0;
  const std::uint64_t now = steady_ms();
  return now > t0 ? (now - t0) / 1000 : 0;
}

// ---------------------------------------------------------------------------
// Watchdog: one sampling thread heartbeating the reactors and the pool.
// Liveness signals, not load signals — each reactor loop iterates at least
// every 100ms even when idle (epoll_timeout_ms is capped), and a healthy
// worker pool with queued work retires jobs. A unit frozen across the stall window
// counts one stall per episode and holds health at "degraded"; only the
// opt-in abort threshold turns a hard wedge into SIGABRT + core.
// ---------------------------------------------------------------------------

void FrameServer::watchdog_loop() {
  struct Unit {
    std::uint64_t last_count = 0;
    std::uint64_t frozen_since_ms = 0;
    bool counted = false;
  };
  std::vector<Unit> loops(reactors_.size());
  Unit workers;
  const std::uint64_t stall_ms =
      std::max(1u, transport_.watchdog_stall_ms);
  std::unique_lock<std::mutex> lock(watchdog_mu_);
  while (!watchdog_stop_) {
    watchdog_cv_.wait_for(
        lock, std::chrono::milliseconds(transport_.watchdog_interval_ms),
        [this] { return watchdog_stop_; });
    if (watchdog_stop_) break;
    const std::uint64_t now = steady_ms();
    bool any_stalled = false;
    std::uint64_t worst_frozen_ms = 0;
    const char* worst_unit = nullptr;

    for (std::size_t k = 0; k < reactors_.size(); ++k) {
      Unit& u = loops[k];
      const std::uint64_t hb = reactors_[k]->heartbeat();
      if (hb != u.last_count || u.frozen_since_ms == 0) {
        u.last_count = hb;
        u.frozen_since_ms = now;
        u.counted = false;
        continue;
      }
      const std::uint64_t frozen = now - u.frozen_since_ms;
      if (frozen < stall_ms) continue;
      any_stalled = true;
      if (!u.counted) {
        metrics_.record_reactor_stall();
        u.counted = true;
      }
      if (frozen > worst_frozen_ms) {
        worst_frozen_ms = frozen;
        worst_unit = "reactor loop";
      }
    }

    if (pool_) {
      const std::uint64_t done = pool_->jobs_completed();
      // Saturation alone is load, not a stall: the wedge signature is every
      // worker busy, work waiting, and nothing retiring.
      const bool wedged_shape = pool_->active_jobs() >= pool_->size() &&
                                pool_->queue_depth() > 0;
      if (done != workers.last_count || !wedged_shape ||
          workers.frozen_since_ms == 0) {
        workers.last_count = done;
        workers.frozen_since_ms = now;
        workers.counted = false;
      } else {
        const std::uint64_t frozen = now - workers.frozen_since_ms;
        if (frozen >= stall_ms) {
          any_stalled = true;
          if (!workers.counted) {
            metrics_.record_worker_stall();
            workers.counted = true;
          }
          if (frozen > worst_frozen_ms) {
            worst_frozen_ms = frozen;
            worst_unit = "worker pool";
          }
        }
      }
    }

    degraded_.store(any_stalled, std::memory_order_relaxed);
    if (transport_.watchdog_abort_ms != 0 && worst_unit != nullptr &&
        worst_frozen_ms >= transport_.watchdog_abort_ms) {
      std::fprintf(
          stderr,
          "fsdl watchdog: %s wedged for %" PRIu64
          " ms (in_flight=%d conns=%" PRId64 " queue=%zu active=%zu); "
          "aborting for a restart with core\n",
          worst_unit, worst_frozen_ms,
          in_flight_.load(std::memory_order_relaxed), open_connections(),
          pool_ ? pool_->queue_depth() : 0,
          pool_ ? pool_->active_jobs() : 0);
      std::fflush(stderr);
      std::abort();
    }
  }
}

}  // namespace fsdl::server
