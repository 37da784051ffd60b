#include "server/reactor.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <utility>

#include "server/frame_server.hpp"
#include "server/prepared_cache.hpp"
#include "util/failpoint.hpp"

namespace fsdl::server {

namespace {

/// Write buffer level at which a connection stops being read (slow-reader
/// backpressure) and the level at which reading resumes. Responses are at
/// most one frame (<= kMaxFramePayload) each, so the high mark admits any
/// single response while bounding what one unread peer can pin.
constexpr std::size_t kWriteHighWater = 4u * 1024 * 1024;
constexpr std::size_t kWriteLowWater = kWriteHighWater / 2;

/// Consecutive recv() chunks taken from one connection before yielding to
/// the rest of the ready set (level-triggered epoll re-reports leftovers).
constexpr int kMaxReadBursts = 4;

constexpr std::uint8_t kTimerRead = 0;
constexpr std::uint8_t kTimerWrite = 1;

std::uint64_t now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// accept() errnos that mean "try again shortly", not "the listener is
/// dead": fd exhaustion, a connection reset before we got to it, transient
/// resource pressure.
bool transient_accept_errno(int err) {
  switch (err) {
    case EMFILE:
    case ENFILE:
    case ECONNABORTED:
    case ENOBUFS:
    case ENOMEM:
    case EPROTO:
    case EINTR:
      return true;
    default:
      return false;
  }
}

std::uint64_t next_conn_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

/// All mutable state is owned by — and only touched on — the reactor
/// thread; workers treat a ConnPtr as an opaque routing token.
struct Reactor::Conn {
  int fd = -1;
  std::uint64_t id = 0;
  Framer framer;
  /// Next sequence number handed to an admitted (or inline-answered)
  /// request, and the next one whose response may hit the wire.
  std::uint64_t next_seq = 0;
  std::uint64_t next_send = 0;
  /// Finished responses waiting for their turn (out-of-order completions).
  std::map<std::uint64_t, std::vector<std::uint8_t>> done;
  std::vector<std::uint8_t> wbuf;
  std::size_t woff = 0;
  /// Requests admitted from this connection, not yet answered.
  int inflight = 0;
  bool want_write = false;      // EPOLLOUT armed
  bool reading_paused = false;  // EPOLLIN dropped (backpressure)
  bool peer_eof = false;
  bool close_after_flush = false;
  bool closed = false;
  std::uint64_t last_read_us = 0;
  std::uint64_t write_blocked_us = 0;  // 0 = write buffer is making progress
  bool read_timer_armed = false;
  bool write_timer_armed = false;
};

Reactor::Reactor(FrameServer& owner, unsigned index)
    : owner_(owner), index_(index) {
  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epfd_ < 0) throw std::runtime_error("epoll_create1() failed");
  eventfd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (eventfd_ < 0) {
    ::close(epfd_);
    throw std::runtime_error("eventfd() failed");
  }
}

Reactor::~Reactor() {
  stop_and_join();
  if (eventfd_ >= 0) ::close(eventfd_);
  if (epfd_ >= 0) ::close(epfd_);
}

void Reactor::start(int listen_fd) {
  listen_fd_ = listen_fd;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = eventfd_;
  ::epoll_ctl(epfd_, EPOLL_CTL_ADD, eventfd_, &ev);
  if (listen_fd_ >= 0) {
    ev.events = EPOLLIN;
    ev.data.fd = listen_fd_;
    ::epoll_ctl(epfd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  }
  thread_ = std::thread([this] { loop(); });
}

void Reactor::stop_and_join() {
  if (!thread_.joinable()) return;
  stop_.store(true, std::memory_order_release);
  wake();
  thread_.join();
}

void Reactor::adopt_fd(int fd) {
  {
    std::lock_guard<std::mutex> lock(mail_mu_);
    mail_fds_.push_back(fd);
  }
  wake();
}

void Reactor::wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(eventfd_, &one, sizeof one);
}

void Reactor::post_completion(Completion&& comp) {
  {
    std::lock_guard<std::mutex> lock(mail_mu_);
    mail_completions_.push_back(std::move(comp));
  }
  wake();
}

void Reactor::post_key_done(std::uint64_t key) {
  {
    std::lock_guard<std::mutex> lock(mail_mu_);
    mail_key_done_.push_back(key);
  }
  wake();
}

int Reactor::epoll_timeout_ms() const {
  // Wake for the wheel's next window; cap at 100ms so flag flips are never
  // missed for long (stop and drain also write the eventfd, this is
  // belt-and-braces).
  if (wheel_.empty()) return 100;
  const std::uint64_t due = wheel_.next_tick_us();
  const std::uint64_t now = now_us();
  if (due <= now) return 0;
  const std::uint64_t delta_ms = (due - now + 999) / 1000;
  return delta_ms > 100 ? 100 : static_cast<int>(delta_ms);
}

void Reactor::loop() {
  wheel_.anchor(now_us());
  epoll_event events[128];
  while (!stop_.load(std::memory_order_acquire)) {
    heartbeat_.fetch_add(1, std::memory_order_relaxed);
    const int n =
        ::epoll_wait(epfd_, events, 128, epoll_timeout_ms());
    if (n < 0 && errno != EINTR) break;
    const std::uint64_t t0 = now_us();
    bool worked = n > 0;

    for (int k = 0; k < n; ++k) {
      const int fd = events[k].data.fd;
      if (fd == eventfd_) {
        std::uint64_t drained;
        while (::read(eventfd_, &drained, sizeof drained) > 0) {
        }
        continue;
      }
      if (fd == listen_fd_) {
        handle_accept();
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      ConnPtr c = it->second;  // handlers may erase the map entry
      if ((events[k].events & (EPOLLHUP | EPOLLERR)) != 0 &&
          (events[k].events & EPOLLIN) == 0) {
        close_conn(c);
        continue;
      }
      if ((events[k].events & EPOLLOUT) != 0) on_writable(c);
      if (!c->closed && (events[k].events & (EPOLLIN | EPOLLHUP)) != 0) {
        on_readable(c);
      }
    }

    // Drain strictly AFTER the eventfd counter was cleared above: a
    // worker posts mailbox-then-eventfd, so draining first would let a
    // post slip between the drain and the clear and sleep until the
    // 100ms cap (a lost wakeup). This order makes any post that the
    // drain misses leave the eventfd readable for the next epoll_wait.
    drain_mailbox();

    const std::uint64_t now = now_us();
    if (!wheel_.empty()) {
      const std::size_t before = wheel_.size();
      wheel_.advance(now, [this](const TimerWheel::Entry& e) { on_timer(e); });
      worked = worked || wheel_.size() != before;
    }
    // Un-pause accepting after a transient-errno backoff window.
    if (listen_fd_ >= 0 && accept_paused_until_us_ != 0 &&
        now >= accept_paused_until_us_) {
      accept_paused_until_us_ = 0;
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = listen_fd_;
      ::epoll_ctl(epfd_, EPOLL_CTL_MOD, listen_fd_, &ev);
      handle_accept();
    }
    if (owner_.listen_fd_.load(std::memory_order_acquire) < 0) {
      listen_fd_ = -1;  // drain/stop closed the listener
    }

    if (worked) {
      owner_.metrics_.record_reactor_loop(
          static_cast<double>(now_us() - t0));
    }
  }
  // Teardown: the loop owns every conn fd; close them all. Completions
  // still in flight from workers land in the mailbox and are dropped.
  for (auto& [fd, c] : conns_) {
    c->closed = true;
    ::close(fd);
    owner_.metrics_.record_connection_closed();
  }
  conns_.clear();
}

void Reactor::drain_mailbox() {
  std::vector<int> fds;
  std::vector<Completion> completions;
  std::vector<std::uint64_t> key_done;
  {
    std::lock_guard<std::mutex> lock(mail_mu_);
    fds.swap(mail_fds_);
    completions.swap(mail_completions_);
    key_done.swap(mail_key_done_);
  }
  const bool stopping = stop_.load(std::memory_order_acquire);
  for (int fd : fds) {
    if (stopping) {
      ::close(fd);
      continue;
    }
    register_conn(fd);
  }
  for (auto& comp : completions) {
    if (stopping || comp.conn->closed) continue;
    comp.conn->inflight -= 1;
    enqueue_response(comp.conn, comp.seq, std::move(comp.wire));
  }
  for (std::uint64_t key : key_done) {
    auto it = batches_.find(key);
    if (it == batches_.end()) continue;
    std::vector<Pending> followers = std::move(it->second);
    batches_.erase(it);
    if (stopping || followers.empty()) continue;
    // The leader's prepare is now cached: every follower is a
    // PreparedCache hit, so each runs as its own pool job and the crowd
    // spreads over every worker. A later same-key arrival leads afresh
    // (and cache-hits its prepare too).
    owner_.metrics_.record_batch(static_cast<double>(followers.size()));
    for (auto& p : followers) dispatch(std::move(p), std::nullopt);
  }
}

void Reactor::handle_accept() {
  if (listen_fd_ < 0 || accept_paused_until_us_ != 0) return;
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      const int err = errno;
      if (err == EAGAIN || err == EWOULDBLOCK) return;
      if (owner_.listen_fd_.load(std::memory_order_acquire) < 0) {
        listen_fd_ = -1;  // drain closed the listener under us
        return;
      }
      if (transient_accept_errno(err)) {
        // fd exhaustion or resource pressure: pause accepting briefly —
        // established connections keep being served, and the kernel
        // backlog holds arrivals until the pressure clears. The listener
        // is muted in epoll so the pause does not busy-spin.
        owner_.metrics_.record_failure(FailureCounter::kAcceptRetries);
        accept_paused_until_us_ = now_us() + 10'000;
        epoll_event ev{};
        ev.events = 0;
        ev.data.fd = listen_fd_;
        ::epoll_ctl(epfd_, EPOLL_CTL_MOD, listen_fd_, &ev);
        return;
      }
      // EBADF/EINVAL after a racing close, or a genuinely dead listener.
      listen_fd_ = -1;
      return;
    }
    owner_.metrics_.record_connection();
    // Round-robin placement across reactors; connections never migrate.
    const unsigned n = static_cast<unsigned>(owner_.reactors_.size());
    const unsigned target =
        n <= 1 ? 0
               : owner_.next_reactor_.fetch_add(1, std::memory_order_relaxed) %
                     n;
    if (target == index_) {
      register_conn(fd);
    } else {
      owner_.reactors_[target]->adopt_fd(fd);
    }
  }
}

void Reactor::register_conn(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);

  auto c = std::make_shared<Conn>();
  c->fd = fd;
  c->id = next_conn_id();
  c->last_read_us = now_us();
  conns_.emplace(fd, c);
  owner_.metrics_.record_connection_opened();

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    conns_.erase(fd);
    ::close(fd);
    owner_.metrics_.record_connection_closed();
    return;
  }
  if (owner_.transport_.recv_timeout_ms > 0) {
    c->read_timer_armed = true;
    wheel_.schedule(
        {c->last_read_us + owner_.transport_.recv_timeout_ms * 1000ull, fd,
         c->id, kTimerRead});
  }
}

void Reactor::close_conn(const ConnPtr& c) {
  if (c->closed) return;
  c->closed = true;
  ::epoll_ctl(epfd_, EPOLL_CTL_DEL, c->fd, nullptr);
  ::close(c->fd);
  conns_.erase(c->fd);
  owner_.metrics_.record_connection_closed();
  // Stale wheel entries and in-flight completions are dropped lazily via
  // the (fd, id) check / the closed flag.
}

void Reactor::on_readable(const ConnPtr& c) {
  std::uint8_t chunk[64 * 1024];
  for (int burst = 0; burst < kMaxReadBursts; ++burst) {
    if (c->reading_paused || c->closed) return;
    const auto hit = FSDL_FAILPOINT("reactor.recv");
    const std::size_t want = hit.clamp(sizeof chunk);
    ssize_t n;
    if (hit.kind == failpoint::HitKind::kErrno) {
      errno = hit.err;
      n = -1;
    } else {
      n = ::recv(c->fd, chunk, want, 0);
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      close_conn(c);
      return;
    }
    if (n == 0) {
      // Peer finished sending. Answer what is already admitted, then part
      // ways once the write side drains.
      c->peer_eof = true;
      if (c->inflight == 0 && c->done.empty() && c->woff >= c->wbuf.size()) {
        close_conn(c);
      } else {
        c->close_after_flush = true;
        update_epoll(c);
      }
      return;
    }
    c->last_read_us = now_us();
    c->framer.feed(chunk, static_cast<std::size_t>(n));
    process_frames(c);
    if (c->closed) return;
    // "Socket drained" means the kernel returned less than we *asked for*
    // (`want`, which a short-read failpoint may have clamped below the
    // buffer size) — comparing against the buffer would misread every
    // injected short read as EOF-adjacent and stall the burst loop.
    if (static_cast<std::size_t>(n) < want) return;
  }
  // Burst cap hit — level-triggered epoll re-reports the leftovers, after
  // the rest of the ready set has had its turn.
}

void Reactor::process_frames(const ConnPtr& c) {
  std::vector<std::uint8_t> payload;
  while (!c->close_after_flush && c->framer.next(payload)) {
    Request req;
    std::string decode_error;
    const bool decoded =
        decode_request(payload.data(), payload.size(), req, decode_error);
    if (owner_.draining_.load(std::memory_order_acquire) &&
        !(decoded && req.opcode == Opcode::kHealth)) {
      // Frames decoded after the drain flip are new work: refuse them.
      // HEALTH is exempt — a prober must see "draining", not a refusal,
      // so it can tell a graceful goodbye from a crash.
      owner_.metrics_.record_failure(FailureCounter::kDrainRejects);
      respond_inline(c, error_response(
                            "server draining, not accepting new requests",
                            Status::kDraining));
      c->close_after_flush = true;
      break;
    }
    if (!decoded) {
      owner_.metrics_.record_error();
      respond_inline(c, error_response("bad request: " + decode_error));
      continue;
    }
    admit(c, std::move(req));
    if (c->closed) return;
  }
  if (c->framer.fatal() && !c->close_after_flush) {
    // The stream is unsyncable: either the length prefix exceeded
    // kMaxFramePayload or the payload failed its CRC. One diagnostic
    // frame, then close.
    owner_.metrics_.record_error();
    if (c->framer.fatal_reason() == Framer::Fatal::kChecksum) {
      owner_.metrics_.record_failure(FailureCounter::kFrameCrcErrors);
      respond_inline(c, error_response("frame checksum mismatch"));
    } else {
      respond_inline(c, error_response("frame exceeds size limit"));
    }
    c->close_after_flush = true;
  }
  try_flush(c);
}

void Reactor::admit(const ConnPtr& c, Request&& req) {
  // Admission control, per request: DIST/BATCH/GET_LABEL arrivals past the
  // pending cap are shed with OVERLOADED — one reply frame, connection
  // kept open (the client's retry-with-backoff already handles the rest).
  // Probe/admin opcodes are exempt: an overloaded server must stay
  // observable, and they hold no prepare resources.
  const bool sheddable = req.opcode == Opcode::kDist ||
                         req.opcode == Opcode::kBatch ||
                         req.opcode == Opcode::kGetLabel;
  const std::size_t cap = owner_.pending_cap();
  if (sheddable &&
      static_cast<std::size_t>(
          owner_.in_flight_.load(std::memory_order_acquire)) >= cap) {
    owner_.metrics_.record_failure(FailureCounter::kSheds);
    respond_inline(c, error_response("server overloaded, retry later",
                                     Status::kOverloaded));
    return;
  }

  Pending p;
  p.conn = c;
  p.seq = c->next_seq++;
  p.req = std::move(req);
  c->inflight += 1;
  owner_.in_flight_.fetch_add(1, std::memory_order_acq_rel);

  const bool batchable =
      (p.req.opcode == Opcode::kDist || p.req.opcode == Opcode::kBatch) &&
      !p.req.faults.empty();
  if (!batchable) {
    dispatch(std::move(p), std::nullopt);
    return;
  }

  const std::uint64_t key = fault_hash(canonical_key(p.req.faults));
  if (auto it = batches_.find(key); it != batches_.end()) {
    // Follower: the prepare for this key is already in flight; ride it.
    it->second.push_back(std::move(p));
    return;
  }
  // Leader: dispatch immediately — it performs (or cache-hits) the
  // prepare. No waiting at low concurrency.
  batches_.emplace(key, std::vector<Pending>{});
  owner_.metrics_.record_batch(1.0);
  dispatch(std::move(p), key);
}

void Reactor::dispatch(Pending&& p, std::optional<std::uint64_t> leader_key) {
  auto job = std::make_shared<Pending>(std::move(p));
  if (owner_.pool_->submit(
          [this, job, leader_key] { run(*job, leader_key); })) {
    return;
  }
  // The pool refuses only after shutdown(), which follows every reactor's
  // join, so this is a backstop: shed the request, keep the connection.
  // A refused leader has no followers yet (they park on a later turn of
  // this loop), so forgetting its key strands nobody.
  owner_.metrics_.record_failure(FailureCounter::kSheds);
  job->conn->inflight -= 1;
  owner_.in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  if (leader_key) batches_.erase(*leader_key);
  enqueue_response(job->conn, job->seq,
                   frame(encode_response(error_response(
                       "server overloaded, retry later",
                       Status::kOverloaded))));
}

void Reactor::run(Pending& p, std::optional<std::uint64_t> leader_key) {
  // Worker thread. Conn is only carried, never read.
  Response resp = owner_.handle(p.req);
  if (!resp.answered()) owner_.metrics_.record_error();
  Completion comp;
  comp.conn = p.conn;
  comp.seq = p.seq;
  comp.wire = frame(encode_response(resp));
  owner_.in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  post_completion(std::move(comp));
  if (leader_key) post_key_done(*leader_key);
}

void Reactor::respond_inline(const ConnPtr& c, const Response& resp) {
  enqueue_response(c, c->next_seq++, frame(encode_response(resp)));
}

void Reactor::enqueue_response(const ConnPtr& c, std::uint64_t seq,
                               std::vector<std::uint8_t>&& wire) {
  if (c->closed) return;
  c->done.emplace(seq, std::move(wire));
  try_flush(c);
}

void Reactor::try_flush(const ConnPtr& c) {
  if (c->closed) return;
  // Promote completions that have reached their turn into the write
  // buffer — this is the fan-out point that restores per-connection order.
  for (auto it = c->done.begin();
       it != c->done.end() && it->first == c->next_send;) {
    c->wbuf.insert(c->wbuf.end(), it->second.begin(), it->second.end());
    it = c->done.erase(it);
    c->next_send += 1;
  }
  while (c->woff < c->wbuf.size()) {
    const auto hit = FSDL_FAILPOINT("reactor.send");
    ssize_t n;
    if (hit.kind == failpoint::HitKind::kErrno) {
      errno = hit.err;
      n = -1;
    } else {
      n = ::send(c->fd, c->wbuf.data() + c->woff,
                 hit.clamp(c->wbuf.size() - c->woff), MSG_NOSIGNAL);
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_conn(c);
      return;
    }
    c->woff += static_cast<std::size_t>(n);
  }
  if (c->woff >= c->wbuf.size()) {
    c->wbuf.clear();
    c->woff = 0;
    c->write_blocked_us = 0;
    if (c->close_after_flush && c->inflight == 0 && c->done.empty()) {
      close_conn(c);
      return;
    }
  } else {
    if (c->woff > (64u << 10)) {
      // Reclaim the consumed prefix so a long-lived slow reader does not
      // hold peak-sized buffers.
      c->wbuf.erase(c->wbuf.begin(),
                    c->wbuf.begin() + static_cast<std::ptrdiff_t>(c->woff));
      c->woff = 0;
    }
    if (c->write_blocked_us == 0) {
      c->write_blocked_us = now_us();
      if (owner_.transport_.send_timeout_ms > 0 && !c->write_timer_armed) {
        c->write_timer_armed = true;
        wheel_.schedule(
            {c->write_blocked_us +
                 owner_.transport_.send_timeout_ms * 1000ull,
             c->fd, c->id, kTimerWrite});
      }
    }
  }
  update_epoll(c);
}

void Reactor::update_epoll(const ConnPtr& c) {
  if (c->closed) return;
  const bool want_write = c->woff < c->wbuf.size();
  const std::size_t backlog = c->wbuf.size() - c->woff;
  bool pause_read = c->reading_paused;
  if (!pause_read && backlog >= kWriteHighWater) pause_read = true;
  if (pause_read && backlog <= kWriteLowWater) pause_read = false;
  if (c->peer_eof || c->close_after_flush) pause_read = true;
  if (want_write == c->want_write && pause_read == c->reading_paused) return;
  c->want_write = want_write;
  c->reading_paused = pause_read;
  epoll_event ev{};
  ev.events = (pause_read ? 0u : static_cast<std::uint32_t>(EPOLLIN)) |
              (want_write ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
  ev.data.fd = c->fd;
  ::epoll_ctl(epfd_, EPOLL_CTL_MOD, c->fd, &ev);
}

void Reactor::on_writable(const ConnPtr& c) { try_flush(c); }

void Reactor::on_timer(const TimerWheel::Entry& e) {
  auto it = conns_.find(e.fd);
  if (it == conns_.end() || it->second->id != e.conn_id) return;  // gone
  const ConnPtr& c = it->second;
  const std::uint64_t now = now_us();
  if (e.kind == kTimerRead) {
    const std::uint64_t due =
        c->last_read_us + owner_.transport_.recv_timeout_ms * 1000ull;
    // A connection waiting on its own responses is not idle — only evict
    // when nothing is in flight and nothing is queued toward the peer.
    const bool evictable =
        c->inflight == 0 && c->done.empty() && c->woff >= c->wbuf.size();
    if (due > now || !evictable) {
      wheel_.schedule({due > now ? due
                               : now + owner_.transport_.recv_timeout_ms *
                                           1000ull,
                       e.fd, e.conn_id, kTimerRead});
      return;
    }
    // The receive deadline fired. Whether the client is mid-frame
    // (slowloris) or simply idle, tell it why and evict.
    owner_.metrics_.record_failure(FailureCounter::kEvictions);
    c->read_timer_armed = false;
    respond_inline(c, error_response(c->framer.pending_bytes() > 0
                                         ? "receive deadline exceeded "
                                           "mid-frame"
                                         : "idle deadline exceeded",
                                     Status::kTimeout));
    c->close_after_flush = true;
    try_flush(c);
    return;
  }
  // Write deadline: only meaningful while the buffer is actually stuck.
  if (c->write_blocked_us == 0) {
    c->write_timer_armed = false;
    return;
  }
  const std::uint64_t due =
      c->write_blocked_us + owner_.transport_.send_timeout_ms * 1000ull;
  if (due > now) {
    wheel_.schedule({due, e.fd, e.conn_id, kTimerWrite});
    return;
  }
  // The peer stopped reading; nothing can be said to it — tear down.
  owner_.metrics_.record_failure(FailureCounter::kEvictions);
  close_conn(c);
}

}  // namespace fsdl::server
