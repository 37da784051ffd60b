// Load generator, one client thread. The open loop sends each request at its
// due time and reads the replies in between; latency is measured from the
// due time, so a stall also charges the requests queued behind it. The
// closed loop keeps one request in flight per connection and measures the
// answers per second the server sustains.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <time.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace perfbench {

namespace fs = fsdl::server;

namespace {

/// Requests still unanswered this long after the last due time fail.
constexpr double kGraceSeconds = 10.0;
/// The generator spins (rather than sleeps) this close to a due time.
constexpr std::int64_t kSpinNs = 200'000;
constexpr std::size_t kMinWindowSamples = 1000;
constexpr std::size_t kMaxWindows = 5;
/// A closed loop's goodput skips this share of the phase (the ramp).
constexpr double kRampShare = 0.1;

class Socket {
 public:
  explicit Socket(std::uint16_t port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect() failed");
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  ~Socket() { ::close(fd_); }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  int fd() const { return fd_; }

 private:
  int fd_;
};

/// Runs the calling (client) thread under SCHED_FIFO while in scope, when
/// the process may: the users of an open loop are not on the server's CPUs,
/// so the client must not queue behind server threads for a time slice
/// before it sends or reads. Without the permission it stays as it was.
class ClientPriority {
 public:
  ClientPriority() {
    if (pthread_getschedparam(pthread_self(), &policy_, &param_) != 0) return;
    sched_param fifo{};
    fifo.sched_priority = 1;
    raised_ = pthread_setschedparam(pthread_self(), SCHED_FIFO, &fifo) == 0;
  }
  ~ClientPriority() {
    if (raised_) pthread_setschedparam(pthread_self(), policy_, &param_);
  }
  ClientPriority(const ClientPriority&) = delete;
  ClientPriority& operator=(const ClientPriority&) = delete;
  bool raised() const { return raised_; }

 private:
  int policy_ = SCHED_OTHER;
  sched_param param_{};
  bool raised_ = false;
};

bool send_all(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  // Nearest rank.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::max<std::size_t>(rank, 1) - 1];
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}


/// The client's connections. Each keeps the indices of its requests in
/// flight in send order: the server replies in per-connection order.
class Connections {
 public:
  Connections(std::uint16_t port, unsigned conns, PhaseRun& run)
      : run_(run), framers_(conns), flight_(conns), dead_(conns, false),
        pfds_(conns), buf_(1 << 16) {
    for (unsigned c = 0; c < conns; ++c) {
      socks_.push_back(std::make_unique<Socket>(port));
    }
  }

  /// Requests answered or failed so far.
  std::size_t settled() const { return settled_; }

  /// Send request i on connection c. On a dead connection it fails at once.
  void send(unsigned c, std::size_t i, const std::vector<std::uint8_t>& frame) {
    if (dead_[c]) {
      run_.outcome[i] = Outcome::kTransport;
      ++settled_;
      return;
    }
    flight_[c].push_back(i);
    // A failed send leaves the request to the connection's close or the
    // deadline, which settle it as a failure.
    send_all(socks_[c]->fd(), frame);
  }

  /// Wait up to `wait_ns` for replies and settle every one that arrived,
  /// calling `on_reply(c)` after each reply read on connection c.
  template <class F>
  void poll(std::int64_t wait_ns, F&& on_reply) {
    const unsigned conns = static_cast<unsigned>(socks_.size());
    for (unsigned c = 0; c < conns; ++c) {
      pfds_[c].fd = dead_[c] ? -1 : socks_[c]->fd();
      pfds_[c].events = POLLIN;
      pfds_[c].revents = 0;
    }
    const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                      static_cast<long>(wait_ns % 1'000'000'000)};
    if (::ppoll(pfds_.data(), conns, &ts, nullptr) <= 0) return;
    for (unsigned c = 0; c < conns; ++c) {
      if (!dead_[c] && (pfds_[c].revents & (POLLIN | POLLHUP | POLLERR))) {
        read(c, on_reply);
      }
    }
  }

 private:
  template <class F>
  void read(unsigned c, F&& on_reply) {
    const ssize_t got =
        ::recv(socks_[c]->fd(), buf_.data(), buf_.size(), MSG_DONTWAIT);
    if (got < 0 &&
        (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    }
    if (got <= 0) {
      fail(c);
      return;
    }
    const std::int64_t at = now_ns();
    framers_[c].feed(buf_.data(), static_cast<std::size_t>(got));
    while (!flight_[c].empty() && framers_[c].next(payload_)) {
      const std::size_t i = flight_[c].front();
      flight_[c].pop_front();
      ++settled_;
      run_.recv[i] = at;
      fs::Response resp;
      std::string error;
      if (!fs::decode_response(payload_.data(), payload_.size(), resp,
                               error)) {
        run_.outcome[i] = Outcome::kTransport;
      } else if (!resp.ok() || resp.distances.size() != 1) {
        run_.outcome[i] = Outcome::kStatus;
      } else {
        run_.outcome[i] = Outcome::kOk;
        run_.answer[i] = resp.distances[0];
      }
      on_reply(c);
    }
    if (framers_[c].fatal()) fail(c);
  }

  void fail(unsigned c) {
    dead_[c] = true;
    for (std::size_t i : flight_[c]) {
      run_.outcome[i] = Outcome::kTransport;
      ++settled_;
    }
    flight_[c].clear();
  }

  PhaseRun& run_;
  std::vector<std::unique_ptr<Socket>> socks_;
  std::vector<fs::Framer> framers_;
  std::vector<std::deque<std::size_t>> flight_;
  std::vector<bool> dead_;
  std::vector<pollfd> pfds_;
  std::vector<std::uint8_t> buf_;
  std::vector<std::uint8_t> payload_;
  std::size_t settled_ = 0;
};

PhaseRun new_run(std::size_t n, double rate, double seconds) {
  PhaseRun run;
  run.rate = rate;
  run.seconds = seconds;
  run.due.resize(n);
  run.sent.assign(n, 0);
  run.recv.assign(n, 0);
  run.outcome.assign(n, Outcome::kUnanswered);
  run.answer.assign(n, fsdl::kInfDist);
  return run;
}

}  // namespace

PhaseRun run_open_loop(std::uint16_t port,
                       const std::vector<std::vector<std::uint8_t>>& frames,
                       const std::vector<double>& offsets, double rate,
                       double seconds, unsigned conns) {
  const std::size_t n = offsets.size();
  PhaseRun run = new_run(n, rate, seconds);
  const ClientPriority priority;
  run.client_fifo = priority.raised();
  Connections net(port, conns, run);
  const std::int64_t t0 = now_ns() + 20'000'000;  // 20 ms to get going
  for (std::size_t i = 0; i < n; ++i) {
    run.due[i] = t0 + static_cast<std::int64_t>(offsets[i] * 1e9);
  }
  const std::int64_t deadline =
      t0 + static_cast<std::int64_t>((seconds + kGraceSeconds) * 1e9);

  // One thread sends each request when due over connection i % conns and,
  // in between, reads replies.
  std::size_t to_send = 0;
  while (net.settled() < n) {
    const std::int64_t now = now_ns();
    if (now > deadline) break;
    if (to_send < n && run.due[to_send] <= now) {
      run.sent[to_send] = now;
      net.send(static_cast<unsigned>(to_send % conns), to_send,
               frames[to_send]);
      ++to_send;
      continue;
    }
    // Wait for replies until just short of the next due time, then spin:
    // a sleeping thread wakes ~80 us late, which would count as latency.
    const std::int64_t wait = to_send < n ? run.due[to_send] - now - kSpinNs
                                          : std::int64_t{50'000'000};
    net.poll(std::max<std::int64_t>(wait, 0), [](unsigned) {});
  }
  return run;
}

PhaseRun run_closed_loop(std::uint16_t port,
                         const std::vector<std::vector<std::uint8_t>>& frames,
                         double seconds, unsigned conns) {
  const std::size_t n = frames.size();
  PhaseRun run = new_run(n, 0, seconds);
  run.closed = true;
  const ClientPriority priority;
  run.client_fifo = priority.raised();
  Connections net(port, conns, run);
  std::size_t next = 0;
  auto send_next = [&](unsigned c) {
    if (next >= n) {
      // Running dry would cap the goodput at the requests prepared.
      throw std::runtime_error("closed loop ran out of requests");
    }
    run.due[next] = run.sent[next] = now_ns();
    net.send(c, next, frames[next]);
    ++next;
  };
  run.start = now_ns();
  run.end = run.start + static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t deadline =
      run.end + static_cast<std::int64_t>(kGraceSeconds * 1e9);
  // Each connection keeps one request in flight: a reply read before the
  // end of the phase is followed at once by the next request.
  for (unsigned c = 0; c < conns; ++c) send_next(c);
  while (net.settled() < next && now_ns() <= deadline) {
    net.poll(50'000'000, [&](unsigned c) {
      if (now_ns() < run.end) send_next(c);
    });
  }
  // Only the requests sent belong to the phase.
  run.due.resize(next);
  run.sent.resize(next);
  run.recv.resize(next);
  run.outcome.resize(next);
  run.answer.resize(next);
  return run;
}

PhaseRun concat(const std::vector<const PhaseRun*>& runs) {
  PhaseRun out;
  for (const PhaseRun* r : runs) {
    out.client_fifo = out.client_fifo || r->client_fifo;
    out.seconds += r->seconds;
    out.due.insert(out.due.end(), r->due.begin(), r->due.end());
    out.sent.insert(out.sent.end(), r->sent.begin(), r->sent.end());
    out.recv.insert(out.recv.end(), r->recv.begin(), r->recv.end());
    out.outcome.insert(out.outcome.end(), r->outcome.begin(),
                       r->outcome.end());
    out.answer.insert(out.answer.end(), r->answer.begin(), r->answer.end());
  }
  return out;
}

PhaseStats summarize(const PhaseRun& run) {
  PhaseStats st;
  const std::size_t n = run.due.size();
  st.attempted = n;
  std::vector<double> lat;
  std::vector<double> lag;
  lat.reserve(n);
  lag.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (run.sent[i] != 0) {
      lag.push_back(static_cast<double>(run.sent[i] - run.due[i]) * 1e-6);
    }
    if (run.outcome[i] == Outcome::kOk) {
      lat.push_back(static_cast<double>(run.recv[i] - run.due[i]) * 1e-6);
    } else {
      ++st.failed;
      lat.push_back(std::numeric_limits<double>::infinity());
    }
  }
  // Latency percentiles: the median over up to kMaxWindows consecutive
  // windows of each window's percentile, so one stalled stretch of the run
  // moves one window, not the result. Windows keep >= kMinWindowSamples
  // samples, i.e. at least ten beyond each p99.
  st.windows = std::clamp<std::size_t>(n / kMinWindowSamples, 1, kMaxWindows);
  st.window_samples = n / st.windows;
  std::vector<double> p50s;
  std::vector<double>& p99s = st.window_p99_ms;
  for (std::size_t w = 0; w < st.windows; ++w) {
    const std::size_t lo = w * n / st.windows;
    const std::size_t hi = (w + 1) * n / st.windows;
    std::vector<double> part(lat.begin() + lo, lat.begin() + hi);
    std::sort(part.begin(), part.end());
    p50s.push_back(percentile(part, 0.50));
    p99s.push_back(percentile(part, 0.99));
  }
  st.p50_ms = median(p50s);
  st.p99_ms = median(p99s);
  const double per_window = static_cast<double>(st.window_samples);
  st.beyond_p99 = st.window_samples -
                  static_cast<std::size_t>(std::ceil(0.99 * per_window));
  std::sort(lag.begin(), lag.end());
  st.lag_p50_ms = percentile(lag, 0.50);
  st.lag_p99_ms = percentile(lag, 0.99);

  // Goodput of a closed loop: answers per second after the ramp.
  if (run.closed) {
    const std::int64_t from =
        run.start + static_cast<std::int64_t>(
                        kRampShare * static_cast<double>(run.end - run.start));
    std::size_t ok = 0;
    for (std::size_t i = 0; i < n; ++i) {
      ok += run.outcome[i] == Outcome::kOk && run.recv[i] >= from &&
            run.recv[i] < run.end;
    }
    st.goodput_qps =
        static_cast<double>(ok) * 1e9 / static_cast<double>(run.end - from);
  }
  return st;
}

}  // namespace perfbench
