// One epoll event loop of the FrameServer's reactor data plane.
//
// Ownership model: a Reactor owns its connections completely. Every field
// of Conn is read and written only on the reactor's thread; worker threads
// hold a shared_ptr<Conn> purely as an identity token to route completions
// back, never dereferencing it for mutable state. Cross-thread traffic
// goes through one mutex-protected mailbox (adopted fds, finished
// responses, leader completions) flushed after an eventfd wakeup — the
// only lock on the data path, held for a pointer swap.
//
// Responses can finish out of order (different pool jobs), but the wire is
// a sequential protocol: each decoded request gets a per-connection
// sequence number at admission, completions park in Conn::done until their
// turn, and the reactor alone appends to the write buffer — so a client
// always reads answers in the order it sent requests, coalesced or not.
//
// See frame_server.hpp for the architecture overview and the coalescing
// semantics; timer_wheel.hpp for how deadlines fire.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "server/protocol.hpp"
#include "server/timer_wheel.hpp"

namespace fsdl::server {

class FrameServer;

class Reactor {
 public:
  Reactor(FrameServer& owner, unsigned index);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Spawn the loop thread. `listen_fd` >= 0 makes this reactor the
  /// accepting one (reactor 0); others only receive adopted connections.
  void start(int listen_fd);

  /// Ask the loop to exit (close every connection, no further events) and
  /// join the thread. Completions posted afterwards are dropped safely.
  void stop_and_join();

  /// Hand a freshly accepted fd to this reactor (thread-safe).
  void adopt_fd(int fd);

  /// Wake the loop (thread-safe); used by drain/stop flips.
  void wake();

  /// Loop-iteration counter (thread-safe). The epoll timeout is capped
  /// (epoll_timeout_ms), so even an idle loop ticks this several times a
  /// second — a frozen value across a watchdog window means the loop
  /// thread is wedged, not idle.
  std::uint64_t heartbeat() const noexcept {
    return heartbeat_.load(std::memory_order_relaxed);
  }

 private:
  friend class FrameServer;

  struct Conn;
  using ConnPtr = std::shared_ptr<Conn>;

  /// A decoded, admitted request waiting for (or inside) a pool job.
  struct Pending {
    ConnPtr conn;
    std::uint64_t seq = 0;
    Request req;
  };

  /// A finished response travelling worker -> reactor.
  struct Completion {
    ConnPtr conn;
    std::uint64_t seq = 0;
    std::vector<std::uint8_t> wire;  // framed, ready for the socket
  };

  void loop();
  void handle_accept();
  void register_conn(int fd);
  void on_readable(const ConnPtr& c);
  void on_writable(const ConnPtr& c);
  void process_frames(const ConnPtr& c);
  void admit(const ConnPtr& c, Request&& req);
  /// Submit one request as its own pool job. A `leader_key` marks the
  /// fault-set leader, whose job posts a KeyDone when it finishes.
  void dispatch(Pending&& p, std::optional<std::uint64_t> leader_key);
  void run(Pending& p, std::optional<std::uint64_t> leader_key);
  /// Queue a locally produced response (shed/error/eviction) in order.
  void respond_inline(const ConnPtr& c, const Response& resp);
  void enqueue_response(const ConnPtr& c, std::uint64_t seq,
                        std::vector<std::uint8_t>&& wire);
  void try_flush(const ConnPtr& c);
  void update_epoll(const ConnPtr& c);
  void close_conn(const ConnPtr& c);
  void drain_mailbox();
  void on_timer(const TimerWheel::Entry& e);
  int epoll_timeout_ms() const;

  void post_completion(Completion&& comp);  // worker threads
  void post_key_done(std::uint64_t key);    // worker threads

  FrameServer& owner_;
  const unsigned index_;
  int epfd_ = -1;
  int eventfd_ = -1;
  int listen_fd_ = -1;  // loop-thread copy; -1 once the listener is gone
  std::uint64_t accept_paused_until_us_ = 0;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> heartbeat_{0};

  std::unordered_map<int, ConnPtr> conns_;
  TimerWheel wheel_;
  /// Fault-set keys whose leader is in flight, each with the same-key
  /// followers parked behind it (see frame_server.hpp).
  std::unordered_map<std::uint64_t, std::vector<Pending>> batches_;

  std::mutex mail_mu_;
  std::vector<int> mail_fds_;
  std::vector<Completion> mail_completions_;
  std::vector<std::uint64_t> mail_key_done_;
};

}  // namespace fsdl::server
