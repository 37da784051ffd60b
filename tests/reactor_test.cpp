// Tests for the epoll reactor (server/reactor.*): frame reassembly across
// wakeups, pipelined response ordering, slow-reader write backpressure,
// timer-wheel deadline eviction, cross-request fault-set coalescing, and
// the watchdog's worker-wedge detection.
// Real sockets throughout; gates (not sleeps) wherever an ordering is
// load-bearing.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/labeling.hpp"
#include "core/oracle.hpp"
#include "graph/generators.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "server/timer_wheel.hpp"

namespace fsdl {
namespace {

/// Blocks DIST handling on a gate until release(): pins requests in
/// flight so admission/coalescing states are reached deterministically.
/// Also records how many DIST calls were inside handle() at once.
class GatedServer : public server::Server {
 public:
  GatedServer(const ForbiddenSetOracle& oracle,
              const server::ServerOptions& options)
      : server::Server(oracle, options) {}

  server::Response handle(const server::Request& req) override {
    if (req.opcode != server::Opcode::kDist) {
      return server::Server::handle(req);
    }
    entered_.fetch_add(1);
    const int inside = inside_.fetch_add(1) + 1;
    int peak = peak_inside_.load();
    while (peak < inside && !peak_inside_.compare_exchange_weak(peak, inside)) {
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return open_ || passes_ > 0; });
      if (!open_) --passes_;
    }
    server::Response resp = server::Server::handle(req);
    inside_.fetch_sub(1);
    return resp;
  }

  void wait_entered(int n) {
    while (entered_.load() < n) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  /// wait_entered() that gives up after `limit`; true if `n` entered.
  bool wait_entered_for(int n, std::chrono::milliseconds limit) {
    const auto give_up = std::chrono::steady_clock::now() + limit;
    while (entered_.load() < n) {
      if (std::chrono::steady_clock::now() >= give_up) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }

  /// Let exactly one gated call through; the gate stays shut for the rest.
  void release_one() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      passes_ += 1;
    }
    cv_.notify_all();
  }

  void release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

  /// Most DIST calls ever inside handle() at the same time.
  int peak_inside() const { return peak_inside_.load(); }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
  int passes_ = 0;
  std::atomic<int> entered_{0};
  std::atomic<int> inside_{0};
  std::atomic<int> peak_inside_{0};
};

/// Answers every DIST with a fixed-size payload — cheap to produce, big
/// enough that a handful of responses overwhelm kernel socket buffers and
/// exercise the reactor's user-space write queue.
class BigResponseServer : public server::Server {
 public:
  static constexpr std::size_t kTextBytes = 1u << 20;  // 1 MiB

  BigResponseServer(const ForbiddenSetOracle& oracle,
                    const server::ServerOptions& options)
      : server::Server(oracle, options) {}

  server::Response handle(const server::Request& req) override {
    if (req.opcode == server::Opcode::kDist) {
      server::Response resp;
      resp.status = server::Status::kOk;
      resp.text.assign(kTextBytes, 'x');
      return resp;
    }
    return server::Server::handle(req);
  }
};

class ReactorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = make_grid2d(6, 6);
    scheme_ = std::make_unique<ForbiddenSetLabeling>(
        ForbiddenSetLabeling::build(graph_, SchemeParams::faithful(1.0)));
    oracle_ = std::make_unique<ForbiddenSetOracle>(*scheme_);
  }

  static server::Request dist_request(Vertex s, Vertex t) {
    server::Request req;
    req.opcode = server::Opcode::kDist;
    req.pairs.emplace_back(s, t);
    return req;
  }

  static server::Client connect_to(const server::FrameServer& srv,
                                   const server::ClientOptions& copt = {}) {
    server::Client c(copt);
    c.connect("127.0.0.1", srv.port());
    return c;
  }

  Graph graph_;
  std::unique_ptr<ForbiddenSetLabeling> scheme_;
  std::unique_ptr<ForbiddenSetOracle> oracle_;
};

TEST_F(ReactorTest, PartialFramesAcrossWakeupsReassemble) {
  server::Server srv(*oracle_, server::ServerOptions{});
  srv.start();
  auto client = connect_to(srv);

  // One frame dribbled in three chunks, each a separate readiness event.
  const auto wire = server::frame(encode_request(dist_request(0, 1)));
  const std::size_t third = wire.size() / 3;
  client.send_raw(wire.data(), third);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  client.send_raw(wire.data() + third, third);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  client.send_raw(wire.data() + 2 * third, wire.size() - 2 * third);
  const auto resp = client.read_response();
  ASSERT_TRUE(resp.ok()) << resp.text;
  ASSERT_EQ(resp.distances.size(), 1u);
  EXPECT_EQ(resp.distances[0], 1u);
  srv.stop();
}

TEST_F(ReactorTest, PipelinedRequestsAnswerInOrder) {
  server::Server srv(*oracle_, server::ServerOptions{});
  srv.start();
  auto client = connect_to(srv);

  // 16 requests in one burst, including two frames glued into one write —
  // responses must come back 1:1 in submission order even though pool
  // jobs finish in any order.
  std::vector<std::uint8_t> burst;
  const unsigned kRequests = 16;
  for (unsigned k = 0; k < kRequests; ++k) {
    const auto wire = server::frame(
        encode_request(dist_request(0, static_cast<Vertex>(k))));
    burst.insert(burst.end(), wire.begin(), wire.end());
  }
  client.send_raw(burst.data(), burst.size());
  for (unsigned k = 0; k < kRequests; ++k) {
    const auto resp = client.read_response();
    ASSERT_TRUE(resp.ok()) << resp.text;
    ASSERT_EQ(resp.distances.size(), 1u);
    // Grid row 0: d(0, k) = k for k < 6.
    const Dist expect =
        oracle_->distance(0, static_cast<Vertex>(k), FaultSet{});
    EXPECT_EQ(resp.distances[0], expect) << "request " << k;
  }
  srv.stop();
}

TEST_F(ReactorTest, SlowReaderBackpressureDeliversEveryByte) {
  server::ServerOptions options;
  BigResponseServer srv(*oracle_, options);
  srv.start();
  server::ClientOptions copt;
  copt.recv_timeout_ms = 10000;
  auto client = connect_to(srv, copt);

  // 24 MiB of responses against a reader that only starts consuming after
  // everything is submitted — more than loopback socket buffers absorb, so
  // the reactor must park responses in its write queue, pause reading at
  // the high-water mark, and resume — without dropping, reordering, or
  // corrupting a byte.
  const unsigned kRequests = 24;
  for (unsigned k = 0; k < kRequests; ++k) {
    const auto wire = server::frame(
        encode_request(dist_request(0, static_cast<Vertex>(k))));
    client.send_raw(wire.data(), wire.size());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (unsigned k = 0; k < kRequests; ++k) {
    const auto resp = client.read_response();
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp.text.size(), BigResponseServer::kTextBytes)
        << "response " << k;
  }
  srv.stop();
}

TEST_F(ReactorTest, StalledReaderEvictedAfterWriteDeadline) {
  server::ServerOptions options;
  options.send_timeout_ms = 150;
  BigResponseServer srv(*oracle_, options);
  srv.start();
  server::ClientOptions copt;
  copt.recv_timeout_ms = 2000;
  auto client = connect_to(srv, copt);

  // Ask for far more than the kernel will buffer and then never read: the
  // write queue stalls, the timer wheel fires the send deadline, and the
  // connection is torn down instead of pinning megabytes forever.
  const unsigned kRequests = 24;
  for (unsigned k = 0; k < kRequests; ++k) {
    const auto wire = server::frame(
        encode_request(dist_request(0, static_cast<Vertex>(k))));
    client.send_raw(wire.data(), wire.size());
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (srv.metrics().failure_total(server::FailureCounter::kEvictions) ==
             0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(srv.metrics().failure_total(server::FailureCounter::kEvictions),
            1u);
  // Draining what the kernel already buffered eventually hits the close.
  EXPECT_THROW(
      {
        for (unsigned k = 0; k < kRequests; ++k) (void)client.read_response();
      },
      std::runtime_error);
  srv.stop();
}

TEST_F(ReactorTest, ConnectionAwaitingResponseIsNotIdle) {
  server::ServerOptions options;
  options.recv_timeout_ms = 100;
  GatedServer srv(*oracle_, options);
  srv.start();
  auto client = connect_to(srv);

  // The request sits gated well past the receive deadline: the timer fires
  // but must reschedule, not evict, while a response is owed.
  const auto wire = server::frame(encode_request(dist_request(0, 1)));
  client.send_raw(wire.data(), wire.size());
  std::this_thread::sleep_for(std::chrono::milliseconds(350));
  srv.release();
  const auto resp = client.read_response();
  ASSERT_TRUE(resp.ok()) << resp.text;
  EXPECT_EQ(resp.distances[0], 1u);

  // Now genuinely idle: the same wheel entry evicts with the idle message.
  const auto evicted = client.read_response();
  EXPECT_EQ(evicted.status, server::Status::kTimeout);
  EXPECT_NE(evicted.text.find("idle deadline"), std::string::npos)
      << evicted.text;
  EXPECT_THROW(client.read_response(), std::runtime_error);
  srv.stop();
}

TEST_F(ReactorTest, MultiReactorServesAndEvictsIdlers) {
  server::ServerOptions options;
  options.reactor_threads = 2;
  options.recv_timeout_ms = 100;
  server::Server srv(*oracle_, options);
  srv.start();

  // Round-robin placement lands these on both loops; each must serve.
  std::vector<server::Client> clients;
  for (int k = 0; k < 4; ++k) {
    clients.push_back(connect_to(srv));
    EXPECT_EQ(clients.back().dist(0, 1, FaultSet{}), 1u);
  }
  // Then all four go silent and every loop's wheel reaps its own.
  for (auto& c : clients) {
    const auto resp = c.read_response();
    EXPECT_EQ(resp.status, server::Status::kTimeout);
  }
  EXPECT_GE(srv.metrics().failure_total(server::FailureCounter::kEvictions),
            4u);
  srv.stop();
}

TEST_F(ReactorTest, SameKeyRequestsCoalesceIntoOneBatch) {
  server::ServerOptions options;
  options.workers = 4;
  options.reactor_threads = 1;
  GatedServer srv(*oracle_, options);
  srv.start();

  FaultSet faults;
  faults.add_vertex(7);

  // Leader: enters handle() and sits on the gate with the prepare pending.
  std::thread leader([&] {
    auto c = connect_to(srv);
    EXPECT_EQ(c.dist(0, 1, faults), oracle_->distance(0, 1, faults));
  });
  srv.wait_entered(1);

  // Three same-key followers arrive while the leader is in flight: they
  // must park, not dispatch.
  std::vector<std::thread> followers;
  for (int k = 0; k < 3; ++k) {
    followers.emplace_back([&, k] {
      auto c = connect_to(srv);
      const Vertex t = static_cast<Vertex>(2 + k);
      EXPECT_EQ(c.dist(0, t, faults), oracle_->distance(0, t, faults));
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_EQ(srv.peak_inside(), 1) << "a follower dispatched before KeyDone";

  // Only the leader passes. Its KeyDone releases the followers, each as its
  // own pool job: with 4 workers they reach the shut gate side by side.
  srv.release_one();
  EXPECT_TRUE(srv.wait_entered_for(4, std::chrono::seconds(5)))
      << "followers did not run concurrently";
  srv.release();
  leader.join();
  for (auto& t : followers) t.join();
  EXPECT_GE(srv.peak_inside(), 2);

  // One leader group of 1 + one follower group of 3; the fault set was
  // prepared exactly once (followers are cache hits by construction).
  EXPECT_EQ(srv.metrics().batch_groups(), 2u);
  EXPECT_EQ(srv.metrics().batched_requests(), 4u);
  const auto cache = srv.cache_stats();
  EXPECT_EQ(cache.misses, 1u);
  EXPECT_EQ(cache.hits, 3u);
  srv.stop();
}

TEST_F(ReactorTest, WatchdogCountsWorkerWedgeAndFlipsHealthDegraded) {
  // Wedge the worker pool for real: one held DIST pins the only worker, and
  // a second DIST with no faults (not coalescable, so it is its own pool
  // job) waits in the queue — every worker busy, work queued, zero jobs
  // retiring. That is the watchdog's wedge signature; saturation alone
  // (busy workers, empty queue) must never trip it.
  server::ServerOptions options;
  options.workers = 1;
  options.watchdog_interval_ms = 10;
  options.watchdog_stall_ms = 60;
  GatedServer srv(*oracle_, options);
  srv.start();

  const auto wire = server::frame(encode_request(dist_request(0, 1)));
  auto held = connect_to(srv);
  held.send_raw(wire.data(), wire.size());
  srv.wait_entered(1);
  auto queued = connect_to(srv);
  queued.send_raw(wire.data(), wire.size());

  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!srv.watchdog_degraded() &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(srv.watchdog_degraded()) << "watchdog never saw the wedge";
  EXPECT_GE(srv.metrics().worker_stalls(), 1u);
  EXPECT_EQ(srv.health_text().rfind("degraded", 0), 0u) << srv.health_text();

  // Unwedge: the held request answers, the worker takes the queued one,
  // and the watchdog walks HEALTH back to ready.
  srv.release();
  EXPECT_TRUE(held.read_response().ok());
  EXPECT_TRUE(queued.read_response().ok());
  while (srv.watchdog_degraded() &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_FALSE(srv.watchdog_degraded());
  EXPECT_EQ(srv.health_text().rfind("ready", 0), 0u) << srv.health_text();
  srv.stop();
}

TEST(TimerWheelTest, FiresDueEntriesAndKeepsFutureOnes) {
  server::TimerWheel wheel;
  wheel.anchor(1'000'000);
  wheel.schedule({1'004'000, 3, 30, 0});   // +4ms
  wheel.schedule({1'050'000, 4, 40, 0});   // +50ms
  wheel.schedule({3'000'000, 5, 50, 1});   // +2s (a future wheel cycle)
  EXPECT_EQ(wheel.size(), 3u);

  std::vector<int> fired;
  wheel.advance(1'010'000, [&](const server::TimerWheel::Entry& e) {
    fired.push_back(e.fd);
  });
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 3);
  EXPECT_EQ(wheel.size(), 2u);

  wheel.advance(1'060'000, [&](const server::TimerWheel::Entry& e) {
    fired.push_back(e.fd);
  });
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[1], 4);

  // The far-future entry survives a full rotation's worth of advancing in
  // steps and fires only once its time actually comes.
  std::uint64_t now = 1'060'000;
  while (now < 2'900'000) {
    now += 50'000;
    wheel.advance(now, [&](const server::TimerWheel::Entry& e) {
      fired.push_back(e.fd);
    });
  }
  EXPECT_EQ(fired.size(), 2u);
  wheel.advance(3'010'000, [&](const server::TimerWheel::Entry& e) {
    fired.push_back(e.fd);
  });
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[2], 5);
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheelTest, LongHorizonEntrySurvivesManyRotations) {
  // Default wheel span is slot_us * slots = 2ms * 512 ≈ 1.02s; a 10s
  // deadline parks in its slot for ~10 full rotations. Every visit before
  // the stamped due time must keep the entry, not fire or drop it.
  server::TimerWheel wheel;
  wheel.anchor(1'000'000);
  const std::uint64_t due = 1'000'000 + 10'000'000;
  wheel.schedule({due, 7, 70, 0});
  std::vector<int> fired;
  const auto fire = [&](const server::TimerWheel::Entry& e) {
    fired.push_back(e.fd);
  };
  std::uint64_t now = 1'000'000;
  while (now + 30'000 < due) {
    now += 30'000;
    wheel.advance(now, fire);
    ASSERT_TRUE(fired.empty()) << "fired " << (due - now) << "us early";
  }
  EXPECT_EQ(wheel.size(), 1u);
  wheel.advance(due + wheel.slot_us(), fire);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 7);
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheelTest, SharedSlotWraparoundSeparatesCycles) {
  // Tiny wheel (1ms slots, 8 slots = 8ms span): two entries exactly one
  // rotation apart hash to the same slot. The first visit fires only the
  // due one; the later-cycle entry stays parked until the wheel wraps
  // around to its slot again with its time actually passed.
  server::TimerWheel wheel(1'000, 8);
  wheel.anchor(100'000);
  wheel.schedule({103'000, 1, 10, 0});
  wheel.schedule({111'000, 2, 20, 0});  // same slot, next cycle
  std::vector<int> fired;
  const auto fire = [&](const server::TimerWheel::Entry& e) {
    fired.push_back(e.fd);
  };
  wheel.advance(103'500, fire);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 1);
  EXPECT_EQ(wheel.size(), 1u);
  wheel.advance(110'000, fire);  // sweeps 7 slots, not the shared one again
  EXPECT_EQ(fired.size(), 1u);
  wheel.advance(111'500, fire);  // the wrap lands back on the shared slot
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[1], 2);
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheelTest, GiantAdvanceVisitsEverySlotOnce) {
  // One advance() jumping hundreds of rotations must still fire everything
  // due — the sweep clamps to a single rotation (each slot visited once),
  // which is exactly enough.
  server::TimerWheel wheel(1'000, 8);
  wheel.anchor(100'000);
  wheel.schedule({101'000, 1, 10, 0});
  wheel.schedule({105'000, 2, 20, 0});
  wheel.schedule({107'000, 3, 30, 0});
  std::vector<int> fired;
  wheel.advance(1'000'000, [&](const server::TimerWheel::Entry& e) {
    fired.push_back(e.fd);
  });
  EXPECT_EQ(fired.size(), 3u);
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheelTest, NextTickTracksEarliestEntry) {
  server::TimerWheel wheel;
  wheel.anchor(0);
  EXPECT_TRUE(wheel.empty());
  wheel.schedule({10'000, 1, 10, 0});
  const std::uint64_t tick = wheel.next_tick_us();
  // Lazy wheel: the hint may be early (the slot's window start), never
  // pointlessly late.
  EXPECT_LE(tick, 10'000u);
  EXPECT_GT(tick, 0u);
}

}  // namespace
}  // namespace fsdl
