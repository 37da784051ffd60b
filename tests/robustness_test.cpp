// Hardening tests for the serving stack: per-connection deadlines evict
// slowloris/idle clients with TIMEOUT, admission control sheds with
// OVERLOADED, drain answers late frames with DRAINING, request deadlines
// bound compute, frame corruption is connection-fatal with a checksum
// error, and the client's retry policy rides out all of it. Real sockets
// throughout, deterministic orchestration (no sleeps standing in for
// synchronization except where a deadline firing *is* the event under
// test).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/labeling.hpp"
#include "core/oracle.hpp"
#include "graph/generators.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "util/thread_pool.hpp"

namespace fsdl {
namespace {

/// A server whose DIST handling blocks on a gate until release(): lets
/// tests pin a request "in flight" deterministically, instead of racing a
/// real query's (microsecond) duration against admission control.
class GatedServer : public server::Server {
 public:
  GatedServer(const ForbiddenSetOracle& oracle,
              const server::ServerOptions& options)
      : server::Server(oracle, options) {}

  server::Response handle(const server::Request& req) override {
    if (req.opcode == server::Opcode::kDist) {
      entered_.fetch_add(1);
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return open_; });
    }
    return server::Server::handle(req);
  }

  /// Block until `n` DIST requests have entered handle() (i.e. hold
  /// admission slots and sit on the gate).
  void wait_entered(int n) {
    while (entered_.load() < n) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  void release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
  std::atomic<int> entered_{0};
};

class RobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = make_grid2d(6, 6);
    scheme_ = std::make_unique<ForbiddenSetLabeling>(
        ForbiddenSetLabeling::build(graph_, SchemeParams::faithful(1.0)));
    oracle_ = std::make_unique<ForbiddenSetOracle>(*scheme_);
  }

  void TearDown() override {
    if (server_) server_->stop();
  }

  server::Server& start_server(const server::ServerOptions& options) {
    server_ = std::make_unique<server::Server>(*oracle_, options);
    server_->start();
    return *server_;
  }

  server::Client connect(const server::ClientOptions& copt = {}) {
    server::Client c(copt);
    c.connect("127.0.0.1", server_->port());
    return c;
  }

  static server::Request dist_request(Vertex s, Vertex t) {
    server::Request req;
    req.opcode = server::Opcode::kDist;
    req.pairs.emplace_back(s, t);
    return req;
  }

  Graph graph_;
  std::unique_ptr<ForbiddenSetLabeling> scheme_;
  std::unique_ptr<ForbiddenSetOracle> oracle_;
  std::unique_ptr<server::Server> server_;
};

TEST_F(RobustnessTest, IdleConnectionEvictedWithTimeout) {
  server::ServerOptions options;
  options.workers = 2;
  options.recv_timeout_ms = 100;
  start_server(options);
  auto client = connect();
  // Send nothing; the idle reaper must reply TIMEOUT and close.
  const auto resp = client.read_response();
  EXPECT_EQ(resp.status, server::Status::kTimeout);
  EXPECT_NE(resp.text.find("idle deadline"), std::string::npos) << resp.text;
  EXPECT_THROW(client.read_response(), std::runtime_error);
  EXPECT_GE(server_->metrics().failure_total(server::FailureCounter::kEvictions),
            1u);
}

TEST_F(RobustnessTest, SlowlorisEvictedMidFrame) {
  server::ServerOptions options;
  options.workers = 2;
  options.recv_timeout_ms = 100;
  start_server(options);
  auto client = connect();
  // Half a frame, then stall: classic slowloris. The server must not wait
  // forever for the rest.
  const auto wire = server::frame(encode_request(dist_request(0, 35)));
  client.send_raw(wire.data(), wire.size() / 2);
  const auto resp = client.read_response();
  EXPECT_EQ(resp.status, server::Status::kTimeout);
  EXPECT_NE(resp.text.find("mid-frame"), std::string::npos) << resp.text;
  EXPECT_THROW(client.read_response(), std::runtime_error);
}

TEST_F(RobustnessTest, SaturatedPoolShedsRequestButKeepsConnection) {
  // workers=1, max_queued=0: exactly one request admitted at a time. The
  // server sheds per *request* — an OVERLOADED reply — and the connection
  // itself survives to try again.
  server::ServerOptions options;
  options.workers = 1;
  options.max_queued_requests = 0;
  GatedServer srv(*oracle_, options);
  srv.start();

  // Pin the only admission slot: a DIST that has entered handle() and sits
  // on the gate.
  server::Client holder;
  holder.connect("127.0.0.1", srv.port());
  std::thread pinned([&holder] {
    EXPECT_EQ(holder.dist(0, 0, FaultSet{}), 0u);
  });
  srv.wait_entered(1);

  // A second connection's request must be shed synchronously with
  // OVERLOADED — and only the request, not the connection.
  server::Client shed;
  shed.connect("127.0.0.1", srv.port());
  const auto wire = server::frame(encode_request(dist_request(0, 35)));
  shed.send_raw(wire.data(), wire.size());
  const auto resp = shed.read_response();
  EXPECT_EQ(resp.status, server::Status::kOverloaded);
  EXPECT_NE(resp.text.find("overloaded"), std::string::npos) << resp.text;
  EXPECT_GE(srv.metrics().failure_total(server::FailureCounter::kSheds), 1u);

  // Freeing the slot restores service on the SAME shed connection: the
  // socket was never closed.
  srv.release();
  pinned.join();
  EXPECT_EQ(shed.dist(0, 1, FaultSet{}), 1u);
  srv.stop();
}

TEST_F(RobustnessTest, ClientRetriesThroughOverloadUntilSlotFrees) {
  server::ServerOptions options;
  options.workers = 1;
  options.max_queued_requests = 0;
  GatedServer srv(*oracle_, options);
  srv.start();

  server::Client holder;
  holder.connect("127.0.0.1", srv.port());
  std::thread pinned([&holder] {
    EXPECT_EQ(holder.dist(0, 0, FaultSet{}), 0u);
  });
  srv.wait_entered(1);

  // Open the gate after ~150 ms; the retrying client must land a
  // successful query once the slot frees, having seen OVERLOADED first.
  std::thread releaser([&srv] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    srv.release();
  });

  server::ClientOptions copt;
  copt.max_retries = 20;
  copt.retry_base_ms = 20;
  copt.retry_max_ms = 100;
  copt.retry_seed = 11;
  server::Client retrier(copt);
  retrier.connect("127.0.0.1", srv.port());
  EXPECT_EQ(retrier.dist(0, 1, FaultSet{}), 1u);
  EXPECT_GE(retrier.retries(), 1u);
  EXPECT_GE(retrier.sheds_seen(), 1u);
  releaser.join();
  pinned.join();
  srv.stop();
}

TEST_F(RobustnessTest, RequestDeadlineReturnsTimeoutNotPartialBatch) {
  server::ServerOptions options;
  options.request_deadline_ms = 1e-4;  // 0.1 us: every batch blows it
  server::Server srv(*oracle_, options);  // handle() needs no sockets

  server::Request batch;
  batch.opcode = server::Opcode::kBatch;
  for (Vertex k = 0; k < 32; ++k) batch.pairs.emplace_back(0, k);
  const auto resp = srv.handle(batch);
  EXPECT_EQ(resp.status, server::Status::kTimeout);
  EXPECT_TRUE(resp.distances.empty());  // all-or-nothing, never partial
  EXPECT_NE(resp.text.find("deadline"), std::string::npos) << resp.text;
  EXPECT_EQ(
      srv.metrics().failure_total(server::FailureCounter::kRequestTimeouts),
      1u);

  // Without the deadline the same batch is served in full.
  server::Server unbounded(*oracle_, server::ServerOptions{});
  const auto full = unbounded.handle(batch);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.distances.size(), batch.pairs.size());
}

TEST_F(RobustnessTest, CorruptedFrameGetsChecksumErrorThenClose) {
  server::ServerOptions options;
  options.workers = 2;
  start_server(options);
  auto client = connect();

  auto wire = server::frame(encode_request(dist_request(0, 35)));
  wire[server::kFrameHeaderBytes + 2] ^= 0x40;  // flip one payload bit
  client.send_raw(wire.data(), wire.size());
  const auto resp = client.read_response();
  EXPECT_EQ(resp.status, server::Status::kError);
  EXPECT_NE(resp.text.find("checksum"), std::string::npos) << resp.text;
  // The stream is unsyncable; the server must close, not guess.
  EXPECT_THROW(client.read_response(), std::runtime_error);
  EXPECT_GE(
      server_->metrics().failure_total(server::FailureCounter::kFrameCrcErrors),
      1u);

  // A fresh connection is unaffected.
  auto fresh = connect();
  EXPECT_EQ(fresh.dist(0, 1, FaultSet{}), 1u);
}

TEST_F(RobustnessTest, DrainAnswersLateFramesWithDrainingAndStopsAccepting) {
  server::ServerOptions options;
  options.workers = 2;
  options.drain_deadline_ms = 500;
  start_server(options);
  auto client = connect();
  EXPECT_EQ(client.dist(0, 1, FaultSet{}), 1u);

  server_->begin_drain();
  EXPECT_TRUE(server_->draining());

  // A frame sent after the flip is refused with DRAINING (retryable status:
  // a well-behaved client reconnects elsewhere).
  const auto wire = server::frame(encode_request(dist_request(0, 35)));
  client.send_raw(wire.data(), wire.size());
  const auto resp = client.read_response();
  EXPECT_EQ(resp.status, server::Status::kDraining);
  EXPECT_GE(
      server_->metrics().failure_total(server::FailureCounter::kDrainRejects),
      1u);

  // The listener is gone: no new connections.
  server::Client late;
  EXPECT_THROW(late.connect("127.0.0.1", server_->port()),
               std::runtime_error);

  server_->stop();  // idempotent with the drain already begun
}

TEST_F(RobustnessTest, UnboundedPoolKeepsHistoricalBehavior) {
  ThreadPool pool(1);  // the queue never refuses live work
  std::atomic<bool> release{false};
  std::atomic<int> ran{0};
  ASSERT_TRUE(pool.submit([&] {
    while (!release.load()) std::this_thread::sleep_for(
        std::chrono::milliseconds(1));
    ran.fetch_add(1);
  }));
  for (int k = 0; k < 64; ++k) {
    ASSERT_TRUE(pool.submit([&] { ran.fetch_add(1); }));
  }
  release.store(true);
  pool.shutdown();
  EXPECT_EQ(ran.load(), 65);
}

TEST_F(RobustnessTest, RestartAfterStopServes) {
  server::ServerOptions options;
  options.workers = 2;
  options.drain_deadline_ms = 200;
  start_server(options);
  {
    auto client = connect();
    EXPECT_EQ(client.dist(0, 1, FaultSet{}), 1u);
  }
  server_->stop();

  // A second server over the same oracle starts cleanly (stop released the
  // port and reset drain state).
  server::Server second(*oracle_, options);
  second.start();
  EXPECT_FALSE(second.draining());
  server::Client c;
  c.connect("127.0.0.1", second.port());
  EXPECT_EQ(c.dist(0, 1, FaultSet{}), 1u);
  second.stop();
}

}  // namespace
}  // namespace fsdl
