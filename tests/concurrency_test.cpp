// Concurrent decoding: one shared read-only ForbiddenSetOracle hammered
// from N threads with mixed fault sets must produce exactly the answers of
// a single-threaded decoder. Run under TSAN in CI — these tests are the
// gate for the oracle's lock-free label cache, the sharded PreparedFaults
// LRU, and the thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/labeling.hpp"
#include "core/oracle.hpp"
#include "graph/fault_view.hpp"
#include "graph/generators.hpp"
#include "server/metrics.hpp"
#include "server/prepared_cache.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace fsdl {
namespace {

struct Workload {
  Vertex s, t;
  std::size_t fault_idx;
};

class ConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = make_grid2d(9, 9);
    scheme_ = std::make_unique<ForbiddenSetLabeling>(
        ForbiddenSetLabeling::build(graph_, SchemeParams::faithful(1.0)));
    oracle_ = std::make_unique<ForbiddenSetOracle>(*scheme_);

    Rng rng(0xFEED);
    for (int k = 0; k < 6; ++k) {
      FaultSet f;
      while (f.size() < 3) {
        if (rng.chance(0.3)) {
          const Vertex a = rng.vertex(graph_.num_vertices());
          const auto nb = graph_.neighbors(a);
          if (!nb.empty()) f.add_edge(a, nb[rng.below(nb.size())]);
        } else {
          f.add_vertex(rng.vertex(graph_.num_vertices()));
        }
      }
      fault_sets_.push_back(std::move(f));
    }
    for (int k = 0; k < 400; ++k) {
      queries_.push_back(Workload{rng.vertex(graph_.num_vertices()),
                                  rng.vertex(graph_.num_vertices()),
                                  rng.below(fault_sets_.size())});
    }
  }

  Graph graph_;
  std::unique_ptr<ForbiddenSetLabeling> scheme_;
  std::unique_ptr<ForbiddenSetOracle> oracle_;
  std::vector<FaultSet> fault_sets_;
  std::vector<Workload> queries_;
};

TEST_F(ConcurrencyTest, SharedOracleMatchesSingleThreadedDecoder) {
  // Reference answers from a fresh single-threaded oracle (separate label
  // cache, same scheme).
  const ForbiddenSetOracle reference(*scheme_);
  std::vector<Dist> expected;
  expected.reserve(queries_.size());
  for (const auto& q : queries_) {
    expected.push_back(reference.distance(q.s, q.t, fault_sets_[q.fault_idx]));
  }

  constexpr unsigned kThreads = 8;
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (unsigned tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      // Each thread walks the whole workload from a different offset, so
      // label-cache publication races are actually exercised.
      for (std::size_t k = 0; k < queries_.size(); ++k) {
        const std::size_t j = (k + tid * 17) % queries_.size();
        const auto& q = queries_[j];
        const Dist got =
            oracle_->distance(q.s, q.t, fault_sets_[q.fault_idx]);
        if (got != expected[j]) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST_F(ConcurrencyTest, PreparedCacheSharedAcrossThreadsIsConsistent) {
  server::PreparedCache cache(*oracle_, /*capacity=*/4, /*shards=*/2);
  const ForbiddenSetOracle reference(*scheme_);
  std::vector<Dist> expected;
  for (const auto& q : queries_) {
    expected.push_back(reference.distance(q.s, q.t, fault_sets_[q.fault_idx]));
  }

  constexpr unsigned kThreads = 8;
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (unsigned tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      for (std::size_t k = 0; k < queries_.size(); ++k) {
        const std::size_t j = (k * 13 + tid) % queries_.size();
        const auto& q = queries_[j];
        const auto prepared = cache.get(fault_sets_[q.fault_idx]);
        const Dist got =
            prepared->query(oracle_->label(q.s), oracle_->label(q.t)).distance;
        if (got != expected[j]) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0u);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads) * queries_.size());
  // 6 fault sets cycle through capacity 4: hits must dominate and entries
  // never exceed capacity.
  EXPECT_GT(stats.hits, stats.misses);
  EXPECT_LE(stats.entries, 4u);
}

TEST_F(ConcurrencyTest, PreparedCacheEvictsLeastRecentlyUsed) {
  server::PreparedCache cache(*oracle_, /*capacity=*/2, /*shards=*/1);
  cache.get(fault_sets_[0]);
  cache.get(fault_sets_[1]);
  cache.get(fault_sets_[0]);  // refresh 0 -> LRU order is [0, 1]
  cache.get(fault_sets_[2]);  // evicts 1
  auto s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  cache.get(fault_sets_[0]);  // still cached
  s = cache.stats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.evictions, 1u);
}

TEST_F(ConcurrencyTest, CanonicalKeyIsOrderIndependent) {
  FaultSet a, b;
  a.add_vertex(5);
  a.add_vertex(11);
  a.add_edge(3, 7);
  b.add_edge(7, 3);
  b.add_vertex(11);
  b.add_vertex(5);
  EXPECT_EQ(server::canonical_key(a), server::canonical_key(b));
  EXPECT_EQ(server::fault_hash(server::canonical_key(a)),
            server::fault_hash(server::canonical_key(b)));

  // A vertex fault and an edge fault must not collide structurally.
  FaultSet v_only, e_only;
  v_only.add_vertex(1);
  e_only.add_edge(0, 1);
  EXPECT_FALSE(server::canonical_key(v_only) == server::canonical_key(e_only));
}

TEST(MetricsTest, ConcurrentRecordingAcrossStripes) {
  // The latency histograms are striped per request type: threads recording
  // different types must never contend on one lock, and threads sharing a
  // type must still merge losslessly. Hammer all four stripes plus the
  // atomic counters and stage totals while a reader renders snapshots
  // mid-flight (TSAN covers the data-race side; the sums cover atomicity).
  server::Metrics metrics;
  constexpr unsigned kThreads = 8;
  constexpr std::uint64_t kOps = 4000;

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    server::PreparedCache::Stats cache{};
    while (!stop.load()) {
      (void)metrics.render(cache);
      (void)metrics.render_prometheus(cache);
    }
  });

  std::vector<std::thread> writers;
  for (unsigned t = 0; t < kThreads; ++t) {
    writers.emplace_back([&metrics, t] {
      const auto type = static_cast<server::RequestType>(
          t % server::kNumRequestTypes);
      QueryStats stats;
      stats.pb_checks = 3;
      stats.dijkstra_relaxations = 2;
      for (std::uint64_t k = 0; k < kOps; ++k) {
        metrics.record(type, /*queries=*/1, /*micros=*/1.0 + (k % 100));
        metrics.record_query_stats(stats);
        if (k % 64 == 0) metrics.record_connection();
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true);
  reader.join();

  // Writer t records into type t % kNumRequestTypes, so types are not hit
  // evenly when kThreads isn't a multiple of the type count.
  const auto writers_for = [&](unsigned type) {
    unsigned n = 0;
    for (unsigned t = 0; t < kThreads; ++t) {
      if (t % server::kNumRequestTypes == type) ++n;
    }
    return n;
  };
  std::uint64_t total_requests = 0;
  for (unsigned k = 0; k < server::kNumRequestTypes; ++k) {
    const auto type = static_cast<server::RequestType>(k);
    EXPECT_EQ(metrics.requests(type), writers_for(k) * kOps) << "type " << k;
    total_requests += metrics.requests(type);
  }
  EXPECT_EQ(total_requests, kThreads * kOps);
  EXPECT_EQ(metrics.total_queries(), kThreads * kOps);
  EXPECT_EQ(metrics.stage_total(server::StageCounter::kSafeEdgeChecks),
            kThreads * kOps * 3);
  EXPECT_EQ(metrics.stage_total(server::StageCounter::kDijkstraRelaxations),
            kThreads * kOps * 2);
  EXPECT_EQ(metrics.errors(), 0u);

  // The final render reflects every recorded sample: each histogram's
  // _count line equals the per-type request count.
  const std::string prom =
      metrics.render_prometheus(server::PreparedCache::Stats{});
  const char* kTypeNames[] = {"dist",   "batch",  "stats",       "metrics",
                              "health", "reload", "get_label", "fleet_stats"};
  static_assert(std::size(kTypeNames) == server::kNumRequestTypes);
  for (unsigned k = 0; k < server::kNumRequestTypes; ++k) {
    if (writers_for(k) == 0) continue;
    const std::string needle =
        std::string("fsdl_request_latency_microseconds_count{type=\"") +
        kTypeNames[k] + "\"} " + std::to_string(writers_for(k) * kOps);
    EXPECT_NE(prom.find(needle), std::string::npos) << needle;
  }
}

TEST(ThreadPoolTest, RunsAllJobsAcrossWorkers) {
  ThreadPool pool(4);
  std::atomic<int> sum{0};
  for (int k = 1; k <= 100; ++k) {
    ASSERT_TRUE(pool.submit([&sum, k] { sum.fetch_add(k); }));
  }
  pool.shutdown();
  EXPECT_EQ(sum.load(), 5050);
  // After shutdown, jobs are refused.
  EXPECT_FALSE(pool.submit([] {}));
}

TEST(ThreadPoolTest, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.submit([&ran] { ran.fetch_add(1); });
  pool.shutdown();
  pool.shutdown();
  EXPECT_EQ(ran.load(), 1);
}

}  // namespace
}  // namespace fsdl
