#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/connectivity.hpp"
#include "core/dynamic_oracle.hpp"
#include "core/labeling.hpp"
#include "core/oracle.hpp"
#include "graph/fault_view.hpp"
#include "graph/generators.hpp"
#include "shard/shard_store.hpp"
#include "util/rng.hpp"

namespace fsdl {
namespace {

class OracleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    g_ = make_grid2d(10, 10);
    scheme_ = std::make_unique<ForbiddenSetLabeling>(
        ForbiddenSetLabeling::build(g_, SchemeParams::faithful(1.0)));
    oracle_ = std::make_unique<ForbiddenSetOracle>(*scheme_);
  }
  Graph g_;
  std::unique_ptr<ForbiddenSetLabeling> scheme_;
  std::unique_ptr<ForbiddenSetOracle> oracle_;
};

TEST_F(OracleTest, LabelAccessorMatchesScheme) {
  for (Vertex v : {0u, 37u, 99u}) {
    const VertexLabel& cached = oracle_->label(v);
    EXPECT_EQ(cached.owner, v);
    // Second access returns the same cached object.
    EXPECT_EQ(&oracle_->label(v), &cached);
  }
}

TEST_F(OracleTest, SizeBitsEqualsSchemeTotal) {
  EXPECT_EQ(oracle_->size_bits(), scheme_->total_bits());
  EXPECT_GT(oracle_->size_bits(), 0u);
}

TEST_F(OracleTest, DistanceMatchesQueryDistance) {
  FaultSet f;
  f.add_vertex(44);
  EXPECT_EQ(oracle_->distance(0, 99, f), oracle_->query(0, 99, f).distance);
}

TEST_F(OracleTest, ConnectivityAdapter) {
  const ConnectivityOracle conn(*oracle_);
  FaultSet none;
  EXPECT_TRUE(conn.connected(0, 99, none));
  // Sever the grid along column 4.
  FaultSet wall;
  for (Vertex r = 0; r < 10; ++r) wall.add_vertex(r * 10 + 4);
  EXPECT_FALSE(conn.connected(0, 9, wall));
  EXPECT_TRUE(conn.connected(0, 3, wall));
}

TEST_F(OracleTest, DynamicFailAndRestore) {
  DynamicOracle dyn(*oracle_);
  const Dist base = dyn.distance(0, 9);
  EXPECT_EQ(base, 9u);

  // Build a wall incrementally; the answer degrades, then recovers.
  for (Vertex r = 0; r < 10; ++r) dyn.fail_vertex(r * 10 + 4);
  EXPECT_EQ(dyn.distance(0, 9), kInfDist);
  dyn.restore_vertex(9 * 10 + 4);  // open a gap at the bottom
  const Dist detour = dyn.distance(0, 9);
  EXPECT_NE(detour, kInfDist);
  EXPECT_GT(detour, base);
  for (Vertex r = 0; r < 9; ++r) dyn.restore_vertex(r * 10 + 4);
  EXPECT_EQ(dyn.distance(0, 9), base);
}

TEST_F(OracleTest, DynamicEdgeFaults) {
  DynamicOracle dyn(*oracle_);
  dyn.fail_edge(0, 1);
  dyn.fail_edge(0, 10);
  EXPECT_EQ(dyn.distance(0, 99), kInfDist);  // 0 fully cut off
  dyn.restore_edge(0, 1);
  EXPECT_NE(dyn.distance(0, 99), kInfDist);
  EXPECT_EQ(dyn.current_faults().size(), 1u);
}

TEST_F(OracleTest, DynamicMatchesStaticQueries) {
  Rng rng(12);
  DynamicOracle dyn(*oracle_);
  FaultSet mirror;
  for (int step = 0; step < 30; ++step) {
    const Vertex x = rng.vertex(g_.num_vertices());
    if (rng.chance(0.7)) {
      dyn.fail_vertex(x);
      mirror.add_vertex(x);
    } else if (!mirror.vertices().empty()) {
      const Vertex y = mirror.vertices()[rng.below(mirror.vertices().size())];
      dyn.restore_vertex(y);
      mirror.remove_vertex(y);
    }
    const Vertex s = rng.vertex(g_.num_vertices());
    const Vertex t = rng.vertex(g_.num_vertices());
    EXPECT_EQ(dyn.distance(s, t), oracle_->distance(s, t, mirror));
  }
}

// Labels compare through their re-encoded bits: the codec is injective.
std::vector<std::uint64_t> reencode(const VertexLabel& label,
                                    const ForbiddenSetLabeling& scheme) {
  BitWriter out;
  encode_label(label, scheme.vertex_bits(), out, scheme.codec());
  return out.words();
}

TEST(OracleWarm, ShardWarmDecodesOnlyOwnedLabels) {
  const Graph g = make_grid2d(8, 8);
  const auto scheme =
      ForbiddenSetLabeling::build(g, SchemeParams::compact(1.0, 2));
  const auto shards = shard::split_labeling(scheme, 2);
  const ForbiddenSetOracle oracle(shards[0]);
  ASSERT_NO_THROW(oracle.warm());
  Vertex owned = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (!shards[0].stores_label(v)) continue;
    ++owned;
    EXPECT_EQ(reencode(oracle.label(v), scheme), reencode(scheme.label(v), scheme))
        << "v=" << v;
  }
  EXPECT_GT(owned, 0u);
  EXPECT_LT(owned, g.num_vertices());
}

TEST(OracleWarm, ParallelWarmRacesReadersSafely) {
  const Graph g = make_grid2d(12, 12);
  const auto scheme =
      ForbiddenSetLabeling::build(g, SchemeParams::compact(1.0, 2));
  const ForbiddenSetOracle oracle(scheme);
  const Vertex n = g.num_vertices();
  std::atomic<bool> warmed{false};
  std::vector<std::thread> readers;
  for (unsigned t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(100 + t);
      // At least n random reads, and more for as long as warm() runs.
      for (Vertex k = 0; k < n || !warmed.load(std::memory_order_acquire);
           ++k) {
        const Vertex v = rng.vertex(n);
        EXPECT_EQ(oracle.label(v).owner, v);
      }
    });
  }
  oracle.warm();
  warmed.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  for (Vertex v = 0; v < n; ++v) {
    const VertexLabel& cached = oracle.label(v);
    EXPECT_EQ(&oracle.label(v), &cached);
    EXPECT_EQ(reencode(cached, scheme), reencode(scheme.label(v), scheme))
        << "v=" << v;
  }
}

}  // namespace
}  // namespace fsdl
