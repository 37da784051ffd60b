#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "graph/dijkstra.hpp"
#include "util/rng.hpp"

namespace fsdl {
namespace {

TEST(SketchGraph, InternIsIdempotent) {
  SketchGraph h;
  const auto a = h.intern(100);
  const auto b = h.intern(200);
  EXPECT_NE(a, b);
  EXPECT_EQ(h.intern(100), a);
  EXPECT_EQ(h.num_vertices(), 2u);
  EXPECT_EQ(h.external_id(a), 100u);
  EXPECT_EQ(h.find(200), b);
  EXPECT_EQ(h.find(300), SketchGraph::kNoIndex);
}

TEST(SketchGraph, FindMissesIdsAboveTheTableAndBeforeIntern) {
  SketchGraph h;
  EXPECT_EQ(h.find(0), SketchGraph::kNoIndex);  // empty table
  h.intern(10);
  EXPECT_EQ(h.find(11), SketchGraph::kNoIndex);
  EXPECT_EQ(h.find(1u << 30), SketchGraph::kNoIndex);  // far above the table
  EXPECT_EQ(h.find(3), SketchGraph::kNoIndex);  // in the table, not interned
  h.clear();
  EXPECT_EQ(h.find(10), SketchGraph::kNoIndex);  // interned before clear()
  EXPECT_EQ(h.num_vertices(), 0u);
  EXPECT_EQ(h.num_edges(), 0u);
  EXPECT_EQ(h.intern(10), 0u);
}

TEST(SketchGraph, ReuseAcrossClearsWithShrinkingAndGrowingIds) {
  SketchGraph h;
  Rng rng(35);
  for (int round = 0; round < 200; ++round) {
    h.clear();
    // Id ranges alternate between wide and narrow, so stale table entries
    // from a wide round sit above the ids a narrow round interns.
    const Vertex range =
        round % 3 == 0 ? 5000 : 1 + static_cast<Vertex>(rng.below(64));
    std::vector<Vertex> ids;
    for (int k = 0; k < 20; ++k) {
      const Vertex v = rng.vertex(range);
      const SketchGraph::Index idx = h.intern(v);
      if (idx == ids.size()) ids.push_back(v);
      ASSERT_EQ(h.external_id(idx), v);
    }
    ASSERT_EQ(h.num_vertices(), ids.size());
    for (std::size_t k = 0; k < ids.size(); ++k) {
      ASSERT_EQ(h.find(ids[k]), k);
    }
    for (Vertex v = 0; v < 5000; v += 7) {
      const bool live = std::find(ids.begin(), ids.end(), v) != ids.end();
      ASSERT_EQ(h.find(v) != SketchGraph::kNoIndex, live) << "round " << round;
    }
    for (std::size_t k = 1; k < ids.size(); ++k) {
      h.add_edge(static_cast<SketchGraph::Index>(k - 1),
                 static_cast<SketchGraph::Index>(k), 1);
    }
    h.finalize();
    const auto last = static_cast<SketchGraph::Index>(ids.size() - 1);
    ASSERT_EQ(sketch_shortest_path(h, 0, last), last);
  }
}

TEST(SketchGraph, CsrArcsKeepParallelEdgesInInsertionOrder) {
  SketchGraph h;
  const auto a = h.intern(7), b = h.intern(3), c = h.intern(9);
  h.add_edge(a, b, 8);
  h.add_edge(b, c, 2);
  h.add_edge(a, b, 5);  // parallel to the first, cheaper
  h.add_edge(b, a, 6);  // parallel again, endpoints swapped
  h.finalize();
  EXPECT_EQ(h.num_edges(), 4u);
  const auto arcs_a = h.arcs(a);
  ASSERT_EQ(arcs_a.size(), 3u);
  EXPECT_EQ(arcs_a[0].to, b);
  EXPECT_EQ(arcs_a[0].weight, 8u);
  EXPECT_EQ(arcs_a[1].weight, 5u);
  EXPECT_EQ(arcs_a[2].weight, 6u);
  const auto arcs_b = h.arcs(b);
  ASSERT_EQ(arcs_b.size(), 4u);
  EXPECT_EQ(arcs_b[0].to, a);
  EXPECT_EQ(arcs_b[1].to, c);
  EXPECT_EQ(h.arcs(c).size(), 1u);
  std::vector<SketchGraph::Index> path;
  EXPECT_EQ(sketch_shortest_path(h, a, c, &path), 7u);  // 5 + 2
  EXPECT_EQ(path, (std::vector<SketchGraph::Index>{a, b, c}));
}

TEST(SketchGraph, ShortestPathRequiresFinalize) {
  SketchGraph h;
  const auto a = h.intern(0), b = h.intern(1);
  h.add_edge(a, b, 1);
  EXPECT_THROW(sketch_shortest_path(h, a, b), std::logic_error);
  h.finalize();
  EXPECT_EQ(sketch_shortest_path(h, a, b), 1u);
  h.intern(2);  // a new vertex invalidates the CSR
  EXPECT_FALSE(h.finalized());
}

TEST(SketchShortestPath, SimpleChain) {
  SketchGraph h;
  const auto a = h.intern(0), b = h.intern(1), c = h.intern(2);
  h.add_edge(a, b, 4);
  h.add_edge(b, c, 5);
  std::vector<SketchGraph::Index> path;
  h.finalize();
  EXPECT_EQ(sketch_shortest_path(h, a, c, &path), 9u);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path.front(), a);
  EXPECT_EQ(path.back(), c);
}

TEST(SketchShortestPath, PrefersCheaperRoute) {
  SketchGraph h;
  const auto a = h.intern(0), b = h.intern(1), c = h.intern(2);
  h.add_edge(a, c, 10);
  h.add_edge(a, b, 3);
  h.add_edge(b, c, 3);
  h.finalize();
  EXPECT_EQ(sketch_shortest_path(h, a, c), 6u);
}

TEST(SketchShortestPath, ParallelEdgesTakeMinimum) {
  SketchGraph h;
  const auto a = h.intern(0), b = h.intern(1);
  h.add_edge(a, b, 7);
  h.add_edge(a, b, 3);
  h.finalize();
  EXPECT_EQ(sketch_shortest_path(h, a, b), 3u);
}

TEST(SketchShortestPath, DisconnectedIsInf) {
  SketchGraph h;
  const auto a = h.intern(0);
  const auto b = h.intern(1);
  h.finalize();
  EXPECT_EQ(sketch_shortest_path(h, a, b), kInfDist);
}

TEST(SketchShortestPath, SourceEqualsTarget) {
  SketchGraph h;
  const auto a = h.intern(5);
  std::vector<SketchGraph::Index> path;
  h.finalize();
  EXPECT_EQ(sketch_shortest_path(h, a, a, &path), 0u);
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(path[0], a);
}

// Property check against Bellman-Ford on random sketch graphs.
TEST(SketchShortestPath, MatchesBellmanFordOnRandomGraphs) {
  Rng rng(33);
  for (int iter = 0; iter < 30; ++iter) {
    const std::size_t n = 2 + rng.below(20);
    SketchGraph h;
    for (Vertex v = 0; v < n; ++v) h.intern(v);
    std::vector<std::tuple<std::size_t, std::size_t, Dist>> edges;
    const std::size_t m = rng.below(3 * n);
    for (std::size_t e = 0; e < m; ++e) {
      const auto a = static_cast<SketchGraph::Index>(rng.below(n));
      const auto b = static_cast<SketchGraph::Index>(rng.below(n));
      if (a == b) continue;
      const Dist w = 1 + static_cast<Dist>(rng.below(50));
      h.add_edge(a, b, w);
      edges.emplace_back(a, b, w);
    }
    h.finalize();
    // Bellman-Ford from vertex 0.
    std::vector<std::uint64_t> bf(n, ~0ULL);
    bf[0] = 0;
    for (std::size_t round = 0; round < n; ++round) {
      for (const auto& [a, b, w] : edges) {
        if (bf[a] != ~0ULL && bf[a] + w < bf[b]) bf[b] = bf[a] + w;
        if (bf[b] != ~0ULL && bf[b] + w < bf[a]) bf[a] = bf[b] + w;
      }
    }
    for (std::size_t t = 0; t < n; ++t) {
      const Dist d = sketch_shortest_path(h, 0, static_cast<SketchGraph::Index>(t));
      if (bf[t] == ~0ULL) {
        EXPECT_EQ(d, kInfDist);
      } else {
        EXPECT_EQ(static_cast<std::uint64_t>(d), bf[t]);
      }
    }
  }
}

TEST(SketchShortestPath, PathEdgesExistWithMatchingWeights) {
  Rng rng(34);
  SketchGraph h;
  for (Vertex v = 0; v < 15; ++v) h.intern(v);
  for (int e = 0; e < 40; ++e) {
    const auto a = static_cast<SketchGraph::Index>(rng.below(15));
    const auto b = static_cast<SketchGraph::Index>(rng.below(15));
    if (a != b) h.add_edge(a, b, 1 + static_cast<Dist>(rng.below(9)));
  }
  std::vector<SketchGraph::Index> path;
  h.finalize();
  const Dist d = sketch_shortest_path(h, 0, 14, &path);
  if (d == kInfDist) return;
  std::uint64_t sum = 0;
  for (std::size_t k = 0; k + 1 < path.size(); ++k) {
    Dist best = kInfDist;
    for (const auto& arc : h.arcs(path[k])) {
      if (arc.to == path[k + 1]) best = std::min(best, arc.weight);
    }
    ASSERT_NE(best, kInfDist) << "path uses nonexistent edge";
    sum += best;
  }
  EXPECT_EQ(sum, d);
}

}  // namespace
}  // namespace fsdl
