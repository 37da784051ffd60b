// Weighted sketch graphs and shortest paths on them.
//
// The decoder materializes, per query, a small weighted graph H whose
// vertices are net points (plus s, t and fault centers) identified by their
// ids in the *original* graph. SketchGraph maps those external ids to dense
// indices through a table indexed by id, and stores the adjacency in CSR
// form, built once after the last edge is added; sketch_shortest_path is a
// plain binary-heap Dijkstra, which matches the paper's query-time analysis.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/types.hpp"

namespace fsdl {

class SketchGraph {
 public:
  using Index = std::uint32_t;
  static constexpr Index kNoIndex = static_cast<Index>(-1);

  /// Dense index for external vertex id, inserting it if new.
  Index intern(Vertex external_id);

  /// Dense index if present, kNoIndex otherwise.
  Index find(Vertex external_id) const noexcept;

  /// Add undirected weighted edge between two *interned* indices.
  /// Parallel edges are allowed; Dijkstra takes the cheapest.
  void add_edge(Index a, Index b, Dist weight);

  /// Build the CSR adjacency from every edge added since clear(). Call once
  /// after the last add_edge and before arcs() or sketch_shortest_path; an
  /// arc list keeps its edges in add_edge order.
  void finalize();
  bool finalized() const noexcept { return finalized_; }

  /// Reset to empty in O(1) while keeping every allocation (the id table,
  /// edge and arc storage), so a reused instance builds H without
  /// allocating once it has seen a query of each size.
  void clear() noexcept;

  std::size_t num_vertices() const noexcept { return external_ids_.size(); }
  std::size_t num_edges() const noexcept { return edges_.size(); }
  Vertex external_id(Index i) const { return external_ids_[i]; }

  struct Arc {
    Index to;
    Dist weight;
  };
  /// Arcs leaving i; valid after finalize().
  std::span<const Arc> arcs(Index i) const {
    return {arcs_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
  }

 private:
  struct Edge {
    Index a;
    Index b;
    Dist weight;
  };
  /// Intern table entry for one external id: live iff epoch == epoch_.
  struct Slot {
    std::uint32_t epoch = 0;
    Index index = kNoIndex;
  };

  std::vector<Slot> slots_;  // indexed by external id; grows, never shrinks
  std::uint32_t epoch_ = 1;
  std::vector<Vertex> external_ids_;
  std::vector<Edge> edges_;
  // CSR: the arcs of i are arcs_[offsets_[i] .. offsets_[i + 1]).
  std::vector<std::uint32_t> offsets_;
  std::vector<Arc> arcs_;
  bool finalized_ = false;
};

/// Shortest-path length from s to t in a finalized sketch graph; kInfDist
/// if disconnected. If `path` is non-null it receives the vertex sequence
/// (dense indices) of one shortest path, s first. If `relaxations` is
/// non-null it receives the number of arc scans performed — the unit of
/// Lemma 2.6's query-time bound, surfaced for the stage-cost accounting.
Dist sketch_shortest_path(const SketchGraph& h, SketchGraph::Index s,
                          SketchGraph::Index t,
                          std::vector<SketchGraph::Index>* path = nullptr,
                          std::size_t* relaxations = nullptr);

}  // namespace fsdl
