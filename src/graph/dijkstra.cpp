#include "graph/dijkstra.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace fsdl {

SketchGraph::Index SketchGraph::intern(Vertex external_id) {
  if (external_id >= slots_.size()) {
    slots_.resize(std::max(std::size_t{external_id} + 1, 2 * slots_.size()));
  }
  Slot& slot = slots_[external_id];
  if (slot.epoch != epoch_) {
    slot.epoch = epoch_;
    slot.index = static_cast<Index>(external_ids_.size());
    external_ids_.push_back(external_id);
    finalized_ = false;
  }
  return slot.index;
}

SketchGraph::Index SketchGraph::find(Vertex external_id) const noexcept {
  if (external_id >= slots_.size()) return kNoIndex;
  const Slot& slot = slots_[external_id];
  return slot.epoch == epoch_ ? slot.index : kNoIndex;
}

void SketchGraph::clear() noexcept {
  if (++epoch_ == 0) {  // tag wrapped: hard-reset so stale slots can't match
    std::fill(slots_.begin(), slots_.end(), Slot{});
    epoch_ = 1;
  }
  external_ids_.clear();
  edges_.clear();
  finalized_ = false;
}

void SketchGraph::add_edge(Index a, Index b, Dist weight) {
  edges_.push_back({a, b, weight});
  finalized_ = false;
}

void SketchGraph::finalize() {
  const std::size_t n = num_vertices();
  offsets_.assign(n + 1, 0);
  for (const Edge& e : edges_) {
    ++offsets_[e.a];
    ++offsets_[e.b];
  }
  std::uint32_t start = 0;
  for (std::size_t i = 0; i <= n; ++i) {
    const std::uint32_t degree = offsets_[i];
    offsets_[i] = start;
    start += degree;
  }
  // Fill in edge order, advancing offsets_[i] to the end of i's arcs (the
  // start of i+1's), then shift back by one slot.
  arcs_.resize(start);
  for (const Edge& e : edges_) {
    arcs_[offsets_[e.a]++] = {e.b, e.weight};
    arcs_[offsets_[e.b]++] = {e.a, e.weight};
  }
  for (std::size_t i = n; i > 0; --i) offsets_[i] = offsets_[i - 1];
  offsets_[0] = 0;
  finalized_ = true;
}

Dist sketch_shortest_path(const SketchGraph& h, SketchGraph::Index s,
                          SketchGraph::Index t,
                          std::vector<SketchGraph::Index>* path,
                          std::size_t* relaxations) {
  using Index = SketchGraph::Index;
  const std::size_t n = h.num_vertices();
  std::size_t scans = 0;
  if (relaxations != nullptr) *relaxations = 0;
  if (s >= n || t >= n) return kInfDist;
  if (!h.finalized()) {
    throw std::logic_error("sketch_shortest_path: graph not finalized");
  }

  // 64-bit tentative distances guard against overflow from summed weights.
  std::vector<std::uint64_t> dist(n, ~std::uint64_t{0});
  std::vector<Index> parent(n, SketchGraph::kNoIndex);
  using Item = std::pair<std::uint64_t, Index>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[s] = 0;
  heap.emplace(0, s);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d != dist[u]) continue;  // stale entry
    if (u == t) break;
    for (const auto& arc : h.arcs(u)) {
      ++scans;
      const std::uint64_t nd = d + arc.weight;
      if (nd < dist[arc.to]) {
        dist[arc.to] = nd;
        parent[arc.to] = u;
        heap.emplace(nd, arc.to);
      }
    }
  }
  if (relaxations != nullptr) *relaxations = scans;
  if (dist[t] == ~std::uint64_t{0}) return kInfDist;
  if (path != nullptr) {
    path->clear();
    for (Index v = t;; v = parent[v]) {
      path->push_back(v);
      if (v == s) break;
    }
    std::reverse(path->begin(), path->end());
  }
  return static_cast<Dist>(std::min<std::uint64_t>(dist[t], kInfDist - 1));
}

}  // namespace fsdl
