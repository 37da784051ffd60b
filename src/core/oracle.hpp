// ForbiddenSetOracle — the §1 "byproduct": a centralized (1+ε) forbidden-set
// distance oracle assembled from the labeling scheme by storing every
// vertex's label in a table. Size is n × label-length, independent of how
// many faults a query carries.
#pragma once

#include <atomic>
#include <vector>

#include "core/decoder.hpp"
#include "core/labeling.hpp"
#include "graph/fault_view.hpp"

namespace fsdl {

/// Thread safety: after construction, every const member is safe to call
/// from any number of threads concurrently (the lazy label cache publishes
/// decoded labels with an atomic compare-exchange; a decode race wastes one
/// duplicate decode, never corrupts). The query server relies on this.
class ForbiddenSetOracle {
 public:
  /// Keeps a reference to the scheme; decodes labels lazily and caches them.
  explicit ForbiddenSetOracle(const ForbiddenSetLabeling& scheme);
  ~ForbiddenSetOracle();

  ForbiddenSetOracle(const ForbiddenSetOracle&) = delete;
  ForbiddenSetOracle& operator=(const ForbiddenSetOracle&) = delete;

  /// (1+ε)-approximate d_{G\F}(s, t); kInfDist when disconnected or when an
  /// endpoint is itself forbidden.
  Dist distance(Vertex s, Vertex t, const FaultSet& faults) const;

  /// Full query result (distance, sketch path waypoints, work counters).
  QueryResult query(Vertex s, Vertex t, const FaultSet& faults) const;

  /// Amortized interface for the router scenario: pay the |F|-dependent
  /// work once, then answer many (s, t) queries against the same faults.
  PreparedFaults prepare(const FaultSet& faults) const;

  /// Decoded label access (also used by the routing scheme). Safe under
  /// concurrent callers; the returned reference stays valid for the
  /// oracle's lifetime (entries are never evicted).
  const VertexLabel& label(Vertex v) const;

  /// Decode every stored label up front — optional warm-up so a serving
  /// process pays decode cost at startup instead of on first touch. Runs on
  /// resolve_threads(0) workers; a shard's unowned vertices are skipped.
  void warm() const;

  const ForbiddenSetLabeling& scheme() const noexcept { return *scheme_; }

  /// Oracle size = total bits across all stored labels.
  std::size_t size_bits() const { return scheme_->total_bits(); }

 private:
  const ForbiddenSetLabeling* scheme_;
  // Lazy per-vertex decode cache. Each slot is null until first use, then
  // holds an immutable decoded label published via compare-exchange.
  mutable std::vector<std::atomic<const VertexLabel*>> cache_;
};

}  // namespace fsdl
