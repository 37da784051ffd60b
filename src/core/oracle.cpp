#include "core/oracle.hpp"

#include <stdexcept>

#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace fsdl {

ForbiddenSetOracle::ForbiddenSetOracle(const ForbiddenSetLabeling& scheme)
    : scheme_(&scheme), cache_(scheme.num_vertices()) {}

ForbiddenSetOracle::~ForbiddenSetOracle() {
  for (auto& slot : cache_) delete slot.load(std::memory_order_relaxed);
}

const VertexLabel& ForbiddenSetOracle::label(Vertex v) const {
  auto& slot = cache_.at(v);
  const VertexLabel* cached = slot.load(std::memory_order_acquire);
  if (cached != nullptr) {
    FSDL_COUNT(kLabelCacheHit, 1);
    return *cached;
  }
  FSDL_COUNT(kLabelCacheMiss, 1);
  // Decode outside the publish; losers of the race delete their copy.
  const VertexLabel* fresh = new VertexLabel(scheme_->label(v));
  if (slot.compare_exchange_strong(cached, fresh, std::memory_order_release,
                                   std::memory_order_acquire)) {
    return *fresh;
  }
  delete fresh;
  return *cached;
}

void ForbiddenSetOracle::warm() const {
  parallel_for(scheme_->num_vertices(), resolve_threads(0),
               [this](unsigned, std::size_t k) {
                 const auto v = static_cast<Vertex>(k);
                 if (scheme_->stores_label(v)) label(v);
               });
}

QueryResult ForbiddenSetOracle::query(Vertex s, Vertex t,
                                      const FaultSet& faults) const {
  QueryInput in;
  in.source = &label(s);
  in.target = &label(t);
  in.fault_vertices.reserve(faults.vertices().size());
  for (Vertex f : faults.vertices()) in.fault_vertices.push_back(&label(f));
  in.fault_edges.reserve(faults.edges().size());
  for (const auto& [a, b] : faults.edges()) {
    in.fault_edges.emplace_back(&label(a), &label(b));
  }
  return decode_query(scheme_->params(), in);
}

PreparedFaults ForbiddenSetOracle::prepare(const FaultSet& faults) const {
  std::vector<const VertexLabel*> fault_vertices;
  fault_vertices.reserve(faults.vertices().size());
  for (Vertex f : faults.vertices()) fault_vertices.push_back(&label(f));
  std::vector<std::pair<const VertexLabel*, const VertexLabel*>> fault_edges;
  fault_edges.reserve(faults.edges().size());
  for (const auto& [a, b] : faults.edges()) {
    fault_edges.emplace_back(&label(a), &label(b));
  }
  return PreparedFaults(scheme_->params(), std::move(fault_vertices),
                        std::move(fault_edges));
}

Dist ForbiddenSetOracle::distance(Vertex s, Vertex t,
                                  const FaultSet& faults) const {
  return query(s, t, faults).distance;
}

}  // namespace fsdl
