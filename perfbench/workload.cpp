// Workload table and the seeded request generators.
#include <chrono>
#include <cmath>

#include "bench.hpp"
#include "util/rng.hpp"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

// Frozen calibration (README.md, "Workloads"): the fixed rate is a quarter
// to a half of the closed-loop goodput, low enough that latency at it is
// mostly service time rather than queueing.
const WorkloadSpec kWorkloads[] = {
    {"warm_pool", Front::kServer, 4, 16, 0, 220.0},
    {"closure_churn", Front::kServer, 8, 0, 8, 130.0},
    {"router_k2", Front::kRouter, 4, 16, 0, 100.0},
};

/// |F| = k mixed faults, all distinct: k/2 vertices (rounded up) and the
/// rest edges. A fixed mix keeps the cost of a fault set from varying with
/// its share of vertices.
fsdl::FaultSet random_fault_set(const fsdl::Graph& g, fsdl::Rng& rng,
                                unsigned k) {
  fsdl::FaultSet f;
  while (f.vertices().size() < (k + 1) / 2) {
    const Vertex a = rng.vertex(g.num_vertices());
    if (!f.vertex_faulty(a)) f.add_vertex(a);
  }
  while (f.size() < k) {
    const Vertex a = rng.vertex(g.num_vertices());
    const auto nb = g.neighbors(a);
    const Vertex b = nb[rng.below(nb.size())];
    if (!f.edge_faulty(a, b)) f.add_edge(a, b);
  }
  return f;
}

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

RequestStream make_requests(const WorkloadSpec& spec, const fsdl::Graph& g,
                            std::uint64_t seed, std::uint64_t salt,
                            std::size_t count) {
  // The recurring pool depends on the seed alone; endpoints and churned
  // fault sets also on the salt, so each phase asks new questions and
  // closes roads never seen.
  fsdl::Rng pool(seed * 0x9E3779B97F4A7C15ULL + 1);
  fsdl::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 2 +
                salt * 0x632BE59BD9B4E019ULL);
  RequestStream out;
  if (spec.pool > 0) {
    for (unsigned k = 0; k < spec.pool; ++k) {
      out.fault_sets.push_back(random_fault_set(g, pool, spec.faults));
    }
  } else {
    for (std::size_t k = 0; k * spec.churn_every < count; ++k) {
      out.fault_sets.push_back(random_fault_set(g, rng, spec.faults));
    }
  }
  out.queries.reserve(count);
  const Vertex n = g.num_vertices();
  for (std::size_t i = 0; i < count; ++i) {
    Query q;
    q.fault_set = static_cast<std::uint32_t>(
        spec.pool > 0 ? rng.below(spec.pool) : i / spec.churn_every);
    const fsdl::FaultSet& f = out.fault_sets[q.fault_set];
    // Endpoints are live, distinct vertices: a forbidden endpoint has the
    // trivial answer ∞ and exercises nothing.
    do {
      q.s = rng.vertex(n);
      q.t = rng.vertex(n);
    } while (q.s == q.t || f.vertex_faulty(q.s) || f.vertex_faulty(q.t));
    out.queries.push_back(q);
  }
  return out;
}

std::vector<double> poisson_schedule(double rate, double seconds,
                                     std::uint64_t seed) {
  fsdl::Rng rng(seed);
  std::vector<double> out;
  double t = 0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= seconds) break;
    out.push_back(t);
  }
  return out;
}

}  // namespace perfbench
