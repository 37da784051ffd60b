// Set-up and the in-process front ends (Server, or shard Servers behind a
// Router), plus the traced wrapper around their virtual handle().
#include <algorithm>
#include <stdexcept>
#include <thread>
#include <utility>

#include "bench.hpp"
#include "graph/generators.hpp"
#include "server/client.hpp"
#include "shard/shard_store.hpp"

namespace perfbench {

namespace fs = fsdl::server;

namespace {

// Thread budget: 2 workers + 1 reactor on the front door and 1 worker per
// shard, leaving the client thread a core of its own on a 4-core box.
constexpr unsigned kFrontWorkers = 2;
constexpr unsigned kShardWorkers = 1;
constexpr std::uint32_t kShardCount = 2;

/// Timestamps handle() from outside the server: one steady clock on both
/// sides of the socket splits a request's latency into ingress (client send
/// to handle start), handle, and egress (handle return to reply read).
template <class Base>
class Traced final : public Base {
 public:
  template <class... Args>
  explicit Traced(HandleLog* log, Args&&... args)
      : Base(std::forward<Args>(args)...), log_(log) {}
  // handle() reads log_, so the data plane must stop before this object
  // stops being a Traced.
  ~Traced() override { this->stop(); }

  fs::Response handle(const fs::Request& req) override {
    const std::int64_t t0 = now_ns();
    fs::Response resp = Base::handle(req);
    const std::int64_t t1 = now_ns();
    if (req.opcode == fs::Opcode::kDist && req.trace.present &&
        req.trace.trace_lo < log_->start.size()) {
      log_->start[req.trace.trace_lo] = t0;
      log_->end[req.trace.trace_lo] = t1;
    } else if (req.opcode == fs::Opcode::kGetLabel) {
      log_->get_label_calls.fetch_add(1, std::memory_order_relaxed);
      log_->get_label_ns.fetch_add(static_cast<std::uint64_t>(t1 - t0),
                                   std::memory_order_relaxed);
    }
    return resp;
  }

 private:
  HandleLog* log_;
};

template <class Base, class... Args>
std::unique_ptr<Base> make_front(HandleLog* log, Args&&... args) {
  if (log != nullptr) {
    return std::make_unique<Traced<Base>>(log, std::forward<Args>(args)...);
  }
  return std::make_unique<Base>(std::forward<Args>(args)...);
}

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

}  // namespace

FrontEnd::FrontEnd(const Deployment& d, HandleLog* log) {
  if (d.front == Front::kServer) {
    fs::ServerOptions opt;
    opt.workers = kFrontWorkers;
    server_ = make_front<fs::Server>(log, *d.oracle, opt);
    server_->start();
    return;
  }
  fsdl::shard::RouterOptions ropt;
  ropt.transport.workers = kFrontWorkers;
  ropt.label_cache_capacity = d.label_cache_capacity;
  for (const auto& oracle : d.shard_oracles) {
    fs::ServerOptions opt;
    opt.workers = kShardWorkers;
    shards_.push_back(make_front<fs::Server>(log, *oracle, opt));
    shards_.back()->start();
    ropt.shards.push_back({fs::Endpoint{"127.0.0.1", shards_.back()->port()}});
  }
  router_ = make_front<fsdl::shard::Router>(log, ropt);
  router_->start();
}

FrontEnd::~FrontEnd() { stop(); }

std::uint16_t FrontEnd::port() const {
  return server_ ? server_->port() : router_->port();
}

FrontCounters FrontEnd::stop() {
  if (server_) server_->stop();
  if (router_) router_->stop();
  for (auto& s : shards_) s->stop();
  return counters();
}

FrontCounters FrontEnd::counters() const {
  FrontCounters c;
  if (server_) {
    const auto stats = server_->cache_stats();
    c.prepared_hits = stats.hits;
    c.prepared_misses = stats.misses;
  }
  if (router_) {
    const auto stats = router_->prepared_stats();
    c.prepared_hits = stats.hits;
    c.prepared_misses = stats.misses;
    c.label_cache_hits = router_->metrics().label_cache(true);
    c.label_cache_misses = router_->metrics().label_cache(false);
  }
  return c;
}

Deployment set_up(const WorkloadSpec& spec, const Scale& scale,
                  const fs::Request& probe, SetupTimes& times,
                  Dist& probe_answer) {
  Deployment d;
  d.front = spec.front;
  const std::int64_t t0 = now_ns();
  d.graph = fsdl::make_grid2d(scale.rows, scale.cols);
  times.graph_s = seconds_since(t0);

  std::int64_t t = now_ns();
  fsdl::BuildOptions build;
  build.threads = std::max(1u, std::thread::hardware_concurrency());
  d.scheme = std::make_unique<fsdl::ForbiddenSetLabeling>(
      fsdl::ForbiddenSetLabeling::build(
          d.graph, fsdl::SchemeParams::compact(1.0, 2), build));
  times.build_s = seconds_since(t);

  t = now_ns();
  if (spec.front == Front::kServer) {
    d.oracle = std::make_unique<fsdl::ForbiddenSetOracle>(*d.scheme);
    d.oracle->warm();
    times.warm_s = seconds_since(t);
  } else {
    // No process of the sharded deployment decodes labels up front: shard
    // servers hand out raw bits and the router decodes what it fetches.
    for (auto& piece : fsdl::shard::split_labeling(*d.scheme, kShardCount)) {
      d.shards.push_back(
          std::make_unique<fsdl::ForbiddenSetLabeling>(std::move(piece)));
      d.shard_oracles.push_back(
          std::make_unique<fsdl::ForbiddenSetOracle>(*d.shards.back()));
    }
    d.label_cache_capacity = static_cast<std::size_t>(
        scale.label_cache_share * d.graph.num_vertices());
    times.split_s = seconds_since(t);
  }

  t = now_ns();
  {
    FrontEnd front(d, nullptr);
    fs::Client client;
    client.connect("127.0.0.1", front.port());
    const fs::Response resp = client.call(probe);
    if (!resp.ok() || resp.distances.size() != 1) {
      throw std::runtime_error("set-up probe failed: " + resp.text);
    }
    probe_answer = resp.distances[0];
    times.start_s = seconds_since(t);
    times.total_s = seconds_since(t0);
  }
  return d;
}

}  // namespace perfbench
