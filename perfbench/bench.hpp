// Shared declarations of the fsdl serving benchmark (perfbench/).
//
// One benchmark process generates a graph and a request stream from a seed,
// builds the labels, serves them in-process over loopback TCP, drives an
// open loop against the server (or a sharded router), and checks every
// served answer afterwards. See perfbench/README.md for the workloads and
// the metrics.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/labeling.hpp"
#include "core/oracle.hpp"
#include "graph/fault_view.hpp"
#include "graph/graph.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "shard/router.hpp"

namespace perfbench {

using fsdl::Dist;
using fsdl::Vertex;

/// Steady-clock nanoseconds; the one clock every timestamp of a run uses.
std::int64_t now_ns();

// ---------------------------------------------------------------- workloads

enum class Front : std::uint8_t { kServer, kRouter };

/// A workload's frozen calibration (see README.md, "Workloads").
struct WorkloadSpec {
  const char* name;
  Front front;
  /// |F| of every fault set.
  unsigned faults;
  /// > 0: fault sets drawn uniformly from a recurring pool of this size.
  unsigned pool;
  /// > 0 (pool == 0): a never-seen fault set every this many arrivals.
  unsigned churn_every;
  /// Fixed open-loop rate, requests per second.
  double rate_qps;
};

const WorkloadSpec* find_workload(const std::string& name);

/// Graph and serving shape shared by every workload.
struct Scale {
  Vertex rows = 4;
  Vertex cols = 500;
  /// Router label-cache capacity as a share of n: the router default (4096
  /// labels) over the 10^4-vertex grid it was sized for.
  double label_cache_share = 4096.0 / 10000.0;
};

struct Query {
  Vertex s = 0;
  Vertex t = 0;
  std::uint32_t fault_set = 0;
};

/// A seeded request stream. The recurring pool depends on the seed only;
/// endpoints and churned fault sets also on `salt` (one salt per phase).
struct RequestStream {
  std::vector<fsdl::FaultSet> fault_sets;
  std::vector<Query> queries;
};

RequestStream make_requests(const WorkloadSpec& spec, const fsdl::Graph& g,
                            std::uint64_t seed, std::uint64_t salt,
                            std::size_t count);

/// Poisson arrival offsets (seconds from the phase start) for `seconds` of
/// independent users at `rate` requests per second.
std::vector<double> poisson_schedule(double rate, double seconds,
                                     std::uint64_t seed);

// ------------------------------------------------------------- deployment

/// Labels of one set-up, owned in one place so oracles can point into them.
struct Deployment {
  fsdl::Graph graph;
  std::unique_ptr<fsdl::ForbiddenSetLabeling> scheme;
  /// Warmed oracle the single server borrows (server workloads only).
  std::unique_ptr<fsdl::ForbiddenSetOracle> oracle;
  /// Router workloads: the split labelings and the (cold) oracles the shard
  /// servers borrow; shard servers only hand out raw label bits.
  std::vector<std::unique_ptr<fsdl::ForbiddenSetLabeling>> shards;
  std::vector<std::unique_ptr<fsdl::ForbiddenSetOracle>> shard_oracles;
  Front front = Front::kServer;
  std::size_t label_cache_capacity = 0;
};

/// Set-up time split by step (seconds).
struct SetupTimes {
  double graph_s = 0;
  double build_s = 0;
  double warm_s = 0;   // server workloads
  double split_s = 0;  // router workloads
  double start_s = 0;  // front end start + first answered query
  double total_s = 0;
};

/// Handle-side timestamps of one traced phase, written by the benchmark's
/// wrapper around the virtual handle(). DIST entries are indexed by the
/// request index the client put in the trace context.
struct HandleLog {
  explicit HandleLog(std::size_t n) : start(n, 0), end(n, 0) {}
  std::vector<std::int64_t> start;
  std::vector<std::int64_t> end;
  /// Shard-side GET_LABEL handling (router workloads; both shards' workers
  /// add to these).
  std::atomic<std::uint64_t> get_label_calls{0};
  std::atomic<std::uint64_t> get_label_ns{0};
};

/// Counters read from the front end after a phase.
struct FrontCounters {
  std::uint64_t prepared_hits = 0;
  std::uint64_t prepared_misses = 0;
  std::uint64_t label_cache_hits = 0;
  std::uint64_t label_cache_misses = 0;
};

/// The serving processes, in-process: one Server, or two shard Servers
/// behind a Router, over one deployment's labels. A non-null HandleLog
/// selects the traced wrappers.
class FrontEnd {
 public:
  FrontEnd(const Deployment& d, HandleLog* log);
  ~FrontEnd();
  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  std::uint16_t port() const;
  /// Cache counters so far (cumulative since start).
  FrontCounters counters() const;
  /// Stop every server (joins their threads) and read the counters. The
  /// HandleLog is complete once this returns.
  FrontCounters stop();

 private:
  std::vector<std::unique_ptr<fsdl::server::Server>> shards_;
  std::unique_ptr<fsdl::server::Server> server_;
  std::unique_ptr<fsdl::shard::Router> router_;
};

/// Build a deployment anew and answer `probe` through a fresh
/// front end; the times are the set-up metric.
Deployment set_up(const WorkloadSpec& spec, const Scale& scale,
                  const fsdl::server::Request& probe, SetupTimes& times,
                  fsdl::Dist& probe_answer);

// ------------------------------------------------------------ open loop

/// Per-request outcome codes.
enum class Outcome : std::uint8_t {
  kOk = 0,
  kTransport,    // send/recv failure, closed connection, bad frame
  kStatus,       // non-OK (incl. DEGRADED) status
  kUnanswered,   // no reply before the phase deadline
};

struct PhaseRun {
  double rate = 0;  // 0 for a closed loop
  double seconds = 0;
  /// A closed loop, sending from `start` until `end` (steady-clock ns).
  bool closed = false;
  std::int64_t start = 0;
  std::int64_t end = 0;
  /// The client thread ran under SCHED_FIFO.
  bool client_fifo = false;
  /// Absolute steady-clock ns per request.
  std::vector<std::int64_t> due;
  std::vector<std::int64_t> sent;
  std::vector<std::int64_t> recv;
  std::vector<Outcome> outcome;
  std::vector<Dist> answer;
};

/// Drive one open-loop phase from the calling thread: request i is sent at
/// its due time over connection i % conns, and the in-order replies are read
/// in between. `frames[i]` is the framed request i.
PhaseRun run_open_loop(std::uint16_t port,
                       const std::vector<std::vector<std::uint8_t>>& frames,
                       const std::vector<double>& offsets, double rate,
                       double seconds, unsigned conns);

/// Drive one closed-loop phase from the calling thread for `seconds`: each
/// connection keeps one request in flight, taking the next unsent frame as
/// soon as a reply arrives. The run holds the requests sent, in order; their
/// due time is their send time.
PhaseRun run_closed_loop(std::uint16_t port,
                         const std::vector<std::vector<std::uint8_t>>& frames,
                         double seconds, unsigned conns);

struct PhaseStats {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// Latency from due time; failed requests count as infinitely late.
  /// Each is the median over `windows` consecutive windows of that
  /// window's percentile.
  double p50_ms = 0;
  double p99_ms = 0;
  std::size_t windows = 1;
  std::size_t window_samples = 0;
  std::vector<double> window_p99_ms;
  /// Samples beyond p99 in each window.
  std::size_t beyond_p99 = 0;
  double lag_p50_ms = 0;
  double lag_p99_ms = 0;
  /// Closed loops: answers per second after a ramp of a tenth of the phase.
  double goodput_qps = 0;
};

PhaseStats summarize(const PhaseRun& run);

/// The requests of several open-loop runs as one, in order.
PhaseRun concat(const std::vector<const PhaseRun*>& runs);

// ------------------------------------------------------------------ checks

struct CheckResult {
  std::size_t checked = 0;
  std::size_t violations = 0;
  double stretch_sum = 0;
  std::size_t stretch_count = 0;
  std::string first_violation;
};

/// Reference answers for queries [0, count): exact BFS distance in G\F and
/// the in-process oracle's answer, computed on `threads` threads.
struct References {
  std::vector<Dist> exact;
  std::vector<Dist> oracle;
  /// Set when ForbiddenSetOracle::distance and its prepared form disagree.
  std::string disagreement;
};

References compute_references(const fsdl::Graph& g,
                              const fsdl::ForbiddenSetOracle& oracle,
                              const RequestStream& stream, std::size_t count,
                              unsigned threads);

/// Check every answered request of `run` against the references, adding to
/// `out`; requests that failed are not checked (they count as failures).
void check_answers(const PhaseRun& run, const RequestStream& stream,
                   const References& refs, CheckResult& out);

// ------------------------------------------------------------------ output

double peak_rss_mib();

}  // namespace perfbench
