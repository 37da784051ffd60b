// fsdl serving benchmark: the measuring process.
//
//   fsdl_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--cols C] [--setups K] [--rate R]
//
// --trace 0 measures the end-to-end metrics: K set-ups (their median is the
// set-up time), each followed on its own front end by a warm-up and its
// share of six rounds. A round is an open loop at the workload's fixed rate
// (0.65*S seconds over all rounds) and then a closed loop with one request
// in flight per connection (0.2*S seconds over all rounds; goodput).
// --trace 1 measures the layers: one set-up, the fixed-rate phase untraced
// and then traced (0.4*S seconds each, each on its own front end after a
// warm-up), and a replay of the same requests straight through the core
// API. Every served answer is checked after the timed phases. The last line
// of stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.hpp"
#include "graph/generators.hpp"
#include "shard/wire_label.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace fs = fsdl::server;

/// Shares of --seconds the phases of --trace 0 take. The fixed-rate and the
/// closed-loop time alternate in kRounds rounds, shared out over the
/// set-ups, so that both metrics sample the whole run rather than one
/// stretch of it or one deployment.
constexpr double kWarmupShare = 1.0 / 16;
constexpr double kFixedShare = 0.65;
constexpr double kClosedShare = 0.2;
constexpr int kRounds = 6;
/// Requests prepared for a closed loop, per second of it: far more than any
/// workload here answers, also on the reduced self-test grid.
constexpr double kClosedMaxQps = 20000;
/// Samples for the per-label decode timings of the traced run.
constexpr std::size_t kLabelSamples = 200;
/// Fault sets whose prepare the traced run times.
constexpr std::size_t kReplayFaultSets = 200;
/// Queries replayed through PreparedFaults::query in the traced run.
constexpr std::size_t kReplayQueries = 500;
/// Send lag (p99) beyond which the generator, not the server, fell behind.
constexpr double kLagLimitMs = 1.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 24;
  bool trace = false;
  Vertex cols = 0;  // 0 = the Scale default
  unsigned setups = 3;
  double rate = 0;  // 0 = the workload's fixed rate
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace" && (v == "0" || v == "1")) a.trace = v == "1";
    else if (k == "--cols") a.cols = static_cast<Vertex>(std::stoul(v));
    else if (k == "--setups") a.setups = static_cast<unsigned>(std::stoul(v));
    else if (k == "--rate") a.rate = std::stod(v);
    else throw std::invalid_argument("unknown flag " + k);
  }
  if (find_workload(a.workload) == nullptr) {
    throw std::invalid_argument("unknown workload '" + a.workload + "'");
  }
  if (a.seconds <= 0 || a.setups == 0 || a.rate < 0) {
    throw std::invalid_argument(
        "--seconds and --setups must be positive, --rate not negative");
  }
  return a;
}

fs::Request to_request(const RequestStream& stream, std::size_t i) {
  fs::Request r;
  r.opcode = fs::Opcode::kDist;
  r.pairs = {{stream.queries[i].s, stream.queries[i].t}};
  r.faults = stream.fault_sets[stream.queries[i].fault_set];
  return r;
}

/// Traced requests carry the request index in the trace context; the
/// server-side wrapper reads it back to pair its timestamps with ours.
fs::Request to_traced_request(const RequestStream& stream, std::size_t i) {
  fs::Request r = to_request(stream, i);
  r.trace.present = true;
  r.trace.trace_hi = 1;
  r.trace.trace_lo = i;
  // A generous budget rather than 0 ("none"): the router treats a present
  // context with deadline_us <= 1 as already expired and fetches nothing.
  r.trace.deadline_us = 60'000'000;
  return r;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double mean_of(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Context {
  Args args;
  const WorkloadSpec* spec = nullptr;
  Scale scale;
  /// Fixed open-loop rate, requests per second.
  double rate = 0;
  unsigned conns = 4;
  unsigned threads = 4;
};

/// One phase and the requests it may send: an open loop at `rate`, or a
/// closed loop (rate 0) that sends as many of them as it gets answered.
struct Phase {
  std::string label;
  double rate = 0;
  double seconds = 0;
  bool traced = false;
  /// Index into Plan::streams.
  std::size_t stream = 0;
  /// Open loops: arrival offsets, one per request.
  std::vector<double> sched;
  std::size_t count = 0;
  bool ran = false;
  PhaseRun run;
  PhaseStats stats;
  CheckResult check;
};

/// The phases of a run and their request streams, one per phase: the same
/// recurring pool (if any) with fresh endpoints and churned fault sets.
struct Plan {
  std::vector<RequestStream> streams;
  std::vector<Phase> phases;
};

void add_phase(Plan& plan, const Context& cx, std::string label, double rate,
               double seconds, bool traced = false) {
  Phase p;
  p.label = std::move(label);
  p.rate = rate;
  p.seconds = seconds;
  p.traced = traced;
  p.sched = poisson_schedule(rate, seconds,
                             cx.args.seed * 1000003 + plan.phases.size());
  p.count = p.sched.size();
  plan.phases.push_back(std::move(p));
}

void add_closed_phase(Plan& plan, double seconds) {
  Phase p;
  p.label = "closed";
  p.seconds = seconds;
  p.count = static_cast<std::size_t>(std::ceil(seconds * kClosedMaxQps));
  plan.phases.push_back(std::move(p));
}

void make_streams(Plan& plan, const Context& cx, const fsdl::Graph& g) {
  for (std::size_t k = 0; k < plan.phases.size(); ++k) {
    Phase& p = plan.phases[k];
    p.stream = plan.streams.size();
    plan.streams.push_back(
        make_requests(*cx.spec, g, cx.args.seed, k, p.count));
  }
}

void run_phase(Phase& p, const Plan& plan, FrontEnd& front,
               const Context& cx) {
  const RequestStream& stream = plan.streams[p.stream];
  std::vector<std::vector<std::uint8_t>> frames;
  frames.reserve(p.count);
  for (std::size_t i = 0; i < p.count; ++i) {
    frames.push_back(fs::frame(fs::encode_request(
        p.traced ? to_traced_request(stream, i) : to_request(stream, i))));
  }
  p.run = p.rate > 0 ? run_open_loop(front.port(), frames, p.sched, p.rate,
                                     p.seconds, cx.conns)
                     : run_closed_loop(front.port(), frames, p.seconds,
                                       cx.conns);
  p.stats = summarize(p.run);
  p.ran = true;
  const PhaseStats& st = p.stats;
  std::string windows;
  for (double w : st.window_p99_ms) {
    char buf[32];
    std::snprintf(buf, sizeof buf, windows.empty() ? "%.2f" : " %.2f", w);
    windows += buf;
  }
  char rate[64];
  if (p.rate > 0) {
    std::snprintf(rate, sizeof rate, "rate=%.0f q/s", p.rate);
  } else {
    std::snprintf(rate, sizeof rate, "closed goodput=%.1f q/s",
                  st.goodput_qps);
  }
  std::printf(
      "phase %-8s %s for %.2f s: attempted=%zu failed=%zu "
      "p50=%.3f ms p99=%.3f ms (median of %zu windows of %zu samples, %zu "
      "beyond p99 in each; window p99s [%s]) "
      "lag p50=%.3f p99=%.3f ms client=%s\n",
      p.label.c_str(), rate, p.seconds, st.attempted, st.failed, st.p50_ms,
      st.p99_ms, st.windows, st.window_samples, st.beyond_p99, windows.c_str(),
      st.lag_p50_ms, st.lag_p99_ms, p.run.client_fifo ? "fifo" : "normal");
}

struct Outcomes {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  CheckResult check;
  bool lagged = false;
};

/// Check every answer of every phase that ran (and the set-up probes, which
/// asked query 0 of the first stream), against references computed now,
/// outside all timing.
Outcomes check_all(Plan& plan, const Context& cx, const fsdl::Graph& g,
                   const fsdl::ForbiddenSetOracle& oracle,
                   const std::vector<Dist>& probe_answers) {
  Outcomes o;
  std::vector<std::size_t> needed(plan.streams.size(), 0);
  for (const Phase& p : plan.phases) {
    if (p.ran) needed[p.stream] = std::max(needed[p.stream], p.run.due.size());
  }
  needed[0] = std::max<std::size_t>(needed[0], 1);
  std::vector<References> refs;
  for (std::size_t k = 0; k < plan.streams.size(); ++k) {
    refs.push_back(compute_references(g, oracle, plan.streams[k], needed[k],
                                      cx.threads));
    if (!refs.back().disagreement.empty() && o.check.violations++ == 0) {
      o.check.first_violation = refs.back().disagreement;
    }
  }
  for (Phase& p : plan.phases) {
    if (!p.ran) continue;
    o.attempted += p.stats.attempted;
    o.failed += p.stats.failed;
    // A closed loop sends on replies, so it has no lag to speak of.
    o.lagged = o.lagged || (p.rate > 0 && p.stats.lag_p99_ms > kLagLimitMs);
    check_answers(p.run, plan.streams[p.stream], refs[p.stream], p.check);
    if (o.check.violations == 0) {
      o.check.first_violation = p.check.first_violation;
    }
    o.check.checked += p.check.checked;
    o.check.violations += p.check.violations;
  }
  for (Dist a : probe_answers) {
    PhaseRun probe;
    probe.outcome = {Outcome::kOk};
    probe.answer = {a};
    ++o.attempted;
    check_answers(probe, plan.streams[0], refs[0], o.check);
  }
  return o;
}

void print_result(const Outcomes& o, const std::vector<Metric>& metrics) {
  std::printf("check: answers checked=%zu violations=%zu failed=%zu/%zu\n",
              o.check.checked, o.check.violations, o.failed, o.attempted);
  if (o.check.violations > 0) {
    std::printf("first violation: %s\n", o.check.first_violation.c_str());
  }
  std::printf("flag: generator_behind=%s (send lag p99 above %.1f ms in some "
              "phase)\n",
              o.lagged ? "true" : "false", kLagLimitMs);
  const std::size_t failed = o.failed + o.check.violations;
  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(o.attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t k = 0; k < metrics.size(); ++k) {
    if (!std::isfinite(metrics[k].value)) {
      throw std::runtime_error("metric " + metrics[k].name + " is not finite");
    }
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  k ? ", " : "", metrics[k].name.c_str(), metrics[k].value,
                  metrics[k].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void print_setup(const char* label, const SetupTimes& t) {
  std::printf("setup %s: total=%.3f s (graph %.3f, build %.3f, warm %.3f, "
              "split %.3f, start+first query %.3f)\n",
              label, t.total_s, t.graph_s, t.build_s, t.warm_s, t.split_s,
              t.start_s);
}

/// The oracle the references come from: the served one for server
/// workloads, a fresh one over the whole labeling for the router.
const fsdl::ForbiddenSetOracle& reference_oracle(
    const Deployment& d, std::unique_ptr<fsdl::ForbiddenSetOracle>& own) {
  if (d.oracle) return *d.oracle;
  if (!own) own = std::make_unique<fsdl::ForbiddenSetOracle>(*d.scheme);
  return *own;
}

int run_untraced(const Context& cx) {
  const WorkloadSpec& spec = *cx.spec;
  const double s = cx.args.seconds;
  // Each set-up serves its share of the rounds, after a warm-up of its own,
  // so that every deployment (and its memory layout) is measured.
  const unsigned setups = cx.args.setups;
  const int per_setup = (kRounds + static_cast<int>(setups) - 1) /
                        static_cast<int>(setups);
  const double rounds = static_cast<double>(per_setup * setups);
  Plan plan;
  std::vector<std::size_t> first_phase;
  for (unsigned k = 0; k < setups; ++k) {
    first_phase.push_back(plan.phases.size());
    add_phase(plan, cx, "warmup", cx.rate, s * kWarmupShare / setups);
    for (int r = 0; r < per_setup; ++r) {
      add_phase(plan, cx, "fixed", cx.rate, s * kFixedShare / rounds);
      add_closed_phase(plan, s * kClosedShare / rounds);
    }
  }
  first_phase.push_back(plan.phases.size());
  const fsdl::Graph g = fsdl::make_grid2d(cx.scale.rows, cx.scale.cols);
  make_streams(plan, cx, g);

  std::vector<double> setup_s;
  std::vector<Dist> probe_answers;
  std::optional<Deployment> d;
  for (unsigned k = 0; k < setups; ++k) {
    d.reset();
    SetupTimes t;
    Dist answer = fsdl::kInfDist;
    d.emplace(
        set_up(spec, cx.scale, to_request(plan.streams[0], 0), t, answer));
    setup_s.push_back(t.total_s);
    probe_answers.push_back(answer);
    print_setup(std::to_string(k).c_str(), t);
    FrontEnd front(*d, nullptr);
    for (std::size_t i = first_phase[k]; i < first_phase[k + 1]; ++i) {
      run_phase(plan.phases[i], plan, front, cx);
    }
  }
  // Latency over every fixed-rate phase in order; goodput the median over
  // the closed loops.
  std::vector<const PhaseRun*> fixed_runs;
  std::vector<double> rates;
  for (const Phase& p : plan.phases) {
    if (p.label == "fixed") fixed_runs.push_back(&p.run);
    if (p.label == "closed") rates.push_back(p.stats.goodput_qps);
  }
  const PhaseStats fixed = summarize(concat(fixed_runs));
  const double good = median(rates);
  std::printf("fixed rate: p50=%.3f ms p99=%.3f ms over %zu requests "
              "(median of %zu windows of %zu samples, %zu beyond p99 in "
              "each)\ngoodput: %.1f q/s (median of %zu closed loops)\n",
              fixed.p50_ms, fixed.p99_ms, fixed.attempted, fixed.windows,
              fixed.window_samples, fixed.beyond_p99, good, rates.size());

  std::unique_ptr<fsdl::ForbiddenSetOracle> own;
  const Outcomes o =
      check_all(plan, cx, g, reference_oracle(*d, own), probe_answers);
  // Answer quality over the fixed-rate phases: the same seeded queries on
  // every run of the seed.
  CheckResult quality;
  for (const Phase& p : plan.phases) {
    if (p.label != "fixed") continue;
    quality.stretch_sum += p.check.stretch_sum;
    quality.stretch_count += p.check.stretch_count;
  }
  const double stretch =
      quality.stretch_count
          ? quality.stretch_sum / static_cast<double>(quality.stretch_count)
          : 1.0;
  const double ok_ratio =
      1.0 - static_cast<double>(o.failed + o.check.violations) /
                static_cast<double>(o.attempted);
  print_result(o, {{"setup_s", median(setup_s), "s"},
                   {"p50_ms", fixed.p50_ms, "ms"},
                   {"p99_ms", fixed.p99_ms, "ms"},
                   {"goodput_qps", good, "q/s"},
                   {"ok_ratio", ok_ratio, "ratio"},
                   {"stretch_mean", stretch, "ratio"},
                   {"rss_mib", peak_rss_mib(), "MiB"},
                   {"label_mib",
                    static_cast<double>(d->scheme->total_bits()) / 8.0 /
                        (1024.0 * 1024.0),
                    "MiB"}});
  return 0;
}

int run_traced(const Context& cx) {
  const WorkloadSpec& spec = *cx.spec;
  const double s = cx.args.seconds;
  Plan plan;
  add_phase(plan, cx, "warmup", cx.rate, s * kWarmupShare);
  add_phase(plan, cx, "untraced", cx.rate, s * 0.4);
  add_phase(plan, cx, "warmup", cx.rate, s * kWarmupShare);
  add_phase(plan, cx, "traced", cx.rate, s * 0.4, /*traced=*/true);
  const fsdl::Graph g = fsdl::make_grid2d(cx.scale.rows, cx.scale.cols);
  make_streams(plan, cx, g);
  Phase& base = plan.phases[1];
  Phase& traced = plan.phases[3];
  const std::size_t n = traced.count;
  const RequestStream& stream = plan.streams[traced.stream];

  SetupTimes setup;
  Dist probe_answer = fsdl::kInfDist;
  const Deployment d = set_up(spec, cx.scale, to_request(plan.streams[0], 0),
                              setup, probe_answer);
  print_setup("0", setup);

  {
    FrontEnd front(d, nullptr);
    run_phase(plan.phases[0], plan, front, cx);
    run_phase(base, plan, front, cx);
  }
  HandleLog log(n);
  FrontCounters counters;
  std::uint64_t gets_before = 0;
  {
    FrontEnd front(d, &log);
    run_phase(plan.phases[2], plan, front, cx);
    const FrontCounters warm = front.counters();
    gets_before = log.get_label_calls.load();
    const std::uint64_t ns_before = log.get_label_ns.load();
    run_phase(traced, plan, front, cx);
    counters = front.stop();
    counters.prepared_hits -= warm.prepared_hits;
    counters.prepared_misses -= warm.prepared_misses;
    counters.label_cache_hits -= warm.label_cache_hits;
    counters.label_cache_misses -= warm.label_cache_misses;
    log.get_label_ns -= ns_before;
  }
  const std::uint64_t gets = log.get_label_calls.load() - gets_before;

  // Layers of each answered request, from one clock on both sides.
  const PhaseRun& run = traced.run;
  double ingress = 0, handle = 0, egress = 0, covered = 0, client = 0;
  std::size_t ok = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (run.outcome[i] != Outcome::kOk) continue;
    ++ok;
    client += static_cast<double>(run.recv[i] - run.due[i]);
    if (log.start[i] == 0) continue;  // no handle() record: not covered
    const double in = static_cast<double>(log.start[i] - run.sent[i]);
    const double h = static_cast<double>(log.end[i] - log.start[i]);
    const double out = static_cast<double>(run.recv[i] - log.end[i]);
    ingress += in;
    handle += h;
    egress += out;
    covered += in + h + out;
  }
  const double per = ok ? 1e-3 / static_cast<double>(ok) : 0;  // ns -> us
  const double coverage = client > 0 ? covered / client : 0;
  std::printf("layers: ingress=%.1f us handle=%.1f us egress=%.1f us per "
              "request; coverage=%.4f of client latency\n",
              ingress * per, handle * per, egress * per, coverage);

  // Replay through the core API.
  std::unique_ptr<fsdl::ForbiddenSetOracle> own;
  const fsdl::ForbiddenSetOracle& oracle = reference_oracle(d, own);
  double warm_s = setup.warm_s;
  if (own) {
    const std::int64_t t0 = now_ns();
    own->warm();
    warm_s = static_cast<double>(now_ns() - t0) * 1e-9;
  }
  fsdl::Rng rng(cx.args.seed * 131 + 5);
  std::vector<double> decode_us;
  std::vector<double> wire_us;
  for (std::size_t k = 0; k < kLabelSamples; ++k) {
    const Vertex v = rng.vertex(g.num_vertices());
    std::int64_t t0 = now_ns();
    const fsdl::VertexLabel label = d.scheme->label(v);
    decode_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    const std::string blob = fsdl::shard::encode_wire_label(*d.scheme, v, 1);
    t0 = now_ns();
    const fsdl::shard::WireLabel wire = fsdl::shard::decode_wire_label(blob);
    wire_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    if (wire.label.owner != label.owner) {
      throw std::runtime_error("wire label decodes to another vertex");
    }
  }

  std::set<std::uint32_t> distinct;
  for (std::size_t i = 0; i < n; ++i) {
    distinct.insert(stream.queries[i].fault_set);
  }
  std::vector<double> prepare_ms;
  std::unordered_map<std::uint32_t, std::unique_ptr<fsdl::PreparedFaults>>
      prepared;
  for (std::uint32_t f : distinct) {
    if (prepared.size() >= kReplayFaultSets) break;
    const std::int64_t t0 = now_ns();
    auto p = std::make_unique<fsdl::PreparedFaults>(
        oracle.prepare(stream.fault_sets[f]));
    prepare_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    prepared.emplace(f, std::move(p));
  }
  // Per-query work: PreparedFaults::query's stats start from the prepare's
  // counters, so those are subtracted.
  double assemble = 0, dijkstra = 0, edges = 0, pb = 0, relax = 0;
  std::size_t replayed = 0;
  for (std::size_t i = 0; i < n && replayed < kReplayQueries; ++i) {
    const Query& q = stream.queries[i];
    const auto it = prepared.find(q.fault_set);
    if (it == prepared.end()) continue;
    const fsdl::QueryResult r =
        it->second->query(oracle.label(q.s), oracle.label(q.t));
    const fsdl::QueryStats& base_stats = it->second->prepare_stats();
    assemble += r.stats.assemble_us - base_stats.assemble_us;
    dijkstra += r.stats.dijkstra_us - base_stats.dijkstra_us;
    edges +=
        static_cast<double>(r.stats.sketch_edges - base_stats.sketch_edges);
    pb += static_cast<double>(r.stats.pb_checks - base_stats.pb_checks);
    relax += static_cast<double>(r.stats.dijkstra_relaxations -
                                 base_stats.dijkstra_relaxations);
    ++replayed;
  }
  const double per_q = replayed ? 1.0 / static_cast<double>(replayed) : 0;

  double encode_ns = 0, decode_ns = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const fs::Request req = to_traced_request(stream, i);
    std::int64_t t0 = now_ns();
    const std::vector<std::uint8_t> bytes = fs::encode_request(req);
    encode_ns += static_cast<double>(now_ns() - t0);
    fs::Request back;
    std::string error;
    t0 = now_ns();
    if (!fs::decode_request(bytes.data(), bytes.size(), back, error)) {
      throw std::runtime_error("request does not round-trip: " + error);
    }
    decode_ns += static_cast<double>(now_ns() - t0);
  }

  const Outcomes o = check_all(plan, cx, g, oracle, {probe_answer});

  const bool router = spec.front == Front::kRouter;
  const auto ratio = [](std::uint64_t part, std::uint64_t whole) {
    return whole ? static_cast<double>(part) / static_cast<double>(whole) : 0.0;
  };
  const double handle_us = handle * per;
  const double per_request = static_cast<double>(n);
  print_result(o, {
      {"core.build.wall_s", setup.build_s, "s"},
      {"core.label.warm_s", warm_s, "s"},
      {"core.label.decode_us", mean_of(decode_us), "us"},
      {"core.decoder.prepare_ms", mean_of(prepare_ms), "ms"},
      {"core.decoder.assemble_us", assemble * per_q, "us"},
      {"core.decoder.dijkstra_us", dijkstra * per_q, "us"},
      {"core.decoder.sketch_edges", edges * per_q, "count"},
      {"core.decoder.pb_checks", pb * per_q, "count"},
      {"core.decoder.relaxations", relax * per_q, "count"},
      {"server.protocol.encode_us", encode_ns * 1e-3 / per_request, "us"},
      {"server.protocol.decode_us", decode_ns * 1e-3 / per_request, "us"},
      {"server.ingress_us", ingress * per, "us"},
      {"server.handle_us", handle_us, "us"},
      {"server.egress_us", egress * per, "us"},
      {"server.prepared_cache.hit_ratio",
       ratio(counters.prepared_hits,
             counters.prepared_hits + counters.prepared_misses),
       "ratio"},
      {"server.prepared_cache.prepares_per_fault_set",
       ratio(counters.prepared_misses, distinct.size()), "ratio"},
      {"shard.router.handle_us", router ? handle_us : 0, "us"},
      {"shard.router.label_cache_hit_ratio",
       ratio(counters.label_cache_hits,
             counters.label_cache_hits + counters.label_cache_misses),
       "ratio"},
      {"shard.get_label.handle_us",
       gets ? static_cast<double>(log.get_label_ns.load()) * 1e-3 /
                  static_cast<double>(gets)
            : 0,
       "us"},
      {"shard.get_label.per_request", ratio(gets, ok), "count"},
      {"shard.wire_label.decode_us", mean_of(wire_us), "us"},
      {"loadgen.send_lag_ms", traced.stats.lag_p99_ms, "ms"},
      {"trace.overhead_pct",
       base.stats.p50_ms > 0
           ? (traced.stats.p50_ms - base.stats.p50_ms) / base.stats.p50_ms * 100
           : 0,
       "%"},
      {"trace.coverage", coverage, "ratio"},
  });
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    Context cx;
    cx.args = parse(argc, argv);
    cx.spec = find_workload(cx.args.workload);
    cx.rate = cx.args.rate > 0 ? cx.args.rate : cx.spec->rate_qps;
    if (cx.args.cols != 0) cx.scale.cols = cx.args.cols;
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    cx.conns = std::min(4u, hw);
    cx.threads = hw;
    std::printf("workload=%s seed=%llu seconds=%g trace=%d grid=%ux%u "
                "rate=%.0f q/s conns=%u\n",
                cx.spec->name, static_cast<unsigned long long>(cx.args.seed),
                cx.args.seconds, cx.args.trace ? 1 : 0, cx.scale.rows,
                cx.scale.cols, cx.rate, cx.conns);
    return cx.args.trace ? run_traced(cx) : run_untraced(cx);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fsdl_perfbench: %s\n", e.what());
    return 1;
  }
}
