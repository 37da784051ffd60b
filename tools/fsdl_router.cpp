// fsdl_router — scatter-gather front door for a sharded fsdl_serve fleet.
//
//   fsdl_router --shard HOST:PORT[,HOST:PORT...] [--shard ...] ...
//               [--port P] [--workers N] [--backlog B]
//               [--recv-timeout-ms T] [--send-timeout-ms T] [--max-queued Q]
//               [--drain-ms D] [--reactor-threads N]
//               [--label-cache C] [--label-cache-shards S]
//               [--prepared-cache P]
//               [--ring-seed S] [--ring-points P]
//               [--max-attempts A] [--breaker-threshold F]
//               [--breaker-cooldown-ms MS] [--hedge-us U]
//               [--upstream-connect-ms T] [--upstream-recv-ms T]
//               [--upstream-send-ms T]
//               [--no-stale-serve] [--retry-budget N] [--retry-refill R]
//               [--probe-interval-ms MS]
//               [--watchdog-ms MS] [--watchdog-stall-ms MS]
//               [--watchdog-abort-ms MS]
//               [--metrics-dump FILE] [--metrics-interval S]
//               [--trace-log FILE]
//
// Degraded mode (on unless --no-stale-serve): when every replica of an
// owning shard is down, cached labels it owns are still served and the
// response is marked DEGRADED with the serving epoch
// (fsdl_degraded_responses_total{reason=stale_label|shard_down} counts
// them). --retry-budget/--retry-refill shape the per-shard failover token
// bucket; --probe-interval-ms paces the inline recovery probes. The
// watchdog flags control the reactor/worker liveness monitor
// (--watchdog-abort-ms > 0 turns a hard wedge into SIGABRT + core).
//
// Each --shard flag names the replica endpoints of one shard, in shard-id
// order: the i-th --shard is shard i. The router speaks the ordinary fsdl
// wire protocol on its own port — clients (fsdl_loadgen included) cannot
// tell it from a single server holding the whole labeling — and answers
// DIST/BATCH by fetching the needed labels with GET_LABEL from the owning
// shards (one HA ReplicaClient per shard: breakers, failover, optional
// hedging) and running the forbidden-set decoder locally. See
// src/shard/router.hpp for the design and the safety argument.
//
// At startup the router health-checks every shard and refuses to come up
// unless each reports the expected `shard=I/K` identity and all agree on n
// — a mis-wired fleet fails fast instead of misrouting queries.
//
// SIGINT/SIGTERM drain gracefully; --metrics-dump writes the Prometheus
// exposition (including fsdl_router_label_fetches_total,
// fsdl_router_label_cache_{hits,misses}_total, the per-shard failover
// counters, and fsdl_router_shard_fetch_latency_microseconds{shard="k"})
// every --metrics-interval seconds and once at shutdown. The FLEET_STATS
// opcode additionally scrapes every shard's METRICS and merges the fleet
// into one exposition (see server/fleet.hpp). --trace-log FILE appends
// distributed-tracing span records (JSON lines, svc="router") for sampled
// requests; stitch with fsdl_trace --stitch. Needs -DFSDL_TRACE=ON.
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <poll.h>
#include <unistd.h>

#include "obs/trace.hpp"
#include "server/replica_client.hpp"
#include "shard/router.hpp"
#include "util/atomic_file.hpp"
#include "util/failpoint.hpp"

namespace {

int g_shutdown_pipe[2] = {-1, -1};

void on_terminate(int) {
  const char byte = 't';
  [[maybe_unused]] ssize_t n = ::write(g_shutdown_pipe[1], &byte, 1);
}

[[noreturn]] void usage(const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(
      stderr,
      "usage: fsdl_router --shard HOST:PORT[,HOST:PORT...] [--shard ...]\n"
      "                   [--port P] [--workers N] [--backlog B]\n"
      "                   [--recv-timeout-ms T] [--send-timeout-ms T]\n"
      "                   [--max-queued Q] [--drain-ms D]\n"
      "                   [--reactor-threads N]\n"
      "                   [--label-cache C] [--label-cache-shards S]\n"
      "                   [--prepared-cache P]\n"
      "                   [--ring-seed S] [--ring-points P]\n"
      "                   [--max-attempts A] [--breaker-threshold F]\n"
      "                   [--breaker-cooldown-ms MS] [--hedge-us U]\n"
      "                   [--upstream-connect-ms T] [--upstream-recv-ms T]\n"
      "                   [--upstream-send-ms T]\n"
      "                   [--no-stale-serve] [--retry-budget N]\n"
      "                   [--retry-refill R] [--probe-interval-ms MS]\n"
      "                   [--watchdog-ms MS] [--watchdog-stall-ms MS]\n"
      "                   [--watchdog-abort-ms MS]\n"
      "                   [--metrics-dump FILE] [--metrics-interval S]\n"
      "                   [--trace-log FILE]\n"
      "\n"
      "                   [--failpoints SPEC]   (also: env FSDL_FAILPOINTS)\n"
      "The i-th --shard flag lists the replica endpoints of shard i.\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fsdl;
  {
    const std::string error = failpoint::arm_from_env();
    if (!error.empty()) {
      std::fprintf(stderr, "fsdl_router: FSDL_FAILPOINTS: %s\n",
                   error.c_str());
      return 2;
    }
  }
  shard::RouterOptions options;
  std::string metrics_path;
  double metrics_interval_s = 5.0;
  for (int k = 1; k < argc; ++k) {
    const std::string arg = argv[k];
    if (arg == "--failpoints" && k + 1 < argc) {
      const std::string error = failpoint::arm(argv[++k]);
      if (!error.empty()) usage(error.c_str());
    } else if (arg == "--shard" && k + 1 < argc) {
      try {
        options.shards.push_back(server::parse_endpoints(argv[++k]));
      } catch (const std::exception& e) {
        usage(e.what());
      }
    } else if (arg == "--port" && k + 1 < argc) {
      options.transport.port = static_cast<std::uint16_t>(std::atoi(argv[++k]));
    } else if (arg == "--workers" && k + 1 < argc) {
      options.transport.workers = static_cast<unsigned>(std::atoi(argv[++k]));
    } else if (arg == "--backlog" && k + 1 < argc) {
      options.transport.listen_backlog = std::atoi(argv[++k]);
    } else if (arg == "--recv-timeout-ms" && k + 1 < argc) {
      options.transport.recv_timeout_ms =
          static_cast<unsigned>(std::atoi(argv[++k]));
    } else if (arg == "--send-timeout-ms" && k + 1 < argc) {
      options.transport.send_timeout_ms =
          static_cast<unsigned>(std::atoi(argv[++k]));
    } else if (arg == "--max-queued" && k + 1 < argc) {
      options.transport.max_queued_requests =
          static_cast<std::size_t>(std::atol(argv[++k]));
    } else if (arg == "--drain-ms" && k + 1 < argc) {
      options.transport.drain_deadline_ms =
          static_cast<unsigned>(std::atoi(argv[++k]));
    } else if (arg == "--reactor-threads" && k + 1 < argc) {
      options.transport.reactor_threads =
          static_cast<unsigned>(std::atoi(argv[++k]));
    } else if (arg == "--label-cache" && k + 1 < argc) {
      options.label_cache_capacity =
          static_cast<std::size_t>(std::atol(argv[++k]));
    } else if (arg == "--label-cache-shards" && k + 1 < argc) {
      options.label_cache_shards =
          static_cast<std::size_t>(std::atol(argv[++k]));
    } else if (arg == "--prepared-cache" && k + 1 < argc) {
      options.prepared_capacity = static_cast<std::size_t>(std::atol(argv[++k]));
    } else if (arg == "--ring-seed" && k + 1 < argc) {
      options.ring_seed = std::strtoull(argv[++k], nullptr, 0);
    } else if (arg == "--ring-points" && k + 1 < argc) {
      options.ring_points =
          static_cast<std::uint32_t>(std::strtoul(argv[++k], nullptr, 10));
    } else if (arg == "--max-attempts" && k + 1 < argc) {
      options.replica.max_attempts = static_cast<unsigned>(std::atoi(argv[++k]));
    } else if (arg == "--breaker-threshold" && k + 1 < argc) {
      options.replica.breaker_threshold =
          static_cast<unsigned>(std::atoi(argv[++k]));
    } else if (arg == "--breaker-cooldown-ms" && k + 1 < argc) {
      options.replica.breaker_cooldown_ms =
          static_cast<unsigned>(std::atoi(argv[++k]));
    } else if (arg == "--hedge-us" && k + 1 < argc) {
      options.replica.hedge_us = static_cast<unsigned>(std::atoi(argv[++k]));
    } else if (arg == "--upstream-connect-ms" && k + 1 < argc) {
      options.replica.client.connect_timeout_ms =
          static_cast<unsigned>(std::atoi(argv[++k]));
    } else if (arg == "--upstream-recv-ms" && k + 1 < argc) {
      options.replica.client.recv_timeout_ms =
          static_cast<unsigned>(std::atoi(argv[++k]));
    } else if (arg == "--upstream-send-ms" && k + 1 < argc) {
      options.replica.client.send_timeout_ms =
          static_cast<unsigned>(std::atoi(argv[++k]));
    } else if (arg == "--no-stale-serve") {
      options.stale_serve = false;
    } else if (arg == "--retry-budget" && k + 1 < argc) {
      options.retry_budget_cap = std::strtod(argv[++k], nullptr);
    } else if (arg == "--retry-refill" && k + 1 < argc) {
      options.retry_budget_refill = std::strtod(argv[++k], nullptr);
    } else if (arg == "--probe-interval-ms" && k + 1 < argc) {
      options.probe_interval_ms = static_cast<unsigned>(std::atoi(argv[++k]));
    } else if (arg == "--watchdog-ms" && k + 1 < argc) {
      options.transport.watchdog_interval_ms =
          static_cast<unsigned>(std::atoi(argv[++k]));
    } else if (arg == "--watchdog-stall-ms" && k + 1 < argc) {
      options.transport.watchdog_stall_ms =
          static_cast<unsigned>(std::atoi(argv[++k]));
    } else if (arg == "--watchdog-abort-ms" && k + 1 < argc) {
      options.transport.watchdog_abort_ms =
          static_cast<unsigned>(std::atoi(argv[++k]));
    } else if (arg == "--metrics-dump" && k + 1 < argc) {
      metrics_path = argv[++k];
    } else if (arg == "--metrics-interval" && k + 1 < argc) {
      metrics_interval_s = std::strtod(argv[++k], nullptr);
    } else if (arg == "--trace-log" && k + 1 < argc) {
      const char* path = argv[++k];
      if (!obs::open_event_log(path, "router")) {
        std::fprintf(stderr,
                     "fsdl_router: warning: cannot open trace log %s%s\n",
                     path,
                     FSDL_TRACE_ENABLED
                         ? ""
                         : " (built without FSDL_TRACE, --trace-log has no "
                           "effect)");
      }
    } else {
      usage("unknown option");
    }
  }
  if (options.shards.empty()) usage("need at least one --shard");
  if (metrics_interval_s <= 0) usage("--metrics-interval must be > 0");

  try {
    shard::Router router(options);

    if (::pipe(g_shutdown_pipe) != 0) {
      std::fprintf(stderr, "error: pipe() failed\n");
      return 1;
    }
    std::signal(SIGINT, on_terminate);
    std::signal(SIGTERM, on_terminate);

    router.start();  // validates fleet topology; throws on mismatch
    std::printf("fsdl_router: shards=%u n=%u workers=%u label-cache=%zu "
                "prepared-cache=%zu port=%u\n",
                router.shard_count(), router.num_vertices(),
                options.transport.workers, options.label_cache_capacity,
                options.prepared_capacity, router.port());
    std::fflush(stdout);

    const int timeout_ms =
        metrics_path.empty() ? -1
                             : static_cast<int>(metrics_interval_s * 1000.0);
    const auto flush_metrics = [&] {
      std::string error;
      if (!atomic_write_file(metrics_path, router.prometheus(), &error)) {
        std::fprintf(stderr, "fsdl_router: cannot write metrics to %s: %s\n",
                     metrics_path.c_str(), error.c_str());
      }
    };
    for (;;) {
      struct pollfd pfd{g_shutdown_pipe[0], POLLIN, 0};
      const int rc = ::poll(&pfd, 1, timeout_ms);
      if (rc < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (rc == 0) {  // metrics flush tick
        flush_metrics();
        continue;
      }
      char byte = 't';
      [[maybe_unused]] ssize_t nread = ::read(g_shutdown_pipe[0], &byte, 1);
      break;
    }
    std::printf("\nfsdl_router: shutting down...\n");
    router.stop();
    if (!metrics_path.empty()) flush_metrics();
    std::printf("%s", router.metrics().render(router.prepared_stats()).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
