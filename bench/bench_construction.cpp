// E10 — preprocessing cost: "all labels can be computed in polynomial time".
//
// Measures wall-clock label construction across n per family, one build per
// configuration. Paper-predicted shape: near-linear growth in n·log n for
// fixed α and ε (each level costs one truncated BFS per net point).
//
// E18 — thread-scaling mode (`--threads [LIST]`): sweeps
// BuildOptions::threads over 1, 2, 4, …, hardware concurrency (or an
// explicit comma-separated LIST) on a 4x500 grid, the serving benchmark's
// graph (`--grid S` for an SxS grid, `--grid RxC` for R rows of C columns,
// instead) and emits one JSON line per configuration with the
// wall time, speedup over the serial build, and a bit-identity check of
// the produced labels against the serial run. Exits non-zero on any
// identity mismatch, so the sweep doubles as a determinism gate in
// scripts. Each line also carries the label decode cost of that build:
// `decode_us_per_label` (every label decoded once, serially, outside any
// cache) and `warm_s` (ForbiddenSetOracle::warm(), with the auto thread
// count FSDL_BUILD_THREADS pinned to the line's thread count).
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "bench/common.hpp"
#include "core/failure_free.hpp"
#include "core/serialize.hpp"
#include "util/parallel.hpp"

using namespace fsdl;
using namespace fsdl::bench;

namespace {

void BM_BuildPathCompact(benchmark::State& state) {
  const auto n = static_cast<Vertex>(state.range(0));
  const Graph g = make_path(n);
  for (auto _ : state) {
    const auto scheme =
        ForbiddenSetLabeling::build(g, SchemeParams::compact(1.0, 2));
    benchmark::DoNotOptimize(scheme.total_bits());
    state.counters["mean_label_bits"] = scheme.mean_label_bits();
  }
  state.counters["n"] = n;
}
BENCHMARK(BM_BuildPathCompact)
    ->Arg(1024)->Arg(2048)->Arg(4096)->Arg(8192)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_BuildPathFaithful(benchmark::State& state) {
  const auto n = static_cast<Vertex>(state.range(0));
  const Graph g = make_path(n);
  for (auto _ : state) {
    const auto scheme =
        ForbiddenSetLabeling::build(g, SchemeParams::faithful(1.0));
    benchmark::DoNotOptimize(scheme.total_bits());
    state.counters["mean_label_bits"] = scheme.mean_label_bits();
  }
  state.counters["n"] = n;
}
BENCHMARK(BM_BuildPathFaithful)
    ->Arg(128)->Arg(256)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_BuildDiskCompact(benchmark::State& state) {
  const auto n = static_cast<Vertex>(state.range(0));
  Rng rng(5);
  const Graph g = largest_component_subgraph(
      make_unit_disk(n, 0.09 * std::sqrt(800.0 / n) + 0.02, rng));
  for (auto _ : state) {
    const auto scheme =
        ForbiddenSetLabeling::build(g, SchemeParams::compact(1.0, 2));
    benchmark::DoNotOptimize(scheme.total_bits());
    state.counters["mean_label_bits"] = scheme.mean_label_bits();
  }
  state.counters["n_actual"] = g.num_vertices();
}
BENCHMARK(BM_BuildDiskCompact)
    ->Arg(200)->Arg(400)->Arg(800)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_BuildFailureFree(benchmark::State& state) {
  const auto n = static_cast<Vertex>(state.range(0));
  const Graph g = make_path(n);
  for (auto _ : state) {
    const auto scheme = FailureFreeLabeling::build(g, 1.0);
    benchmark::DoNotOptimize(scheme.total_bits());
  }
  state.counters["n"] = n;
}
BENCHMARK(BM_BuildFailureFree)
    ->Arg(1024)->Arg(4096)->Arg(16384)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

/// The E18 sweep. Compact parameters keep the default grid's build in
/// the seconds range; the speedup shape is the same as faithful's because
/// both spend their time in the identical per-net-point BFS fan-out.
int run_threads_sweep(const std::vector<unsigned>& requested, unsigned rows,
                      unsigned cols) {
  const Graph g = make_grid2d(rows, cols);
  const SchemeParams params = SchemeParams::compact(1.0, 2);

  std::vector<unsigned> sweep = requested;
  if (sweep.empty()) {
    const unsigned hw = resolve_threads(0);
    for (unsigned t = 1; t < hw; t <<= 1) sweep.push_back(t);
    sweep.push_back(hw);
  }

  // Decode cost of one build: serial per-label decode, then warm() on
  // `threads` workers (its auto count, pinned through the environment).
  const auto decode_costs = [](const ForbiddenSetLabeling& scheme,
                               unsigned threads) {
    const WallTimer decode;
    for (Vertex v = 0; v < scheme.num_vertices(); ++v) {
      benchmark::DoNotOptimize(scheme.label(v));
    }
    const double decode_us =
        decode.elapsed_seconds() * 1e6 / scheme.num_vertices();
    // Builds take their thread count explicitly; only warm() reads this.
    setenv("FSDL_BUILD_THREADS", std::to_string(threads).c_str(), 1);
    const ForbiddenSetOracle oracle(scheme);
    const WallTimer warm;
    oracle.warm();
    return std::make_pair(decode_us, warm.elapsed_seconds());
  };

  const auto serialized = [&](unsigned threads) {
    BuildOptions options;
    options.threads = threads;
    const WallTimer timer;
    const auto scheme = ForbiddenSetLabeling::build(g, params, options);
    const double build_s = timer.elapsed_seconds();
    std::ostringstream out;
    save_labeling(scheme, out);
    const auto [decode_us, warm_s] = decode_costs(scheme, threads);
    return std::make_tuple(build_s, scheme.total_bits(), out.str(), decode_us,
                           warm_s);
  };

  const auto [serial_s, serial_bits, serial_blob, serial_decode_us,
              serial_warm_s] = serialized(1);
  bool all_identical = true;
  for (const unsigned t : sweep) {
    const auto [build_s, bits, blob, decode_us, warm_s] = serialized(t);
    const bool identical = blob == serial_blob && bits == serial_bits;
    all_identical = all_identical && identical;
    std::printf(
        "{\"bench\":\"construction_threads\",\"graph\":\"grid%ux%u\","
        "\"n\":%u,\"threads\":%u,\"build_s\":%.3f,\"speedup_vs_1\":%.2f,"
        "\"total_bits\":%zu,\"identical_to_serial\":%s,"
        "\"decode_us_per_label\":%.1f,\"warm_s\":%.4f}\n",
        rows, cols, g.num_vertices(), t, build_s, serial_s / build_s, bits,
        identical ? "true" : "false", decode_us, warm_s);
    std::fflush(stdout);
  }
  return all_identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool sweep = false;
  std::vector<unsigned> list;
  // Decoded labels take ~5x their serialized bits and warm_s holds them all:
  // a 45x45 grid outgrew 16 GB, the 4x500 one peaks at ~0.7 GB.
  unsigned rows = 4, cols = 500;
  for (int k = 1; k < argc; ++k) {
    if (std::strcmp(argv[k], "--threads") == 0) {
      sweep = true;
      if (k + 1 < argc && argv[k + 1][0] != '-') {
        std::stringstream ss(argv[++k]);
        for (std::string item; std::getline(ss, item, ',');) {
          const long v = std::strtol(item.c_str(), nullptr, 10);
          if (v > 0) list.push_back(static_cast<unsigned>(v));
        }
      }
    } else if (std::strcmp(argv[k], "--grid") == 0 && k + 1 < argc) {
      // S for an SxS grid, RxC for R rows of C columns.
      char* end = nullptr;
      rows = cols = static_cast<unsigned>(std::strtol(argv[++k], &end, 10));
      if (*end == 'x') {
        cols = static_cast<unsigned>(std::strtol(end + 1, nullptr, 10));
      }
    }
  }
  if (sweep) return run_threads_sweep(list, rows, cols);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
