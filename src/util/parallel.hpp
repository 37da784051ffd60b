// Fork-join parallelism for CPU-bound loops (the label builder's two
// per-level fan-outs; usable by any caller with independent iterations).
//
// Complements ThreadPool (util/thread_pool.*): the pool keeps a blocking
// queue for the server's per-request jobs, while parallel_for is the
// fire-and-join shape construction wants — no queue, no std::function per
// item in the steady state, workers die with the call.
#pragma once

#include <cstddef>
#include <functional>

namespace fsdl {

/// Resolve a thread-count knob: n > 0 is taken literally; 0 means "auto" —
/// the FSDL_BUILD_THREADS environment variable if set to a positive value
/// (CI pins its matrix legs through this), else hardware concurrency
/// (at least 1).
unsigned resolve_threads(unsigned requested) noexcept;

/// Invoke body(worker_id, index) for every index in [0, count), spreading
/// indices over `threads` workers in dynamically scheduled chunks (per-index
/// cost may be lopsided — a truncated BFS ball is as big as the net is
/// locally dense). worker_id < threads lets the caller hand out per-worker
/// scratch. Runs inline (worker_id 0) when threads <= 1 or count < 2.
/// Iterations must be independent; the first exception thrown by any worker
/// is rethrown in the caller after all workers join.
void parallel_for(std::size_t count, unsigned threads,
                  const std::function<void(unsigned, std::size_t)>& body);

}  // namespace fsdl
