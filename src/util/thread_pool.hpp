// Fixed-size worker pool with an unbounded blocking job queue.
//
// Sits next to parallel_for as the long-lived-job half of the threading
// toolkit; the server's reactors dispatch every decoded request through
// one. Admission control is the caller's business (the server counts
// pending requests itself), so the queue never refuses live work.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fsdl {

class ThreadPool {
 public:
  /// `num_threads` workers (0 coerced to 1).
  explicit ThreadPool(unsigned num_threads);
  /// Drains outstanding jobs, then joins.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a job. Returns false (job dropped) only after shutdown()
  /// began.
  bool submit(std::function<void()> job);

  /// Stop accepting jobs, finish queued ones, join all workers. Idempotent.
  void shutdown();

  unsigned size() const noexcept { return static_cast<unsigned>(workers_.size()); }

  /// Jobs submitted but not yet picked up by a worker.
  std::size_t queue_depth() const;

  /// Workers currently inside a job.
  std::size_t active_jobs() const;

  /// Jobs that have finished, ever. A liveness signal, not an accounting
  /// one: a watchdog seeing every worker busy *and* this number frozen
  /// across its stall window knows the pool is wedged, not merely full.
  std::uint64_t jobs_completed() const noexcept {
    return completed_.load(std::memory_order_relaxed);
  }

 private:
  void worker_loop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::size_t active_ = 0;
  std::atomic<std::uint64_t> completed_{0};
  bool closed_ = false;
  std::once_flag join_once_;
  std::vector<std::thread> workers_;
};

}  // namespace fsdl
