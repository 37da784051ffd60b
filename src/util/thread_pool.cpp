#include "util/thread_pool.hpp"

namespace fsdl {

ThreadPool::ThreadPool(unsigned num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (unsigned k = 0; k < num_threads; ++k) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

bool ThreadPool::submit(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return false;
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
  return true;
}

void ThreadPool::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
  std::call_once(join_once_, [this] {
    for (auto& w : workers_) w.join();
  });
}

std::size_t ThreadPool::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

std::size_t ThreadPool::active_jobs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return closed_ || !queue_.empty(); });
      if (queue_.empty()) return;  // closed_ and drained
      job = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    job();
    completed_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
    }
  }
}

}  // namespace fsdl
