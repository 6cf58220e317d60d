#include "sim/shard_pool.h"

#include <algorithm>

namespace pdht::sim {

ShardPool::ShardPool(uint32_t num_threads)
    : num_threads_(num_threads == 0 ? 1 : num_threads) {
  threads_.reserve(num_threads_ - 1);
  for (uint32_t w = 1; w < num_threads_; ++w) {
    threads_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

ShardPool::~ShardPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ShardPool::ClaimLoop(uint32_t worker) {
  const TaskFn& fn = *job_;
  const uint32_t num_tasks = job_tasks_;
  const uint32_t chunk = job_chunk_;
  // Chunked claiming: one RMW buys `chunk` consecutive tasks.  The
  // counter overshoots num_tasks by at most num_threads * chunk, far from
  // the uint32 range for any real phase.
  for (uint32_t base = next_task_.fetch_add(chunk, std::memory_order_relaxed);
       base < num_tasks;
       base = next_task_.fetch_add(chunk, std::memory_order_relaxed)) {
    const uint32_t end = std::min(base + chunk, num_tasks);
    for (uint32_t t = base; t < end; ++t) fn(worker, t);
  }
}

void ShardPool::WorkerLoop(uint32_t worker) {
  uint64_t seen_gen = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++idle_workers_;
      cv_done_.notify_one();
      cv_start_.wait(lock,
                     [&] { return stop_ || job_gen_ != seen_gen; });
      if (stop_) return;
      seen_gen = job_gen_;
      --idle_workers_;
    }
    ClaimLoop(worker);
  }
}

void ShardPool::RunShared(uint32_t num_tasks, const TaskFn& fn,
                          uint32_t chunk) {
  if (chunk == 0) {
    // ~16 claims per thread balances contention (fewer RMWs) against
    // load imbalance (the last chunks may straggle); the cap keeps one
    // claim from serializing a visible fraction of a small phase.
    chunk = std::min(256u, std::max(1u, num_tasks / (num_threads_ * 16)));
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    // All workers must be parked before the job state is re-armed (a
    // straggler from the previous phase must not see the new job's
    // counter).  Run() is a barrier, so this only waits for workers that
    // are mid-park.
    cv_done_.wait(lock, [&] { return idle_workers_ == num_threads_ - 1; });
    job_ = &fn;
    job_tasks_ = num_tasks;
    job_chunk_ = chunk;
    next_task_.store(0, std::memory_order_relaxed);
    ++job_gen_;
  }
  cv_start_.notify_all();
  ClaimLoop(0);
  // The claim counter is exhausted; wait for in-flight tasks to finish
  // (workers park again when they fail to claim).
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [&] { return idle_workers_ == num_threads_ - 1; });
}

}  // namespace pdht::sim
