// Persistent worker pool for the sharded round engine.
//
// The round loop's parallel phases (maintenance, queries, eviction,
// updates) fan a fixed task list out over a small set of long-lived
// threads, several times per simulated round -- at 100k+ rounds/hour,
// thread start-up cost per phase would dwarf the work.  ShardPool keeps
// num_threads - 1 workers parked on a condition variable between phases;
// Run() wakes them, the *caller* participates as worker 0 (so
// `--sim-threads=N` means N CPUs busy, and N == 1 degenerates to a plain
// inline loop with no synchronization at all), and tasks are claimed from
// a shared atomic counter so uneven task costs self-balance.
//
// Claiming is *chunked*: each fetch_add grabs a run of `chunk` consecutive
// task indices instead of one, so phases with many tiny tasks (per-member
// maintenance probes, per-shard eviction sweeps) pay one atomic RMW per
// chunk rather than per task.  The claim counter lives on its own cache
// line so the RMW traffic never false-shares with the pool's mutex or job
// descriptor.  Chunking changes which worker runs which task, never which
// tasks run -- the determinism contract below is unaffected.
//
// Determinism contract: the pool assigns *workers* to *tasks*
// nondeterministically -- any task may run on any worker in any order.
// Callers must therefore make task bodies depend only on the task index
// (per-task Rng streams, per-task result buffers) and use the worker
// index solely to select disjoint scratch (lookup slots, counter lanes).
// Run() is a full barrier: it returns only after every task completed.

#ifndef PDHT_SIM_SHARD_POOL_H_
#define PDHT_SIM_SHARD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pdht::sim {

class ShardPool {
 public:
  /// One phase's task body: invoked as fn(worker, task) with
  /// worker in [0, num_threads) and task in [0, num_tasks), each task
  /// exactly once.
  using TaskFn = std::function<void(uint32_t worker, uint32_t task)>;

  /// `num_threads` counts the caller: the pool spawns num_threads - 1
  /// background workers (none for num_threads <= 1).
  explicit ShardPool(uint32_t num_threads);
  ~ShardPool();

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  uint32_t num_threads() const { return num_threads_; }

  /// Runs fn over [0, num_tasks), caller participating as worker 0;
  /// returns after all tasks finish (barrier).  Not reentrant.
  /// `chunk` is the number of consecutive task indices claimed per atomic
  /// RMW; 0 picks a heuristic (~16 claims per thread, capped) that keeps
  /// both contention and load imbalance low.
  template <typename Fn>
  void Run(uint32_t num_tasks, const Fn& fn, uint32_t chunk = 0) {
    if (num_threads_ == 1 || num_tasks <= 1) {
      // Inline fast path: no atomics, no wakeups and no type-erased call,
      // so the body inlines into the loop.  The single-task case also
      // lands here so phases with one shard pay nothing for the pool.
      for (uint32_t t = 0; t < num_tasks; ++t) fn(0, t);
      return;
    }
    RunShared(num_tasks, TaskFn(std::cref(fn)), chunk);
  }

 private:
  /// The multi-worker path of Run.
  void RunShared(uint32_t num_tasks, const TaskFn& fn, uint32_t chunk);
  void WorkerLoop(uint32_t worker);
  void ClaimLoop(uint32_t worker);

  const uint32_t num_threads_;
  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  uint64_t job_gen_ = 0;       ///< bumped per Run(); workers wake on change
  uint32_t idle_workers_ = 0;  ///< background workers parked at the barrier
  bool stop_ = false;

  // Current job; valid while job_gen_ names it.
  const TaskFn* job_ = nullptr;
  uint32_t job_tasks_ = 0;
  uint32_t job_chunk_ = 1;

  // The claim counter is the only word every worker hammers during a
  // phase; isolate it on its own cache line so claim RMWs never
  // false-share with the mutex/job fields above (touched around parking).
  alignas(64) std::atomic<uint32_t> next_task_{0};
  [[maybe_unused]] char pad_after_counter_[64 - sizeof(std::atomic<uint32_t>)];
};

}  // namespace pdht::sim

#endif  // PDHT_SIM_SHARD_POOL_H_
