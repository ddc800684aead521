// Fixed-size thread pool with chunked parallel-for dispatch.
//
// Used to parallelize embarrassingly-parallel work at every level of the
// substrate: HP configurations (ConfigPool::build), clients within a
// federated round (FedTrainer::run_round), and per-client evaluation
// (fl::client_errors). Work items must not share mutable state; the pool
// provides no synchronization beyond joining.
//
// Dispatch model: a parallel loop is one shared batch descriptor plus an
// atomic chunk counter — participating threads (the caller plus queued
// helpers) repeatedly claim [begin, end) ranges until the counter is
// exhausted. No per-index std::function allocation, no per-index mutex.
//
// Nesting contract: a parallel_for issued from inside another parallel_for
// (any pool, including this one) executes inline on the calling thread.
// This makes nested parallelism safe by construction — the outer loop owns
// the hardware, inner loops degrade to serial instead of deadlocking the
// pool or oversubscribing cores — and lets library code request parallelism
// unconditionally.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace fedtune {

class ThreadPool {
 public:
  // n_threads == 0 selects hardware_concurrency() (at least 1).
  explicit ThreadPool(std::size_t n_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  // Upper bound on the number of threads that can execute one parallel loop
  // concurrently (the workers plus the calling thread). Worker-slot ids
  // passed to parallel_for_slots are always < max_slots().
  std::size_t max_slots() const { return workers_.size() + 1; }

  // Runs fn(i) for i in [0, n). Blocks until all items complete. Exceptions
  // thrown by work items are rethrown (the first one captured) after all
  // items finish or are abandoned.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  // Chunked variant for fine-grained loops: fn(begin, end) over disjoint
  // ranges covering [0, n). grain == 0 picks a chunk size that gives each
  // participant several chunks for load balance.
  void parallel_for_chunked(
      std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn,
      std::size_t grain = 0);

  // Slot-aware variant: fn(slot, i) where `slot` is stable for the executing
  // thread within this call and < max_slots(). Use it to index per-worker
  // scratch (model replicas, arenas) without locking. Work-to-output mapping
  // must not depend on `slot` if deterministic results are required.
  void parallel_for_slots(std::size_t n,
                          const std::function<void(std::size_t, std::size_t)>& fn);

  // Enqueues a standalone task (not part of a parallel loop) on a worker
  // thread; the returned future reports completion or rethrows the task's
  // exception. Used by runtime::AsyncEvalPipeline to overlap checkpoint
  // evaluation with the caller's own compute. A submitted task that issues
  // a parallel_for participates in its own batch, so it completes even when
  // every other worker is busy.
  std::future<void> submit(std::function<void()> fn);

  // True while the calling thread is executing inside any parallel_for of
  // any pool — i.e. a parallel_for issued now would run inline.
  static bool in_parallel_region();

  // Process-wide shared pool (lazily constructed).
  static ThreadPool& global();

 private:
  void worker_loop();
  // All public loops funnel here: body(slot, begin, end) over chunks of
  // size `grain`.
  void run_batch(std::size_t n, std::size_t grain,
                 const std::function<void(std::size_t, std::size_t, std::size_t)>& body);

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

// Runs fn(i) for i in [0, n) on the global pool and returns the results by
// index: slot i holds fn(i) whichever thread ran it. Independent repeated
// trials use it — each keys its stream off its index (rng.split(i)), and
// callers reduce the slots in index order, so the result is bitwise the
// serial loop's. Nested calls run inline (see the nesting contract above).
template <class Fn>
auto parallel_map(std::size_t n, Fn&& fn)
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  std::vector<std::invoke_result_t<Fn&, std::size_t>> out(n);
  ThreadPool::global().parallel_for(n, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace fedtune
