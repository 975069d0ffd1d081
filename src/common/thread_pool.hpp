// The process's one compute pool and its parallel_for.
//
// Tensor kernels split rows and tiles over it, and the cluster
// simulation runs the N workers of a global iteration on it (they are
// data-parallel by construction: each touches only its own shard,
// discriminator and inbox). A worker body's kernels therefore nest a
// parallel_for inside another one on the same pool.
//
// parallel_for is the pool's one entry point. The caller puts a job
// descriptor on its own stack; idle pool threads and the caller itself
// claim chunks from the job's atomic counter, and the caller then waits
// only for chunks that other threads already hold. Those threads are
// running, not queued behind a busy pool, so nesting cannot deadlock.
// A waiting caller runs only its own job's chunks: GEMM packs into
// thread_local scratch (tensor/gemm.cpp), and a foreign chunk that ran
// a product of its own there would resize that scratch under the
// caller's. Dispatch allocates nothing. On a 1-core host the pool has
// one thread and parallel_for runs serially on the caller.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace mdgan {

// Default minimum-work grain (in elements, assuming ~1 cheap flop each)
// for parallel elementwise/reduction ops: below one chunk of this size,
// task dispatch costs more than it buys. Ops whose per-element cost is
// higher (exp, tanh) divide it accordingly.
constexpr std::size_t kParallelGrainElems = 1u << 15;

// How many chunks [0, n) splits into under a minimum `grain` per chunk
// on `threads` threads; <= 1 means run serially on the caller. The
// chunking policy of ThreadPool::parallel_for.
constexpr std::size_t parallel_chunk_count(std::size_t n, std::size_t grain,
                                           std::size_t threads) {
  if (n == 0) return 0;
  if (grain == 0) grain = 1;
  const std::size_t by_grain = (n + grain - 1) / grain;
  const std::size_t cap = n < threads ? n : threads;
  return by_grain < cap ? by_grain : cap;
}

class ThreadPool {
 public:
  // n_threads == 0 selects std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t n_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  // Runs fn(begin, end) over [0, n) split into
  // parallel_chunk_count(n, grain, size()) equal contiguous chunks, and
  // returns once every chunk has finished. A single chunk (small n, or a
  // one-thread pool) runs inline on the caller. Every chunk runs even if
  // another throws; the exception of the lowest-numbered failing chunk
  // is rethrown after the last one finishes. `grain` == 0 behaves like 1.
  template <typename Fn>
  void parallel_for(std::size_t n, std::size_t grain, Fn&& fn) {
    const std::size_t n_chunks = parallel_chunk_count(n, grain, size());
    if (n_chunks == 0) return;
    if (n_chunks == 1) {
      fn(std::size_t{0}, n);
      return;
    }
    using F = std::remove_reference_t<Fn>;
    Job job;
    job.call = [](const void* f, std::size_t begin, std::size_t end) {
      (*static_cast<F*>(const_cast<void*>(f)))(begin, end);
    };
    job.fn = std::addressof(fn);
    job.n = n;
    job.n_chunks = n_chunks;
    run(job);
  }

  template <typename Fn>
  void parallel_for(std::size_t n, Fn&& fn) {
    parallel_for(n, std::size_t{1}, std::forward<Fn>(fn));
  }

  // Process-wide pool, lazily constructed.
  static ThreadPool& global();

 private:
  // One multi-chunk parallel_for call; lives on the caller's stack.
  struct Job {
    void (*call)(const void* fn, std::size_t begin, std::size_t end) = nullptr;
    const void* fn = nullptr;
    std::size_t n = 0, n_chunks = 0;
    std::atomic<std::size_t> next{0};  // next unclaimed chunk
    // Guarded by the pool's mu_.
    std::size_t unfinished = 0;
    std::size_t error_chunk = 0;
    std::exception_ptr error;
    Job* queued_next = nullptr;
    std::condition_variable done;
  };

  void run(Job& job);
  void run_chunk(Job& job, std::size_t c);
  void worker_loop();

  std::mutex mu_;
  std::condition_variable wake_;
  // Jobs that may still have unclaimed chunks, oldest first.
  Job* queue_ = nullptr;
  bool stop_ = false;
  std::vector<std::thread> workers_;  // last: they use the members above
};

// Convenience free function over the global pool.
template <typename Fn>
void parallel_for(std::size_t n, std::size_t grain, Fn&& fn) {
  ThreadPool::global().parallel_for(n, grain, std::forward<Fn>(fn));
}

}  // namespace mdgan
