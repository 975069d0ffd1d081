#include "common/thread_pool.hpp"

#include <algorithm>

#include "obs/sink.hpp"

namespace mdgan {

ThreadPool::ThreadPool(std::size_t n_threads) {
  if (n_threads == 0) {
    n_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(n_threads);
  for (std::size_t i = 0; i < n_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run_chunk(Job& job, std::size_t c) {
  const std::size_t chunk = (job.n + job.n_chunks - 1) / job.n_chunks;
  const std::size_t begin = c * chunk;
  const std::size_t end = std::min(job.n, begin + chunk);
  if (begin >= end) return;
  try {
    job.call(job.fn, begin, end);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!job.error || c < job.error_chunk) {
      job.error = std::current_exception();
      job.error_chunk = c;
    }
  }
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    wake_.wait(lock, [this] { return stop_ || queue_ != nullptr; });
    if (stop_) return;
    Job& job = *queue_;
    const std::size_t c = job.next.fetch_add(1);
    if (c + 1 >= job.n_chunks) queue_ = job.queued_next;  // none left
    if (c >= job.n_chunks) continue;
    lock.unlock();
    run_chunk(job, c);
    lock.lock();
    // The caller cannot return before it sees this under mu_, so the
    // job outlives every access made here.
    if (--job.unfinished == 0) job.done.notify_one();
  }
}

void ThreadPool::run(Job& job) {
  // kCompute span (off unless a global sink opted into compute spans):
  // the whole fan-out, publish through the last chunk's completion.
  obs::Span span(obs::global_tracer(), "pool_dispatch", obs::Cat::kCompute,
                 /*node=*/-1);
  job.unfinished = job.n_chunks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Job** tail = &queue_;
    while (*tail != nullptr) tail = &(*tail)->queued_next;
    *tail = &job;
  }
  // The caller takes chunks too, so n_chunks - 1 helpers suffice.
  for (std::size_t i = 1; i < job.n_chunks; ++i) wake_.notify_one();
  std::size_t ran = 0;
  for (std::size_t c; (c = job.next.fetch_add(1)) < job.n_chunks; ++ran) {
    run_chunk(job, c);
  }
  std::unique_lock<std::mutex> lock(mu_);
  for (Job** p = &queue_; *p != nullptr; p = &(*p)->queued_next) {
    if (*p == &job) {
      *p = job.queued_next;
      break;
    }
  }
  job.unfinished -= ran;
  job.done.wait(lock, [&job] { return job.unfinished == 0; });
  lock.unlock();
  if (job.error) std::rethrow_exception(job.error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace mdgan
