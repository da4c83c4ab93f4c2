#include "par/pool.hpp"

#include <algorithm>
#include <cstdlib>

namespace hbnet::par {
namespace {

std::atomic<unsigned> g_default_override{0};

unsigned env_threads() {
  const char* env = std::getenv("HBNET_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  const unsigned long v = std::strtoul(env, &end, 10);
  if (end == env || *end != '\0' || v > kMaxThreads) return 0;
  return static_cast<unsigned>(v);
}

}  // namespace

unsigned default_threads() {
  unsigned v = g_default_override.load(std::memory_order_relaxed);
  if (v != 0) return v;
  v = env_threads();
  if (v != 0) return v;
  v = std::thread::hardware_concurrency();
  return v != 0 ? v : 1;
}

void set_default_threads(unsigned threads) {
  g_default_override.store(threads, std::memory_order_relaxed);
}

unsigned resolve_threads(unsigned threads) {
  return threads != 0 ? threads : default_threads();
}

ThreadPool::ThreadPool(unsigned threads)
    : threads_(resolve_threads(threads)) {
  workers_.reserve(threads_ - 1);
  for (unsigned t = 1; t < threads_; ++t) {
    workers_.emplace_back([this, t] { worker_loop(t); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::run_job(Job& job, unsigned worker) {
  while (true) {
    const std::uint64_t begin =
        job.cursor.fetch_add(job.chunk, std::memory_order_relaxed);
    if (begin >= job.count) return;
    const std::uint64_t end = std::min(begin + job.chunk, job.count);
    if (job.body != nullptr) {
      (*job.body)(begin, end);
    } else {
      (*job.worker_body)(worker, begin, end);
    }
  }
}

void ThreadPool::worker_loop(unsigned worker) {
  std::uint64_t seen = 0;
  while (true) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      wake_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      job = job_;
    }
    run_job(*job, worker);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (++job->acked == static_cast<unsigned>(workers_.size())) {
        done_cv_.notify_all();
      }
    }
  }
}

void ThreadPool::dispatch(Job& job) {
  if (job.count == 0) return;
  if (job.chunk == 0) job.chunk = 1;
  if (workers_.empty() || job.count <= job.chunk) {
    // Serial fast path: nothing to distribute; the caller is worker 0.
    run_job(job, 0);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = &job;
    ++generation_;
  }
  wake_cv_.notify_all();
  run_job(job, 0);  // the caller is a worker too
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] {
      return job.acked == static_cast<unsigned>(workers_.size());
    });
    job_ = nullptr;
  }
}

void ThreadPool::parallel_for_chunks(
    std::uint64_t count, std::uint64_t chunk,
    const std::function<void(std::uint64_t, std::uint64_t)>& body) {
  Job job;
  job.body = &body;
  job.count = count;
  job.chunk = chunk;
  dispatch(job);
}

void ThreadPool::parallel_for_chunks(
    std::uint64_t count, std::uint64_t chunk,
    const std::function<void(unsigned, std::uint64_t, std::uint64_t)>& body) {
  Job job;
  job.worker_body = &body;
  job.count = count;
  job.chunk = chunk;
  dispatch(job);
}

void ThreadPool::parallel_for(std::uint64_t count,
                              const std::function<void(std::uint64_t)>& fn) {
  // Aim for plenty of chunks per worker so dynamic scheduling can balance,
  // without degenerating to per-index dispatch on huge counts.
  const std::uint64_t target_chunks = std::uint64_t{8} * threads_;
  const std::uint64_t chunk =
      count <= target_chunks ? 1 : count / target_chunks;
  parallel_for_chunks(count, chunk, [&](std::uint64_t b, std::uint64_t e) {
    for (std::uint64_t i = b; i < e; ++i) fn(i);
  });
}

}  // namespace hbnet::par
