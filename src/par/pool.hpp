// hbnet::par -- a small fixed-thread pool with parallel_for /
// parallel_reduce, shared by every embarrassingly-parallel sweep in the
// library (connectivity Dinic sweeps, all-sources BFS, disjoint-path
// audits).
//
// Design:
//  * A ThreadPool owns `size() - 1` worker threads; the caller of
//    parallel_for participates as the remaining worker, so `ThreadPool(1)`
//    spawns nothing and runs strictly serially on the calling thread.
//  * Work is distributed dynamically: workers claim [begin, end) chunks off
//    an atomic cursor, so uneven task costs (max-flow solves vary wildly)
//    balance automatically.
//  * Determinism contract: parallel_for imposes no ordering, so callers
//    must only perform order-independent updates (atomic min/max, integer
//    sums, writes to disjoint slots). parallel_reduce enforces this shape:
//    `combine` must be associative and commutative (min, max, integer +,
//    bit-or ...), and then the result is identical for every thread count,
//    including 1. Every parallel algorithm in the library is written
//    against this contract and tested for thread-count invariance.
//  * Thread-count resolution: an explicit `threads` argument wins; 0 means
//    default_threads(), which is the set_default_threads() override (the
//    CLI's --threads), else the HBNET_THREADS environment variable, else
//    std::thread::hardware_concurrency().
//
// The pool is intentionally minimal: no futures, no task graph, no nesting
// (calling parallel_for from inside a pool worker is not supported).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hbnet::par {

/// Largest thread count taken from outside the program (HBNET_THREADS,
/// the CLI's --threads): a pool spawns one OS thread per worker, so a
/// typo like 100000 must be refused rather than started.
inline constexpr unsigned kMaxThreads = 1024;

/// Threads used when a caller passes 0: set_default_threads() override,
/// else HBNET_THREADS (integer in [1, kMaxThreads]), else hardware
/// concurrency.
[[nodiscard]] unsigned default_threads();

/// Process-wide override for default_threads(); 0 clears the override.
void set_default_threads(unsigned threads);

/// Resolves an explicit thread request: `threads` if nonzero, else
/// default_threads(); never returns 0.
[[nodiscard]] unsigned resolve_threads(unsigned threads);

class ThreadPool {
 public:
  /// Creates a pool of `resolve_threads(threads)` workers (including the
  /// caller); spawns size()-1 std::threads.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned size() const { return threads_; }

  /// Runs body(begin, end) over a partition of [0, count) into chunks of at
  /// most `chunk` indices, distributed dynamically over all workers plus the
  /// calling thread. Blocks until every chunk completed. Not reentrant: do
  /// not call from inside a pool body.
  void parallel_for_chunks(std::uint64_t count, std::uint64_t chunk,
                           const std::function<void(std::uint64_t,
                                                    std::uint64_t)>& body);

  /// Like parallel_for_chunks, but body additionally receives the stable
  /// worker index in [0, size()) of the thread running the chunk (the caller
  /// is worker 0). Lets sweep callers keep per-worker scratch -- e.g. one
  /// cloned flow network per worker that persists across many calls --
  /// instead of re-initializing it per chunk. Which chunks land on which
  /// worker is scheduling dependent, so per-worker state must stay
  /// order-independent for the determinism contract to hold.
  void parallel_for_chunks(std::uint64_t count, std::uint64_t chunk,
                           const std::function<void(unsigned, std::uint64_t,
                                                    std::uint64_t)>& body);

  /// Runs fn(i) for every i in [0, count); convenience over
  /// parallel_for_chunks with auto chunking (~4 chunks per worker minimum,
  /// single indices once counts are small).
  void parallel_for(std::uint64_t count,
                    const std::function<void(std::uint64_t)>& fn);

 private:
  struct Job {
    // Exactly one of the two bodies is set per job.
    const std::function<void(std::uint64_t, std::uint64_t)>* body = nullptr;
    const std::function<void(unsigned, std::uint64_t, std::uint64_t)>*
        worker_body = nullptr;
    std::uint64_t count = 0;
    std::uint64_t chunk = 1;
    std::atomic<std::uint64_t> cursor{0};
    unsigned acked = 0;  // workers done with this job (guarded by mu_)
  };

  void worker_loop(unsigned worker);
  void dispatch(Job& job);
  static void run_job(Job& job, unsigned worker);

  std::vector<std::thread> workers_;
  unsigned threads_ = 1;

  std::mutex mu_;
  std::condition_variable wake_cv_;  // workers wait for a new generation
  std::condition_variable done_cv_;  // caller waits for all acks
  Job* job_ = nullptr;               // guarded by mu_
  std::uint64_t generation_ = 0;     // bumped per job (guarded by mu_)
  bool stop_ = false;
};

/// Deterministic reduction over [0, count): result = combine over all i of
/// map(i), seeded with `identity`. `combine` MUST be associative and
/// commutative and `identity` its neutral element; under that contract the
/// result is independent of the thread count and scheduling. `chunk` tunes
/// granularity for cheap map functions.
template <typename T, typename Map, typename Combine>
[[nodiscard]] T parallel_reduce(ThreadPool& pool, std::uint64_t count,
                                T identity, Map&& map, Combine&& combine,
                                std::uint64_t chunk = 1) {
  T result = identity;
  std::mutex mu;
  pool.parallel_for_chunks(
      count, chunk, [&](std::uint64_t begin, std::uint64_t end) {
        T local = identity;
        for (std::uint64_t i = begin; i < end; ++i) {
          local = combine(std::move(local), map(i));
        }
        std::lock_guard<std::mutex> lock(mu);
        result = combine(std::move(result), std::move(local));
      });
  return result;
}

}  // namespace hbnet::par
