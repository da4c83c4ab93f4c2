// hbnet::par thread pool: full coverage of the parallel_for /
// parallel_reduce contract (every index exactly once, dynamic chunking,
// caller participation) and of the thread-count resolution chain
// (set_default_threads > HBNET_THREADS > hardware concurrency).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <vector>

#include "par/pool.hpp"

namespace hbnet {
namespace {

/// Restores the process-wide thread default and HBNET_THREADS on scope
/// exit so tests cannot leak configuration into each other.
struct ThreadConfigGuard {
  ~ThreadConfigGuard() {
    par::set_default_threads(0);
    ::unsetenv("HBNET_THREADS");
  }
};

TEST(ParPool, ResolveThreadsPrefersExplicitArgument) {
  ThreadConfigGuard guard;
  par::set_default_threads(3);
  EXPECT_EQ(par::resolve_threads(7), 7u);
  EXPECT_EQ(par::resolve_threads(0), 3u);
}

TEST(ParPool, DefaultThreadsResolutionChain) {
  ThreadConfigGuard guard;
  ::setenv("HBNET_THREADS", "2", 1);
  EXPECT_EQ(par::default_threads(), 2u);
  par::set_default_threads(5);  // override beats the environment
  EXPECT_EQ(par::default_threads(), 5u);
  par::set_default_threads(0);  // cleared: back to the environment
  EXPECT_EQ(par::default_threads(), 2u);
  ::unsetenv("HBNET_THREADS");
  EXPECT_GE(par::default_threads(), 1u);  // hardware concurrency fallback
}

TEST(ParPool, MalformedEnvFallsThrough) {
  ThreadConfigGuard guard;
  ::setenv("HBNET_THREADS", "not-a-number", 1);
  EXPECT_GE(par::default_threads(), 1u);
  ::setenv("HBNET_THREADS", "0", 1);
  EXPECT_GE(par::default_threads(), 1u);
}

// Only default_threads() is called: no pool is built, so an accepted
// oversized value would show as a return value, not as spawned threads.
TEST(ParPool, EnvAboveMaxThreadsFallsThrough) {
  ThreadConfigGuard guard;
  ::unsetenv("HBNET_THREADS");
  const unsigned fallback = par::default_threads();
  ::setenv("HBNET_THREADS", "1024", 1);
  EXPECT_EQ(par::default_threads(), par::kMaxThreads);
  for (const char* v : {"1025", "100000", "-1", "99999999999999999999"}) {
    ::setenv("HBNET_THREADS", v, 1);
    EXPECT_EQ(par::default_threads(), fallback) << v;
  }
}

TEST(ParPool, SingleThreadPoolSpawnsNothingAndRuns) {
  par::ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<int> hits(100, 0);
  pool.parallel_for(100, [&](std::uint64_t i) { ++hits[i]; });
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int h) { return h == 1; }));
}

TEST(ParPool, EveryIndexExactlyOnce) {
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    par::ThreadPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
    constexpr std::uint64_t kCount = 10000;
    std::vector<std::atomic<int>> hits(kCount);
    pool.parallel_for(kCount, [&](std::uint64_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::uint64_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " @" << threads;
    }
  }
}

TEST(ParPool, ChunksPartitionTheRange) {
  par::ThreadPool pool(4);
  constexpr std::uint64_t kCount = 1013;  // prime: uneven final chunk
  std::vector<std::atomic<int>> hits(kCount);
  std::atomic<std::uint64_t> max_span{0};
  pool.parallel_for_chunks(kCount, 64,
                           [&](std::uint64_t begin, std::uint64_t end) {
    ASSERT_LT(begin, end);
    ASSERT_LE(end, kCount);
    std::uint64_t span = end - begin, seen = max_span.load();
    while (span > seen && !max_span.compare_exchange_weak(seen, span)) {
    }
    for (std::uint64_t i = begin; i < end; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_LE(max_span.load(), 64u);
  for (std::uint64_t i = 0; i < kCount; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(ParPool, ZeroAndTinyCounts) {
  par::ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(0, [&](std::uint64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int> hits{0};
  pool.parallel_for(1, [&](std::uint64_t i) {
    EXPECT_EQ(i, 0u);
    hits.fetch_add(1);
  });
  EXPECT_EQ(hits.load(), 1);
}

TEST(ParPool, ReduceSumMatchesSerialForEveryThreadCount) {
  constexpr std::uint64_t kCount = 5000;
  const std::uint64_t expected = kCount * (kCount - 1) / 2;
  for (unsigned threads : {1u, 2u, 3u, 8u}) {
    par::ThreadPool pool(threads);
    std::uint64_t sum = par::parallel_reduce(
        pool, kCount, std::uint64_t{0}, [](std::uint64_t i) { return i; },
        [](std::uint64_t a, std::uint64_t b) { return a + b; }, 128);
    EXPECT_EQ(sum, expected) << threads << " threads";
  }
}

TEST(ParPool, ReduceMinFindsPlantedMinimum) {
  constexpr std::uint64_t kCount = 4096;
  auto value = [](std::uint64_t i) {
    return i == 2718 ? std::uint64_t{1} : 10 + (i * 2654435761u) % 1000;
  };
  for (unsigned threads : {1u, 4u}) {
    par::ThreadPool pool(threads);
    std::uint64_t best = par::parallel_reduce(
        pool, kCount, std::numeric_limits<std::uint64_t>::max(), value,
        [](std::uint64_t a, std::uint64_t b) { return a < b ? a : b; }, 32);
    EXPECT_EQ(best, 1u);
  }
}

TEST(ParPool, PoolIsReusableAcrossJobs) {
  par::ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::uint64_t> sum{0};
    pool.parallel_for(100, [&](std::uint64_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    ASSERT_EQ(sum.load(), 4950u) << "round " << round;
  }
}

}  // namespace
}  // namespace hbnet
