// Unit tests for the parallel execution layer (util/thread_pool).
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace csrl {
namespace {

TEST(ThreadPool, EmptyRangeRunsNothing) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.parallel_for(5, 5, 1, [&](std::size_t, std::size_t) { ++calls; });
  pool.parallel_for(7, 3, 1, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, GrainLargerThanRangeRunsInlineAsOneChunk) {
  ThreadPool pool(4);
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  pool.parallel_for(2, 10, 100, [&](std::size_t lo, std::size_t hi) {
    chunks.emplace_back(lo, hi);  // single inline chunk: no race possible
  });
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].first, 2u);
  EXPECT_EQ(chunks[0].second, 10u);
}

TEST(ThreadPool, ZeroGrainIsTreatedAsOne) {
  ThreadPool pool(2);
  std::vector<int> hit(16, 0);
  pool.parallel_for(0, hit.size(), 0, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hit[i] += 1;
  });
  for (int h : hit) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 100000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(0, kN, 64, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i)
      hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, PropagatesExceptionsFromWorkerTasks) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 10000, 8,
                        [&](std::size_t lo, std::size_t) {
                          if (lo >= 5000) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool must stay usable after a failed dispatch.
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(0, 100, 10, [&](std::size_t lo, std::size_t hi) {
    sum.fetch_add(hi - lo, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 100u);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64 * 64);
  pool.parallel_for(0, 64, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t outer = lo; outer < hi; ++outer) {
      pool.parallel_for(0, 64, 1, [&](std::size_t ilo, std::size_t ihi) {
        for (std::size_t inner = ilo; inner < ihi; ++inner)
          hits[outer * 64 + inner].fetch_add(1, std::memory_order_relaxed);
      });
    }
  });
  for (auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReduceIsBitIdenticalAcrossThreadCounts) {
  // A sum whose value depends on association order: the chunked tree is
  // pinned by (range, grain), so every pool size must agree exactly.
  std::vector<double> data(100001);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = 1.0 / static_cast<double>(i + 1);

  const auto chunk_sum = [&](std::size_t lo, std::size_t hi) {
    double acc = 0.0;
    for (std::size_t i = lo; i < hi; ++i) acc += data[i];
    return acc;
  };
  const auto add = [](double a, double b) { return a + b; };

  ThreadPool single(1);
  ThreadPool quad(4);
  const double serial =
      single.parallel_reduce(0, data.size(), 1024, 0.0, chunk_sum, add);
  const double parallel =
      quad.parallel_reduce(0, data.size(), 1024, 0.0, chunk_sum, add);
  EXPECT_EQ(serial, parallel);  // exact, not approximate
}

TEST(ThreadPool, ReduceHandlesEmptyRange) {
  ThreadPool pool(4);
  const double value = pool.parallel_reduce(
      3, 3, 16, 42.0, [](std::size_t, std::size_t) { return 7.0; },
      [](double a, double b) { return a + b; });
  EXPECT_EQ(value, 42.0);
}

TEST(ThreadPool, ResolveThreadsHonoursExplicitRequestAndEnv) {
  EXPECT_EQ(ThreadPool::resolve_threads(3), 3u);

  ::setenv("CSRL_THREADS", "5", 1);
  EXPECT_EQ(ThreadPool::resolve_threads(0), 5u);
  EXPECT_EQ(ThreadPool::resolve_threads(2), 2u);  // explicit wins

  ::unsetenv("CSRL_THREADS");
  const std::size_t fallback = ThreadPool::resolve_threads(0);
  EXPECT_GE(fallback, 1u);

  // Malformed or out-of-range values warn on stderr and fall through to
  // hardware_concurrency(), exactly as if unset (util/env.hpp).
  for (const char* bad : {"not-a-number", "banana", "-1", "1x", "0", "",
                          "1025", "99999999999999999999999"}) {
    ::setenv("CSRL_THREADS", bad, 1);
    EXPECT_EQ(ThreadPool::resolve_threads(0), fallback) << bad;
    EXPECT_EQ(ThreadPool::resolve_threads(2), 2u) << bad;
  }
  // One stderr line names the variable, the accepted range and the value
  // used instead.
  ::setenv("CSRL_THREADS", "banana", 1);
  testing::internal::CaptureStderr();
  (void)ThreadPool::resolve_threads(0);
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "csrl: CSRL_THREADS must be an integer in [1, 1024], got "
            "\"banana\"; using " + std::to_string(fallback) + "\n");
  ::setenv("CSRL_THREADS", "1024", 1);
  EXPECT_EQ(ThreadPool::resolve_threads(0), ThreadPool::kMaxEnvThreads);
  ::unsetenv("CSRL_THREADS");
}

TEST(ThreadPool, GlobalPoolResizes) {
  ThreadPool::set_global_threads(2);
  EXPECT_EQ(ThreadPool::global().num_threads(), 2u);
  ThreadPool::set_global_threads(1);
  EXPECT_EQ(ThreadPool::global().num_threads(), 1u);
  // An engine that captured the old pool keeps it alive independently.
  std::shared_ptr<ThreadPool> held = ThreadPool::global_ptr();
  ThreadPool::set_global_threads(3);
  EXPECT_EQ(held->num_threads(), 1u);
  EXPECT_EQ(ThreadPool::global().num_threads(), 3u);
  ThreadPool::set_global_threads(1);
}

}  // namespace
}  // namespace csrl
