// ThreadPool::ParallelFor stress coverage: range coverage, caller
// participation (nested fan-out from pool workers must not deadlock),
// first-exception propagation after all in-flight chunks settle, many
// small jobs back-to-back, and the max_workers cap.
#include "common/threadpool.h"

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace dashdb {
namespace {

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, NestedParallelForFromWorkersDoesNotDeadlock) {
  // More outer tasks than pool threads: without caller participation every
  // worker would block inside the inner call waiting for helpers that can
  // never be scheduled.
  ThreadPool pool(2);
  std::atomic<size_t> total{0};
  pool.ParallelFor(8, [&](size_t) {
    pool.ParallelFor(64, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 8u * 64u);
}

TEST(ThreadPoolTest, DeeplyNestedParallelFor) {
  ThreadPool pool(3);
  std::atomic<size_t> total{0};
  pool.ParallelFor(4, [&](size_t) {
    pool.ParallelFor(4, [&](size_t) {
      pool.ParallelFor(16, [&](size_t) { total.fetch_add(1); });
    });
  });
  EXPECT_EQ(total.load(), 4u * 4u * 16u);
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(4096,
                       [&](size_t i) {
                         if (i == 1000) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
}

TEST(ThreadPoolTest, FirstExceptionWinsAndPoolStaysUsable) {
  ThreadPool pool(4);
  for (int round = 0; round < 5; ++round) {
    try {
      pool.ParallelFor(2048, [&](size_t i) {
        if (i % 100 == 0) throw std::invalid_argument("n" + std::to_string(i));
      });
      FAIL() << "expected an exception";
    } catch (const std::invalid_argument&) {
    }
    // The pool must still run normal jobs after an aborted ParallelFor.
    std::atomic<size_t> sum{0};
    pool.ParallelFor(100, [&](size_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 100u * 99u / 2u);
  }
}

TEST(ThreadPoolTest, ManySmallJobsBackToBack) {
  ThreadPool pool(4);
  for (int round = 0; round < 500; ++round) {
    std::atomic<size_t> sum{0};
    const size_t n = 1 + static_cast<size_t>(round % 23);
    pool.ParallelFor(n, [&](size_t i) { sum.fetch_add(i); });
    ASSERT_EQ(sum.load(), n * (n - 1) / 2);
  }
}

TEST(ThreadPoolTest, MaxWorkersCapStillCoversRange) {
  ThreadPool pool(8);
  for (int cap : {1, 2, 3, 16}) {
    std::vector<std::atomic<int>> hits(5000);
    pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); },
                     cap);
    for (auto& h : hits) ASSERT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, ZeroAndTinyRanges) {
  ThreadPool pool(4);
  pool.ParallelFor(0, [&](size_t) { FAIL() << "fn called for n=0"; });
  std::atomic<int> one{0};
  pool.ParallelFor(1, [&](size_t) { one.fetch_add(1); });
  EXPECT_EQ(one.load(), 1);
}

TEST(ThreadPoolTest, HelperCpuCountsWorkOffTheCallingThread) {
  ThreadPool pool(3);
  // Four items, four threads: every item waits until all four threads
  // hold one, so three of them run on helpers; each then burns 20 ms of
  // thread CPU.
  std::atomic<int> arrived{0};
  double helper_cpu = 0;
  pool.ParallelFor(
      4,
      [&](size_t) {
        arrived.fetch_add(1);
        while (arrived.load() < 4) std::this_thread::yield();
        const double start = ThreadCpuSeconds();
        while (ThreadCpuSeconds() - start < 0.02) {
        }
      },
      4, nullptr, &helper_cpu);
  EXPECT_GE(helper_cpu, 3 * 0.02);
  // An inline (degenerate) loop has no helpers.
  double inline_cpu = 0;
  pool.ParallelFor(1, [](size_t) {}, 4, nullptr, &inline_cpu);
  EXPECT_EQ(inline_cpu, 0);
}

}  // namespace
}  // namespace dashdb
