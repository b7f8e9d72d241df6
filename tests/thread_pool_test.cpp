// Thread pool: lifecycle, futures, exception propagation, and the
// parallel_for partition contract (every index covered exactly once for any
// grain / thread-count combination — the property the kernels' determinism
// rides on).
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <string>
#include <vector>

#include "common/thread_pool.h"

namespace elan {
namespace {

TEST(ThreadPool, StartStopIsDeterministic) {
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
    // Destructor joins everything; constructing and destroying repeatedly
    // must not leak or hang.
  }
}

TEST(ThreadPool, RejectsNonPositiveSize) {
  EXPECT_THROW(ThreadPool(0), InvalidArgument);
  EXPECT_THROW(ThreadPool(-3), InvalidArgument);
}

TEST(ThreadPool, SubmitReturnsResultsThroughFutures) {
  ThreadPool pool(3);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 20; ++i) EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
}

TEST(ThreadPool, SubmitPropagatesExceptions) {
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    auto future = pool.submit([]() -> int { throw InvalidArgument("task failed"); });
    EXPECT_THROW(future.get(), InvalidArgument);
  }
}

TEST(ThreadPool, ParallelForPropagatesTaskExceptions) {
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    EXPECT_THROW(pool.parallel_for(0, 100, 3,
                                   [](std::int64_t b, std::int64_t) {
                                     // This test exercises first-exception-wins propagation.
                                     // elan-analyze: allow(throw-in-parallel-for)
                                     if (b >= 42) throw InvalidArgument("chunk failed");
                                   }),
                 InvalidArgument);
  }
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  // Adversarial grains: 1 (maximal task count), primes that leave ragged
  // tails, the exact range length, and far beyond it (inline path).
  const std::int64_t n = 1013;
  for (int threads : {1, 2, 4, 7}) {
    ThreadPool pool(threads);
    for (std::int64_t grain : {std::int64_t{1}, std::int64_t{2}, std::int64_t{7},
                               std::int64_t{97}, n, n * 10}) {
      std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
      pool.parallel_for(0, n, grain, [&](std::int64_t b, std::int64_t e) {
        ASSERT_LT(b, e);
        for (std::int64_t i = b; i < e; ++i) hits[static_cast<std::size_t>(i)]++;
      });
      for (std::int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
            << "index " << i << " grain " << grain << " threads " << threads;
      }
    }
  }
}

TEST(ThreadPool, ParallelForHonoursNonZeroBegin) {
  ThreadPool pool(4);
  std::atomic<std::int64_t> sum{0};
  pool.parallel_for(100, 200, 9, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) sum += i;
  });
  std::int64_t expected = 0;
  for (std::int64_t i = 100; i < 200; ++i) expected += i;
  EXPECT_EQ(sum.load(), expected);
}

TEST(ThreadPool, EmptyRangeIsANoop) {
  ThreadPool pool(4);
  bool called = false;
  pool.parallel_for(5, 5, 1, [&](std::int64_t, std::int64_t) { called = true; });
  pool.parallel_for(7, 3, 1, [&](std::int64_t, std::int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, RejectsNonPositiveGrain) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(0, 10, 0, [](std::int64_t, std::int64_t) {}),
               InvalidArgument);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // Workers entering a nested parallel_for must help drain the queue rather
  // than block their pool slot — with 2 threads and 4 outer chunks each
  // spawning inner chunks, naive blocking would deadlock here.
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.parallel_for(0, 4, 1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      pool.parallel_for(0, 8, 1, [&](std::int64_t ib, std::int64_t ie) {
        inner_total += static_cast<int>(ie - ib);
      });
    }
  });
  EXPECT_EQ(inner_total.load(), 4 * 8);
}

TEST(ThreadPool, GlobalPoolResizes) {
  ThreadPool::set_global_threads(3);
  EXPECT_EQ(ThreadPool::global().size(), 3);
  ThreadPool::set_global_threads(1);
  EXPECT_EQ(ThreadPool::global().size(), 1);
}

TEST(ThreadPool, DefaultThreadsIsPositive) { EXPECT_GE(ThreadPool::default_threads(), 1); }

// ELAN_THREADS takes one whole number in [1, 256]. Only the parser runs here:
// no pool of an out-of-range size is ever created.
TEST(ThreadPool, ParseThreadsChecksTheWholeTextAndTheCeiling) {
  EXPECT_EQ(ThreadPool::kMaxThreads, 256);
  EXPECT_EQ(ThreadPool::parse_threads("4"), 4);
  EXPECT_EQ(ThreadPool::parse_threads("256"), 256);
  for (const char* bad : {"0", "-1", "4x", "abc", "257", "100000"}) {
    try {
      ThreadPool::parse_threads(bad);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("ELAN_THREADS"), std::string::npos) << what;
      EXPECT_NE(what.find("[1, 256]"), std::string::npos) << what;
    }
  }
}

}  // namespace
}  // namespace elan
