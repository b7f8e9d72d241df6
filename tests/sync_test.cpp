// Tests for the annotated sync primitives and the runtime lock-order
// detector (src/common/sync.h).
//
// The detector's order graph is process-global and keyed by lock *name*, so
// every test here uses names unique to itself — edges recorded by one test
// must not constrain another. Death tests keep the entire conflicting
// sequence inside the EXPECT_DEATH statement: it executes only in the forked
// child, leaving the parent process's graph untouched.

#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/sync.h"

namespace elan {
namespace {

class SyncDeathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!lock_order_checks_enabled()) {
      GTEST_SKIP() << "built with ELAN_LOCK_ORDER_CHECKS=OFF";
    }
    // The suite spawns threads; fork-based death tests need the re-exec style.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
};

TEST_F(SyncDeathTest, LockOrderInversionAborts) {
  EXPECT_DEATH(
      {
        Mutex a("death_inv_a");
        Mutex b("death_inv_b");
        // Record a -> b.
        a.lock();
        b.lock();
        b.unlock();
        a.unlock();
        // b -> a closes the cycle; dies at a.lock(). The trailing unlocks
        // never run — they keep the acquire/release counts balanced for
        // Clang's static analysis.
        b.lock();
        a.lock();
        a.unlock();
        b.unlock();
      },
      "lock-order inversion");
}

TEST_F(SyncDeathTest, InversionReportShowsBothStacks) {
  EXPECT_DEATH(
      {
        Mutex a("death_stacks_a");
        Mutex b("death_stacks_b");
        a.lock();
        b.lock();
        b.unlock();
        a.unlock();
        b.lock();
        a.lock();
        a.unlock();
        b.unlock();
      },
      // Current held stack and the stack recorded with the earlier edge.
      "while holding:(.|\n)*death_stacks_b(.|\n)*recorded with held "
      "stack:(.|\n)*death_stacks_a");
}

TEST_F(SyncDeathTest, InversionDetectedThroughIntermediateLock) {
  // a -> b and b -> c recorded separately; c -> a closes the cycle through
  // the transitive path even though a and c were never held together.
  EXPECT_DEATH(
      {
        Mutex a("death_trans_a");
        Mutex b("death_trans_b");
        Mutex c("death_trans_c");
        a.lock();
        b.lock();
        b.unlock();
        a.unlock();
        b.lock();
        c.lock();
        c.unlock();
        b.unlock();
        c.lock();
        a.lock();
        a.unlock();
        c.unlock();
      },
      "lock-order inversion");
}

TEST_F(SyncDeathTest, RecursiveLockAborts) {
  EXPECT_DEATH(
      {
        Mutex m("death_recursive");
        m.lock();
        m.lock();
        m.unlock();
        m.unlock();
      },
      "recursive lock");
}

TEST_F(SyncDeathTest, SameClassNestingAborts) {
  // Two distinct instances sharing one name: nesting them is a self-cycle in
  // the class graph (peer objects with no defined order = latent ABBA).
  EXPECT_DEATH(
      {
        Mutex first("death_same_class");
        Mutex second("death_same_class");
        first.lock();
        second.lock();
        second.unlock();
        first.unlock();
      },
      "two locks of class");
}

// A nested acquisition whose edges are all recorded is answered from the
// known-edge bitset without the registry; the reverse order must still die.
TEST_F(SyncDeathTest, InversionDiesAfterTheBitsetAnsweredItsForwardEdge) {
  EXPECT_DEATH(
      {
        Mutex a("death_known_a");
        Mutex b("death_known_b");
        for (int i = 0; i < 3; ++i) {  // records a -> b, then finds it known
          a.lock();
          b.lock();
          b.unlock();
          a.unlock();
        }
        b.lock();
        a.lock();
        a.unlock();
        b.unlock();
      },
      "lock-order inversion(.|\n)*conflicting order \"death_known_a\" -> \\.\\.\\. -> "
      "\"death_known_b\"");
}

TEST_F(SyncDeathTest, SameClassNestingDiesUnderAKnownOuterEdge) {
  // outer -> same is recorded (and known) first; nesting two "same" locks
  // inside outer must still reach the registry for same -> same and die.
  EXPECT_DEATH(
      {
        Mutex outer("death_known_outer");
        Mutex first("death_known_same");
        Mutex second("death_known_same");
        for (int i = 0; i < 2; ++i) {
          outer.lock();
          first.lock();
          first.unlock();
          outer.unlock();
        }
        outer.lock();
        first.lock();
        second.lock();
        second.unlock();
        first.unlock();
        outer.unlock();
      },
      "two locks of class");
}

TEST_F(SyncDeathTest, ClassesPastTheBitsetRecordEdgesAndCatchInversions) {
  // The bitset covers class ids 1-64; these two classes sit above it, so
  // every check of theirs goes through the registry.
  EXPECT_DEATH(
      {
        std::vector<std::string> names;
        for (int i = 0; i < 64; ++i) names.push_back("death_filler_" + std::to_string(i));
        std::vector<std::unique_ptr<Mutex>> filler;
        for (const auto& name : names) filler.push_back(std::make_unique<Mutex>(name.c_str()));
        Mutex a("death_wide_a");
        Mutex b("death_wide_b");
        for (int i = 0; i < 2; ++i) {
          a.lock();
          b.lock();
          b.unlock();
          a.unlock();
        }
        b.lock();
        a.lock();
        a.unlock();
        b.unlock();
      },
      "lock-order inversion(.|\n)*edge \"death_wide_a\" -> \"death_wide_b\" recorded");
}

// Locks `mutexes` nested, each inside the previous one.
void lock_nested(std::span<const std::unique_ptr<Mutex>> mutexes) {
  if (mutexes.empty()) return;
  MutexLock lock(*mutexes.front());
  lock_nested(mutexes.subspan(1));
}

TEST_F(SyncDeathTest, NestingDeeperThanTheHeldStackAborts) {
  // Distinct classes in one consistent order, so no cycle: sixteen nested
  // locks fit the per-thread held stack, a seventeenth does not.
  static constexpr const char* kNames[] = {
      "death_depth_00", "death_depth_01", "death_depth_02", "death_depth_03",
      "death_depth_04", "death_depth_05", "death_depth_06", "death_depth_07",
      "death_depth_08", "death_depth_09", "death_depth_10", "death_depth_11",
      "death_depth_12", "death_depth_13", "death_depth_14", "death_depth_15",
      "death_depth_16"};
  std::vector<std::unique_ptr<Mutex>> mutexes;
  for (const char* name : kNames) mutexes.push_back(std::make_unique<Mutex>(name));
  const std::span<const std::unique_ptr<Mutex>> all(mutexes);
  lock_nested(all.first(16));
  lock_nested(all.first(16));  // the stack unwound completely
  EXPECT_DEATH(lock_nested(all), "while holding 16 locks, more than the lock-order DAG nests");
}

TEST(SyncTest, ConsistentNestingDoesNotAbort) {
  Mutex outer("consistent_outer");
  Mutex inner("consistent_inner");
  for (int i = 0; i < 3; ++i) {
    MutexLock lock_outer(outer);
    MutexLock lock_inner(inner);
  }
  // Same order from another thread: still consistent.
  std::thread t([&] {
    MutexLock lock_outer(outer);
    MutexLock lock_inner(inner);
  });
  t.join();
}

TEST(SyncTest, TryLockReportsContention) {
  Mutex m("try_lock_test");
  ASSERT_TRUE(m.try_lock());
  std::thread t([&] { EXPECT_FALSE(m.try_lock()); });
  t.join();
  m.unlock();
  ASSERT_TRUE(m.try_lock());
  m.unlock();
}

TEST(SyncTest, CondVarWakesWaiters) {
  Mutex mu("condvar_test");
  CondVar cv;
  int stage = 0;

  std::thread consumer([&] {
    MutexLock lock(mu);
    while (stage == 0) cv.wait(mu);
    EXPECT_EQ(stage, 1);
    stage = 2;
    cv.notify_all();
  });

  {
    MutexLock lock(mu);
    stage = 1;
    cv.notify_all();
    while (stage != 2) cv.wait(mu);
  }
  consumer.join();
  EXPECT_EQ(stage, 2);
}

TEST(SyncTest, MutexSerialisesCounterIncrements) {
  Mutex mu("counter_test");
  long counter = 0;
  constexpr int kThreads = 4;
  constexpr int kIters = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, static_cast<long>(kThreads) * kIters);
}

}  // namespace
}  // namespace elan
