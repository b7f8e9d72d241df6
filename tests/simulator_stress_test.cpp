// Concurrency stress for the simulator core's thread-safety contract:
// schedule / cancel / now / pending may be called from any thread while a
// single driver executes events. The heap reorders entries in place on
// every cancel, so this suite hammers exactly the paths where a racing
// mutation could corrupt the heap's slot positions. Run under
// ThreadSanitizer via the `tsan_sim` ctest entry (label tsan).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "sim/simulator.h"

namespace elan::sim {
namespace {

TEST(SimulatorStress, ConcurrentScheduleCancelReschedule) {
  Simulator s;
  constexpr int kProducers = 4;
  constexpr int kOpsPerProducer = 10000;
  std::atomic<std::uint64_t> fired{0};
  std::atomic<std::uint64_t> scheduled{0};
  std::atomic<std::uint64_t> cancelled{0};
  std::atomic<int> active{kProducers};

  // Single driver: keeps executing due events while any producer is live,
  // then drains what is left. Exercises the run_until fast path (deadline
  // check + pop under one lock) against concurrent mutation.
  std::thread driver([&] {
    while (active.load(std::memory_order_acquire) > 0) {
      s.run_until(s.now() + 0.25);
    }
    s.run();
  });

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::uint64_t lcg = 0x9e3779b97f4a7c15ULL * static_cast<unsigned>(p + 1);
      const auto next = [&lcg] {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        return lcg >> 33;
      };
      std::vector<EventId> mine;
      mine.reserve(kOpsPerProducer);
      for (int i = 0; i < kOpsPerProducer; ++i) {
        const double delay = 0.01 + static_cast<double>(next() % 1000) / 500.0;
        switch (next() % 4) {
          case 0:
          case 1: {  // schedule a fresh timer
            mine.push_back(s.schedule(
                delay, [&fired] { fired.fetch_add(1, std::memory_order_relaxed); }));
            scheduled.fetch_add(1, std::memory_order_relaxed);
            break;
          }
          case 2: {  // ack: cancel one of ours (may have fired already)
            if (!mine.empty() && s.cancel(mine[next() % mine.size()])) {
              cancelled.fetch_add(1, std::memory_order_relaxed);
            }
            break;
          }
          default: {  // refresh: re-arm one of ours (cancel + schedule)
            if (mine.empty()) break;
            EventId& timer = mine[next() % mine.size()];
            if (!s.cancel(timer)) break;  // already fired: nothing to re-arm
            cancelled.fetch_add(1, std::memory_order_relaxed);
            timer = s.schedule(
                delay, [&fired] { fired.fetch_add(1, std::memory_order_relaxed); });
            scheduled.fetch_add(1, std::memory_order_relaxed);
            break;
          }
        }
        // Reads from a non-driver thread race the driver by design.
        (void)s.now();
        (void)s.pending();
      }
      active.fetch_sub(1, std::memory_order_release);
    });
  }
  for (auto& t : producers) t.join();
  driver.join();

  // Every scheduled event either fired or was successfully cancelled; a
  // successful cancel and a firing are mutually exclusive per id, so the
  // books must balance exactly once the queue is drained.
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(s.queue_depth(), 0u);
  EXPECT_EQ(fired.load() + cancelled.load(), scheduled.load());
  EXPECT_EQ(s.executed(), fired.load());
}

}  // namespace
}  // namespace elan::sim
