#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace elan::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator s;
  EXPECT_EQ(s.now(), 0.0);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule(2.0, [&] { order.push_back(2); });
  s.schedule(1.0, [&] { order.push_back(1); });
  s.schedule(3.0, [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 3.0);
}

TEST(Simulator, TiesBreakByInsertionOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule(1.0, [&] { order.push_back(1); });
  s.schedule(1.0, [&] { order.push_back(2); });
  s.schedule(1.0, [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, NestedScheduling) {
  Simulator s;
  double fired_at = -1;
  s.schedule(1.0, [&] { s.schedule(0.5, [&] { fired_at = s.now(); }); });
  s.run();
  EXPECT_DOUBLE_EQ(fired_at, 1.5);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator s;
  bool fired = false;
  const auto id = s.schedule(1.0, [&] { fired = true; });
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));  // second cancel is a no-op
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulator s;
  s.run_until(5.0);
  EXPECT_EQ(s.now(), 5.0);
}

TEST(Simulator, RunUntilStopsBeforeLaterEvents) {
  Simulator s;
  bool early = false;
  bool late = false;
  s.schedule(1.0, [&] { early = true; });
  s.schedule(10.0, [&] { late = true; });
  s.run_until(5.0);
  EXPECT_TRUE(early);
  EXPECT_FALSE(late);
  EXPECT_EQ(s.now(), 5.0);
  s.run();
  EXPECT_TRUE(late);
}

TEST(Simulator, RejectsNegativeDelay) {
  Simulator s;
  EXPECT_THROW(s.schedule(-1.0, [] {}), InvalidArgument);
}

TEST(Simulator, RejectsPastAbsoluteTime) {
  Simulator s;
  s.schedule(2.0, [] {});
  s.run();
  EXPECT_THROW(s.schedule_at(1.0, [] {}), InvalidArgument);
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator s;
  for (int i = 0; i < 10; ++i) s.schedule(i, [] {});
  s.run();
  EXPECT_EQ(s.executed(), 10u);
}

TEST(Simulator, ZeroDelayRunsAtCurrentTime) {
  Simulator s;
  double at = -1;
  s.schedule(1.0, [&] { s.schedule(0.0, [&] { at = s.now(); }); });
  s.run();
  EXPECT_DOUBLE_EQ(at, 1.0);
}

// Regression: the original core (a priority queue beside a callback map)
// left a tombstone in the queue for every cancelled event, so queue_depth()
// drifted above pending() under cancel-heavy load. With in-place cancel the
// two are pinned equal at every point of a cancel storm.
TEST(Simulator, CancelStormLeavesNoTombstones) {
  Simulator s;
  constexpr int kEvents = 4096;
  std::uint64_t fired = 0;
  std::vector<EventId> ids;
  ids.reserve(kEvents);
  for (int i = 0; i < kEvents; ++i) {
    ids.push_back(s.schedule(1.0 + i, [&] { ++fired; }));
  }
  ASSERT_EQ(s.pending(), static_cast<std::size_t>(kEvents));
  ASSERT_EQ(s.queue_depth(), s.pending());
  // Cancel three quarters in a scattered order (stride coprime with the
  // count), checking the pin as the storm progresses.
  std::size_t idx = 0;
  const std::size_t kStride = 2741;
  for (int i = 0; i < 3 * kEvents / 4; ++i) {
    EXPECT_TRUE(s.cancel(ids[idx]));
    idx = (idx + kStride) % kEvents;
    ASSERT_EQ(s.queue_depth(), s.pending());
  }
  EXPECT_EQ(s.pending(), static_cast<std::size_t>(kEvents / 4));
  s.run();
  EXPECT_EQ(fired, static_cast<std::uint64_t>(kEvents / 4));
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(s.queue_depth(), 0u);
}

// Runs a fixed interleaving of schedule / cancel / re-arm with heavy time
// ties and returns the firing order. A re-arm is cancel + schedule: the
// event takes a fresh sequence number, so it fires after every event of its
// new time that was scheduled before it.
std::string golden_sequence() {
  Simulator s;
  std::string order;
  const auto tag = [&order](char c) {
    return [&order, c] { order.push_back(c); };
  };
  const EventId a = s.schedule(2.0, tag('a'));
  const EventId b = s.schedule(1.0, tag('b'));
  s.schedule(1.0, tag('c'));  // ties with b: insertion order decides
  const EventId d = s.schedule(3.0, tag('d'));
  s.cancel(b);
  s.schedule(1.0, tag('e'));  // same time as c, scheduled later
  s.cancel(a);
  s.schedule(1.0, tag('a'));  // a re-armed to t=1, after e's seq
  s.cancel(d);
  s.schedule(0.5, tag('d'));  // d re-armed to the front
  s.schedule(0.5, tag('f'));  // ties with re-armed d; d's seq is older
  s.run();
  return order;
}

TEST(Simulator, GoldenSequenceIsLayoutIndependent) {
  // Cancelled b never fires; the firing order follows (time, seq) alone,
  // whatever the heap's layout.
  EXPECT_EQ(golden_sequence(), "dfcea");
}

TEST(Simulator, CallbacksDieWhenTheirEventLeavesTheQueue) {
  Simulator s;
  const auto token = std::make_shared<int>(0);
  const EventId fires = s.schedule(1.0, [token] {});
  const EventId cancelled = s.schedule(2.0, [token] {});
  EXPECT_EQ(token.use_count(), 3);
  EXPECT_TRUE(s.cancel(cancelled));
  EXPECT_EQ(token.use_count(), 2);
  s.run();
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_NE(fires, 0u);
  EXPECT_FALSE(s.cancel(fires));  // a fired id never becomes valid again
  EXPECT_FALSE(s.cancel(0));
}

// The queue against a reference model: a vector of the live events sorted by
// (time, insertion order). Seeded random scripts of schedule / schedule_at /
// cancel / re-arm / step on a coarse time grid, so most events tie with
// others, must fire in the reference's order, agree on every cancel result
// (live, fired, already-cancelled and never-issued ids) and on pending()
// after every call.
TEST(Simulator, MatchesASortedReferenceOnRandomScripts) {
  struct Live {
    Seconds time;
    int tag;  // also its insertion order
  };
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    std::uint64_t lcg = seed * 0x9e3779b97f4a7c15ULL;
    const auto next = [&lcg](std::uint64_t bound) {
      lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
      return (lcg >> 33) % bound;
    };
    Simulator s;
    std::vector<Live> ref;     // live events in firing order
    std::vector<EventId> ids;  // every id issued, indexed by tag
    std::vector<int> fired;
    const auto add = [&](bool absolute) {
      const Seconds when = s.now() + 0.5 * static_cast<double>(next(5));
      const int tag = static_cast<int>(ids.size());
      auto fn = [&fired, tag] { fired.push_back(tag); };
      ids.push_back(absolute ? s.schedule_at(when, fn) : s.schedule(when - s.now(), fn));
      const auto at = std::upper_bound(ref.begin(), ref.end(), when,
                                       [](Seconds t, const Live& e) { return t < e.time; });
      ref.insert(at, Live{when, tag});
    };
    const auto cancel = [&](EventId id) {
      const auto it = std::find_if(ref.begin(), ref.end(), [&](const Live& e) {
        return ids[static_cast<std::size_t>(e.tag)] == id;
      });
      const bool live = it != ref.end();
      if (live) ref.erase(it);
      ASSERT_EQ(s.cancel(id), live) << "seed " << seed << " id " << id;
    };
    const auto step = [&] {
      ASSERT_EQ(s.step(), !ref.empty()) << "seed " << seed;
      if (ref.empty()) return;
      ASSERT_EQ(fired.back(), ref.front().tag) << "seed " << seed;
      ASSERT_EQ(s.now(), ref.front().time) << "seed " << seed;
      ref.erase(ref.begin());
    };
    for (int op = 0; op < 400; ++op) {
      switch (next(10)) {
        case 0:
        case 1:
        case 2: add(/*absolute=*/false); break;
        case 3: add(/*absolute=*/true); break;
        case 4:
          cancel(ids.empty() || next(8) == 0 ? EventId{0} : ids[next(ids.size())]);
          break;
        case 5:
          if (!ids.empty()) cancel(ids[next(ids.size())]);
          break;
        case 6:  // re-arm a live event: cancel + schedule
          if (!ref.empty()) {
            cancel(ids[static_cast<std::size_t>(ref[next(ref.size())].tag)]);
            add(/*absolute=*/false);
          }
          break;
        default: step(); break;
      }
      if (HasFatalFailure()) return;
      ASSERT_EQ(s.pending(), ref.size()) << "seed " << seed << " op " << op;
      ASSERT_EQ(s.queue_depth(), s.pending());
    }
    while (!ref.empty()) {
      step();
      if (HasFatalFailure()) return;
      ASSERT_EQ(s.pending(), ref.size()) << "seed " << seed;
    }
    EXPECT_FALSE(s.step());
  }
}

}  // namespace
}  // namespace elan::sim
