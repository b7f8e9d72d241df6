// Tests of the allocation and placement rule both schedulers share
// (src/sched/allocation.h): the marginal-gain waterfill, compact-first GPU
// take with node affinity, and least-populated-node release.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>

#include "sched/allocation.h"

namespace elan::sched {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// ---------------------------------------------------------------------------
// waterfill
// ---------------------------------------------------------------------------

TEST(Waterfill, EqualGainsGoToTheEarliestJob) {
  std::vector<int> widths{0, 0, 0};
  waterfill(widths, {3, 3, 3}, 4, [](std::size_t, int) { return 1.0; });
  // Job 0 keeps winning the tie until it hits its upper bound.
  EXPECT_EQ(widths, (std::vector<int>{3, 1, 0}));
}

TEST(Waterfill, GainsInterleaveAcrossJobs) {
  // Diminishing returns: job 0 gains 5, 3, 1 from its first three GPUs, job
  // 1 gains 4, 2. Grants go 5 (job 0), 4 (job 1), 3 (job 0).
  const std::vector<std::vector<double>> gains{{5, 3, 1}, {4, 2}};
  std::vector<int> widths{0, 0};
  std::vector<std::pair<std::size_t, int>> calls;
  waterfill(widths, {3, 2}, 3, [&](std::size_t job, int width) {
    calls.emplace_back(job, width);
    return gains[job][static_cast<std::size_t>(width)];
  });
  EXPECT_EQ(widths, (std::vector<int>{2, 1}));
  // The gain is asked once per job and once per granted GPU, at the job's
  // width at that moment.
  const std::vector<std::pair<std::size_t, int>> expected{
      {0, 0}, {1, 0}, {0, 1}, {1, 1}, {0, 2}};
  EXPECT_EQ(calls, expected);
}

TEST(Waterfill, NanGainsAreNeverGranted) {
  std::vector<int> widths{1, 1};
  waterfill(widths, {8, 8}, 6, [](std::size_t job, int) { return job == 0 ? kNaN : 1.0; });
  EXPECT_EQ(widths, (std::vector<int>{1, 5}));
}

TEST(Waterfill, AJobWhoseGainTurnsNanGetsNoMore) {
  // Job 0's gain is NaN at width 2; later widths would pay, but it is not
  // asked again.
  std::vector<int> widths{0, 0};
  waterfill(widths, {8, 8}, 8, [](std::size_t job, int width) {
    if (job == 0) return width == 2 ? kNaN : 10.0;
    return 1.0;
  });
  EXPECT_EQ(widths, (std::vector<int>{2, 6}));
}

TEST(Waterfill, StopsAtTheFirstNonPositiveGain) {
  // The best gain left is 0: the remaining budget stays unallocated.
  std::vector<int> widths{0, 0};
  waterfill(widths, {8, 8}, 8, [](std::size_t job, int width) {
    return job == 0 ? 2.0 - width : 0.0;
  });
  EXPECT_EQ(widths, (std::vector<int>{2, 0}));

  // A job whose gain is negative at its width is never grown past it, even
  // if a later width would pay.
  std::vector<int> dip{4};
  waterfill(dip, {8}, 8, [](std::size_t, int width) { return width == 4 ? -1.0 : 1.0; });
  EXPECT_EQ(dip, (std::vector<int>{4}));
}

TEST(Waterfill, RespectsBoundsAndBudget) {
  // Lower bounds are kept even with nothing to gain; upper bounds cap the
  // grants; the budget counts the lower bounds too.
  std::vector<int> widths{2, 3, 1};
  waterfill(widths, {2, 5, 10}, 9, [](std::size_t, int) { return 1.0; });
  EXPECT_EQ(widths, (std::vector<int>{2, 5, 2}));

  std::vector<int> idle{2, 3};
  waterfill(idle, {4, 4}, 20, [](std::size_t, int) { return -1.0; });
  EXPECT_EQ(idle, (std::vector<int>{2, 3}));

  std::vector<int> pinned{3, 0};
  waterfill(pinned, {3, 1}, 10, [](std::size_t, int) { return 1.0; });
  EXPECT_EQ(pinned, (std::vector<int>{3, 1}));
}

TEST(Waterfill, LowerBoundsAboveTheBudgetAreAnError) {
  std::vector<int> widths{3, 3};
  EXPECT_THROW(waterfill(widths, {4, 4}, 5, [](std::size_t, int) { return 1.0; }),
               InternalError);
  std::vector<int> mismatched{1, 1};
  EXPECT_THROW(waterfill(mismatched, {4}, 5, [](std::size_t, int) { return 1.0; }),
               InternalError);
}

// ---------------------------------------------------------------------------
// take_gpus / release_gpus
// ---------------------------------------------------------------------------

struct PlacementFixture {
  topo::Topology topology{topo::TopologySpec{.nodes = 4}};  // 4 nodes x 8 GPUs
  std::set<topo::GpuId> free;

  PlacementFixture() {
    for (topo::GpuId g = 0; g < topology.total_gpus(); ++g) free.insert(g);
  }
  void occupy(std::initializer_list<topo::GpuId> gpus) {
    for (auto g : gpus) free.erase(g);
  }
};

TEST(TakeGpus, FillsOneNodeBeforeTheNext) {
  PlacementFixture f;
  const auto gpus = take_gpus(f.free, 10, {}, f.topology);
  EXPECT_EQ(gpus, (std::vector<topo::GpuId>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(f.free.size(), 22u);
  EXPECT_EQ(f.free.count(0), 0u);
}

TEST(TakeGpus, PrefersTheNodeWithMostFreeGpus) {
  PlacementFixture f;
  // Free GPUs per node: 3, 5, 8, 3.
  f.occupy({0, 1, 2, 3, 4, 8, 9, 10, 24, 25, 26, 27, 28});
  EXPECT_EQ(take_gpus(f.free, 3, {}, f.topology), (std::vector<topo::GpuId>{16, 17, 18}));
  // Now node 2 has 5 free, like node 1: the lower node id wins the tie.
  EXPECT_EQ(take_gpus(f.free, 2, {}, f.topology), (std::vector<topo::GpuId>{11, 12}));
}

TEST(TakeGpus, PrefersTheJobsOwnNodes) {
  PlacementFixture f;
  f.occupy({16, 17, 18, 19, 20, 24, 25});  // the job holds 24, 25 on node 3
  // Node 3 (6 free) beats the emptier nodes 0 and 1 because the job is there.
  const auto gpus = take_gpus(f.free, 8, {24, 25}, f.topology);
  EXPECT_EQ(gpus, (std::vector<topo::GpuId>{26, 27, 28, 29, 30, 31, 0, 1}));
}

TEST(TakeGpus, MoreOfTheJobOnANodeComesFirst) {
  PlacementFixture f;
  f.occupy({8, 16, 17});  // the job: one GPU on node 1, two on node 2
  const auto gpus = take_gpus(f.free, 7, {8, 16, 17}, f.topology);
  EXPECT_EQ(gpus, (std::vector<topo::GpuId>{18, 19, 20, 21, 22, 23, 9}));
}

TEST(TakeGpus, ThrowsWhenThePoolIsShort) {
  PlacementFixture f;
  EXPECT_THROW(take_gpus(f.free, 33, {}, f.topology), InternalError);
}

TEST(ReleaseGpus, LeastPopulatedNodeGoesFirst) {
  PlacementFixture f;
  std::vector<topo::GpuId> held{0, 1, 8, 2, 3};  // four on node 0, one on node 1
  EXPECT_EQ(release_gpus(held, 1, f.topology), (std::vector<topo::GpuId>{8}));
  EXPECT_EQ(held, (std::vector<topo::GpuId>{0, 1, 2, 3}));
}

TEST(ReleaseGpus, TiesGoToTheGpuLaterInTheList) {
  PlacementFixture f;
  // Nodes 0, 1 and 2 each hold one of the job's GPUs.
  std::vector<topo::GpuId> held{16, 0, 8};
  EXPECT_EQ(release_gpus(held, 2, f.topology), (std::vector<topo::GpuId>{8, 0}));
  EXPECT_EQ(held, (std::vector<topo::GpuId>{16}));
}

TEST(ReleaseGpus, RemainderStaysMostPopulatedFirst) {
  PlacementFixture f;
  std::vector<topo::GpuId> held{8, 0, 16, 1, 17, 2};  // node 0: 3, node 2: 2, node 1: 1
  EXPECT_EQ(release_gpus(held, 3, f.topology), (std::vector<topo::GpuId>{8, 17, 16}));
  EXPECT_EQ(held, (std::vector<topo::GpuId>{0, 1, 2}));
  EXPECT_THROW(release_gpus(held, 4, f.topology), InternalError);
}

}  // namespace
}  // namespace elan::sched
