// Tests of the ring's bottleneck link, the group-rebuild price and the
// functional allreduce.
#include <gtest/gtest.h>

#include "comm/group.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace elan::comm {
namespace {

TEST(RingBottleneck, LevelFollowsSpan) {
  const topo::Topology topology{topo::TopologySpec{}};
  EXPECT_EQ(ring_bottleneck(topology, {0}), topo::LinkLevel::kL1);
  EXPECT_EQ(ring_bottleneck(topology, {0, 1}), topo::LinkLevel::kL1);
  EXPECT_EQ(ring_bottleneck(topology, {0, 1, 2, 3}), topo::LinkLevel::kL2);
  EXPECT_EQ(ring_bottleneck(topology, {0, 1, 2, 3, 4, 5}), topo::LinkLevel::kL3);
  EXPECT_EQ(ring_bottleneck(topology, {0, 1, 8}), topo::LinkLevel::kL4);
}

TEST(RingBottleneck, SortsMembersAndRejectsDuplicatesAndEmptySets) {
  const topo::Topology topology{topo::TopologySpec{}};
  EXPECT_EQ(ring_bottleneck(topology, {3, 1, 2, 0}), topo::LinkLevel::kL2);
  EXPECT_EQ(ring_bottleneck(topology, {9, 0, 1, 8}), ring_bottleneck(topology, {0, 1, 8, 9}));
  EXPECT_THROW(ring_bottleneck(topology, {1, 1}), InvalidArgument);
  // Not adjacent as given: only the sorted ring sees the duplicate.
  EXPECT_THROW(ring_bottleneck(topology, {1, 2, 1}), InvalidArgument);
  EXPECT_THROW(ring_bottleneck(topology, {}), InvalidArgument);
}

TEST(GroupParams, ReconstructCostScalesWithRanks) {
  const GroupParams params;
  EXPECT_LT(params.reconstruct_time(2), params.reconstruct_time(64));
  EXPECT_DOUBLE_EQ(params.reconstruct_time(8),
                   params.reconstruct_fixed + 8 * params.reconstruct_per_rank);
}

TEST(AllreduceSum, SumsAcrossRanks) {
  std::vector<double> a{1, 2, 3};
  std::vector<double> b{10, 20, 30};
  std::vector<double> c{100, 200, 300};
  allreduce_sum({&a, &b, &c});
  const std::vector<double> expected{111, 222, 333};
  EXPECT_EQ(a, expected);
  EXPECT_EQ(b, expected);
  EXPECT_EQ(c, expected);
}

TEST(AllreduceSum, RejectsMismatchedSizes) {
  std::vector<double> a{1, 2};
  std::vector<double> b{1};
  EXPECT_THROW(allreduce_sum({&a, &b}), InvalidArgument);
}

// The chunk-parallel reduce must produce exactly the serial path's doubles
// at every thread count: the per-element accumulation order is fixed by
// construction. 100000 elements span several 32768-element chunks, so the
// pooled path engages at threads > 1.
TEST(AllreduceSum, IsBitIdenticalAcrossThreadCounts) {
  const std::size_t len = 100000;
  Rng rng(31);
  std::vector<std::vector<double>> init(4, std::vector<double>(len));
  for (auto& v : init) {
    for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  }
  auto reduce_at = [&](int threads) {
    ThreadPool::set_global_threads(threads);
    auto data = init;
    std::vector<std::vector<double>*> ptrs;
    for (auto& v : data) ptrs.push_back(&v);
    allreduce_sum(ptrs);
    ThreadPool::set_global_threads(1);
    return data.front();
  };
  const auto serial = reduce_at(1);
  for (int threads : {2, 4}) {
    ASSERT_EQ(reduce_at(threads), serial) << threads << " threads";
  }
}

}  // namespace
}  // namespace elan::comm
