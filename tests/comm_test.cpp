// Tests of the ring's bottleneck link, the group-rebuild price and the
// functional allreduce.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "comm/group.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace elan::comm {
namespace {

topo::LinkLevel ring(const topo::Topology& topology, const std::vector<topo::GpuId>& members) {
  return ring_bottleneck(topology, members);
}

TEST(RingBottleneck, LevelFollowsSpan) {
  const topo::Topology topology{topo::TopologySpec{}};
  EXPECT_EQ(ring(topology, {0}), topo::LinkLevel::kL1);
  EXPECT_EQ(ring(topology, {0, 1}), topo::LinkLevel::kL1);
  EXPECT_EQ(ring(topology, {0, 1, 2, 3}), topo::LinkLevel::kL2);
  EXPECT_EQ(ring(topology, {0, 1, 2, 3, 4, 5}), topo::LinkLevel::kL3);
  EXPECT_EQ(ring(topology, {0, 1, 8}), topo::LinkLevel::kL4);
}

TEST(RingBottleneck, SortsMembersAndRejectsDuplicatesAndEmptySets) {
  const topo::Topology topology{topo::TopologySpec{}};
  EXPECT_EQ(ring(topology, {3, 1, 2, 0}), topo::LinkLevel::kL2);
  EXPECT_EQ(ring(topology, {9, 0, 1, 8}), ring(topology, {0, 1, 8, 9}));
  EXPECT_THROW(ring(topology, {1, 1}), InvalidArgument);
  // Not adjacent as given, or far from either end: a duplicate is found
  // wherever it sits.
  EXPECT_THROW(ring(topology, {1, 2, 1}), InvalidArgument);
  EXPECT_THROW(ring(topology, {0, 63, 5, 7, 5}), InvalidArgument);
  EXPECT_THROW(ring(topology, {}), InvalidArgument);
  // Out-of-range ids, a lone member's included.
  EXPECT_THROW(ring(topology, {64}), InvalidArgument);
  EXPECT_THROW(ring(topology, {-1}), InvalidArgument);
  EXPECT_THROW(ring(topology, {3, 64, 0}), InvalidArgument);
}

// Reference: the ring walked hop by hop over the sorted members, closing
// back to the first, as the price was computed before the one-pass rule.
topo::LinkLevel sorted_ring(const topo::Topology& topology, std::vector<topo::GpuId> members) {
  std::sort(members.begin(), members.end());
  topo::LinkLevel bottleneck = topo::LinkLevel::kL1;
  const std::size_t n = members.size();
  for (std::size_t i = 0; i < n; ++i) {
    bottleneck = std::max(bottleneck, topology.link_level(members[i], members[(i + 1) % n]));
  }
  return bottleneck;
}

// The widest-span rule against the sorted ring on the testbed, the replay's
// 1,024-GPU cluster and three shapes with other radices (3 GPUs per switch,
// 3 bridges per socket, 1 socket per node). Member sets of 1-64 GPUs are
// windows of consecutive ids, any distinct ids, or ids of one node, each
// handed over shuffled.
TEST(RingBottleneck, MatchesTheSortedRing) {
  const topo::TopologySpec specs[] = {
      topo::TopologySpec{},
      topo::TopologySpec{.nodes = 128},
      topo::TopologySpec{.nodes = 1,
                         .sockets_per_node = 2,
                         .bridges_per_socket = 1,
                         .switches_per_bridge = 2,
                         .gpus_per_switch = 3},
      topo::TopologySpec{.nodes = 3,
                         .sockets_per_node = 2,
                         .bridges_per_socket = 3,
                         .switches_per_bridge = 2,
                         .gpus_per_switch = 2},
      topo::TopologySpec{.nodes = 6,
                         .sockets_per_node = 1,
                         .bridges_per_socket = 2,
                         .switches_per_bridge = 3,
                         .gpus_per_switch = 3}};
  Rng rng(2020);
  auto shuffle = [&](std::vector<topo::GpuId>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[static_cast<std::size_t>(
                              rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
    }
  };
  for (const auto& spec : specs) {
    const topo::Topology topology(spec);
    const int total = topology.total_gpus();
    const int per_node = spec.gpus_per_node();
    for (int trial = 0; trial < 600; ++trial) {
      std::vector<topo::GpuId> members;
      switch (trial % 3) {
        case 0: {  // a window of consecutive ids
          const int n = static_cast<int>(rng.uniform_int(1, std::min(64, total)));
          const int first = static_cast<int>(rng.uniform_int(0, total - n));
          members.resize(static_cast<std::size_t>(n));
          std::iota(members.begin(), members.end(), first);
          break;
        }
        case 1: {  // any distinct ids
          const auto n = static_cast<std::size_t>(rng.uniform_int(1, std::min(64, total)));
          members.resize(static_cast<std::size_t>(total));
          std::iota(members.begin(), members.end(), 0);
          shuffle(members);
          members.resize(n);
          break;
        }
        default: {  // distinct ids of one node
          const int node = static_cast<int>(rng.uniform_int(0, spec.nodes - 1));
          const auto n = static_cast<std::size_t>(rng.uniform_int(1, per_node));
          members = topology.gpus_on_node(node);
          shuffle(members);
          members.resize(n);
          break;
        }
      }
      shuffle(members);
      ASSERT_EQ(ring(topology, members), sorted_ring(topology, members))
          << "spec " << &spec - specs << ", trial " << trial << ", " << members.size()
          << " members";
    }
  }
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
