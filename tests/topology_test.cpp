// Tests of the hardware topology model and the bandwidth model (paper §IV-2,
// Figs 8 and 9).
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "topology/bandwidth.h"
#include "topology/topology.h"

namespace elan::topo {
namespace {

Topology default_topology() { return Topology(TopologySpec{}); }

// The testbed and three shapes with other radices: 3 GPUs per switch, 3
// bridges per socket, 1 socket per node.
std::vector<TopologySpec> varied_specs() {
  return {TopologySpec{},
          TopologySpec{.nodes = 1,
                       .sockets_per_node = 2,
                       .bridges_per_socket = 1,
                       .switches_per_bridge = 2,
                       .gpus_per_switch = 3},
          TopologySpec{.nodes = 3,
                       .sockets_per_node = 2,
                       .bridges_per_socket = 3,
                       .switches_per_bridge = 2,
                       .gpus_per_switch = 2},
          TopologySpec{.nodes = 6,
                       .sockets_per_node = 1,
                       .bridges_per_socket = 2,
                       .switches_per_bridge = 3,
                       .gpus_per_switch = 3}};
}

TEST(Topology, DefaultMirrorsPaperTestbed) {
  const auto t = default_topology();
  EXPECT_EQ(t.nodes(), 8);
  EXPECT_EQ(t.spec().gpus_per_node(), 8);
  EXPECT_EQ(t.total_gpus(), 64);
}

TEST(Topology, LocationRoundTrip) {
  const auto t = default_topology();
  for (GpuId g = 0; g < t.total_gpus(); ++g) {
    EXPECT_EQ(t.gpu_at(t.location(g)), g);
  }
}

TEST(Topology, LocationDecomposition) {
  const auto t = default_topology();
  // GPU 0: first slot of everything.
  const auto l0 = t.location(0);
  EXPECT_EQ(l0.node, 0);
  EXPECT_EQ(l0.socket, 0);
  EXPECT_EQ(l0.pcie_switch, 0);
  EXPECT_EQ(l0.slot, 0);
  // GPU 8 starts node 1.
  EXPECT_EQ(t.location(8).node, 1);
  // GPU 4 is the other socket of node 0.
  EXPECT_EQ(t.location(4).node, 0);
  EXPECT_EQ(t.location(4).socket, 1);
}

TEST(Topology, LinkLevels) {
  const auto t = default_topology();
  // Same GPU.
  EXPECT_EQ(t.link_level(0, 0), LinkLevel::kSelf);
  // GPUs 0,1: same PCIe switch -> L1 (P2P).
  EXPECT_EQ(t.link_level(0, 1), LinkLevel::kL1);
  // GPUs 0,2: same socket, different switch -> L2 (host bridge).
  EXPECT_EQ(t.link_level(0, 2), LinkLevel::kL2);
  // GPUs 0,4: different socket, same node -> L3 (QPI).
  EXPECT_EQ(t.link_level(0, 4), LinkLevel::kL3);
  // GPUs 0,8: different node -> L4 (network).
  EXPECT_EQ(t.link_level(0, 8), LinkLevel::kL4);
}

TEST(Topology, LinkLevelIsSymmetric) {
  const auto t = default_topology();
  for (GpuId a = 0; a < 16; ++a) {
    for (GpuId b = 0; b < 16; ++b) {
      EXPECT_EQ(t.link_level(a, b), t.link_level(b, a)) << a << " " << b;
    }
  }
}

// link_level against the four-level rule applied to location()'s
// decomposition, over every GPU pair.
TEST(Topology, LinkLevelMatchesLocate) {
  for (const auto& spec : varied_specs()) {
    const Topology t(spec);
    for (GpuId a = 0; a < t.total_gpus(); ++a) {
      const GpuLocation la = t.location(a);
      for (GpuId b = 0; b < t.total_gpus(); ++b) {
        const GpuLocation lb = t.location(b);
        LinkLevel expected = LinkLevel::kL1;
        if (a == b) {
          expected = LinkLevel::kSelf;
        } else if (la.node != lb.node) {
          expected = LinkLevel::kL4;
        } else if (la.socket != lb.socket || la.host_bridge != lb.host_bridge) {
          expected = LinkLevel::kL3;
        } else if (la.pcie_switch != lb.pcie_switch) {
          expected = LinkLevel::kL2;
        }
        ASSERT_EQ(t.link_level(a, b), expected) << t.total_gpus() << " GPUs: " << a << "-" << b;
      }
      ASSERT_EQ(t.node_of(a), la.node);
    }
  }
}

TEST(Topology, GpusOnNode) {
  const auto t = default_topology();
  const auto gpus = t.gpus_on_node(2);
  ASSERT_EQ(gpus.size(), 8u);
  EXPECT_EQ(gpus.front(), 16);
  EXPECT_EQ(gpus.back(), 23);
}

TEST(Topology, ByProximityOrdersByLinkLevel) {
  const auto t = default_topology();
  // Candidates: a switch peer (1), a socket peer (2), a QPI peer (4), and a
  // remote GPU (8) relative to GPU 0.
  const auto sorted = t.by_proximity(0, {8, 4, 2, 1});
  EXPECT_EQ(sorted, (std::vector<GpuId>{1, 2, 4, 8}));
}

TEST(Topology, TransferResourcesContention) {
  const auto t = default_topology();
  // Two different cross-socket transfers on the same node share the QPI key.
  const auto r1 = t.transfer_resources(0, 4);
  const auto r2 = t.transfer_resources(2, 6);
  ASSERT_EQ(r1.size(), 1u);
  EXPECT_EQ(r1, r2);
  // A cross-socket transfer on a different node uses a different QPI.
  const auto r3 = t.transfer_resources(8, 12);
  EXPECT_NE(r1, r3);
  // Cross-node transfers occupy both NICs.
  const auto r4 = t.transfer_resources(0, 8);
  EXPECT_EQ(r4.size(), 2u);
}

// Resource keys named by location, one per PCIe switch, host bridge, QPI
// link and NIC: the contention the ids must reproduce.
std::vector<std::string> resource_keys(const Topology& t, GpuId a, GpuId b) {
  const GpuLocation la = t.location(a);
  const std::string node = "node" + std::to_string(la.node);
  switch (t.link_level(a, b)) {
    case LinkLevel::kSelf: return {};
    case LinkLevel::kL1:
      return {node + ".sw" + std::to_string(la.socket) + "." + std::to_string(la.host_bridge) +
              "." + std::to_string(la.pcie_switch)};
    case LinkLevel::kL2:
      return {node + ".bridge" + std::to_string(la.socket) + "." +
              std::to_string(la.host_bridge)};
    case LinkLevel::kL3: return {node + ".qpi"};
    case LinkLevel::kL4:
      return {node + ".nic", "node" + std::to_string(t.location(b).node) + ".nic"};
  }
  return {};
}

// Two GPU pairs share a resource id exactly when they share a key: each key
// maps to one id and each id to one key, over every GPU pair.
TEST(Topology, TransferResourceIdsPartitionLikeTheKeys) {
  for (const auto& spec : varied_specs()) {
    const Topology t(spec);
    std::map<std::string, int> id_of_key;
    std::map<int, std::string> key_of_id;
    for (GpuId a = 0; a < t.total_gpus(); ++a) {
      for (GpuId b = 0; b < t.total_gpus(); ++b) {
        const TransferResources ids = t.transfer_resources(a, b);
        const std::vector<std::string> keys = resource_keys(t, a, b);
        ASSERT_EQ(ids.size(), keys.size()) << a << "-" << b;
        for (std::size_t k = 0; k < keys.size(); ++k) {
          const int id = ids.ids[k];
          ASSERT_GE(id, 0);
          ASSERT_LT(id, t.resource_count());
          ASSERT_EQ(id_of_key.try_emplace(keys[k], id).first->second, id) << keys[k];
          ASSERT_EQ(key_of_id.try_emplace(id, keys[k]).first->second, keys[k]) << id;
        }
      }
    }
  }
}

TEST(Topology, RejectsBadGpuIds) {
  const auto t = default_topology();
  EXPECT_THROW(t.link_level(0, 64), InvalidArgument);
  EXPECT_THROW(t.location(-1), InvalidArgument);
}

TEST(TopologySpec, ValidatesFields) {
  TopologySpec s;
  s.nodes = 0;
  EXPECT_THROW(Topology{s}, InvalidArgument);
}

// The GPU count is checked in 64 bits against kMaxGpus: 300,000,000 nodes
// of 8 GPUs overflow a 32-bit product, and 2^29 + 1 nodes of 8 GPUs would
// wrap it to 8.
TEST(TopologySpec, CapsTheGpuCount) {
  EXPECT_NO_THROW(Topology(TopologySpec{.nodes = kMaxGpus / 8}));
  EXPECT_THROW(Topology(TopologySpec{.nodes = kMaxGpus / 8 + 1}), InvalidArgument);
  EXPECT_THROW(Topology(TopologySpec{.nodes = 300'000'000}), InvalidArgument);
  EXPECT_THROW(Topology(TopologySpec{.nodes = (1 << 29) + 1}), InvalidArgument);
  EXPECT_THROW(Topology(TopologySpec{.nodes = 1 << 16, .sockets_per_node = 1 << 16}),
               InvalidArgument);
}

TEST(Topology, CustomShape) {
  TopologySpec s;
  s.nodes = 2;
  s.sockets_per_node = 1;
  s.switches_per_bridge = 4;
  s.gpus_per_switch = 1;
  const Topology t(s);
  EXPECT_EQ(t.total_gpus(), 8);
  // Single socket per node: no L3 links exist, switches differ -> L2.
  EXPECT_EQ(t.link_level(0, 3), LinkLevel::kL2);
  EXPECT_EQ(t.link_level(0, 4), LinkLevel::kL4);
}

// ---------------------------------------------------------------------------
// Bandwidth model (Fig 8)
// ---------------------------------------------------------------------------

TEST(Bandwidth, OrderingP2POverShmOverNet) {
  const BandwidthModel bw;
  for (Bytes size : {1_MiB, 16_MiB, 256_MiB}) {
    const auto p2p = bw.measured_bandwidth(LinkLevel::kL1, size);
    const auto shm = bw.measured_bandwidth(LinkLevel::kL2, size);
    const auto qpi = bw.measured_bandwidth(LinkLevel::kL3, size);
    const auto net = bw.measured_bandwidth(LinkLevel::kL4, size);
    EXPECT_GT(p2p, shm) << format_bytes(size);
    EXPECT_GT(shm, qpi) << format_bytes(size);
    EXPECT_GT(qpi, net) << format_bytes(size);
  }
}

TEST(Bandwidth, RampsWithMessageSize) {
  const BandwidthModel bw;
  for (auto level : {LinkLevel::kL1, LinkLevel::kL2, LinkLevel::kL3, LinkLevel::kL4}) {
    const auto small = bw.measured_bandwidth(level, 4_KiB);
    const auto large = bw.measured_bandwidth(level, 256_MiB);
    EXPECT_LT(small, large * 0.5) << to_string(level);
    // Large transfers approach the peak.
    EXPECT_GT(large, bw.params(level).peak_bandwidth * 0.8) << to_string(level);
  }
}

TEST(Bandwidth, TransferTimeMonotoneInSize) {
  const BandwidthModel bw;
  Seconds prev = 0;
  for (Bytes size = 1_KiB; size <= 1_GiB; size *= 4) {
    const auto t = bw.transfer_time(LinkLevel::kL4, size);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(Bandwidth, LatencyFloorsSmallTransfers) {
  const BandwidthModel bw;
  EXPECT_GE(bw.transfer_time(LinkLevel::kL4, 1), bw.params(LinkLevel::kL4).latency);
  EXPECT_GE(bw.transfer_time(LinkLevel::kL4, 0), bw.params(LinkLevel::kL4).latency);
}

TEST(Bandwidth, ControlLinkIsEthernetClass) {
  const BandwidthModel bw;
  // ~110 MiB/s peak, sub-millisecond latency floor.
  const auto t = bw.control_transfer_time(110_MiB);
  EXPECT_NEAR(t, 1.0, 0.1);
  EXPECT_LT(bw.control_transfer_time(64), milliseconds(1.0));
}

TEST(Bandwidth, ReplicationBeatsCheckpointPath) {
  // The motivating comparison of §IV: moving 100 MiB GPU->GPU via P2P is far
  // faster than GPU->CPU->filesystem->CPU->GPU.
  const BandwidthModel bw;
  const Bytes state = 100_MiB;
  const auto p2p = bw.transfer_time(LinkLevel::kL1, state);
  const auto checkpoint_path = 2 * bw.host_device_copy_time(state) + 0.1 /* FS floor */;
  EXPECT_LT(p2p * 3, checkpoint_path);
}

TEST(Bandwidth, SetParamsOverrides) {
  BandwidthModel bw;
  LinkParams p{gib_per_sec(1.0), milliseconds(1.0), 0};
  bw.set_params(LinkLevel::kL2, p);
  EXPECT_DOUBLE_EQ(bw.params(LinkLevel::kL2).peak_bandwidth, gib_per_sec(1.0));
}

}  // namespace
}  // namespace elan::topo
