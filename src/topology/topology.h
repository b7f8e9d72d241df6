// Hardware topology model.
//
// Models the paper's testbed shape: multi-GPU servers where each node has two
// CPU sockets connected by a socket-level link (QPI), each socket owns a PCIe
// host bridge, each bridge fans out to PCIe switches, and each switch hosts
// GPUs. Nodes are connected by InfiniBand (data) and Ethernet (control).
//
// The paper's four link levels between two GPUs (§IV-2, Fig 9):
//   L1 — traverses only PCIe switches            -> P2P DMA
//   L2 — traverses a PCIe host bridge            -> CPU shared memory (SHM)
//   L3 — traverses a socket-level link (QPI)     -> SHM across sockets
//   L4 — traverses the network                   -> NET (InfiniBand)
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/units.h"

namespace elan::topo {

/// Flat GPU index across the whole cluster.
using GpuId = int;

enum class LinkLevel {
  kSelf = 0,  // same GPU (no transfer needed)
  kL1 = 1,    // same PCIe switch: P2P
  kL2 = 2,    // same socket, different switch: SHM via host bridge
  kL3 = 3,    // same node, different socket: SHM via QPI
  kL4 = 4,    // different node: network
};

const char* to_string(LinkLevel level);

/// Structural position of a GPU in the cluster.
struct GpuLocation {
  int node = 0;
  int socket = 0;
  int host_bridge = 0;  // index within the socket
  int pcie_switch = 0;  // index within the host bridge
  int slot = 0;         // index within the switch

  bool operator==(const GpuLocation&) const = default;
};

/// Most GPUs a cluster may hold. TopologySpec::validate() rejects larger
/// shapes, so GPU ids and every count derived from them fit an int, and a
/// Topology's per-GPU table stays small.
inline constexpr int kMaxGpus = 1 << 16;

/// Shape of the cluster. Defaults mirror the paper's testbed: 8 servers with
/// 8 GPUs each (2 sockets x 1 bridge x 2 switches x 2 GPUs).
struct TopologySpec {
  int nodes = 8;
  int sockets_per_node = 2;
  int bridges_per_socket = 1;
  int switches_per_bridge = 2;
  int gpus_per_switch = 2;

  constexpr int gpus_per_node() const {
    return sockets_per_node * bridges_per_socket * switches_per_bridge * gpus_per_switch;
  }
  constexpr int total_gpus() const { return nodes * gpus_per_node(); }

  /// Throws InvalidArgument unless every radix is positive and the cluster
  /// holds at most kMaxGpus GPUs (counted in 64 bits, so no product of the
  /// radices overflows on the way).
  void validate() const;
};

/// The shared physical resources one transfer occupies, as dense ids in
/// [0, Topology::resource_count()): one id per PCIe switch, host bridge,
/// QPI link and NIC of the cluster. At most two (an L4 transfer holds both
/// endpoints' NICs); none for a GPU's copy to itself.
struct TransferResources {
  std::array<int, 2> ids{};
  int count = 0;

  const int* begin() const { return ids.data(); }
  const int* end() const { return ids.data() + count; }
  std::size_t size() const { return static_cast<std::size_t>(count); }
  bool operator==(const TransferResources&) const = default;
};

class Topology {
 public:
  explicit Topology(TopologySpec spec);

  const TopologySpec& spec() const { return spec_; }
  int total_gpus() const { return spec_.total_gpus(); }
  int nodes() const { return spec_.nodes; }

  GpuLocation location(GpuId gpu) const;
  GpuId gpu_at(const GpuLocation& loc) const;
  int node_of(GpuId gpu) const {
    check_gpu(gpu);
    return groups_[static_cast<std::size_t>(gpu)].node;
  }

  /// All GPUs residing on `node`.
  std::vector<GpuId> gpus_on_node(int node) const;

  /// Link level between two GPUs (kSelf if identical).
  LinkLevel link_level(GpuId a, GpuId b) const;

  /// Shared physical resources a transfer between `a` and `b` occupies.
  /// Transfers that share a resource id contend and must be serialised by
  /// the replication planner (§IV-3). An L1 transfer occupies its PCIe
  /// switch, an L2 transfer its host bridge, an L3 transfer the node's QPI
  /// link and an L4 transfer both endpoints' NICs.
  TransferResources transfer_resources(GpuId a, GpuId b) const;

  /// Number of distinct resource ids transfer_resources can return.
  int resource_count() const { return nic_base_ + spec_.nodes; }

  /// GPUs of `candidates` sorted by proximity to `target` (best link level
  /// first; ties broken by GPU id for determinism).
  std::vector<GpuId> by_proximity(GpuId target, const std::vector<GpuId>& candidates) const;

 private:
  /// A GPU's node and its cluster-wide host-bridge and PCIe-switch indices.
  /// GPU ids are node-major, so two GPUs share a switch, bridge or node
  /// exactly when these indices match, and each index is also the GPU's
  /// resource id within its kind.
  struct Groups {
    int node = 0;
    int bridge = 0;
    int pcie_switch = 0;
  };

  TopologySpec spec_;
  std::vector<Groups> groups_;  // indexed by GPU id
  // Resource ids: switches from 0, then bridges, QPI links and NICs.
  int bridge_base_ = 0;
  int qpi_base_ = 0;
  int nic_base_ = 0;

  void check_gpu(GpuId gpu) const {
    ELAN_REQUIRE(gpu >= 0 && gpu < total_gpus(),
                 "GPU id out of range: " + std::to_string(gpu));
  }
};

}  // namespace elan::topo
