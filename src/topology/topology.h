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

  void validate() const;
};

class Topology {
 public:
  explicit Topology(TopologySpec spec);

  const TopologySpec& spec() const { return spec_; }
  int total_gpus() const { return spec_.total_gpus(); }
  int nodes() const { return spec_.nodes; }

  GpuLocation location(GpuId gpu) const;
  GpuId gpu_at(const GpuLocation& loc) const;
  int node_of(GpuId gpu) const { return location(gpu).node; }

  /// All GPUs residing on `node`.
  std::vector<GpuId> gpus_on_node(int node) const;

  /// Link level between two GPUs (kSelf if identical).
  LinkLevel link_level(GpuId a, GpuId b) const;

  /// Shared physical resources a transfer between `a` and `b` occupies.
  /// Transfers that share a resource key contend and must be serialised by
  /// the replication planner (§IV-3). An L3 transfer occupies the node's QPI
  /// link; an L4 transfer occupies both endpoints' NICs.
  std::vector<std::string> transfer_resources(GpuId a, GpuId b) const;

  /// GPUs of `candidates` sorted by proximity to `target` (best link level
  /// first; ties broken by GPU id for determinism).
  std::vector<GpuId> by_proximity(GpuId target, const std::vector<GpuId>& candidates) const;

 private:
  TopologySpec spec_;

  void check_gpu(GpuId gpu) const;
  /// location() without the range check, for callers that already did it.
  GpuLocation locate(GpuId gpu) const;
};

}  // namespace elan::topo
