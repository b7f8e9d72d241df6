#include "topology/topology.h"

#include <algorithm>

namespace elan::topo {

const char* to_string(LinkLevel level) {
  switch (level) {
    case LinkLevel::kSelf: return "self";
    case LinkLevel::kL1: return "L1(P2P)";
    case LinkLevel::kL2: return "L2(SHM)";
    case LinkLevel::kL3: return "L3(SHM/QPI)";
    case LinkLevel::kL4: return "L4(NET)";
  }
  return "?";
}

void TopologySpec::validate() const {
  require(nodes > 0, "TopologySpec: nodes must be positive");
  require(sockets_per_node > 0, "TopologySpec: sockets_per_node must be positive");
  require(bridges_per_socket > 0, "TopologySpec: bridges_per_socket must be positive");
  require(switches_per_bridge > 0, "TopologySpec: switches_per_bridge must be positive");
  require(gpus_per_switch > 0, "TopologySpec: gpus_per_switch must be positive");
  // Each partial product is at most kMaxGpus before the next radix (an int)
  // multiplies it, so none overflows 64 bits.
  std::int64_t gpus = 1;
  for (const int radix :
       {nodes, sockets_per_node, bridges_per_socket, switches_per_bridge, gpus_per_switch}) {
    gpus *= radix;
    ELAN_REQUIRE(gpus <= kMaxGpus,
                 "TopologySpec: more than " + std::to_string(kMaxGpus) + " GPUs");
  }
}

Topology::Topology(TopologySpec spec) : spec_(spec) {
  spec_.validate();
  const int per_switch = spec_.gpus_per_switch;
  const int per_bridge = per_switch * spec_.switches_per_bridge;
  const int per_node = spec_.gpus_per_node();
  const int total = spec_.total_gpus();
  groups_.resize(static_cast<std::size_t>(total));
  for (GpuId g = 0; g < total; ++g) {
    groups_[static_cast<std::size_t>(g)] = {g / per_node, g / per_bridge, g / per_switch};
  }
  bridge_base_ = total / per_switch;
  qpi_base_ = bridge_base_ + total / per_bridge;
  nic_base_ = qpi_base_ + spec_.nodes;
}

GpuLocation Topology::location(GpuId gpu) const {
  check_gpu(gpu);
  GpuLocation loc;
  int rest = gpu;
  loc.slot = rest % spec_.gpus_per_switch;
  rest /= spec_.gpus_per_switch;
  loc.pcie_switch = rest % spec_.switches_per_bridge;
  rest /= spec_.switches_per_bridge;
  loc.host_bridge = rest % spec_.bridges_per_socket;
  rest /= spec_.bridges_per_socket;
  loc.socket = rest % spec_.sockets_per_node;
  rest /= spec_.sockets_per_node;
  loc.node = rest;
  return loc;
}

GpuId Topology::gpu_at(const GpuLocation& loc) const {
  require(loc.node >= 0 && loc.node < spec_.nodes, "gpu_at: bad node");
  require(loc.socket >= 0 && loc.socket < spec_.sockets_per_node, "gpu_at: bad socket");
  require(loc.host_bridge >= 0 && loc.host_bridge < spec_.bridges_per_socket,
          "gpu_at: bad host bridge");
  require(loc.pcie_switch >= 0 && loc.pcie_switch < spec_.switches_per_bridge,
          "gpu_at: bad pcie switch");
  require(loc.slot >= 0 && loc.slot < spec_.gpus_per_switch, "gpu_at: bad slot");
  int id = loc.node;
  id = id * spec_.sockets_per_node + loc.socket;
  id = id * spec_.bridges_per_socket + loc.host_bridge;
  id = id * spec_.switches_per_bridge + loc.pcie_switch;
  id = id * spec_.gpus_per_switch + loc.slot;
  return id;
}

std::vector<GpuId> Topology::gpus_on_node(int node) const {
  require(node >= 0 && node < spec_.nodes, "gpus_on_node: bad node");
  std::vector<GpuId> out;
  const int per_node = spec_.gpus_per_node();
  out.reserve(static_cast<std::size_t>(per_node));
  for (int i = 0; i < per_node; ++i) out.push_back(node * per_node + i);
  return out;
}

LinkLevel Topology::link_level(GpuId a, GpuId b) const {
  check_gpu(a);
  check_gpu(b);
  if (a == b) return LinkLevel::kSelf;
  const Groups& ga = groups_[static_cast<std::size_t>(a)];
  const Groups& gb = groups_[static_cast<std::size_t>(b)];
  if (ga.node != gb.node) return LinkLevel::kL4;
  // Another socket, or another host bridge of the same socket: both are L3.
  if (ga.bridge != gb.bridge) return LinkLevel::kL3;
  if (ga.pcie_switch != gb.pcie_switch) return LinkLevel::kL2;
  return LinkLevel::kL1;
}

TransferResources Topology::transfer_resources(GpuId a, GpuId b) const {
  const LinkLevel level = link_level(a, b);  // checks both ids
  const Groups& ga = groups_[static_cast<std::size_t>(a)];
  TransferResources r;
  switch (level) {
    case LinkLevel::kSelf:
      break;
    case LinkLevel::kL1:
      // Dedicated path through one PCIe switch; contends only with transfers
      // through the very same switch.
      r.ids[r.count++] = ga.pcie_switch;
      break;
    case LinkLevel::kL2:
      // Crosses the host bridge of the shared socket.
      r.ids[r.count++] = bridge_base_ + ga.bridge;
      break;
    case LinkLevel::kL3:
      // Crosses the node's socket interconnect (QPI) — the contention case
      // the paper calls out explicitly.
      r.ids[r.count++] = qpi_base_ + ga.node;
      break;
    case LinkLevel::kL4:
      r.ids[r.count++] = nic_base_ + ga.node;
      r.ids[r.count++] = nic_base_ + groups_[static_cast<std::size_t>(b)].node;
      break;
  }
  return r;
}

std::vector<GpuId> Topology::by_proximity(GpuId target,
                                          const std::vector<GpuId>& candidates) const {
  std::vector<GpuId> sorted = candidates;
  std::sort(sorted.begin(), sorted.end(), [&](GpuId x, GpuId y) {
    const auto lx = static_cast<int>(link_level(target, x));
    const auto ly = static_cast<int>(link_level(target, y));
    if (lx != ly) return lx < ly;
    return x < y;
  });
  return sorted;
}

}  // namespace elan::topo
