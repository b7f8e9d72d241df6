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
}

Topology::Topology(TopologySpec spec) : spec_(spec) { spec_.validate(); }

void Topology::check_gpu(GpuId gpu) const {
  ELAN_REQUIRE(gpu >= 0 && gpu < total_gpus(),
               "GPU id out of range: " + std::to_string(gpu));
}

GpuLocation Topology::location(GpuId gpu) const {
  check_gpu(gpu);
  return locate(gpu);
}

GpuLocation Topology::locate(GpuId gpu) const {
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
  const GpuLocation la = locate(a);
  const GpuLocation lb = locate(b);
  if (la.node != lb.node) return LinkLevel::kL4;
  if (la.socket != lb.socket) return LinkLevel::kL3;
  if (la.host_bridge != lb.host_bridge) return LinkLevel::kL3;
  if (la.pcie_switch != lb.pcie_switch) return LinkLevel::kL2;
  return LinkLevel::kL1;
}

std::vector<std::string> Topology::transfer_resources(GpuId a, GpuId b) const {
  const LinkLevel level = link_level(a, b);  // checks both ids
  const GpuLocation la = locate(a);
  const GpuLocation lb = locate(b);
  std::vector<std::string> keys;
  switch (level) {
    case LinkLevel::kSelf:
      break;
    case LinkLevel::kL1:
      // Dedicated path through one PCIe switch; contends only with transfers
      // through the very same switch.
      keys.push_back("node" + std::to_string(la.node) + ".sw" + std::to_string(la.socket) +
                     "." + std::to_string(la.host_bridge) + "." + std::to_string(la.pcie_switch));
      break;
    case LinkLevel::kL2:
      // Crosses the host bridge of the shared socket.
      keys.push_back("node" + std::to_string(la.node) + ".bridge" + std::to_string(la.socket) +
                     "." + std::to_string(la.host_bridge));
      break;
    case LinkLevel::kL3:
      // Crosses the node's socket interconnect (QPI) — the contention case
      // the paper calls out explicitly.
      keys.push_back("node" + std::to_string(la.node) + ".qpi");
      break;
    case LinkLevel::kL4:
      keys.push_back("node" + std::to_string(la.node) + ".nic");
      keys.push_back("node" + std::to_string(lb.node) + ".nic");
      break;
  }
  return keys;
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
