#include "sched/allocation.h"

#include <algorithm>
#include <map>
#include <utility>

namespace elan::sched {

std::vector<topo::GpuId> take_gpus(std::set<topo::GpuId>& free, int count,
                                   const std::vector<topo::GpuId>& near,
                                   const topo::Topology& topology) {
  ELAN_CHECK(static_cast<int>(free.size()) >= count, "take_gpus: pool exhausted");
  std::map<int, int> affinity;
  for (auto g : near) ++affinity[topology.node_of(g)];
  std::map<int, std::vector<topo::GpuId>> by_node;
  for (auto g : free) by_node[topology.node_of(g)].push_back(g);
  std::vector<std::pair<int, std::vector<topo::GpuId>>> nodes(by_node.begin(),
                                                              by_node.end());
  std::sort(nodes.begin(), nodes.end(), [&](const auto& a, const auto& b) {
    const int aa = affinity.count(a.first) ? affinity.at(a.first) : 0;
    const int ab = affinity.count(b.first) ? affinity.at(b.first) : 0;
    if (aa != ab) return aa > ab;
    if (a.second.size() != b.second.size()) return a.second.size() > b.second.size();
    return a.first < b.first;
  });
  std::vector<topo::GpuId> out;
  for (const auto& [node, gpus] : nodes) {
    for (auto g : gpus) {
      if (static_cast<int>(out.size()) == count) break;
      out.push_back(g);
      free.erase(g);
    }
    if (static_cast<int>(out.size()) == count) break;
  }
  return out;
}

std::vector<topo::GpuId> release_gpus(std::vector<topo::GpuId>& held, int count,
                                      const topo::Topology& topology) {
  std::map<int, int> population;
  for (auto g : held) ++population[topology.node_of(g)];
  std::stable_sort(held.begin(), held.end(), [&](topo::GpuId a, topo::GpuId b) {
    return population.at(topology.node_of(a)) > population.at(topology.node_of(b));
  });
  std::vector<topo::GpuId> released;
  for (int i = 0; i < count; ++i) {
    ELAN_CHECK(!held.empty(), "release_gpus: nothing to release");
    released.push_back(held.back());
    held.pop_back();
  }
  return released;
}

}  // namespace elan::sched
