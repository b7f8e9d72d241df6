#include "sched/allocation.h"

#include <algorithm>
#include <bit>
#include <functional>

namespace elan::sched {

GpuPool::GpuPool(const topo::Topology& topology)
    : per_node_(topology.spec().gpus_per_node()),
      mask_(static_cast<std::size_t>(topology.nodes()), 0),
      free_on_(static_cast<std::size_t>(topology.nodes()), 0) {
  ELAN_REQUIRE(per_node_ <= 64, "GpuPool: at most 64 GPUs per node, got " +
                                    std::to_string(per_node_));
}

std::uint64_t GpuPool::bit_of(topo::GpuId gpu) const {
  ELAN_CHECK(gpu >= 0 && gpu < nodes() * per_node_, "GpuPool: GPU id out of range");
  return std::uint64_t{1} << (gpu % per_node_);
}

bool GpuPool::contains(topo::GpuId gpu) const {
  const std::uint64_t bit = bit_of(gpu);  // checks the id before it indexes
  return (mask_[static_cast<std::size_t>(node_of(gpu))] & bit) != 0;
}

void GpuPool::insert(topo::GpuId gpu) {
  const std::uint64_t bit = bit_of(gpu);
  const auto node = static_cast<std::size_t>(node_of(gpu));
  ELAN_CHECK((mask_[node] & bit) == 0, "GpuPool: GPU is already free");
  mask_[node] |= bit;
  ++free_on_[node];
  ++free_;
}

void GpuPool::erase(topo::GpuId gpu) {
  const std::uint64_t bit = bit_of(gpu);
  const auto node = static_cast<std::size_t>(node_of(gpu));
  ELAN_CHECK((mask_[node] & bit) != 0, "GpuPool: GPU is not free");
  mask_[node] &= ~bit;
  --free_on_[node];
  --free_;
}

std::vector<topo::GpuId> take_gpus(GpuPool& pool, int count,
                                   const std::vector<topo::GpuId>& near) {
  ELAN_CHECK(pool.size() >= count, "take_gpus: pool exhausted");
  std::vector<int> affinity(static_cast<std::size_t>(pool.nodes()), 0);
  for (auto g : near) {
    ELAN_CHECK(g >= 0 && g < pool.nodes() * pool.gpus_per_node(),
               "take_gpus: GPU id out of range");
    ++affinity[static_cast<std::size_t>(pool.node_of(g))];
  }
  // One integer per node with a free GPU, larger first in the rule's order:
  // more of the job's GPUs, then more free GPUs, then the lower node id
  // (the low 32 bits hold kNodeBits - node). Neither count exceeds the 64
  // GPUs of a node.
  constexpr std::uint64_t kNodeBits = 0xffffffffu;
  std::vector<std::uint64_t> order;
  for (int node = 0; node < pool.nodes(); ++node) {
    if (pool.free_on(node) == 0) continue;
    order.push_back(static_cast<std::uint64_t>(affinity[static_cast<std::size_t>(node)]) << 48 |
                    static_cast<std::uint64_t>(pool.free_on(node)) << 32 |
                    (kNodeBits - static_cast<std::uint64_t>(node)));
  }
  std::sort(order.begin(), order.end(), std::greater<>());
  std::vector<topo::GpuId> out;
  out.reserve(static_cast<std::size_t>(count));
  for (const std::uint64_t key : order) {
    if (static_cast<int>(out.size()) == count) break;
    const auto node = static_cast<int>(kNodeBits - (key & kNodeBits));
    for (std::uint64_t mask = pool.free_mask(node);
         mask != 0 && static_cast<int>(out.size()) < count; mask &= mask - 1) {
      out.push_back(node * pool.gpus_per_node() + std::countr_zero(mask));
    }
  }
  for (auto g : out) pool.erase(g);
  return out;
}

std::vector<topo::GpuId> release_gpus(std::vector<topo::GpuId>& held, int count,
                                      const topo::Topology& topology) {
  std::vector<int> population(static_cast<std::size_t>(topology.nodes()), 0);
  for (auto g : held) ++population[static_cast<std::size_t>(topology.node_of(g))];
  // node_of checked every id above; GPU ids are node-major.
  const int per_node = topology.spec().gpus_per_node();
  const auto population_of = [&](topo::GpuId g) {
    return population[static_cast<std::size_t>(g / per_node)];
  };
  std::stable_sort(held.begin(), held.end(), [&](topo::GpuId a, topo::GpuId b) {
    return population_of(a) > population_of(b);
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
