#include "comm/group.h"

#include <algorithm>

#include "common/error.h"
#include "common/thread_pool.h"
#include "obs/trace.h"

namespace elan::comm {

topo::LinkLevel ring_bottleneck(const topo::Topology& topology,
                                std::vector<topo::GpuId> members) {
  require(!members.empty(), "ring_bottleneck: empty member set");
  std::sort(members.begin(), members.end());
  require(std::adjacent_find(members.begin(), members.end()) == members.end(),
          "ring_bottleneck: duplicate members");
  // A lone member links to itself (kSelf), so it reports kL1.
  topo::LinkLevel bottleneck = topo::LinkLevel::kL1;
  const std::size_t n = members.size();
  for (std::size_t i = 0; i < n; ++i) {
    bottleneck = std::max(bottleneck, topology.link_level(members[i], members[(i + 1) % n]));
  }
  return bottleneck;
}

void allreduce_sum(std::vector<std::vector<double>*> per_rank) {
  require(!per_rank.empty(), "allreduce_sum: no ranks");
  ELAN_TRACE_SCOPE("comm", "allreduce_sum");
  const std::size_t n = per_rank.front()->size();
  for (auto* v : per_rank) {
    require(v != nullptr && v->size() == n, "allreduce_sum: rank size mismatch");
  }
  std::vector<double> sum(n, 0.0);
  // Chunk-parallel reduce: element ranges are independent, and within a
  // chunk every element still accumulates over ranks in ascending rank
  // order, so the result is bit-identical to the serial reduction at any
  // thread count.
  ThreadPool::global().parallel_for(
      0, static_cast<std::int64_t>(n), 1 << 15, [&](std::int64_t b, std::int64_t e) {
        for (const auto* v : per_rank) {
          const double* src = v->data();
          for (std::int64_t i = b; i < e; ++i) sum[static_cast<std::size_t>(i)] += src[i];
        }
      });
  for (auto* v : per_rank) *v = sum;
}

}  // namespace elan::comm
