#include "comm/group.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>

#include "common/error.h"
#include "common/thread_pool.h"
#include "obs/trace.h"

namespace elan::comm {

topo::LinkLevel ring_bottleneck(const topo::Topology& topology,
                                std::span<const topo::GpuId> members) {
  require(!members.empty(), "ring_bottleneck: empty member set");
  const auto [lo, hi] = std::minmax_element(members.begin(), members.end());
  // link_level checks both ends, and every other member lies between them.
  // A lone member links to itself (kSelf), so it reports kL1.
  const topo::LinkLevel bottleneck =
      std::max(topo::LinkLevel::kL1, topology.link_level(*hi, *lo));
  // Duplicates: one bit per id in [lo, hi], which spans at most kMaxGpus
  // ids. Fewer distinct bits than members means some id came twice. Only
  // the first `words` words are used, and they are zeroed before use: a
  // ring clears one word per 64 ids it spans, not the whole array.
  std::array<std::uint64_t, topo::kMaxGpus / 64> seen;
  const auto words = static_cast<std::size_t>(*hi - *lo) / 64 + 1;
  std::fill_n(seen.begin(), words, 0);
  for (const topo::GpuId gpu : members) {
    const auto offset = static_cast<std::size_t>(gpu - *lo);
    seen[offset / 64] |= std::uint64_t{1} << (offset % 64);
  }
  std::size_t distinct = 0;
  for (std::size_t w = 0; w < words; ++w) distinct += std::popcount(seen[w]);
  require(distinct == members.size(), "ring_bottleneck: duplicate members");
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
