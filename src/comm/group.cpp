#include "comm/group.h"

#include <algorithm>

#include "common/error.h"
#include "common/thread_pool.h"
#include "obs/trace.h"

namespace elan::comm {

CommGroup::CommGroup(const topo::Topology& topology, const topo::BandwidthModel& bandwidth,
                     std::vector<topo::GpuId> members, GroupParams params)
    : topology_(&topology), bandwidth_(&bandwidth), members_(std::move(members)),
      params_(params) {
  require(!members_.empty(), "CommGroup: empty member set");
  std::sort(members_.begin(), members_.end());
  require(std::adjacent_find(members_.begin(), members_.end()) == members_.end(),
          "CommGroup: duplicate members");
  compute_bottleneck();
}

bool CommGroup::contains(topo::GpuId gpu) const {
  return std::binary_search(members_.begin(), members_.end(), gpu);
}

void CommGroup::compute_bottleneck() {
  bottleneck_ = topo::LinkLevel::kL1;
  const int n = size();
  if (n < 2) return;
  for (int i = 0; i < n; ++i) {
    const topo::GpuId a = members_[static_cast<std::size_t>(i)];
    const topo::GpuId b = members_[static_cast<std::size_t>((i + 1) % n)];
    const auto level = topology_->link_level(a, b);
    if (static_cast<int>(level) > static_cast<int>(bottleneck_)) bottleneck_ = level;
  }
}

Seconds CommGroup::allreduce_time(Bytes size) const {
  const int n = this->size();
  if (n < 2) return 0.0;
  const auto& p = bandwidth_->params(bottleneck_);
  const double steps = 2.0 * (n - 1);
  const double chunk = static_cast<double>(size) / n;
  const double bw = bandwidth_->effective_bandwidth(bottleneck_, static_cast<Bytes>(chunk) + 1);
  return steps * p.latency + steps * chunk / bw;
}

Seconds CommGroup::broadcast_time(Bytes size) const {
  const int n = this->size();
  if (n < 2) return 0.0;
  const auto& p = bandwidth_->params(bottleneck_);
  // Binomial tree: ceil(log2(n)) rounds, each moving the full payload.
  int rounds = 0;
  for (int v = 1; v < n; v <<= 1) ++rounds;
  const double bw = bandwidth_->effective_bandwidth(bottleneck_, size);
  return rounds * (p.latency + static_cast<double>(size) / bw);
}

Seconds CommGroup::barrier_time() const {
  const int n = this->size();
  if (n < 2) return 0.0;
  const auto& p = bandwidth_->params(bottleneck_);
  return 2.0 * (n - 1) * p.latency;
}

Seconds CommGroup::reconstruct_time(int n) const {
  require(n > 0, "reconstruct_time: non-positive rank count");
  return params_.reconstruct_time(n);
}

CommGroup CommGroup::reconstructed(std::vector<topo::GpuId> new_members) const {
  return CommGroup(*topology_, *bandwidth_, std::move(new_members), params_);
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
