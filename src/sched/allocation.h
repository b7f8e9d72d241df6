// The elastic allocation and placement rule (paper §VI-C), shared by both
// schedulers: ClusterSim (cluster.h) replays traces with analytically priced
// adjustments, LiveScheduler (live_scheduler.h) drives real ElasticJobs.
//
// The rule decides how many GPUs each job gets and which GPUs those are:
//   waterfill    — each further GPU goes to the job whose estimated
//                  completion time drops the most;
//   take_gpus    — compact first: the job's own nodes, then the fullest
//                  free nodes;
//   release_gpus — a shrinking job gives up GPUs on its least-populated
//                  nodes first, so the rest stays compact.
// Each scheduler supplies what really differs between them: its estimate of
// a job's remaining time (the waterfill's gain) and its admission test. See
// DESIGN.md §5m.
#pragma once

#include <cmath>
#include <cstddef>
#include <set>
#include <vector>

#include "common/error.h"
#include "sim/indexed_heap.h"
#include "topology/topology.h"

namespace elan::sched {

/// Marginal-gain waterfill. On entry `widths[i]` is job i's lower bound and
/// `max_widths[i]` its upper bound; on return `widths[i]` is its allocation.
/// `budget` counts the GPUs for all jobs, lower bounds included. Starting
/// from the lower bounds, each further GPU goes to the job with the largest
/// `gain(i, widths[i])`, the estimated drop in its remaining time from one
/// more worker. Equal gains go to the earliest job. A NaN gain is never
/// granted, and that job gets no further GPU. The fill stops when the budget
/// is spent, every job is at its upper bound, or the largest gain is not
/// positive.
///
/// `gain` runs once per job and once per granted GPU; pass a lambda so the
/// compiler can inline it.
template <typename Gain>
void waterfill(std::vector<int>& widths, const std::vector<int>& max_widths, int budget,
               Gain&& gain) {
  const std::size_t n = widths.size();
  ELAN_CHECK(max_widths.size() == n, "waterfill: one upper bound per job");
  for (const int w : widths) budget -= w;
  ELAN_CHECK(budget >= 0, "waterfill: lower bounds exceed the budget");

  // A max-heap of per-job gains: only the job that just received a GPU
  // changes gain, so only it is re-keyed. The position component breaks
  // ties towards the earliest job.
  struct GainKey {
    double gain;
    std::size_t pos;
  };
  struct GainBefore {
    bool operator()(const GainKey& a, const GainKey& b) const {
      if (a.gain != b.gain) return a.gain > b.gain;
      return a.pos < b.pos;
    }
  };
  sim::IndexedHeap<GainKey, std::size_t, GainBefore> gains;
  gains.reserve(n);
  const auto offer = [&](std::size_t pos) {
    if (widths[pos] >= max_widths[pos]) return;
    const double g = gain(pos, widths[pos]);
    if (!std::isnan(g)) gains.push(GainKey{g, pos}, pos);
  };
  for (std::size_t pos = 0; pos < n; ++pos) offer(pos);
  while (budget > 0 && !gains.empty()) {
    if (!(gains.top_priority().gain > 0.0)) break;
    const std::size_t pos = gains.pop();
    ++widths[pos];
    --budget;
    offer(pos);
  }
}

/// Takes `count` GPUs out of `free`, compact first. Nodes holding more of
/// the job's GPUs (`near`) come first, then nodes with more free GPUs, then
/// lower node ids; within a node, lower GPU ids first.
std::vector<topo::GpuId> take_gpus(std::set<topo::GpuId>& free, int count,
                                   const std::vector<topo::GpuId>& near,
                                   const topo::Topology& topology);

/// Removes `count` GPUs from a job's `held` GPUs and returns them. GPUs on
/// the job's least-populated nodes go first. Among equally populated nodes
/// the GPU later in `held` goes first. The GPUs that stay keep a
/// most-populated-node-first order.
std::vector<topo::GpuId> release_gpus(std::vector<topo::GpuId>& held, int count,
                                      const topo::Topology& topology);

}  // namespace elan::sched
