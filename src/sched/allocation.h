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
// a job's throughput at each width (the waterfill's steps) and its admission
// test. See DESIGN.md §5m.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "topology/topology.h"

namespace elan::sched {

/// One job's gains in the waterfill. Its item k is the GPU that takes it
/// from its lower bound + k GPUs to one more, and gains `scale * steps[k]`:
/// the scale is the job's remaining work (finite, >= 0), a step the drop in
/// its time per unit of work. It may take `steps.size()` items. `floors[k]`
/// is the smallest of steps[0..k], a NaN step counted as -inf; append_step
/// keeps both.
struct JobGains {
  double scale = 0.0;
  std::span<const double> steps;
  std::span<const double> floors;
};

/// Appends `step` to `steps` and its floor to `floors`.
inline void append_step(std::vector<double>& steps, std::vector<double>& floors, double step) {
  const double floor = std::isnan(step) ? -std::numeric_limits<double>::infinity() : step;
  floors.push_back(floors.empty() ? floor : std::min(floors.back(), floor));
  steps.push_back(step);
}

/// Time per sample at `tput` samples/s; +inf when `tput` <= 0. A step is
/// the difference of two of these, at a width and one more.
inline double seconds_per_sample(double tput) {
  return tput <= 0 ? std::numeric_limits<double>::infinity() : 1.0 / tput;
}

/// Marginal-gain waterfill. Job i may hold from `min_widths[i]` to
/// `min_widths[i] + gains[i].steps.size()` GPUs; on entry `widths[i]` is
/// the width it holds now, on return its allocation. `budget` counts the
/// GPUs for all jobs, lower bounds included. The allocation is the greedy
/// one: starting from the lower bounds, each further GPU goes to the job
/// whose next item has the largest gain, the estimated drop in its
/// remaining time from one more worker. Equal gains go to the earliest job.
/// A NaN gain is never granted, and that job gets no further GPU. The fill
/// stops when the budget is spent, every job is at its upper bound, or the
/// largest gain is not positive. The entry widths change how much work the
/// fill does, never its result (DESIGN.md §5m).
void waterfill(std::vector<int>& widths, const std::vector<int>& min_widths,
               const std::vector<JobGains>& gains, int budget);

/// The free GPUs of a cluster: per node, a bitmask of its free GPUs and
/// their count. GPU ids are node-major (topo::Topology), so GPU g sits on
/// node g / gpus_per_node. The nodes are also bucketed by free count: one
/// bitset over the nodes per count from 1 to gpus_per_node, with the number
/// of nodes in each, so the fullest node is found without a scan.
class GpuPool {
 public:
  /// An empty pool over `topology`'s nodes; at most 64 GPUs per node.
  explicit GpuPool(const topo::Topology& topology);

  /// Free GPUs in the pool.
  int size() const { return free_; }
  bool empty() const { return free_ == 0; }
  bool contains(topo::GpuId gpu) const;
  /// Returns `gpu`, which must not be free, to the pool.
  void insert(topo::GpuId gpu);
  /// Takes the free `gpu` out of the pool.
  void erase(topo::GpuId gpu);

  int nodes() const { return static_cast<int>(free_on_.size()); }
  int gpus_per_node() const { return per_node_; }
  int node_of(topo::GpuId gpu) const { return gpu / per_node_; }
  /// Node `node`'s free GPUs: bit i stands for GPU node * gpus_per_node + i.
  std::uint64_t free_mask(int node) const { return mask_[static_cast<std::size_t>(node)]; }
  int free_on(int node) const { return free_on_[static_cast<std::size_t>(node)]; }
  /// The node with the most free GPUs, the lowest id on a tie; -1 when the
  /// pool is empty.
  int fullest_node() const;

 private:
  int per_node_;
  std::size_t words_;  // 64-bit words of one bucket's bitset
  std::vector<std::uint64_t> mask_;
  std::vector<int> free_on_;
  // Bucket c (1..per_node_) is words [(c - 1) * words_, c * words_): bit n
  // is set when node n has exactly c free GPUs. bucket_nodes_[c] counts them.
  std::vector<std::uint64_t> buckets_;
  std::vector<int> bucket_nodes_;
  int free_ = 0;

  std::uint64_t bit_of(topo::GpuId gpu) const;
  /// Moves `node` from the bucket of `from` free GPUs to that of `to`; a
  /// count of 0 has no bucket.
  void rebucket(std::size_t node, int from, int to);
};

/// Takes `count` GPUs out of `pool`, compact first. Nodes holding more of
/// the job's GPUs (`near`) come first, then nodes with more free GPUs, then
/// lower node ids; within a node, lower GPU ids first.
std::vector<topo::GpuId> take_gpus(GpuPool& pool, int count,
                                   const std::vector<topo::GpuId>& near);

/// Removes `count` GPUs from a job's `held` GPUs and returns them. GPUs on
/// the job's least-populated nodes go first. Among equally populated nodes
/// the GPU later in `held` goes first. The GPUs that stay keep a
/// most-populated-node-first order.
std::vector<topo::GpuId> release_gpus(std::vector<topo::GpuId>& held, int count,
                                      const topo::Topology& topology);

}  // namespace elan::sched
