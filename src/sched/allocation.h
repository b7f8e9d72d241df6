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

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/error.h"
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
  if (n == 0) return;

  // A winner tree over job positions: leaf m + pos holds job pos's current
  // gain, and inner node i the better of nodes 2i and 2i+1 (larger gain,
  // then lower position), so node 1 is the next grant. A job at its upper
  // bound or with a NaN gain offers -inf, which never wins a grant: the
  // fill stops before granting a gain that is not positive. Leaves lie in
  // position order, so of two children with equal gains the left one wins.
  //
  // A gain is held as an integer key with the same order: with -0.0 folded
  // into +0.0, a double's bits read as a signed integer, with the magnitude
  // bits flipped when negative, order like the double (NaN never gets a
  // key). A node then picks its winner with one integer comparison.
  struct Offer {
    std::int64_t key;
    std::size_t pos;
  };
  const auto key_of = [](double g) {
    const auto bits = std::bit_cast<std::int64_t>(g + 0.0);  // -0.0 + 0.0 is +0.0
    return bits < 0 ? bits ^ std::numeric_limits<std::int64_t>::max() : bits;
  };
  const std::int64_t nothing = key_of(-std::numeric_limits<double>::infinity());
  std::size_t m = 1;
  while (m < n) m *= 2;
  std::vector<Offer> tree(2 * m);
  const auto offer = [&](std::size_t pos) {
    std::int64_t key = nothing;
    if (widths[pos] < max_widths[pos]) {
      const double g = gain(pos, widths[pos]);
      if (!std::isnan(g)) key = key_of(g);
    }
    tree[m + pos] = Offer{key, pos};
  };
  for (std::size_t pos = 0; pos < n; ++pos) offer(pos);
  for (std::size_t pos = n; pos < m; ++pos) tree[m + pos] = Offer{nothing, pos};
  for (std::size_t i = m - 1; i >= 1; --i) {
    tree[i] = tree[2 * i + (tree[2 * i + 1].key > tree[2 * i].key ? 1 : 0)];
  }
  while (budget > 0 && tree[1].key > 0) {  // key > 0: gain > +0.0
    const std::size_t pos = tree[1].pos;
    ++widths[pos];
    --budget;
    offer(pos);
    // Only the granted job's gain changed. Each ancestor of its leaf takes
    // the better of the new offer and its other child's winner, which this
    // grant did not touch. When i is odd that child is the left one and wins
    // a tie, hence the + (i & 1): no key comes within 1 of INT64_MAX, as
    // +inf's is the largest. The masks pick the winner without a branch.
    Offer up = tree[m + pos];
    for (std::size_t i = m + pos; i > 1; i /= 2) {
      const Offer sibling = tree[i ^ 1];
      const std::uint64_t take =  // all ones when the sibling wins
          0 - static_cast<std::uint64_t>(sibling.key + static_cast<std::int64_t>(i & 1) > up.key);
      up.key ^= (up.key ^ sibling.key) & static_cast<std::int64_t>(take);
      up.pos ^= (up.pos ^ sibling.pos) & take;
      tree[i / 2] = up;
    }
  }
}

/// The free GPUs of a cluster: per node, a bitmask of its free GPUs and
/// their count. GPU ids are node-major (topo::Topology), so GPU g sits on
/// node g / gpus_per_node.
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

 private:
  int per_node_;
  std::vector<std::uint64_t> mask_;
  std::vector<int> free_on_;
  int free_ = 0;

  std::uint64_t bit_of(topo::GpuId gpu) const;
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
