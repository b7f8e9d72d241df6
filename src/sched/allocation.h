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

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/error.h"
#include "topology/topology.h"

namespace elan::sched {

namespace detail {

/// A gain as an integer key with the same order: with -0.0 folded into
/// +0.0, a double's bits read as a signed integer, with the magnitude bits
/// flipped when negative, order like the double. NaN gets -inf's key, so a
/// NaN gain is never granted. A key is positive exactly when its gain is.
inline std::int64_t gain_key(double g) {
  if (std::isnan(g)) g = -std::numeric_limits<double>::infinity();
  const auto bits = std::bit_cast<std::int64_t>(g + 0.0);  // -0.0 + 0.0 is +0.0
  return bits < 0 ? bits ^ std::numeric_limits<std::int64_t>::max() : bits;
}

/// The smallest key: -inf's. It stands for "nothing to grant".
inline constexpr std::int64_t kNoGain =
    std::bit_cast<std::int64_t>(-std::numeric_limits<double>::infinity()) ^
    std::numeric_limits<std::int64_t>::max();

/// A winner tree (tournament tree) over positions 0..n-1, each with an
/// integer key: leaf m + pos holds position pos's key, and inner node i the
/// better of nodes 2i and 2i+1 (larger key, then lower position), so node 1
/// names the largest key, the lowest position on a tie. Leaves lie in
/// position order, so of two children with equal keys the left one wins.
class WinnerTree {
 public:
  /// Positions 0..n-1 (n > 0), position pos keyed `key_of(pos)`.
  template <typename KeyOf>
  WinnerTree(std::size_t n, KeyOf&& key_of) {
    while (m_ < n) m_ *= 2;
    nodes_ = std::make_unique_for_overwrite<Node[]>(2 * m_);  // node 0 is unused
    for (std::size_t pos = 0; pos < m_; ++pos) {
      nodes_[m_ + pos] = Node{pos < n ? key_of(pos) : kNoGain, pos};
    }
    for (std::size_t i = m_ - 1; i >= 1; --i) {
      nodes_[i] = nodes_[2 * i + (nodes_[2 * i + 1].key > nodes_[2 * i].key ? 1 : 0)];
    }
  }

  std::size_t top() const { return nodes_[1].pos; }
  std::int64_t top_key() const { return nodes_[1].key; }

  /// Sets position `pos`'s key. Each ancestor of its leaf takes the better
  /// of the new key and its other child's winner, which did not change.
  /// When i is odd that child is the left one and wins a tie, hence the
  /// + (i & 1): no key comes within 1 of INT64_MAX (+inf's gain key is the
  /// largest). The masks pick the winner without a branch.
  void set(std::size_t pos, std::int64_t key) {
    Node up{key, pos};
    nodes_[m_ + pos] = up;
    for (std::size_t i = m_ + pos; i > 1; i /= 2) {
      const Node sibling = nodes_[i ^ 1];
      const std::uint64_t take =  // all ones when the sibling wins
          0 - static_cast<std::uint64_t>(sibling.key + static_cast<std::int64_t>(i & 1) > up.key);
      up.key ^= (up.key ^ sibling.key) & static_cast<std::int64_t>(take);
      up.pos ^= (up.pos ^ sibling.pos) & take;
      nodes_[i / 2] = up;
    }
  }

 private:
  struct Node {
    std::int64_t key;
    std::size_t pos;
  };
  std::size_t m_ = 1;
  std::unique_ptr<Node[]> nodes_;
};

}  // namespace detail

/// Marginal-gain waterfill. Job i may hold from `min_widths[i]` to
/// `max_widths[i]` GPUs; on entry `widths[i]` is the width it holds now, on
/// return its allocation. `budget` counts the GPUs for all jobs, lower
/// bounds included. The allocation is the greedy one: starting from the
/// lower bounds, each further GPU goes to the job with the largest
/// `gain(i, w)` at its width w, the estimated drop in its remaining time
/// from one more worker. Equal gains go to the earliest job. A NaN gain is
/// never granted, and that job gets no further GPU. The fill stops when the
/// budget is spent, every job is at its upper bound, or the largest gain is
/// not positive. The entry widths change how much work the fill does, never
/// its result (DESIGN.md §5m).
///
/// `gain` runs at most once per job and width: for each job from its lower
/// bound up, one width at a time (so it may carry a job's state from one
/// call to the next), at every width the fill grants and never at or past
/// the upper bound. Pass a lambda so the compiler can inline it.
template <typename Gain>
void waterfill(std::vector<int>& widths, const std::vector<int>& min_widths,
               const std::vector<int>& max_widths, int budget, Gain&& gain) {
  const std::size_t n = widths.size();
  ELAN_CHECK(min_widths.size() == n && max_widths.size() == n,
             "waterfill: one pair of bounds per job");
  for (const int w : min_widths) budget -= w;
  ELAN_CHECK(budget >= 0, "waterfill: lower bounds exceed the budget");
  if (n == 0) return;

  // Job i's item k is the GPU that takes it from min_widths[i] + k to one
  // more, and its effective gain the smallest gain of items 0..k. The
  // greedy grants items in non-increasing effective gain: if j's item beats
  // i's, then when the item that set i's effective gain was granted, j's
  // head was at least as high as j's item's effective gain and would have
  // won. So the items whose effective gain is above some level >= 0, when
  // they fit the budget, are a set the greedy grants at some point; as its
  // state is only the widths, it can go on from there. A job takes at most
  // `budget` items.
  struct Job {
    std::size_t first;  // the job's item 0 in `items`
    int size;           // items it may take
    int asked;          // items whose gain is known
    int kept;           // items it holds: its width is min_widths[i] + kept
  };
  struct Item {
    std::int64_t raw;        // gain_key of its gain
    std::int64_t effective;  // the smallest raw key of the job's items up to it
  };
  std::vector<Job> jobs(n);
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const int size = std::clamp(max_widths[i] - min_widths[i], 0, budget);
    jobs[i] = Job{total, size, 0, 0};
    total += static_cast<std::size_t>(size);
  }
  const auto items = std::make_unique_for_overwrite<Item[]>(total);
  const auto item = [&](std::size_t i, int k) -> Item& {
    return items[jobs[i].first + static_cast<std::size_t>(k)];
  };
  // Files the gain of job i's next item. Only step 2 calls it: step 1 asks
  // each job's run of items in a loop that keeps the running minimum in a
  // register, and step 3 files nothing.
  const auto ask = [&](std::size_t i) {
    Job& job = jobs[i];
    Item* const next = &items[job.first + static_cast<std::size_t>(job.asked)];
    const std::int64_t raw = detail::gain_key(gain(i, min_widths[i] + job.asked));
    *next = Item{raw, job.asked == 0 ? raw : std::min(raw, next[-1].effective)};
    ++job.asked;
  };

  // 1. Keep the items each job holds now while their effective gain is
  // positive, and ask the gain of the first item past them.
  int kept = 0;
  std::int64_t lowest_kept = std::numeric_limits<std::int64_t>::max();
  std::int64_t highest_left = std::numeric_limits<std::int64_t>::min();
  for (std::size_t i = 0; i < n; ++i) {
    const int held = widths[i] - min_widths[i];
    const int lower = min_widths[i];
    const int size = jobs[i].size;
    Item* const job_items = &items[jobs[i].first];
    std::int64_t effective = std::numeric_limits<std::int64_t>::max();
    int k = 0;
    for (; k < size; ++k) {
      const std::int64_t raw = detail::gain_key(gain(i, lower + k));
      effective = std::min(effective, raw);
      job_items[k] = Item{raw, effective};
      if (k >= held || effective <= 0) break;
    }
    jobs[i].kept = k;
    jobs[i].asked = k < size ? k + 1 : k;
    kept += k;
    if (k > 0) lowest_kept = std::min(lowest_kept, job_items[k - 1].effective);
    if (k < size) highest_left = std::max(highest_left, job_items[k].effective);
  }

  // 2. Cut the kept items down to every item above a level, within the
  // budget; there is nothing to cut when they fit and every item left is
  // below every kept one. `low` names the job whose top kept item has the
  // lowest effective gain, `high` the job whose first item left has the
  // highest; a job with no such item is keyed kNoGain. Kept items have
  // positive gains, so their negated keys, which order `low`, lie above
  // kNoGain.
  if (kept > budget || highest_left >= lowest_kept) {
    const auto low_key = [&](std::size_t i) {
      return jobs[i].kept > 0 ? -item(i, jobs[i].kept - 1).effective : detail::kNoGain;
    };
    const auto high_key = [&](std::size_t i) {
      Job& job = jobs[i];
      if (job.kept == job.size) return detail::kNoGain;
      if (job.asked == job.kept) ask(i);
      return item(i, job.kept).effective;
    };
    detail::WinnerTree low(n, low_key);
    detail::WinnerTree high(n, high_key);
    const auto move = [&](std::size_t i, int by) {  // job i keeps `by` more items
      jobs[i].kept += by;
      kept += by;
      low.set(i, low_key(i));
      high.set(i, high_key(i));
    };
    const auto lowest = [&] {  // INT64_MAX when nothing is kept
      return low.top_key() == detail::kNoGain ? std::numeric_limits<std::int64_t>::max()
                                              : -low.top_key();
    };
    while (kept > budget) move(low.top(), -1);
    // A job's first item left is never above its own top item, so the two
    // winners below are two different jobs.
    while (high.top_key() > lowest()) {
      const std::size_t in = high.top();
      move(low.top(), -1);
      move(in, 1);
    }
    while (high.top_key() == lowest()) move(low.top(), -1);
  }

  // 3. Grant the rest greedily, by raw gain, ties to the earliest job. A job
  // at its upper bound offers kNoGain, which never wins a grant: the fill
  // stops before granting a gain that is not positive.
  budget -= kept;
  // No step reads the items this step asks, so it does not file them.
  const auto next_gain = [&](std::size_t pos) {
    Job& job = jobs[pos];
    if (job.kept == job.size) return detail::kNoGain;
    if (job.kept < job.asked) return item(pos, job.kept).raw;
    ++job.asked;
    return detail::gain_key(gain(pos, min_widths[pos] + job.kept));
  };
  if (budget > 0) {
    detail::WinnerTree tree(n, next_gain);
    while (budget > 0 && tree.top_key() > 0) {  // key > 0: gain > +0.0
      const std::size_t pos = tree.top();
      ++jobs[pos].kept;
      --budget;
      tree.set(pos, next_gain(pos));
    }
  }
  for (std::size_t i = 0; i < n; ++i) widths[i] = min_widths[i] + jobs[i].kept;
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
