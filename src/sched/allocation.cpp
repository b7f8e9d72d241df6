#include "sched/allocation.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <functional>

#include "common/error.h"

namespace elan::sched {

namespace {

/// A gain as an integer key with the same order: with -0.0 folded into
/// +0.0, a double's bits read as a signed integer, with the magnitude bits
/// flipped when negative, order like the double. NaN gets -inf's key, so a
/// NaN gain is never granted. A key is positive exactly when its gain is.
std::int64_t gain_key(double g) {
  if (std::isnan(g)) g = -std::numeric_limits<double>::infinity();
  const auto bits = std::bit_cast<std::int64_t>(g + 0.0);  // -0.0 + 0.0 is +0.0
  return bits < 0 ? bits ^ std::numeric_limits<std::int64_t>::max() : bits;
}

/// The smallest key: -inf's. It stands for "nothing to grant".
constexpr std::int64_t kNoGain =
    std::bit_cast<std::int64_t>(-std::numeric_limits<double>::infinity()) ^
    std::numeric_limits<std::int64_t>::max();

/// A winner tree (tournament tree) over positions 0..n-1, each with an
/// integer key: leaf m + pos holds position pos's key, and inner node i the
/// better of nodes 2i and 2i+1 (larger key, then lower position), so node 1
/// names the largest key, the lowest position on a tie. Leaves lie in
/// position order, so of two children with equal keys the left one wins.
/// Its nodes live in a vector the caller keeps, so a tree allocates only
/// when it is wider than every tree built in that vector before.
class WinnerTree {
 public:
  struct Node {
    std::int64_t key;
    std::size_t pos;
  };

  /// Positions 0..n-1 (n > 0), position pos keyed `key_of(pos)`, built in
  /// `storage`.
  template <typename KeyOf>
  WinnerTree(std::vector<Node>& storage, std::size_t n, KeyOf&& key_of) {
    while (m_ < n) m_ *= 2;
    if (storage.size() < 2 * m_) storage.resize(2 * m_);  // node 0 is unused
    nodes_ = storage.data();
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
  std::size_t m_ = 1;
  Node* nodes_ = nullptr;
};

}  // namespace

void waterfill(std::vector<int>& widths, const std::vector<int>& min_widths,
               const std::vector<JobGains>& gains, int budget) {
  const std::size_t n = widths.size();
  ELAN_CHECK(min_widths.size() == n && gains.size() == n,
             "waterfill: one lower bound and one gain ladder per job");
  for (const int w : min_widths) budget -= w;
  ELAN_CHECK(budget >= 0, "waterfill: lower bounds exceed the budget");
  if (n == 0) return;

  // Job i's item k gains s * steps[k], s its scale. Its effective gain is
  // the smallest gain of items 0..k. The greedy grants items in
  // non-increasing effective gain: if j's item beats i's, then when the
  // item that set i's effective gain was granted, j's head was at least as
  // high as j's item's effective gain and would have won. So the items
  // whose effective gain is above some level >= 0, when they fit the
  // budget, are a set the greedy grants at some point; as its state is only
  // the widths, it can go on from there. A job takes at most `budget` items.
  //
  // For s > 0 rounding s * x is monotone in x, and a NaN gain keys as -inf,
  // so the smallest key of s * steps[0..k] is the key of s * floors[k]: an
  // effective gain is one multiply. With s = 0 neither is positive.
  struct Job {
    double scale;
    const double* steps;
    const double* floors;
    int size;           // items it may take
    int kept;           // items it holds: its width is min_widths[i] + kept
    std::int64_t top;   // its top kept item's effective key, when kept > 0
    std::int64_t left;  // its first item left's effective key, when kept < size

    std::int64_t effective(int k) const { return gain_key(scale * floors[k]); }
    std::int64_t raw(int k) const { return gain_key(scale * steps[k]); }
    // Step 2's keys: the top kept item's effective key negated, kNoGain
    // when it keeps none; the first item left's, kNoGain at its upper
    // bound. Kept items have positive gains, so their negated keys lie
    // above kNoGain.
    std::int64_t low_key() const { return kept > 0 ? -top : kNoGain; }
    std::int64_t high_key() const { return kept < size ? left : kNoGain; }
    void keep(int k) {
      kept = k;
      if (k > 0) top = effective(k - 1);
      if (k < size) left = effective(k);
    }
  };
  // The fill's storage, one per thread and reused from call to call: the
  // job records and the nodes of two winner trees. Step 3's tree reuses the
  // nodes of step 2's `low`, which is gone by then.
  struct Scratch {
    std::vector<Job> jobs;
    std::vector<WinnerTree::Node> trees[2];
  };
  thread_local Scratch scratch;
  std::vector<Job>& jobs = scratch.jobs;
  jobs.resize(n);

  // 1. Keep the items each job holds now while their effective gain is
  // positive. The floors do not increase, so when the top held item's is
  // not, the kept items end at the first item whose is not.
  int kept = 0;
  std::int64_t lowest_kept = std::numeric_limits<std::int64_t>::max();
  std::int64_t highest_left = std::numeric_limits<std::int64_t>::min();
  for (std::size_t i = 0; i < n; ++i) {
    const JobGains& g = gains[i];
    ELAN_CHECK(std::isfinite(g.scale) && g.scale >= 0.0,
               "waterfill: a job's scale must be finite and >= 0");
    ELAN_CHECK(g.floors.size() == g.steps.size(), "waterfill: one floor per step");
    Job& job = jobs[i];
    job.scale = g.scale;
    job.steps = g.steps.data();
    job.floors = g.floors.data();
    job.size = static_cast<int>(std::min(g.steps.size(), static_cast<std::size_t>(budget)));
    int k = std::clamp(widths[i] - min_widths[i], 0, job.size);
    if (k > 0 && job.effective(k - 1) <= 0) {
      const double* const first_not = std::partition_point(
          job.floors, job.floors + k,
          [&](double floor) { return gain_key(job.scale * floor) > 0; });
      k = static_cast<int>(first_not - job.floors);
    }
    job.keep(k);
    kept += k;
    if (k > 0) lowest_kept = std::min(lowest_kept, job.top);
    if (k < job.size) highest_left = std::max(highest_left, job.left);
  }

  // 2. Cut the kept items down to every item above a level, within the
  // budget; there is nothing to cut when they fit and every item left is
  // below every kept one. `low` names the job whose top kept item has the
  // lowest effective gain, `high` the job whose first item left has the
  // highest. Both start from step 1's keys.
  if (kept > budget || highest_left >= lowest_kept) {
    WinnerTree low(scratch.trees[0], n, [&](std::size_t i) { return jobs[i].low_key(); });
    WinnerTree high(scratch.trees[1], n, [&](std::size_t i) { return jobs[i].high_key(); });
    const auto move = [&](std::size_t i, int by) {  // job i keeps `by` more items
      jobs[i].keep(jobs[i].kept + by);
      kept += by;
      low.set(i, jobs[i].low_key());
      high.set(i, jobs[i].high_key());
    };
    const auto lowest = [&] {  // INT64_MAX when nothing is kept
      return low.top_key() == kNoGain ? std::numeric_limits<std::int64_t>::max()
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
  const auto next_gain = [&](std::size_t i) {
    const Job& job = jobs[i];
    return job.kept < job.size ? job.raw(job.kept) : kNoGain;
  };
  if (budget > 0) {
    WinnerTree tree(scratch.trees[0], n, next_gain);
    while (budget > 0 && tree.top_key() > 0) {  // key > 0: gain > +0.0
      const std::size_t i = tree.top();
      ++jobs[i].kept;
      --budget;
      tree.set(i, next_gain(i));
    }
  }
  for (std::size_t i = 0; i < n; ++i) widths[i] = min_widths[i] + jobs[i].kept;
}

GpuPool::GpuPool(const topo::Topology& topology)
    : per_node_(topology.spec().gpus_per_node()),
      words_((static_cast<std::size_t>(topology.nodes()) + 63) / 64),
      mask_(static_cast<std::size_t>(topology.nodes()), 0),
      free_on_(static_cast<std::size_t>(topology.nodes()), 0) {
  ELAN_REQUIRE(per_node_ <= 64, "GpuPool: at most 64 GPUs per node, got " +
                                    std::to_string(per_node_));
  buckets_.assign(static_cast<std::size_t>(per_node_) * words_, 0);
  bucket_nodes_.assign(static_cast<std::size_t>(per_node_) + 1, 0);
}

std::uint64_t GpuPool::bit_of(topo::GpuId gpu) const {
  ELAN_CHECK(gpu >= 0 && gpu < nodes() * per_node_, "GpuPool: GPU id out of range");
  return std::uint64_t{1} << (gpu % per_node_);
}

bool GpuPool::contains(topo::GpuId gpu) const {
  const std::uint64_t bit = bit_of(gpu);  // checks the id before it indexes
  return (mask_[static_cast<std::size_t>(node_of(gpu))] & bit) != 0;
}

void GpuPool::rebucket(std::size_t node, int from, int to) {
  const std::uint64_t bit = std::uint64_t{1} << (node % 64);
  const std::size_t word = node / 64;
  if (from > 0) {
    buckets_[static_cast<std::size_t>(from - 1) * words_ + word] &= ~bit;
    --bucket_nodes_[static_cast<std::size_t>(from)];
  }
  if (to > 0) {
    buckets_[static_cast<std::size_t>(to - 1) * words_ + word] |= bit;
    ++bucket_nodes_[static_cast<std::size_t>(to)];
  }
}

void GpuPool::insert(topo::GpuId gpu) {
  const std::uint64_t bit = bit_of(gpu);
  const auto node = static_cast<std::size_t>(node_of(gpu));
  ELAN_CHECK((mask_[node] & bit) == 0, "GpuPool: GPU is already free");
  mask_[node] |= bit;
  rebucket(node, free_on_[node], free_on_[node] + 1);
  ++free_on_[node];
  ++free_;
}

void GpuPool::erase(topo::GpuId gpu) {
  const std::uint64_t bit = bit_of(gpu);
  const auto node = static_cast<std::size_t>(node_of(gpu));
  ELAN_CHECK((mask_[node] & bit) != 0, "GpuPool: GPU is not free");
  mask_[node] &= ~bit;
  rebucket(node, free_on_[node], free_on_[node] - 1);
  --free_on_[node];
  --free_;
}

int GpuPool::fullest_node() const {
  for (int c = per_node_; c >= 1; --c) {
    if (bucket_nodes_[static_cast<std::size_t>(c)] == 0) continue;
    const std::uint64_t* bucket = &buckets_[static_cast<std::size_t>(c - 1) * words_];
    std::size_t word = 0;
    while (bucket[word] == 0) ++word;  // the bucket holds a node
    return static_cast<int>(word * 64) + std::countr_zero(bucket[word]);
  }
  return -1;
}

std::vector<topo::GpuId> take_gpus(GpuPool& pool, int count,
                                   const std::vector<topo::GpuId>& near) {
  ELAN_CHECK(pool.size() >= count, "take_gpus: pool exhausted");
  // One integer per node holding some of the job's GPUs, larger first in
  // the rule's order: more of the job's GPUs, then more free GPUs, then the
  // lower node id (the low 32 bits hold kNodeBits - node). Neither count
  // exceeds the 64 GPUs of a node. A job spans a few nodes, so a linear
  // search counts its GPUs on each.
  constexpr std::uint64_t kNodeBits = 0xffffffffu;
  constexpr std::uint64_t kOnNode = std::uint64_t{1} << 48;
  std::vector<std::uint64_t> mine;
  for (auto g : near) {
    ELAN_CHECK(g >= 0 && g < pool.nodes() * pool.gpus_per_node(),
               "take_gpus: GPU id out of range");
    const std::uint64_t node = kNodeBits - static_cast<std::uint64_t>(pool.node_of(g));
    const auto it = std::find_if(mine.begin(), mine.end(),
                                 [&](std::uint64_t key) { return (key & kNodeBits) == node; });
    if (it == mine.end()) {
      mine.push_back(kOnNode | node);
    } else {
      *it += kOnNode;
    }
  }
  const auto node_of_key = [](std::uint64_t key) {
    return static_cast<int>(kNodeBits - (key & kNodeBits));
  };
  std::erase_if(mine, [&](std::uint64_t key) { return pool.free_on(node_of_key(key)) == 0; });
  for (auto& key : mine) key |= static_cast<std::uint64_t>(pool.free_on(node_of_key(key))) << 32;
  std::sort(mine.begin(), mine.end(), std::greater<>());

  // Drain the job's nodes in that order, then the fullest node left until
  // `count` GPUs are taken. Every other node ranks below the job's and in
  // the pool's fullest-first order, and a node is drained whole unless the
  // take ends in it, so the order holds as the pool shrinks. The pool holds
  // `count` free GPUs, so a node is left whenever more are needed.
  std::vector<topo::GpuId> out;
  out.reserve(static_cast<std::size_t>(count));
  const auto drain = [&](int node) {
    for (std::uint64_t mask = pool.free_mask(node);
         mask != 0 && static_cast<int>(out.size()) < count; mask &= mask - 1) {
      out.push_back(node * pool.gpus_per_node() + std::countr_zero(mask));
      pool.erase(out.back());
    }
  };
  for (auto key : mine) drain(node_of_key(key));
  while (static_cast<int>(out.size()) < count) drain(pool.fullest_node());
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
