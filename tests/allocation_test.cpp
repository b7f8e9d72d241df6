// Tests of the allocation and placement rule both schedulers share
// (src/sched/allocation.h): the marginal-gain waterfill, compact-first GPU
// take with node affinity, and least-populated-node release.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <utility>

#include "common/rng.h"
#include "sched/allocation.h"

namespace elan::sched {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------------
// waterfill
// ---------------------------------------------------------------------------

// A job's gains: item k gains scale * steps[k], with the floors append_step
// keeps.
struct Ladder {
  double scale = 1.0;
  std::vector<double> steps;
  std::vector<double> floors;

  Ladder(double s, const std::vector<double>& raw) : scale(s) {
    for (const double step : raw) append_step(steps, floors, step);
  }
  explicit Ladder(const std::vector<double>& raw) : Ladder(1.0, raw) {}
};

// `n` equal steps.
Ladder flat(std::size_t n, double step) { return Ladder(std::vector<double>(n, step)); }

std::vector<JobGains> gains_of(const std::vector<Ladder>& jobs) {
  std::vector<JobGains> gains;
  for (const Ladder& job : jobs) gains.push_back(JobGains{job.scale, job.steps, job.floors});
  return gains;
}

// The waterfill started from `widths`.
std::vector<int> fill(std::vector<int> widths, const std::vector<int>& lower,
                      const std::vector<Ladder>& jobs, int budget) {
  waterfill(widths, lower, gains_of(jobs), budget);
  return widths;
}

// The waterfill started from the lower bounds.
std::vector<int> fill(const std::vector<int>& lower, const std::vector<Ladder>& jobs,
                      int budget) {
  return fill(lower, lower, jobs, budget);
}

TEST(Waterfill, EqualGainsGoToTheEarliestJob) {
  // Job 0 keeps winning the tie until it hits its upper bound.
  const Ladder three({1.0, 1.0, 1.0});
  EXPECT_EQ(fill({0, 0, 0}, {three, three, three}, 4), (std::vector<int>{3, 1, 0}));
}

TEST(Waterfill, GainsInterleaveAcrossJobs) {
  // Diminishing returns: job 0 gains 5, 3, 1 from its first three GPUs, job
  // 1 gains 4, 2 (twice its steps of 2, 1). Grants go 5 (job 0), 4 (job 1),
  // 3 (job 0).
  EXPECT_EQ(fill({0, 0}, {Ladder({5, 3, 1}), Ladder(2.0, {2, 1})}, 3),
            (std::vector<int>{2, 1}));
}

TEST(Waterfill, NanGainsAreNeverGranted) {
  EXPECT_EQ(fill({1, 1}, {flat(7, kNaN), flat(7, 1.0)}, 6), (std::vector<int>{1, 5}));
}

TEST(Waterfill, AJobWhoseGainTurnsNanGetsNoMore) {
  // Job 0's gain is NaN at width 2; later widths would pay, but it is not
  // granted them.
  const std::vector<Ladder> jobs{Ladder({10, 10, kNaN, 10, 10, 10, 10, 10}), flat(8, 1.0)};
  EXPECT_EQ(fill({0, 0}, jobs, 8), (std::vector<int>{2, 6}));
  // Nor when it holds them now.
  EXPECT_EQ(fill({5, 0}, {0, 0}, jobs, 8), (std::vector<int>{2, 6}));
}

TEST(Waterfill, StopsAtTheFirstNonPositiveGain) {
  // The best gain left is 0: the remaining budget stays unallocated.
  EXPECT_EQ(fill({0, 0}, {Ladder({2, 1, 0, -1, -2, -3, -4, -5}), flat(8, 0.0)}, 8),
            (std::vector<int>{2, 0}));

  // A job whose gain is negative at its width is never grown past it, even
  // if a later width would pay, nor kept there when it holds them now.
  EXPECT_EQ(fill({4}, {Ladder({-1, 1, 1, 1})}, 8), (std::vector<int>{4}));
  EXPECT_EQ(fill({7}, {2}, {Ladder({1, 1, -1, 1, 1, 1})}, 8), (std::vector<int>{4}));

  // A job with no remaining work gains nothing, even from an infinite step.
  EXPECT_EQ(fill({3, 1}, {1, 1}, {Ladder(0.0, {kInf, 1, 1}), Ladder({1, 1})}, 8),
            (std::vector<int>{1, 3}));
}

TEST(Waterfill, RespectsBoundsAndBudget) {
  // Lower bounds are kept even with nothing to gain; upper bounds cap the
  // grants; the budget counts the lower bounds too.
  const std::vector<Ladder> jobs{flat(0, 1.0), flat(2, 1.0), flat(9, 1.0)};
  EXPECT_EQ(fill({2, 3, 1}, jobs, 9), (std::vector<int>{2, 5, 2}));
  EXPECT_EQ(fill({2, 3}, {Ladder({-1, -1}), Ladder({-1})}, 20), (std::vector<int>{2, 3}));
  EXPECT_EQ(fill({3, 0}, {flat(0, 1.0), flat(1, 1.0)}, 10), (std::vector<int>{3, 1}));

  // Widths held outside the bounds come back inside them.
  EXPECT_EQ(fill({0, 9, 4}, {2, 3, 1}, jobs, 9), (std::vector<int>{2, 5, 2}));
}

TEST(Waterfill, LowerBoundsAboveTheBudgetAreAnError) {
  const Ladder one({1.0});
  std::vector<int> widths{3, 3};
  EXPECT_THROW(waterfill(widths, {3, 3}, gains_of({one, one}), 5), InternalError);
  std::vector<int> mismatched{1, 1};
  EXPECT_THROW(waterfill(mismatched, {1, 1}, gains_of({one}), 5), InternalError);
  EXPECT_THROW(waterfill(mismatched, {1}, gains_of({one, one}), 5), InternalError);
}

TEST(Waterfill, ScalesMustBeFiniteAndNonNegative) {
  const Ladder one({1.0});
  for (const double scale : {-1.0, -kInf, kInf, kNaN}) {
    std::vector<int> widths{0};
    EXPECT_THROW(waterfill(widths, {0}, {JobGains{scale, one.steps, one.floors}}, 4),
                 InternalError)
        << scale;
  }
  // One floor per step.
  std::vector<int> widths{0};
  EXPECT_THROW(waterfill(widths, {0}, {JobGains{1.0, one.steps, {}}}, 4), InternalError);
}

TEST(Waterfill, AKeptPrefixStopsAtADip) {
  // Job 0 gains 4, then 1, then 10; job 1 gains 2 three times. From the
  // lower bounds the grants go 4 (job 0), 2, 2, 2 (job 1), 1 (job 0), and
  // the budget runs out before job 0's 10. Held at the answer, job 0's
  // second GPU ties the level the fill stops at (its effective gain is 1,
  // and so is that of the 10 behind the dip): the kept items must end
  // below the dip, or the 10 would be kept without the 1 before it.
  const std::vector<Ladder> jobs{Ladder({4, 1, 10}), Ladder({2, 2, 2})};
  for (const std::vector<int>& start :
       {std::vector<int>{0, 0}, std::vector<int>{2, 3}, std::vector<int>{3, 2},
        std::vector<int>{3, 3}}) {
    EXPECT_EQ(fill(start, {0, 0}, jobs, 5), (std::vector<int>{2, 3}))
        << start[0] << "," << start[1];
  }
}

TEST(AppendStep, FloorsCountANanStepAsMinusInfinity) {
  std::vector<double> steps;
  std::vector<double> floors;
  for (const double step : {3.0, 5.0, 1.0, kNaN, 2.0}) append_step(steps, floors, step);
  EXPECT_EQ(steps.size(), 5u);
  EXPECT_TRUE(std::isnan(steps[3]));
  EXPECT_EQ(floors, (std::vector<double>{3.0, 3.0, 1.0, -kInf, -kInf}));
  // A NaN first step is a floor of -inf too.
  std::vector<double> nan_steps;
  std::vector<double> nan_floors;
  append_step(nan_steps, nan_floors, kNaN);
  append_step(nan_steps, nan_floors, 4.0);
  EXPECT_EQ(nan_floors, (std::vector<double>{-kInf, -kInf}));
}

// The rule as the header states it: every job's current gain, scale times
// its step, in an array scanned for the largest before each grant (ties to
// the earliest job).
std::vector<int> scan_waterfill(std::vector<int> widths, const std::vector<Ladder>& jobs,
                                int budget) {
  const std::size_t n = widths.size();
  const std::vector<int> lower = widths;
  for (const int w : widths) budget -= w;
  std::vector<double> current(n);
  std::vector<bool> open(n);  // below its upper bound, gain not NaN
  const auto ask = [&](std::size_t pos) {
    const auto k = static_cast<std::size_t>(widths[pos] - lower[pos]);
    open[pos] = k < jobs[pos].steps.size();
    if (open[pos]) {
      current[pos] = jobs[pos].scale * jobs[pos].steps[k];
      open[pos] = !std::isnan(current[pos]);
    }
  };
  for (std::size_t pos = 0; pos < n; ++pos) ask(pos);
  while (budget > 0) {
    std::size_t best = n;
    for (std::size_t pos = 0; pos < n; ++pos) {
      if (open[pos] && (best == n || current[pos] > current[best])) best = pos;
    }
    if (best == n || !(current[best] > 0.0)) break;
    ++widths[best];
    --budget;
    ask(best);
  }
  return widths;
}

TEST(Waterfill, MatchesTheScanRule) {
  // A small palette makes exact ties, signed zeros and infinities common;
  // drawing each width's step on its own makes runs that rise and fall, and
  // some jobs' steps rise all the way. A scale of 0 zeroes a job's gains;
  // the tiniest and the largest scales round distinct steps to equal
  // gains, 0 and +inf.
  const double palette[] = {3.0, 2.0, 1.0, 0.5, 0.0, -0.0, -1.0, kInf, -kInf, kNaN};
  Rng rng(20201);
  for (int instance = 0; instance < 2400; ++instance) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 300));
    std::vector<int> lower(n);
    std::vector<int> upper(n);
    std::vector<Ladder> jobs;
    int lower_sum = 0;
    for (std::size_t pos = 0; pos < n; ++pos) {
      lower[pos] = static_cast<int>(rng.uniform_int(0, 3));
      const auto size = static_cast<std::size_t>(rng.uniform_int(0, 12));
      upper[pos] = lower[pos] + static_cast<int>(size);
      lower_sum += lower[pos];
      std::vector<double> steps;
      for (std::size_t k = 0; k < size; ++k) {
        const auto pick = rng.uniform_int(0, 13);
        steps.push_back(pick < 10 ? palette[pick] : rng.uniform(-2.0, 4.0));
      }
      if (rng.uniform_int(0, 7) == 0) std::sort(steps.begin(), steps.end());
      const auto which = rng.uniform_int(0, 9);
      const double scale = which == 0   ? 0.0
                           : which <= 3 ? 1.0
                           : which == 4 ? std::numeric_limits<double>::denorm_min()
                           : which == 5 ? 1e308
                                        : rng.uniform(0.0, 8.0);
      jobs.emplace_back(scale, steps);
    }
    const int budget =
        lower_sum + static_cast<int>(rng.uniform_int(0, std::max(0, 1100 - lower_sum)));
    const auto expected = scan_waterfill(lower, jobs, budget);
    // Start from the lower bounds, from the answer, from widths inside the
    // bounds and from widths anywhere around them.
    std::vector<int> inside(n);
    std::vector<int> around(n);
    for (std::size_t pos = 0; pos < n; ++pos) {
      inside[pos] = static_cast<int>(rng.uniform_int(lower[pos], upper[pos]));
      around[pos] = static_cast<int>(rng.uniform_int(lower[pos] - 3, upper[pos] + 3));
    }
    const std::pair<const char*, const std::vector<int>*> starts[] = {
        {"lower bounds", &lower}, {"answer", &expected}, {"inside", &inside}, {"around", &around}};
    for (const auto& [which, start] : starts) {
      ASSERT_EQ(fill(*start, lower, jobs, budget), expected)
          << "instance " << instance << ", start " << which;
    }
  }
}

// ---------------------------------------------------------------------------
// take_gpus / release_gpus
// ---------------------------------------------------------------------------

struct PlacementFixture {
  topo::Topology topology{topo::TopologySpec{.nodes = 4}};  // 4 nodes x 8 GPUs
  GpuPool free{topology};

  PlacementFixture() {
    for (topo::GpuId g = 0; g < topology.total_gpus(); ++g) free.insert(g);
  }
  void occupy(std::initializer_list<topo::GpuId> gpus) {
    for (auto g : gpus) free.erase(g);
  }
};

TEST(TakeGpus, FillsOneNodeBeforeTheNext) {
  PlacementFixture f;
  const auto gpus = take_gpus(f.free, 10, {});
  EXPECT_EQ(gpus, (std::vector<topo::GpuId>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(f.free.size(), 22);
  EXPECT_FALSE(f.free.contains(0));
}

TEST(TakeGpus, PrefersTheNodeWithMostFreeGpus) {
  PlacementFixture f;
  // Free GPUs per node: 3, 5, 8, 3.
  f.occupy({0, 1, 2, 3, 4, 8, 9, 10, 24, 25, 26, 27, 28});
  EXPECT_EQ(take_gpus(f.free, 3, {}), (std::vector<topo::GpuId>{16, 17, 18}));
  // Now node 2 has 5 free, like node 1: the lower node id wins the tie.
  EXPECT_EQ(take_gpus(f.free, 2, {}), (std::vector<topo::GpuId>{11, 12}));
}

TEST(TakeGpus, PrefersTheJobsOwnNodes) {
  PlacementFixture f;
  f.occupy({16, 17, 18, 19, 20, 24, 25});  // the job holds 24, 25 on node 3
  // Node 3 (6 free) beats the emptier nodes 0 and 1 because the job is there.
  const auto gpus = take_gpus(f.free, 8, {24, 25});
  EXPECT_EQ(gpus, (std::vector<topo::GpuId>{26, 27, 28, 29, 30, 31, 0, 1}));
}

TEST(TakeGpus, MoreOfTheJobOnANodeComesFirst) {
  PlacementFixture f;
  f.occupy({8, 16, 17});  // the job: one GPU on node 1, two on node 2
  const auto gpus = take_gpus(f.free, 7, {8, 16, 17});
  EXPECT_EQ(gpus, (std::vector<topo::GpuId>{18, 19, 20, 21, 22, 23, 9}));
}

TEST(TakeGpus, ThrowsWhenThePoolIsShort) {
  PlacementFixture f;
  EXPECT_THROW(take_gpus(f.free, 33, {}), InternalError);
}

TEST(GpuPool, ChecksEveryReturnAndTake) {
  PlacementFixture f;
  EXPECT_THROW(f.free.insert(3), InternalError);   // already free
  f.occupy({3});
  EXPECT_THROW(f.free.erase(3), InternalError);    // already taken
  EXPECT_THROW(f.free.insert(32), InternalError);  // no such GPU
  EXPECT_THROW(static_cast<void>(f.free.contains(-1)), InternalError);
  EXPECT_EQ(f.free.size(), 31);
  // One bitmask per node: a node of more than 64 GPUs is refused.
  const topo::Topology wide(topo::TopologySpec{.nodes = 1, .gpus_per_switch = 17});
  EXPECT_THROW(GpuPool{wide}, InvalidArgument);
}

TEST(GpuPool, FullestNodeMatchesAScan) {
  // Nodes of 8, 12 and 64 GPUs. A bucket is a bitset over the nodes, so 65
  // and 130 nodes leave its last word partly used.
  const topo::TopologySpec shapes[] = {
      topo::TopologySpec{},
      topo::TopologySpec{.sockets_per_node = 2,
                         .bridges_per_socket = 1,
                         .switches_per_bridge = 2,
                         .gpus_per_switch = 3},
      topo::TopologySpec{.sockets_per_node = 2,
                         .bridges_per_socket = 1,
                         .switches_per_bridge = 2,
                         .gpus_per_switch = 16}};
  const auto scan = [](const GpuPool& pool) {  // most free GPUs, lowest id
    int fullest = -1;
    for (int node = 0; node < pool.nodes(); ++node) {
      if (pool.free_on(node) > (fullest < 0 ? 0 : pool.free_on(fullest))) fullest = node;
    }
    return fullest;
  };
  Rng rng(2020);
  for (topo::TopologySpec spec : shapes) {
    for (const int nodes : {1, 65, 130}) {
      spec.nodes = nodes;
      const topo::Topology topology(spec);
      GpuPool pool(topology);
      EXPECT_EQ(pool.fullest_node(), -1);
      std::vector<topo::GpuId> free;
      std::vector<topo::GpuId> taken;
      for (topo::GpuId g = 0; g < topology.total_gpus(); ++g) taken.push_back(g);
      // Rounds that mostly fill the pool, then mostly drain it, until it is
      // full or empty.
      for (int round = 0; round < 4; ++round) {
        const bool filling = round % 2 == 0;
        while (filling ? !taken.empty() : !free.empty()) {
          const bool insert = free.empty() || (!taken.empty() && rng.chance(filling ? 0.7 : 0.3));
          auto& from = insert ? taken : free;
          auto& to = insert ? free : taken;
          const auto k = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(from.size()) - 1));
          const topo::GpuId g = from[k];
          from[k] = from.back();
          from.pop_back();
          to.push_back(g);
          if (insert) {
            pool.insert(g);
          } else {
            pool.erase(g);
          }
          ASSERT_EQ(pool.fullest_node(), scan(pool))
              << topology.spec().gpus_per_node() << " GPUs per node, " << nodes
              << " nodes, round " << round << ", " << (insert ? "insert " : "erase ") << g;
        }
      }
      EXPECT_EQ(pool.fullest_node(), -1);
    }
  }
}

TEST(ReleaseGpus, LeastPopulatedNodeGoesFirst) {
  PlacementFixture f;
  std::vector<topo::GpuId> held{0, 1, 8, 2, 3};  // four on node 0, one on node 1
  EXPECT_EQ(release_gpus(held, 1, f.topology), (std::vector<topo::GpuId>{8}));
  EXPECT_EQ(held, (std::vector<topo::GpuId>{0, 1, 2, 3}));
}

TEST(ReleaseGpus, TiesGoToTheGpuLaterInTheList) {
  PlacementFixture f;
  // Nodes 0, 1 and 2 each hold one of the job's GPUs.
  std::vector<topo::GpuId> held{16, 0, 8};
  EXPECT_EQ(release_gpus(held, 2, f.topology), (std::vector<topo::GpuId>{8, 0}));
  EXPECT_EQ(held, (std::vector<topo::GpuId>{16}));
}

TEST(ReleaseGpus, RemainderStaysMostPopulatedFirst) {
  PlacementFixture f;
  std::vector<topo::GpuId> held{8, 0, 16, 1, 17, 2};  // node 0: 3, node 2: 2, node 1: 1
  EXPECT_EQ(release_gpus(held, 3, f.topology), (std::vector<topo::GpuId>{8, 17, 16}));
  EXPECT_EQ(held, (std::vector<topo::GpuId>{0, 1, 2}));
  EXPECT_THROW(release_gpus(held, 4, f.topology), InternalError);
}

// The placement rule as a std::set of free GPUs and std::maps keyed by node.
std::vector<topo::GpuId> set_take(std::set<topo::GpuId>& free, int count,
                                  const std::vector<topo::GpuId>& near,
                                  const topo::Topology& topology) {
  std::map<int, int> affinity;
  for (auto g : near) ++affinity[topology.node_of(g)];
  std::map<int, std::vector<topo::GpuId>> by_node;
  for (auto g : free) by_node[topology.node_of(g)].push_back(g);
  std::vector<std::pair<int, std::vector<topo::GpuId>>> nodes(by_node.begin(), by_node.end());
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

std::vector<topo::GpuId> set_release(std::vector<topo::GpuId>& held, int count,
                                     const topo::Topology& topology) {
  std::map<int, int> population;
  for (auto g : held) ++population[topology.node_of(g)];
  std::stable_sort(held.begin(), held.end(), [&](topo::GpuId a, topo::GpuId b) {
    return population.at(topology.node_of(a)) > population.at(topology.node_of(b));
  });
  std::vector<topo::GpuId> released;
  for (int i = 0; i < count; ++i) {
    released.push_back(held.back());
    held.pop_back();
  }
  return released;
}

TEST(TakeGpus, MatchesTheSetRule) {
  // Eight GPUs per node, and the 12-GPU nodes of ablation_replication.
  const topo::TopologySpec shapes[] = {
      topo::TopologySpec{},
      topo::TopologySpec{.sockets_per_node = 2,
                         .bridges_per_socket = 1,
                         .switches_per_bridge = 2,
                         .gpus_per_switch = 3}};
  Rng rng(2020);
  for (topo::TopologySpec spec : shapes) {
    for (const int nodes : {1, 2, 16, 128}) {
      spec.nodes = nodes;
      const topo::Topology topology(spec);
      GpuPool pool(topology);
      std::set<topo::GpuId> free;
      for (topo::GpuId g = 0; g < topology.total_gpus(); ++g) {
        pool.insert(g);
        free.insert(g);
      }
      std::vector<std::vector<topo::GpuId>> jobs;  // each job's GPUs, one copy per rule
      std::vector<std::vector<topo::GpuId>> set_jobs;
      for (int step = 0; step < 600; ++step) {
        const auto op = rng.uniform_int(0, 3);
        const auto j = jobs.empty() ? 0 : static_cast<std::size_t>(rng.uniform_int(
                                              0, static_cast<std::int64_t>(jobs.size()) - 1));
        if (op == 0 || jobs.empty()) {  // admit a job
          if (pool.empty()) continue;
          const int count = static_cast<int>(rng.uniform_int(1, std::min(pool.size(), 24)));
          jobs.push_back(take_gpus(pool, count, {}));
          set_jobs.push_back(set_take(free, count, {}, topology));
          ASSERT_EQ(jobs.back(), set_jobs.back()) << nodes << " nodes, step " << step;
        } else if (op == 1) {  // grow a job next to its GPUs
          if (pool.empty()) continue;
          const int count = static_cast<int>(rng.uniform_int(1, std::min(pool.size(), 16)));
          const auto added = take_gpus(pool, count, jobs[j]);
          ASSERT_EQ(added, set_take(free, count, set_jobs[j], topology))
              << nodes << " nodes, step " << step;
          jobs[j].insert(jobs[j].end(), added.begin(), added.end());
          set_jobs[j].insert(set_jobs[j].end(), added.begin(), added.end());
        } else if (op == 2) {  // shrink a job
          const int count =
              static_cast<int>(rng.uniform_int(0, static_cast<std::int64_t>(jobs[j].size())));
          const auto released = release_gpus(jobs[j], count, topology);
          ASSERT_EQ(released, set_release(set_jobs[j], count, topology))
              << nodes << " nodes, step " << step;
          ASSERT_EQ(jobs[j], set_jobs[j]);
          for (auto g : released) {
            pool.insert(g);
            free.insert(g);
          }
        } else {  // finish a job
          for (auto g : jobs[j]) {
            pool.insert(g);
            free.insert(g);
          }
          jobs.erase(jobs.begin() + static_cast<std::ptrdiff_t>(j));
          set_jobs.erase(set_jobs.begin() + static_cast<std::ptrdiff_t>(j));
        }
        ASSERT_EQ(pool.size(), static_cast<int>(free.size()));
      }
      for (topo::GpuId g = 0; g < topology.total_gpus(); ++g) {
        EXPECT_EQ(pool.contains(g), free.count(g) == 1) << "GPU " << g;
      }
    }
  }
}

}  // namespace
}  // namespace elan::sched
