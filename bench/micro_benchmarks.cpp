// Google-benchmark microbenchmarks of the hot control-plane paths: the
// replication planner, the hybrid-scaling decision, the event engine, the
// collective cost model, a nested lock acquisition and the scheduler's
// allocation rule. These are the operations that sit on Elan's adjustment
// critical path, so their own CPU cost must be negligible against the
// transfers they schedule.
#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/sync.h"
#include "elan/hybrid_scaling.h"
#include "elan/replication.h"
#include "sched/allocation.h"
#include "sim/simulator.h"
#include "topology/bandwidth.h"
#include "train/throughput.h"

namespace {

using namespace elan;

const topo::Topology& testbed() {
  static topo::Topology t{topo::TopologySpec{}};
  return t;
}

const topo::BandwidthModel& bandwidth() {
  static topo::BandwidthModel b;
  return b;
}

void BM_ReplicationPlan(benchmark::State& state) {
  const int existing = static_cast<int>(state.range(0));
  const int joining = static_cast<int>(state.range(1));
  ReplicationPlanner planner(testbed(), bandwidth());
  ReplicationRequest req;
  for (int i = 0; i < existing; ++i) req.existing.emplace(i, i);
  for (int i = 0; i < joining; ++i) req.joining.emplace(existing + i, existing + i);
  req.gpu_state_bytes = 200_MiB;
  req.cpu_state_bytes = 64_KiB;
  const ChunkPlanOptions whole_blob = whole_blob_options(req);
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.chunk_plan(req, whole_blob));
  }
}
BENCHMARK(BM_ReplicationPlan)->Args({4, 4})->Args({16, 16})->Args({16, 48})->Args({32, 32});

void BM_HybridScalingDecision(benchmark::State& state) {
  train::ThroughputModel tm(testbed(), bandwidth());
  HybridScaling hybrid(tm, train::resnet50());
  for (auto _ : state) {
    benchmark::DoNotOptimize(hybrid.decide(16, 512, static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_HybridScalingDecision)->Arg(32)->Arg(64);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int counter = 0;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule(i * 0.001, [&counter] { ++counter; });
    }
    sim.run();
    benchmark::DoNotOptimize(counter);
  }
}
BENCHMARK(BM_SimulatorEventThroughput);

// The allreduce price the workloads pay: ring bottleneck plus the
// calibrated alpha-beta formula. `gpus` GPUs placed compactly on the
// testbed, or (spread = 1) the GPUs of 8 nodes 16 apart on the 1,024-GPU
// cluster in shuffled order: the kind of placement ClusterSim prices.
void BM_AllreduceCostModel(benchmark::State& state) {
  static const topo::Topology cluster{topo::TopologySpec{.nodes = 128}};
  const bool spread = state.range(1) != 0;
  const topo::Topology& topology = spread ? cluster : testbed();
  const int per_node = topology.spec().gpus_per_node();
  std::vector<topo::GpuId> members;
  for (int i = 0; i < state.range(0); ++i) {
    members.push_back(spread ? (i / per_node) * 16 * per_node + i % per_node : i);
  }
  Rng rng(2020);
  for (std::size_t i = members.size(); spread && i > 1; --i) {
    std::swap(members[i - 1], members[static_cast<std::size_t>(
                                  rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  }
  const train::ThroughputModel tm(topology, bandwidth());
  const train::ModelSpec model = train::resnet50();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tm.allreduce_time_on(model, members));
  }
}
BENCHMARK(BM_AllreduceCostModel)
    ->ArgNames({"gpus", "spread"})
    ->Args({8, 0})
    ->Args({64, 0})
    ->Args({64, 1});

void BM_TopologyProximity(benchmark::State& state) {
  std::vector<topo::GpuId> candidates;
  for (int i = 0; i < 63; ++i) candidates.push_back(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(testbed().by_proximity(63, candidates));
  }
}
BENCHMARK(BM_TopologyProximity);

// One outer+inner acquisition pair whose ordering edge is already recorded:
// the lock-order detector's known-edge check (DESIGN.md §5c). Every thread
// locks mutexes of its own from the same two classes, so at four threads
// they share only the detector's state.
void BM_NestedLockKnownEdge(benchmark::State& state) {
  Mutex outer("bm_nested_outer");
  Mutex inner("bm_nested_inner");
  for (auto _ : state) {
    MutexLock lock_outer(outer);
    MutexLock lock_inner(inner);
  }
}
BENCHMARK(BM_NestedLockKnownEdge)->Threads(1)->Threads(4);

// One waterfill of the size a sched_replay rebalance runs (DESIGN.md §5m):
// 110 jobs share 1,024 GPUs. Each job's steps mostly fall with its width
// but rise now and then, from a seeded mix, and its scale (its remaining
// work) is drawn once. `warm:0` starts every job at its lower bound.
// `warm:1` starts at the answer for the same jobs with every scale
// perturbed by up to 2 %, as a rebalance starts from the widths the last
// one chose while each job's remaining work has moved on.
void BM_Waterfill(benchmark::State& state) {
  constexpr std::size_t kJobs = 110;
  Rng rng(2020);
  std::vector<int> lower(kJobs);
  std::vector<std::vector<double>> steps(kJobs);
  std::vector<std::vector<double>> floors(kJobs);
  std::vector<sched::JobGains> gains(kJobs);
  std::vector<sched::JobGains> perturbed(kJobs);
  for (std::size_t j = 0; j < kJobs; ++j) {
    lower[j] = static_cast<int>(rng.uniform_int(1, 4));
    const auto size = rng.uniform_int(4, 64);
    double step = rng.uniform(1.0, 100.0);
    for (std::int64_t k = 0; k < size; ++k) {
      step *= rng.uniform(0.7, 1.1);
      sched::append_step(steps[j], floors[j], step);
    }
    const double scale = rng.uniform(0.5, 2.0);
    gains[j] = sched::JobGains{scale, steps[j], floors[j]};
    perturbed[j] = sched::JobGains{scale * rng.uniform(0.98, 1.02), steps[j], floors[j]};
  }
  std::vector<int> start = lower;
  if (state.range(0) == 1) sched::waterfill(start, lower, perturbed, 1024);
  for (auto _ : state) {
    std::vector<int> widths = start;
    sched::waterfill(widths, lower, gains, 1024);
    benchmark::DoNotOptimize(widths.data());
  }
}
BENCHMARK(BM_Waterfill)->ArgName("warm")->Arg(0)->Arg(1);

// One compact take of 8 GPUs next to a job's 4 from a 128 x 8 pool with
// half its GPUs free, and their return.
void BM_TakeGpus(benchmark::State& state) {
  const topo::Topology topology{topo::TopologySpec{.nodes = 128}};
  std::vector<topo::GpuId> gpus(static_cast<std::size_t>(topology.total_gpus()));
  for (std::size_t i = 0; i < gpus.size(); ++i) gpus[i] = static_cast<topo::GpuId>(i);
  Rng rng(2020);
  for (std::size_t i = gpus.size() - 1; i > 0; --i) {
    std::swap(gpus[i], gpus[static_cast<std::size_t>(
                           rng.uniform_int(0, static_cast<std::int64_t>(i)))]);
  }
  sched::GpuPool pool(topology);
  const std::size_t half = gpus.size() / 2;
  for (std::size_t i = 0; i < half; ++i) pool.insert(gpus[i]);
  const std::vector<topo::GpuId> near(gpus.begin() + static_cast<std::ptrdiff_t>(half),
                                      gpus.begin() + static_cast<std::ptrdiff_t>(half + 4));
  for (auto _ : state) {
    const auto taken = sched::take_gpus(pool, 8, near);
    benchmark::DoNotOptimize(taken.data());
    for (auto g : taken) pool.insert(g);
  }
}
BENCHMARK(BM_TakeGpus);

}  // namespace

BENCHMARK_MAIN();
