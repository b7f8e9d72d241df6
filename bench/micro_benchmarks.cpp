// Google-benchmark microbenchmarks of the hot control-plane paths: the
// replication planner, the hybrid-scaling decision, the event engine, the
// collective cost model and a nested lock acquisition. These are the
// operations that sit on Elan's adjustment critical path, so their own CPU
// cost must be negligible against the transfers they schedule.
#include <benchmark/benchmark.h>

#include "common/sync.h"
#include "elan/hybrid_scaling.h"
#include "elan/replication.h"
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
BENCHMARK(BM_ReplicationPlan)->Args({4, 4})->Args({16, 16})->Args({16, 48});

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
// calibrated alpha-beta formula, over a compact placement.
void BM_AllreduceCostModel(benchmark::State& state) {
  std::vector<topo::GpuId> members;
  for (int i = 0; i < state.range(0); ++i) members.push_back(i);
  const train::ThroughputModel tm(testbed(), bandwidth());
  const train::ModelSpec model = train::resnet50();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tm.allreduce_time_on(model, members));
  }
}
BENCHMARK(BM_AllreduceCostModel)->Arg(8)->Arg(64);

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

}  // namespace

BENCHMARK_MAIN();
