// Elastic cluster scheduling (paper §VI-C).
//
// Generates a synthetic production trace, then schedules it on a 128-GPU
// cluster under FIFO/Backfill and their elastic variants, comparing job
// pending time, completion time, makespan and utilisation — and shows why a
// high-performance elastic mechanism matters (Ideal vs Elan vs S&R).
// Exits 1 unless each elastic policy beats its static counterpart on mean
// JCT and Elan beats S&R.
#include <cstdio>
#include <map>

#include "obs/obs.h"
#include "sched/cluster.h"
#include "sched/trace.h"

int main() {
  using namespace elan;
  obs::init_from_env();

  topo::Topology topology{topo::TopologySpec{.nodes = 16}};  // 128 GPUs
  topo::BandwidthModel bandwidth;
  storage::SimFilesystem fs;
  train::ThroughputModel throughput(topology, bandwidth);
  baselines::AdjustmentCostModel costs(topology, bandwidth, fs);

  sched::TraceParams tp;
  tp.span = hours(24.0);  // one simulated day keeps the example snappy
  const auto trace = sched::TraceGenerator(throughput, tp).generate();
  std::printf("trace: %zu jobs over 24h on a 128-GPU cluster\n\n", trace.size());

  std::printf("%-8s %10s %10s %12s %8s %12s\n", "policy", "JPT (s)", "JCT (s)",
              "makespan (h)", "util %", "adjustments");
  std::map<sched::PolicyKind, double> policy_jct;
  for (auto policy : {sched::PolicyKind::kFifo, sched::PolicyKind::kElasticFifo,
                      sched::PolicyKind::kBackfill, sched::PolicyKind::kElasticBackfill}) {
    sched::ClusterSim sim(throughput, costs, policy, baselines::System::kElan);
    const auto m = sim.run(trace);
    std::printf("%-8s %10.0f %10.0f %12.1f %8.1f %12d\n", sched::to_string(policy),
                m.pending_time.mean(), m.completion_time.mean(), m.makespan / 3600.0,
                100.0 * m.average_utilization(), m.total_adjustments);
    policy_jct[policy] = m.completion_time.mean();
  }

  std::printf("\nelastic policy by mechanism (why adjustment speed matters):\n");
  std::map<baselines::System, double> system_jct;
  for (auto system : {baselines::System::kIdeal, baselines::System::kElan,
                      baselines::System::kShutdownRestart}) {
    sched::ClusterSim sim(throughput, costs, sched::PolicyKind::kElasticBackfill, system);
    const auto m = sim.run(trace);
    std::printf("  %-6s JCT %7.0fs\n", to_string(system), m.completion_time.mean());
    system_jct[system] = m.completion_time.mean();
  }

  using sched::PolicyKind;
  const bool ok =
      policy_jct[PolicyKind::kElasticFifo] < policy_jct[PolicyKind::kFifo] &&
      policy_jct[PolicyKind::kElasticBackfill] < policy_jct[PolicyKind::kBackfill] &&
      system_jct[baselines::System::kElan] < system_jct[baselines::System::kShutdownRestart];
  std::printf("\nmean JCT: E-FIFO < FIFO, E-BF < BF and Elan < S&R: %s\n", ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
