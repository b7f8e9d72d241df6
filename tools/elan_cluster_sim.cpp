// elan_cluster_sim — run the elastic-scheduling simulation from the command
// line (paper §VI-C methodology) on a generated or imported trace.
//
//   elan_cluster_sim --policy E-BF --system Elan --hours 48 --seed 2020
//   elan_cluster_sim --trace-out trace.csv          # write the trace, then replay it
//   elan_cluster_sim --trace-in trace.csv --policy FIFO
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "common/flags.h"
#include "obs/obs.h"
#include "sched/cluster.h"
#include "sched/trace.h"
#include "sched/trace_io.h"

namespace {

using namespace elan;

/// "FIFO, BF, ...": every policy's name.
std::string policy_names() {
  std::string names;
  for (const auto policy : sched::kAllPolicies) {
    names += (names.empty() ? "" : ", ") + std::string(sched::to_string(policy));
  }
  return names;
}

sched::PolicyKind parse_policy(const std::string& s) {
  for (const auto policy : sched::kAllPolicies) {
    if (s == sched::to_string(policy)) return policy;
  }
  throw InvalidArgument("policy must be one of " + policy_names());
}

baselines::System parse_system(const std::string& s) {
  if (s == "Ideal") return baselines::System::kIdeal;
  if (s == "Elan") return baselines::System::kElan;
  if (s == "S&R" || s == "SnR") return baselines::System::kShutdownRestart;
  throw InvalidArgument("system must be Ideal, Elan or SnR");
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define("policy", "E-BF", "scheduling policy: " + policy_names());
  flags.define("system", "Elan", "elasticity mechanism: Ideal, Elan, SnR");
  flags.define("gpus", "128", "cluster size in GPUs (multiple of 8)");
  flags.define("hours", "48", "trace span in hours");
  flags.define("seed", "2020", "trace random seed");
  flags.define("peak", "22", "peak arrivals per hour");
  flags.define("trough", "10", "trough arrivals per hour");
  flags.define("placement", "false", "placement-aware mode (bind jobs to real GPUs)");
  flags.define("trace-in", "", "read the trace from this CSV instead of generating");
  flags.define("trace-out", "", "write the (generated) trace to this CSV");
  flags.define("utilization-out", "", "write the utilisation timeline to this CSV");
  define_log_level_flag(flags);

  try {
    flags.parse(argc, argv);
    if (flags.help_requested()) {
      std::fputs(flags.usage("elan_cluster_sim").c_str(), stdout);
      return 0;
    }
    obs::init_from_env();
    apply_log_level_flag(flags);

    const int gpus = static_cast<int>(parse_int(flags.get("gpus"), 8, topo::kMaxGpus, "--gpus"));
    require(gpus % 8 == 0, "--gpus must be a positive multiple of 8");
    topo::Topology topology{topo::TopologySpec{.nodes = gpus / 8}};
    topo::BandwidthModel bandwidth;
    storage::SimFilesystem fs;
    train::ThroughputModel throughput(topology, bandwidth);
    baselines::AdjustmentCostModel costs(topology, bandwidth, fs);

    std::vector<sched::SchedJobSpec> trace;
    if (!flags.get("trace-in").empty()) {
      std::ifstream in(flags.get("trace-in"));
      ELAN_REQUIRE(in.good(), "cannot open " + flags.get("trace-in"));
      trace = sched::read_trace_csv(in);
    } else {
      sched::TraceParams tp;
      tp.span = hours(flags.get_double("hours"));
      tp.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
      tp.peak_jobs_per_hour = flags.get_double("peak");
      tp.trough_jobs_per_hour = flags.get_double("trough");
      trace = sched::TraceGenerator(throughput, tp).generate();
    }
    if (!flags.get("trace-out").empty()) {
      std::ofstream out(flags.get("trace-out"));
      sched::write_trace_csv(out, trace);
      std::printf("wrote %zu jobs to %s\n", trace.size(), flags.get("trace-out").c_str());
      if (flags.get("trace-in").empty() && flags.get("policy").empty()) return 0;
    }

    const auto policy = parse_policy(flags.get("policy"));
    const auto system = parse_system(flags.get("system"));
    sched::ClusterParams cp;
    cp.total_gpus = gpus;
    cp.placement_aware = flags.get_bool("placement");
    sched::ClusterSim sim(throughput, costs, policy, system, cp);
    const auto m = sim.run(trace);

    std::printf("trace: %zu jobs, cluster: %d GPUs, policy: %s, system: %s\n",
                trace.size(), gpus, sched::to_string(policy), to_string(system));
    std::printf("  mean JPT:      %10.0f s (p50 %.0f)\n", m.pending_time.mean(),
                m.pending_time.median());
    std::printf("  mean JCT:      %10.0f s (p50 %.0f)\n", m.completion_time.mean(),
                m.completion_time.median());
    std::printf("  makespan:      %10.1f h\n", m.makespan / 3600.0);
    std::printf("  avg util:      %10.1f %%\n", 100.0 * m.average_utilization());
    std::printf("  adjustments:   %10d\n", m.total_adjustments);

    if (!flags.get("utilization-out").empty()) {
      std::ofstream out(flags.get("utilization-out"));
      sched::write_utilization_csv(out, m.utilization);
      std::printf("wrote utilisation timeline to %s\n",
                  flags.get("utilization-out").c_str());
    }
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n%s", e.what(),
                 flags.usage("elan_cluster_sim").c_str());
    return 1;
  }
}
