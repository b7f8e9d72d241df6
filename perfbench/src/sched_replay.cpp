// sched_replay: sched::ClusterSim::run with the elastic backfill policy
// (E-BF) and Elan's adjustment costs on a placement-aware 1024-GPU cluster,
// replaying ~5000-job production_trace_params traces. Only the scheduler and
// the throughput model work here, so this is the workload a scheduling-policy
// refactor must not slow. Trace generation is set-up.
//
// The replay cost per job differs from trace to trace by about 10%, so a run
// replays kTraces traces in turn and its throughput is taken over all of its
// replays: with one trace per seed the metric would follow the seed.
#include <cstring>
#include <limits>
#include <memory>
#include <string>

#include "baselines/adjustment_cost.h"
#include "bench.h"
#include "sched/cluster.h"
#include "sched/trace.h"
#include "storage/filesystem.h"
#include "topology/bandwidth.h"
#include "topology/topology.h"
#include "train/throughput.h"

namespace perfbench {
namespace {

using elan::sched::ScheduleMetrics;
using Trace = std::vector<elan::sched::SchedJobSpec>;

constexpr int kJobs = 5000;
constexpr int kTraces = 4;
constexpr int kSetups = 5;

/// 128 servers x 8 GPUs.
struct Cluster {
  elan::topo::Topology topology{elan::topo::TopologySpec{.nodes = 128}};
  elan::topo::BandwidthModel bandwidth;
  elan::storage::SimFilesystem fs;
  elan::train::ThroughputModel throughput{topology, bandwidth};
  elan::baselines::AdjustmentCostModel costs{topology, bandwidth, fs};
};

struct Setup {
  std::unique_ptr<Cluster> cluster;
  std::vector<Trace> traces;
  double trace_gen_s = 0;  // generating all kTraces traces
};

Setup set_up(const Options& options) {
  Setup s;
  s.cluster = std::make_unique<Cluster>();
  const auto start = Clock::now();
  for (int k = 0; k < kTraces; ++k) {
    const std::uint64_t trace_seed = options.seed * kTraces + static_cast<std::uint64_t>(k);
    s.traces.push_back(
        elan::sched::TraceGenerator(s.cluster->throughput,
                                    elan::sched::production_trace_params(kJobs, trace_seed))
            .generate());
  }
  s.trace_gen_s = seconds_since(start);
  return s;
}

ScheduleMetrics replay(const Cluster& cluster, const Trace& trace) {
  elan::sched::ClusterParams params;
  params.total_gpus = cluster.topology.total_gpus();
  params.placement_aware = true;
  elan::sched::ClusterSim sim(cluster.throughput, cluster.costs,
                              elan::sched::PolicyKind::kElasticBackfill,
                              elan::baselines::System::kElan, params);
  return sim.run(trace);
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(a)) == 0; }

/// Bit-equality of the metrics a replay must reproduce exactly.
bool same_metrics(const ScheduleMetrics& a, const ScheduleMetrics& b) {
  return a.jobs_finished == b.jobs_finished && a.total_adjustments == b.total_adjustments &&
         same_bits(a.makespan, b.makespan) &&
         same_bits(a.completion_time.mean(), b.completion_time.mean()) &&
         same_bits(a.pending_time.mean(), b.pending_time.mean()) &&
         same_bits(a.average_utilization(), b.average_utilization());
}

/// Counts a replay's jobs as operations, all failed unless every job
/// finished and the metrics match `reference` (when given).
void record_replay(Checks& checks, const Trace& trace, const ScheduleMetrics& m,
                   const ScheduleMetrics* reference) {
  const auto jobs = static_cast<std::uint64_t>(trace.size());
  if (m.jobs_finished != static_cast<int>(jobs)) {
    checks.record(jobs, false,
                  "sched replay finished " + std::to_string(m.jobs_finished) + "/" +
                      std::to_string(jobs) + " jobs");
  } else {
    checks.record(jobs, reference == nullptr || same_metrics(m, *reference),
                  "sched replay metrics differ between two replays of one trace");
  }
}

}  // namespace

E2eRun sched_e2e(const Options& options) {
  E2eRun run;
  run.item = "job";
  run.op = "replay";
  run.window = std::numeric_limits<std::size_t>::max();  // one window: the whole run
  Setup setup;
  for (int i = 0; i < kSetups; ++i) {
    const auto start = Clock::now();
    spin_up_pool(options.threads);
    setup = set_up(options);
    run.setup_s.push_back(seconds_since(start));
  }
  std::vector<ScheduleMetrics> first;  // first replay of each trace
  const auto start = Clock::now();
  for (std::size_t i = 0; i < kTraces || seconds_since(start) < options.seconds; ++i) {
    const Trace& trace = setup.traces[i % kTraces];
    const auto t0 = Clock::now();
    const auto metrics = replay(*setup.cluster, trace);
    run.add_op(ms_since(t0), static_cast<double>(trace.size()));
    record_replay(run.checks, trace, metrics, i < kTraces ? nullptr : &first[i % kTraces]);
    if (i < kTraces) first.push_back(metrics);
  }
  return run;
}

void sched_traced(const Options& options, LayerRun& out) {
  spin_up_pool(options.threads);
  const Setup setup = set_up(options);
  const Trace& trace = setup.traces.front();

  set_tracing(false);
  auto start = Clock::now();
  const auto plain = replay(*setup.cluster, trace);
  const double untraced_s = seconds_since(start);
  record_replay(out.checks, trace, plain, nullptr);

  set_tracing(true);
  start = Clock::now();
  const auto traced = replay(*setup.cluster, trace);
  const double traced_s = seconds_since(start);
  set_tracing(false);
  record_replay(out.checks, trace, traced, &plain);

  out.add("sched.trace_gen_s", setup.trace_gen_s / kTraces, "s");
  out.add("sched.replay_s", traced_s, "s");
  out.add("sched.avg_jct_s", traced.completion_time.mean(), "s");
  out.add("sched.makespan_s", traced.makespan, "s");
  out.add("sched.utilization", traced.average_utilization(), "ratio");
  out.add("obs.trace_overhead.sched_replay", traced_s / untraced_s, "ratio");
}

}  // namespace perfbench
