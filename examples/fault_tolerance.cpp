// Fault tolerance demo (paper §V-D).
//
// Shows the three mechanisms at work:
//   1. the AM is a state machine persisted to (simulated) etcd — crash it in
//      the middle of a scale-out and recover an equivalent AM;
//   2. messages carry unique ids and are resent on timeout — reports and
//      coordinates sent while the AM is down are retried until the recovered
//      AM acknowledges them;
//   3. training proceeds through all of it: the adjustment completes after
//      recovery and the replicas are still bit-identical.
#include <cstdio>

#include "elan/job.h"
#include "obs/obs.h"
#include "storage/filesystem.h"

int main() {
  using namespace elan;
  obs::init_from_env();

  sim::Simulator sim;
  topo::Topology topology{topo::TopologySpec{}};
  topo::BandwidthModel bandwidth;
  storage::SimFilesystem fs;
  transport::BusParams bus_params;
  bus_params.drop_probability = 0.02;  // a lossy control network, for flavour
  transport::MessageBus bus(sim, bandwidth, bus_params);
  transport::KvStore kv(sim);

  JobConfig config;
  config.job_id = "ft-demo";
  config.model = train::resnet50();
  config.initial_workers = 4;
  config.initial_total_batch = 128;
  ElasticJob job(sim, topology, bandwidth, fs, bus, kv, config);
  job.stop_after_iterations(800);
  job.start();

  sim.schedule(2.0, [&] {
    std::printf("[t=%6.2fs] scheduler: scale out to 6 workers\n", sim.now());
    job.request_scale_out({4, 5});
  });

  // Crash the AM while the new workers are still starting; workers keep
  // resending their unacknowledged reports/coordinates into the void.
  sim.schedule(6.0, [&] {
    std::printf("[t=%6.2fs] FAILURE: application master crashes (phase: %s)\n",
                sim.now(), to_string(job.master().phase()));
    job.crash_master();
  });

  // A few seconds later the cluster manager restarts the AM pod; it recovers
  // its state machine from etcd and the pending resends complete against it.
  sim.schedule(9.0, [&] {
    job.recover_master();
    std::printf("[t=%6.2fs] AM recovered from etcd: phase %s, %zu workers, plan v%llu\n",
                sim.now(), to_string(job.master().phase()), job.master().workers().size(),
                static_cast<unsigned long long>(job.master().plan_version()));
  });

  sim.run();

  std::printf("\noutcome: %d workers, %zu adjustment(s) completed, replicas "
              "consistent: %s\n",
              job.num_workers(), job.adjustments().size(),
              job.consistent() ? "yes" : "NO");
  std::printf("bus stats: %llu sent, %llu delivered, %llu dropped (recovered by "
              "resend)\n",
              static_cast<unsigned long long>(bus.stats().sent),
              static_cast<unsigned long long>(bus.stats().delivered),
              static_cast<unsigned long long>(bus.stats().dropped));
  const bool ok = job.consistent() && job.num_workers() == 6 && !job.adjustments().empty();
  return ok ? 0 : 1;
}
