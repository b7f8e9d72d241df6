// Straggler mitigation via migration (paper §VII lists it as a natural use
// of Elan's elasticity).
//
// Synchronous data-parallel training runs at the pace of its slowest
// replica. When one worker's GPU degrades (co-located tenant, thermal
// throttling, failing device), the whole job slows down. With Elan, the
// scheduler simply migrates that one worker to a healthy GPU: the
// replacement starts asynchronously and training pauses only ~1 s.
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
  transport::MessageBus bus(sim, bandwidth);
  transport::KvStore kv(sim);

  JobConfig config;
  config.job_id = "straggler-demo";
  config.model = train::resnet50();
  config.initial_workers = 8;
  config.initial_total_batch = 256;
  ElasticJob job(sim, topology, bandwidth, fs, bus, kv, config);
  job.stop_after_iterations(800);
  job.start();

  // Track throughput over time.
  double window_start_time = 0;
  std::uint64_t window_start_iter = 0;
  auto report_window = [&](const char* tag) {
    const double dt = sim.now() - window_start_time;
    const auto di = job.iteration() - window_start_iter;
    if (dt > 0 && di > 0) {
      std::printf("  [%s] %.0f samples/s over the last %.0fs\n", tag,
                  di * static_cast<double>(job.total_batch()) / dt, dt);
    }
    window_start_time = sim.now();
    window_start_iter = job.iteration();
  };

  sim.schedule(20.0, [&] {
    report_window("healthy");
    std::printf("[t=%5.1fs] worker 3's GPU degrades: 2.5x slower iterations\n",
                sim.now());
    job.set_worker_slowdown(3, 2.5);
  });
  sim.schedule(50.0, [&] {
    report_window("straggling");
    std::printf("[t=%5.1fs] monitor detects the straggler -> migrate worker 3 to a "
                "healthy GPU\n",
                sim.now());
    job.request_migration({3}, {12});
  });
  sim.schedule(100.0, [&] { report_window("after migration"); });

  sim.run();


  std::printf("\nmigrations: %zu, pause %.2fs, replicas consistent: %s\n",
              job.adjustments().size(),
              job.adjustments().empty() ? 0.0 : job.adjustments().front().pause_time(),
              job.consistent() ? "yes" : "NO");
  return job.consistent() && !job.adjustments().empty() ? 0 : 1;
}
