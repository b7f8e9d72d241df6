// Transient (spot) resources — the cloud use case of §VI-C's introduction:
// "in cloud, elasticity can be leveraged to utilize transient resources such
// as spot instances."
//
// A job keeps a reserved core of 4 workers and opportunistically trains on
// up to 12 spot GPUs. When the provider reclaims spot capacity (with a short
// warning, as EC2 does), the scheduler scales the job in before the
// deadline; when spot capacity returns, it scales back out. Elan's ~0.5 s
// scale-in makes the 2-minute warning trivially sufficient — an S&R system
// would burn a third of the warning on one restart.
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
  config.job_id = "spot-demo";
  config.model = train::resnet50();
  config.initial_workers = 4;  // reserved instances
  config.initial_total_batch = 128;
  ElasticJob job(sim, topology, bandwidth, fs, bus, kv, config);
  job.stop_after_iterations(3000);
  job.start();

  std::uint64_t samples_on_spot_start = 0;

  // t=10s: spot capacity becomes available -> scale out onto it.
  sim.schedule(10.0, [&] {
    std::printf("[t=%6.1fs] spot capacity available: +12 workers (GPUs 4-15)\n",
                sim.now());
    std::vector<topo::GpuId> gpus;
    for (int g = 4; g < 16; ++g) gpus.push_back(g);
    job.request_scale_out(gpus);
    samples_on_spot_start = job.samples_processed();
  });

  // t=120s: reclaim warning for all spot workers; deadline 2 minutes.
  sim.schedule(120.0, [&] {
    std::printf("[t=%6.1fs] SPOT RECLAIM WARNING (120s deadline): scale in to the "
                "reserved core\n",
                sim.now());
    std::vector<int> victims;
    for (int w = 4; w < 16; ++w) victims.push_back(w);
    job.request_scale_in(victims);
  });

  // Check the deadline was met comfortably.
  sim.schedule(240.0, [&] {
    std::printf("[t=%6.1fs] deadline: %d workers (spot GPUs must be released)\n",
                sim.now(), job.num_workers());
  });

  // t=300s: spot capacity returns.
  sim.schedule(300.0, [&] {
    std::printf("[t=%6.1fs] spot capacity back: scale out again\n", sim.now());
    std::vector<topo::GpuId> gpus;
    for (int g = 4; g < 12; ++g) gpus.push_back(g);
    job.request_scale_out(gpus);
  });

  sim.run();

  std::printf("\n%zu adjustments:\n", job.adjustments().size());
  for (const auto& adj : job.adjustments()) {
    std::printf("  %-9s %2d -> %2d workers, pause %.2fs (completed at t=%.1fs)\n",
                to_string(adj.type), adj.workers_before, adj.workers_after,
                adj.pause_time(), adj.completed_at);
  }
  const auto& reclaim = job.adjustments().at(1);
  const bool met_deadline =
      reclaim.type == AdjustmentType::kScaleIn && reclaim.completed_at < 240.0;
  std::printf("reclaim handled in %.2fs of the 120s warning: %s\n",
              reclaim.completed_at - 120.0, met_deadline ? "deadline met" : "MISSED");
  std::printf("extra samples trained on spot capacity before reclaim: %llu\n",
              static_cast<unsigned long long>(job.samples_processed() -
                                              samples_on_spot_start));
  std::printf("replicas consistent: %s\n", job.consistent() ? "yes" : "NO");
  return met_deadline && job.consistent() ? 0 : 1;
}
