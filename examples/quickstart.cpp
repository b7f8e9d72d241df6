// Quickstart: bring up a simulated GPU cluster, run an elastic ResNet-50
// job, scale it out mid-training, and inspect what happened.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build && ./build/examples/quickstart
#include <cstdio>

#include "elan/job.h"
#include "obs/obs.h"
#include "storage/filesystem.h"

int main() {
  using namespace elan;
  obs::init_from_env();  // ELAN_TRACE= / ELAN_METRICS= / ELAN_FLIGHT= sidecars

  // --- Substrate: the paper's testbed (8 servers x 8 GPUs), virtual time ---
  sim::Simulator sim;
  topo::Topology topology{topo::TopologySpec{}};
  topo::BandwidthModel bandwidth;
  storage::SimFilesystem fs;
  transport::MessageBus bus(sim, bandwidth);
  transport::KvStore kv(sim);  // simulated etcd for AM fault tolerance

  // --- An elastic training job: ResNet-50, 4 workers, total batch 128 ------
  JobConfig config;
  config.job_id = "quickstart";
  config.model = train::resnet50();
  config.engine = train::EngineKind::kDynamicGraph;  // PyTorch-flavoured
  config.initial_workers = 4;
  config.initial_total_batch = 128;
  config.base_lr = 0.05;  // 0.1 x 128/256 (linear scaling reference)
  config.coordination_interval = 1;

  ElasticJob job(sim, topology, bandwidth, fs, bus, kv, config);
  job.stop_after_iterations(600);
  job.start();

  // --- Play scheduler: give the job four more GPUs after 5 seconds ---------
  sim.schedule(5.0, [&] {
    std::printf("[t=%6.2fs] scheduler: scale out to 8 workers (GPUs 4-7)\n", sim.now());
    job.request_scale_out({4, 5, 6, 7});
  });

  sim.run();  // drive virtual time until the job stops

  // --- What happened --------------------------------------------------------
  std::printf("\ntrained %llu iterations (%llu samples), final config: %d workers, "
              "total batch %d, lr %.3f\n",
              static_cast<unsigned long long>(job.iteration()),
              static_cast<unsigned long long>(job.samples_processed()),
              job.num_workers(), job.total_batch(), job.current_lr());
  for (const auto& adj : job.adjustments()) {
    std::printf("adjustment: %s %d->%d workers, batch %d->%d, paused training for "
                "%.2fs (replication %.3fs + group reconstruct %.3fs)\n",
                to_string(adj.type), adj.workers_before, adj.workers_after,
                adj.total_batch_before, adj.total_batch_after, adj.pause_time(),
                adj.breakdown.replication, adj.breakdown.reconstruct);
  }
  std::printf("replicas consistent: %s\n", job.consistent() ? "yes" : "NO");
  std::printf("serial data loader cursor: %llu (== samples processed: %s)\n",
              static_cast<unsigned long long>(job.sampler().cursor()),
              job.sampler().cursor() == job.samples_processed() ? "yes" : "NO");
  return job.consistent() ? 0 : 1;
}
