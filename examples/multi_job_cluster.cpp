// A live elastic cluster: several real training jobs (each with its own
// application master, workers and state) share one simulated 64-GPU cluster
// under the elastic scheduling policy — admission at min_workers,
// marginal-gain growth into idle GPUs, reclamation when a job queues. The
// growth, reclamation and placement decisions come from the same rule the
// trace simulator uses (sched/allocation.h).
//
// Everything here is the real control plane: the scheduler talks to each
// job's AM through the Table III service API, new workers start
// asynchronously, state is replicated over topology-aware links, and batch
// sizes/learning rates follow the hybrid scaling mechanism.
#include <cstdio>

#include "obs/obs.h"
#include "sched/live_scheduler.h"

int main() {
  using namespace elan;
  obs::init_from_env();

  sim::Simulator sim;
  topo::Topology topology{topo::TopologySpec{}};  // 8 nodes x 8 GPUs
  topo::BandwidthModel bandwidth;
  storage::SimFilesystem fs;
  transport::MessageBus bus(sim, bandwidth);
  transport::KvStore kv(sim);
  sched::LiveScheduler scheduler(sim, topology, bandwidth, fs, bus, kv);

  auto submit = [&](const char* id, train::ModelSpec model, int min_w, int max_w,
                    std::uint64_t samples) {
    sched::LiveJobSpec s;
    s.job_id = id;
    s.model = std::move(model);
    s.min_workers = min_w;
    s.max_workers = max_w;
    s.target_samples = samples;
    scheduler.submit(s);
    std::printf("[t=%7.1fs] submit %-10s (%d-%d workers, %.1fM samples)\n", sim.now(), id,
                min_w, max_w, samples / 1e6);
  };

  submit("resnet-a", train::resnet50(), 4, 32, 1'500'000);
  scheduler.start();
  sim.schedule(300.0, [&] { submit("vgg-b", train::vgg19(), 8, 16, 300'000); });
  sim.schedule(600.0, [&] { submit("mobile-c", train::mobilenet_v2(), 2, 16, 2'000'000); });
  sim.schedule(900.0, [&] { submit("seq2seq-d", train::seq2seq(), 4, 16, 800'000); });

  // Periodic status line.
  std::function<void()> status = [&] {
    int busy = 64 - scheduler.free_gpus();
    std::printf("[t=%7.1fs] running=%d pending=%d busy GPUs=%d/64\n", sim.now(),
                scheduler.running_jobs(), scheduler.pending_jobs(), busy);
    if (!scheduler.all_done()) sim.schedule(300.0, status);
  };
  sim.schedule(150.0, status);

  sim.run();

  std::printf("\n%-10s %10s %10s %12s %12s\n", "job", "JPT (s)", "JCT (s)", "adjustments",
              "");
  for (const auto& s : scheduler.finished()) {
    std::printf("%-10s %10.0f %10.0f %12d\n", s.job_id.c_str(), s.pending_time(),
                s.completion_time(), s.adjustments);
  }
  double avg_util = 0;
  for (const auto& u : scheduler.utilization()) avg_util += u.utilization;
  avg_util /= scheduler.utilization().empty() ? 1 : scheduler.utilization().size();
  std::printf("\naverage GPU allocation: %.0f%%, all GPUs returned: %s\n", 100 * avg_util,
              scheduler.free_gpus() == 64 ? "yes" : "NO");
  return scheduler.free_gpus() == 64 ? 0 : 1;
}
