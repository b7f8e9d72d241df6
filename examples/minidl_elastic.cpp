// Elastic training of a REAL model (paper §V-A generality claim).
//
// minidl is a genuine little DL framework — real tensors, real gradients,
// real SGD. It knows nothing about Elan except that it exposes its training
// state through the hook API. That is enough for the full elastic story:
// mid-training scale-out replicates live weights to new replicas (priced by
// the same topology-aware replication planner the simulator uses), the batch
// size weak-scales with the new replicas while the learning rate follows the
// progressive linear scaling rule (Eq. 2-3), training continues
// bit-identically, and the spiral classifier keeps improving.
#include <cstdio>

#include "elan/replication.h"
#include "minidl/parallel.h"
#include "obs/obs.h"
#include "topology/bandwidth.h"
#include "train/lr_schedule.h"

int main() {
  using namespace elan;
  obs::init_from_env();

  const auto data = minidl::make_spirals(120, 3, /*seed=*/5);
  minidl::ParallelConfig cfg;
  cfg.lr = 0.1f;
  minidl::DataParallelTrainer trainer(data, cfg, /*replicas=*/2);

  // The hybrid-scaling LR controller: base LR 0.1; batch doublings apply a
  // ramped x2 on top.
  train::LrController controller{train::StepSchedule(0.1, {})};

  std::printf("training a 2-32-32-3 MLP on 3-class spirals (%d samples)\n", data.size());
  std::printf("%6s %8s %6s %8s %10s %10s %s\n", "iter", "replicas", "batch", "lr", "loss",
              "accuracy", "consistent");

  int total_batch = 96;
  float loss = 0;
  auto run = [&](int iterations) {
    for (int i = 0; i < iterations; ++i) {
      trainer.set_lr(static_cast<float>(controller.lr(trainer.iteration())));
      loss = trainer.step(total_batch);
    }
    std::printf("%6llu %8d %6d %8.3f %10.4f %9.1f%% %s\n",
                static_cast<unsigned long long>(trainer.iteration()),
                trainer.num_replicas(), total_batch, trainer.lr(), loss,
                100.0 * trainer.accuracy(), trainer.consistent() ? "yes" : "NO");
  };

  run(400);

  // --- Scale out 2 -> 4: replicate real weights through the hook surface ---
  std::printf("\nscale-out 2 -> 4 replicas: weak-scale the batch 96 -> 192, ramp the "
              "LR x2 over 30 iterations (replicating %s of live state)\n",
              format_bytes(trainer.hooks(0).nominal_bytes(StateLocation::kGpu)).c_str());
  {
    // Price the transfer with the same planner Elan's runtime uses.
    topo::Topology topology{topo::TopologySpec{}};
    topo::BandwidthModel bandwidth;
    ReplicationPlanner planner(topology, bandwidth);
    ReplicationRequest req;
    req.existing = {{0, 0}, {1, 1}};
    req.joining = {{2, 2}, {3, 3}};
    req.gpu_state_bytes = trainer.hooks(0).nominal_bytes(StateLocation::kGpu);
    req.cpu_state_bytes = 1_KiB;
    const auto plan = planner.chunk_plan(req, whole_blob_options(req));
    std::printf("replication plan: %zu transfers, %s over %s links\n",
                plan.transfers.size(), format_seconds(plan.total_time).c_str(),
                topo::to_string(plan.transfers.front().level));
  }
  trainer.scale_out(2);
  total_batch = 192;
  controller.apply_scaling(2.0, trainer.iteration(), 30);
  run(400);

  // --- Scale in 4 -> 2: strong scaling (batch and LR unchanged) -------------
  std::printf("\nscale-in 4 -> 2 replicas (batch kept at 192: strong scaling)\n");
  trainer.scale_in({2, 3});
  run(200);

  const bool ok = trainer.consistent() && trainer.accuracy() > 0.9;
  std::printf("\nfinal: accuracy %.1f%%, replicas bit-identical: %s\n",
              100.0 * trainer.accuracy(), trainer.consistent() ? "yes" : "NO");
  return ok ? 0 : 1;
}
