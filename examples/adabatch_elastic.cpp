// Elastic training with dynamic batch sizes (paper §VI-B).
//
// Reproduces the AdaBatch experiment: ResNet-50 on ImageNet starting at a
// total batch of 512, doubling every 30 epochs. The elastic configuration
// lets Elan grow the job 16 -> 32 -> 64 workers following the strong-scaling
// optima, with the hybrid scaling mechanism adjusting batch size and ramping
// the learning rate. Exits 1 unless the elastic run reaches 75% top-1
// before the static run and no run diverges.
#include <cstdio>

#include "experiments/adabatch.h"
#include "obs/obs.h"

int main() {
  using namespace elan;
  obs::init_from_env();

  topo::Topology topology{topo::TopologySpec{}};
  topo::BandwidthModel bandwidth;
  storage::SimFilesystem fs;
  train::ThroughputModel throughput(topology, bandwidth);
  baselines::AdjustmentCostModel costs(topology, bandwidth, fs);

  const experiments::AdaBatchExperiment experiment(throughput, costs);

  std::printf("AdaBatch elastic training of ResNet-50 on ImageNet (90 epochs)\n");
  std::printf("batch schedule: 512 (epochs 0-29), 1024 (30-59), 2048 (60-89)\n\n");

  bool diverged = false;
  for (const auto& run : experiment.run_all()) {
    diverged = diverged || run.diverged;
    std::printf("%-20s total %7.0fs  final top-1 %.2f%%%s\n", run.name.c_str(),
                run.total_time(), 100.0 * run.final_accuracy(),
                run.diverged ? "  [DIVERGED]" : "");
  }

  const auto s = experiment.run_static();
  const auto e = experiment.run_elastic();
  // time_to_accuracy is negative when a run never reaches the target.
  const double static_tta = s.time_to_accuracy(0.75);
  const double elastic_tta = e.time_to_accuracy(0.75);
  std::printf("\ntime to 75.0%% top-1: static %.0fs, elastic %.0fs -> %.0f%% faster\n",
              static_tta, elastic_tta, 100.0 * (1.0 - elastic_tta / static_tta));

  std::printf("\nelastic worker/batch trajectory:\n");
  int last_workers = 0;
  for (const auto& p : e.points) {
    if (p.workers != last_workers) {
      std::printf("  epoch %2d: %2d workers, total batch %4d, lr %.3f\n", p.epoch,
                  p.workers, p.total_batch, p.lr);
      last_workers = p.workers;
    }
  }
  const bool ok = !diverged && elastic_tta >= 0 && elastic_tta < static_tta;
  std::printf("\nelastic reaches 75%% top-1 first, no run diverged: %s\n", ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
