// Figure 10: the scale-out timelines of S&R and Elan, rendered as ASCII
// Gantt charts from real adjustments executed in the job runtime. The
// S&R chart shows checkpoint/shutdown/start/init/load on the training
// critical path; Elan's shows training continuing while the new workers
// start, with only a sliver of pause for replication + reconstruction.
#include <algorithm>

#include "bench_common.h"
#include "elan/job.h"

namespace {

using namespace elan;

struct Phase {
  std::string name;
  Seconds begin;
  Seconds end;
};

void print_gantt(const std::vector<Phase>& phases, Seconds t0, Seconds t1) {
  constexpr int kWidth = 78;
  const double scale = kWidth / (t1 - t0);
  for (const auto& p : phases) {
    const int from = std::clamp(static_cast<int>((p.begin - t0) * scale), 0, kWidth);
    // At least one column, unless the phase starts at the timeline's end.
    const int to =
        std::clamp(static_cast<int>((p.end - t0) * scale), std::min(from + 1, kWidth), kWidth);
    std::printf("  %-22s |%s%s%s| %.2fs\n", p.name.c_str(), std::string(from, ' ').c_str(),
                std::string(to - from, '#').c_str(), std::string(kWidth - to, ' ').c_str(),
                p.end - p.begin);
  }
}

AdjustmentRecord run(Mechanism mech) {
  sim::Simulator sim;
  // With ELAN_TRACE set, each mechanism's run lands in its own pid lane on
  // the simulator's virtual clock — Perfetto shows the two timelines side by
  // side, S&R's serial restart chain vs Elan's overlapping replication.
  obs::RunScope trace_run(sim);
  obs::Tracer::instance().set_pid(mech == Mechanism::kElan ? 2 : 1, to_string(mech));
  topo::Topology topology{topo::TopologySpec{}};
  topo::BandwidthModel bandwidth;
  storage::SimFilesystem fs;
  transport::MessageBus bus(sim, bandwidth);
  transport::KvStore kv(sim);
  JobConfig cfg;
  cfg.model = train::resnet50();
  cfg.initial_workers = 8;
  cfg.initial_total_batch = 256;
  cfg.mechanism = mech;
  ElasticJob job(sim, topology, bandwidth, fs, bus, kv, cfg);
  job.stop_after_iterations(1000000);
  job.on_iteration = [&](std::uint64_t) {
    if (!job.adjustments().empty()) job.stop();
  };
  job.start();
  sim.schedule(1.0, [&] {
    job.request_scale_out({8, 9, 10, 11, 12, 13, 14, 15});
  });
  sim.run();
  return job.adjustments().at(0);
}

}  // namespace

int main() {
  using namespace elan;
  bench::print_header("Figure 10 — scale-out timelines (8 -> 16 workers, ResNet-50)");

  const auto snr = run(Mechanism::kShutdownRestart);
  const auto elan = run(Mechanism::kElan);
  const Seconds t0 = std::min(snr.requested_at, elan.requested_at);
  const Seconds t1 = std::max(snr.completed_at, elan.completed_at);

  std::printf("S&R (training stops for the whole restart path):\n");
  {
    std::vector<Phase> phases;
    Seconds t = snr.started_at;
    phases.push_back({"training (old)", t0, snr.started_at});
    for (auto [name, dur] : {std::pair<const char*, Seconds>{"checkpoint", snr.breakdown.checkpoint},
                             {"shutdown", snr.breakdown.shutdown},
                             {"start", snr.breakdown.start},
                             {"init", snr.breakdown.init},
                             {"load", snr.breakdown.load},
                             {"group reconstruct", snr.breakdown.reconstruct}}) {
      phases.push_back({name, t, t + dur});
      t += dur;
    }
    phases.push_back({"training (new)", snr.completed_at, t1});
    print_gantt(phases, t0, t1);
    std::printf("  pause: %.2fs\n\n", snr.pause_time());
  }

  std::printf("Elan (new workers start ASYNCHRONOUSLY; training continues):\n");
  {
    std::vector<Phase> phases;
    phases.push_back({"training (old)", t0, elan.started_at});
    phases.push_back({"worker start+init", elan.requested_at, elan.started_at});
    phases.push_back(
        {"replication", elan.started_at, elan.started_at + elan.breakdown.replication});
    phases.push_back({"group reconstruct", elan.started_at + elan.breakdown.replication,
                      elan.completed_at});
    phases.push_back({"training (new)", elan.completed_at, t1});
    print_gantt(phases, t0, t1);
    std::printf("  pause: %.2fs (%.0fx less than S&R)\n", elan.pause_time(),
                snr.pause_time() / elan.pause_time());
  }
  return 0;
}
