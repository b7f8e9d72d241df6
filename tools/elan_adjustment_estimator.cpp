// elan_adjustment_estimator — what would this resource adjustment cost?
//
//   elan_adjustment_estimator --model ResNet-50 --type scale-out --from 16 --to 32
//
// Prints the predicted training pause under Elan and Shutdown-&-Restart plus
// the replication schedule Elan's pause prices (source -> destination, link,
// start, duration), and the cluster topology in play. Adjustments that do not
// fit the cluster are refused before any price is printed.
#include <cstdio>

#include "baselines/adjustment_cost.h"
#include "common/flags.h"
#include "elan/replication.h"
#include "obs/obs.h"
#include "topology/printer.h"

namespace {

using namespace elan;

AdjustmentType parse_type(const std::string& s) {
  if (s == "scale-out") return AdjustmentType::kScaleOut;
  if (s == "scale-in") return AdjustmentType::kScaleIn;
  if (s == "migrate") return AdjustmentType::kMigrate;
  throw InvalidArgument("type must be scale-out, scale-in or migrate");
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define("model", "ResNet-50",
               "ResNet-50, VGG-19, MobileNet-v2, Seq2Seq or Transformer");
  flags.define("type", "scale-out", "scale-out, scale-in or migrate");
  flags.define("from", "16", "workers before the adjustment");
  flags.define("to", "32",
               "workers after a scale-out or scale-in (a migration moves all --from "
               "workers to fresh GPUs and ignores it)");
  flags.define("nodes", "8", "cluster nodes (8 GPUs each)");
  flags.define("show-topology", "false", "print the link matrix of one node");
  flags.define("show-plan", "true", "print the replication schedule Elan's pause prices");
  define_log_level_flag(flags);

  try {
    flags.parse(argc, argv);
    if (flags.help_requested()) {
      std::fputs(flags.usage("elan_adjustment_estimator").c_str(), stdout);
      return 0;
    }
    obs::init_from_env();
    apply_log_level_flag(flags);

    const auto model = train::model_by_name(flags.get("model"));
    const auto type = parse_type(flags.get("type"));
    // No worker count above kMaxGpus fits a cluster of any --nodes.
    auto workers = [&](const char* flag, const char* what) {
      return static_cast<int>(parse_int(flags.get(flag), 1, topo::kMaxGpus, what));
    };
    const int from = workers("from", "--from");
    const int after = type == AdjustmentType::kMigrate ? from : workers("to", "--to");
    topo::TopologySpec spec;  // the testbed's 8-GPU nodes
    spec.nodes = static_cast<int>(
        parse_int(flags.get("nodes"), 1, topo::kMaxGpus / spec.gpus_per_node(), "--nodes"));
    topo::Topology topology{spec};
    topo::BandwidthModel bandwidth;
    storage::SimFilesystem fs;
    baselines::AdjustmentCostModel costs(topology, bandwidth, fs);

    // Price everything first: a refused adjustment prints no price.
    const Seconds elan_pause =
        costs.pause_time(baselines::System::kElan, type, model, from, after);
    const Seconds snr_pause =
        costs.pause_time(baselines::System::kShutdownRestart, type, model, from, after);
    const ChunkSchedule schedule = costs.elan_replication_schedule(
        model, from, baselines::elan_joining_workers(type, from, after));

    if (flags.get_bool("show-topology")) {
      std::printf("%s\n%s\n", topo::link_matrix(topology).c_str(),
                  topo::legend().c_str());
    }

    std::printf("%s %s: %d -> %d workers (state: %s GPU + loader/runtime CPU)\n",
                model.name.c_str(), to_string(type), from, after,
                format_bytes(model.gpu_state_bytes()).c_str());
    std::printf("  Elan  pause: %s (replication %s + group rebuild %s)\n",
                format_seconds(elan_pause).c_str(), format_seconds(schedule.total_time).c_str(),
                format_seconds(costs.group_reconstruct_time(after)).c_str());
    std::printf("  S&R   pause: %s\n", format_seconds(snr_pause).c_str());
    std::printf("  new-worker ready (async, off critical path): %s\n",
                format_seconds(costs.new_worker_ready_time()).c_str());

    if (flags.get_bool("show-plan") && !schedule.transfers.empty()) {
      std::printf("\nreplication schedule (%zu transfers, makespan %s, %.1fx concurrency):\n",
                  schedule.transfers.size(), format_seconds(schedule.total_time).c_str(),
                  schedule.total_time > 0 ? schedule.serial_time / schedule.total_time : 1.0);
      for (const auto& t : schedule.transfers) {
        std::printf("  w%-3d(GPU%-2d) -> w%-3d(GPU%-2d)  %-11s start %-9s dur %s\n",
                    t.source_worker, t.source_gpu, t.dest_worker, t.dest_gpu,
                    topo::to_string(t.level), format_seconds(t.start).c_str(),
                    format_seconds(t.duration).c_str());
      }
    }
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n%s", e.what(),
                 flags.usage("elan_adjustment_estimator").c_str());
    return 1;
  }
}
