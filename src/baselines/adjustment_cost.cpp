#include "baselines/adjustment_cost.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.h"

namespace elan::baselines {

const char* to_string(System system) {
  switch (system) {
    case System::kIdeal: return "Ideal";
    case System::kElan: return "Elan";
    case System::kShutdownRestart: return "S&R";
  }
  return "?";
}

int elan_joining_workers(AdjustmentType type, int workers_before, int workers_after) {
  return type == AdjustmentType::kMigrate ? workers_after
                                          : std::max(0, workers_after - workers_before);
}

AdjustmentCostModel::AdjustmentCostModel(const topo::Topology& topology,
                                         const topo::BandwidthModel& bandwidth,
                                         const storage::SimFilesystem& filesystem,
                                         WorkerParams worker_params,
                                         comm::GroupParams group_params)
    : topology_(&topology),
      bandwidth_(&bandwidth),
      fs_(&filesystem),
      worker_params_(worker_params),
      group_params_(group_params) {}

Seconds AdjustmentCostModel::group_reconstruct_time(int workers) const {
  return group_params_.reconstruct_time(workers);
}

ChunkSchedule AdjustmentCostModel::elan_replication_schedule(const train::ModelSpec& model,
                                                             int workers_before,
                                                             int new_workers) const {
  require(workers_before > 0, "replication: no existing workers");
  require(new_workers >= 0, "replication: negative joiner count");
  ELAN_REQUIRE(workers_before + new_workers <= topology_->total_gpus(),
               "replication: " + std::to_string(workers_before) + " existing + " +
                   std::to_string(new_workers) + " joining workers exceed the cluster's " +
                   std::to_string(topology_->total_gpus()) + " GPUs");
  ReplicationRequest request;
  // Compact placement, the same placement the benches and ElasticJob use.
  for (int i = 0; i < workers_before; ++i) request.existing.emplace(i, i);
  for (int i = workers_before; i < workers_before + new_workers; ++i) {
    request.joining.emplace(i, i);
  }
  request.gpu_state_bytes = model.gpu_state_bytes();
  request.cpu_state_bytes = worker_params_.loader_state_bytes +
                            worker_params_.runtime_state_bytes;
  const ReplicationPlanner planner(*topology_, *bandwidth_);
  return planner.chunk_plan(request, whole_blob_options(request));
}

Seconds AdjustmentCostModel::elan_replication_time(const train::ModelSpec& model,
                                                   int workers_before, int new_workers) const {
  if (new_workers <= 0) return 0.0;
  const std::tuple key{model.gpu_state_bytes(), workers_before, new_workers};
  {
    MutexLock lock(makespans_mu_);
    if (const auto hit = makespans_.find(key); hit != makespans_.end()) return hit->second;
  }
  // A shape that throws (it does not fit the cluster) is never stored.
  const Seconds makespan =
      elan_replication_schedule(model, workers_before, new_workers).total_time;
  MutexLock lock(makespans_mu_);
  makespans_.try_emplace(key, makespan);
  return makespan;
}

Seconds AdjustmentCostModel::new_worker_ready_time() const {
  return worker_params_.start_mean + 3.5;  // spawn + dynamic-engine init
}

Seconds AdjustmentCostModel::expected_max_start(int workers) const {
  if (workers <= 0) return 0.0;
  // Expected maximum of `workers` i.i.d. normals: mean + sigma*sqrt(2 ln n).
  const double extreme =
      workers > 1 ? std::sqrt(2.0 * std::log(static_cast<double>(workers))) : 0.0;
  return std::min(worker_params_.start_mean * 2.0,
                  worker_params_.start_mean + worker_params_.start_stddev * extreme);
}

Seconds AdjustmentCostModel::snr_pause(AdjustmentType type, const train::ModelSpec& model,
                                       int workers_before, int workers_after) const {
  const Bytes gpu_bytes = model.gpu_state_bytes();
  const Bytes ckpt_bytes = gpu_bytes + worker_params_.loader_state_bytes +
                           worker_params_.runtime_state_bytes;
  const Seconds checkpoint =
      bandwidth_->host_device_copy_time(gpu_bytes) + fs_->concurrent_write_time(1, ckpt_bytes);
  const Seconds load = fs_->concurrent_read_time(workers_after, ckpt_bytes) +
                       bandwidth_->host_device_copy_time(gpu_bytes);
  const Seconds reconstruct = group_reconstruct_time(workers_after);

  if (type == AdjustmentType::kMigrate) {
    // Replacements started asynchronously; checkpoint + load remain.
    return checkpoint + load + reconstruct;
  }
  // Scale-out/in: surviving workers shut down and restart.
  const int restarted = std::min(workers_before, workers_after);
  const Seconds init = train::DynamicGraphEngine(model).initialization_time();
  return checkpoint + worker_params_.shutdown_time + expected_max_start(restarted) + init +
         load + reconstruct;
}

Seconds AdjustmentCostModel::pause_time(System system, AdjustmentType type,
                                        const train::ModelSpec& model, int workers_before,
                                        int workers_after) const {
  require(workers_before > 0 && workers_after > 0, "pause_time: bad worker counts");
  switch (system) {
    case System::kIdeal:
      return 0.0;
    case System::kElan:
      return elan_replication_time(model, workers_before,
                                   elan_joining_workers(type, workers_before, workers_after)) +
             group_reconstruct_time(workers_after);
    case System::kShutdownRestart:
      return snr_pause(type, model, workers_before, workers_after);
  }
  throw InvalidArgument("unknown system");
}

double AdjustmentCostModel::runtime_overhead(System system, const train::ModelSpec& model,
                                             int workers, int total_batch) const {
  if (system == System::kIdeal) return 0.0;
  // Both Elan and S&R pay the same per-coordination round trip (§VI-A1).
  const train::ThroughputModel tm(*topology_, *bandwidth_);
  const int per_worker = std::max(1, (total_batch + workers - 1) / workers);
  const Seconds iter = tm.iteration_time(model, workers, per_worker);
  const Seconds rtt = 2.0 * bandwidth_->control_transfer_time(256);
  return rtt / (iter + rtt);
}

}  // namespace elan::baselines
