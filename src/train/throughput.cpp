#include "train/throughput.h"

#include <algorithm>
#include <cmath>

#include "comm/group.h"
#include "common/error.h"

namespace elan::train {

ThroughputModel::ThroughputModel(const topo::Topology& topology,
                                 const topo::BandwidthModel& bandwidth,
                                 ThroughputParams params)
    : topology_(&topology), bandwidth_(&bandwidth), params_(params) {}

Seconds ThroughputModel::compute_time(const ModelSpec& model, int per_worker_batch) const {
  require(per_worker_batch > 0, "compute_time: non-positive batch");
  const double b = per_worker_batch;
  const double h = model.half_efficiency_batch;
  const double per_unit = 3.0 * model.flops_per_sample / params_.gpu.peak_flops;
  return model.iteration_overhead + per_unit * (b + h) * (b + h) / b;
}

Seconds ThroughputModel::ring_time(const ModelSpec& model, std::size_t members,
                                   topo::LinkLevel bottleneck) const {
  const auto& link = bandwidth_->params(bottleneck);
  const double n = static_cast<double>(members);
  const Bytes payload = model.param_bytes();
  const double chunk = static_cast<double>(payload) / n;
  double bw = bandwidth_->effective_bandwidth(bottleneck, static_cast<Bytes>(chunk) + 1);
  if (bottleneck == topo::LinkLevel::kL4) bw *= params_.multi_node_ring_efficiency;

  const double steps = 2.0 * (n - 1.0);
  return steps * link.latency + steps * chunk / bw;
}

Seconds ThroughputModel::allreduce_time_on(const ModelSpec& model,
                                           std::span<const topo::GpuId> members) const {
  require(!members.empty(), "allreduce_time_on: empty member set");
  // The bottleneck range-checks every member first, a lone one included.
  const topo::LinkLevel bottleneck = comm::ring_bottleneck(*topology_, members);
  if (members.size() < 2) return 0.0;
  return ring_time(model, members.size(), bottleneck);
}

Seconds ThroughputModel::allreduce_time(const ModelSpec& model, int workers) const {
  require(workers > 0, "throughput model: non-positive worker count");
  if (workers < 2) return 0.0;
  // comm::ring_bottleneck of GPUs 0..workers-1, whose closing hop is the widest.
  return ring_time(model, static_cast<std::size_t>(workers),
                   topology_->link_level(workers - 1, 0));
}

Seconds ThroughputModel::iteration_time_with(const ModelSpec& model, int per_worker_batch,
                                             Seconds comm) const {
  const Seconds compute = compute_time(model, per_worker_batch);
  const Seconds backward = (compute - model.iteration_overhead) * (2.0 / 3.0);
  const Seconds exposed = std::max(0.0, comm - params_.comm_overlap * backward);
  return compute + exposed;
}

Seconds ThroughputModel::iteration_time_on(const ModelSpec& model,
                                           std::span<const topo::GpuId> members,
                                           int per_worker_batch) const {
  return iteration_time_with(model, per_worker_batch, allreduce_time_on(model, members));
}

Seconds ThroughputModel::iteration_time(const ModelSpec& model, int workers,
                                        int per_worker_batch) const {
  return iteration_time_with(model, per_worker_batch, allreduce_time(model, workers));
}

double ThroughputModel::throughput_on(const ModelSpec& model,
                                      std::span<const topo::GpuId> members,
                                      int total_batch) const {
  require(!members.empty() && total_batch > 0, "throughput_on: bad arguments");
  const int workers = static_cast<int>(members.size());
  const int per_worker = (total_batch + workers - 1) / workers;
  return static_cast<double>(total_batch) / iteration_time_on(model, members, per_worker);
}

double ThroughputModel::throughput(const ModelSpec& model, int workers, int total_batch) const {
  require(workers > 0 && total_batch > 0, "throughput: bad arguments");
  const int per_worker = (total_batch + workers - 1) / workers;
  return static_cast<double>(total_batch) / iteration_time(model, workers, per_worker);
}

bool ThroughputModel::fits(const ModelSpec& model, int workers, int total_batch) const {
  if (workers <= 0 || workers > topology_->total_gpus()) return false;
  const int per_worker = (total_batch + workers - 1) / workers;
  return per_worker >= 1 && per_worker <= model.max_batch_per_gpu;
}

std::vector<int> ThroughputModel::candidate_worker_counts() const {
  std::vector<int> counts;
  for (int n = 1; n <= topology_->total_gpus(); n *= 2) counts.push_back(n);
  return counts;
}

int ThroughputModel::optimal_workers(const ModelSpec& model, int total_batch) const {
  int best_n = 0;
  double best_tp = -1.0;
  for (int n : candidate_worker_counts()) {
    if (!fits(model, n, total_batch)) continue;
    const double tp = throughput(model, n, total_batch);
    if (tp > best_tp) {
      best_tp = tp;
      best_n = n;
    }
  }
  ELAN_REQUIRE(best_n > 0, "optimal_workers: no feasible configuration for " + model.name);
  return best_n;
}

}  // namespace elan::train
