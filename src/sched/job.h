// Job model for the cluster-scheduling simulator (paper §VI-C).
#pragma once

#include <cstdint>

#include <vector>

#include "common/units.h"
#include "topology/topology.h"
#include "train/models.h"

namespace elan::sched {

/// A job as it appears in the trace. Static policies allocate exactly
/// `req_res` workers; elastic policies may run it anywhere in
/// [min_res, max_res] (the paper's extension of the trace: min_res keeps the
/// model in GPU memory, max_res keeps it converging).
struct SchedJobSpec {
  int id = 0;
  Seconds submit_time = 0;
  train::ModelSpec model;
  int req_res = 1;
  int min_res = 1;
  int max_res = 1;
  /// Total batch size the job was tuned for at req_res workers.
  int base_total_batch = 32;
  /// Total work (samples to process until completion).
  std::uint64_t total_samples = 0;
};

enum class JobStatus { kPending, kRunning, kFinished };

/// Runtime state tracked by the simulator.
struct SchedJob {
  SchedJobSpec spec;
  JobStatus status = JobStatus::kPending;
  int workers = 0;
  int total_batch = 0;
  /// Actual GPU placement (only tracked in placement-aware mode; empty in
  /// the paper's count-based mode).
  std::vector<topo::GpuId> gpus;
  double remaining_samples = 0;
  Seconds start_time = -1;
  Seconds finish_time = -1;
  /// Adjustment timeline: the job trains at `prev_workers` throughput until
  /// pause_start (new workers starting asynchronously), is fully paused in
  /// [pause_start, paused_until) (replication for Elan; checkpoint +
  /// restart for S&R), and runs at `workers` from paused_until on.
  Seconds pause_start = 0;
  Seconds paused_until = 0;
  int prev_workers = 0;
  int prev_total_batch = 0;
  /// Samples per second before pause_start (priced when a scale-out has a
  /// start window) and from paused_until on (priced whenever the allocation
  /// changes).
  double tput_before_pause = 0;
  double tput_after_pause = 0;
  int adjustments = 0;
  /// Index of ClusterSim's throughput ladder for this job's configuration.
  int ladder = -1;

  /// Worker count whose throughput applies at time `now`.
  int effective_workers(Seconds now) const {
    return now < paused_until ? prev_workers : workers;
  }
  int effective_batch(Seconds now) const {
    return now < paused_until ? prev_total_batch : total_batch;
  }
  bool paused(Seconds now) const { return now >= pause_start && now < paused_until; }

  Seconds pending_time() const { return start_time - spec.submit_time; }
  Seconds completion_time() const { return finish_time - spec.submit_time; }
};

}  // namespace elan::sched
