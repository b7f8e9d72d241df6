// Discrete-time cluster-scheduling simulator (paper §VI-C).
//
// Replays a job trace on a GPU cluster under five policies:
//   FIFO          — start the queue head when req_res GPUs are free.
//   Backfill (BF) — EASY backfilling on top of FIFO: a later job may start
//                   now if it fits and finishes before the head's reserved
//                   start (Slurm's default policy, the paper's second
//                   baseline).
//   E-FIFO / E-BF — the paper's elastic variants: a job may *start* with as
//                   few as min_res workers. E-FIFO admits in queue order;
//                   E-BF lets any queued job that fits slip in.
//   E-SRTF        — elastic admission, shortest estimated job first.
//
// The elastic policies allocate with the rule ClusterSim shares with
// LiveScheduler (sched/allocation.h). On every admission and completion, and
// every kRebalanceInterval, the marginal-gain waterfill re-decides every
// running job's width as if it handed out the cluster from min_res up; it
// starts its work from the widths the jobs hold. Placement-aware
// mode then moves concrete GPUs of a GpuPool with take_gpus / release_gpus.
// ClusterSim prices a width with the batch hybrid scaling picks from the
// job's tuned configuration (req_res, base_total_batch) and with the elastic
// system's runtime overhead, so a job's estimate depends only on its
// configuration and its width: jobs of one configuration share a throughput
// ladder, and with it the steps of the waterfill's gains (a job's gain is
// its remaining samples times its ladder's step).
//
// The elastic system executing the adjustments (Ideal / Elan / S&R) sets the
// pause each reallocation costs and the runtime overhead — exactly the
// paper's Fig 22 ablation.
//
// Replay advances the clock in exact `kTick` increments. Every tick
// integrates each running job's progress from the throughput priced when its
// allocation last changed, then runs the scheduling pass; a pass with
// nothing to admit or rebalance stops at its first test.
// tests/sched_golden_test.cpp pins every bit of the metrics for all five
// policies under all three systems.
#pragma once

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "baselines/adjustment_cost.h"
#include "common/error.h"
#include "sched/allocation.h"
#include "sched/job.h"
#include "sched/metrics.h"
#include "train/throughput.h"

namespace elan::sched {

/// kElasticSrtf implements the paper's deferred future work ("a more
/// complicated scheduling policy"): elastic admission ordered by shortest
/// estimated remaining time, which trades a little fairness for mean JCT.
enum class PolicyKind { kFifo, kBackfill, kElasticFifo, kElasticBackfill, kElasticSrtf };
/// Every PolicyKind, in declaration order: a tool parses a policy's name by
/// matching to_string over this list.
inline constexpr PolicyKind kAllPolicies[] = {PolicyKind::kFifo, PolicyKind::kBackfill,
                                              PolicyKind::kElasticFifo,
                                              PolicyKind::kElasticBackfill,
                                              PolicyKind::kElasticSrtf};

const char* to_string(PolicyKind policy);
bool is_elastic(PolicyKind policy);

struct ClusterParams {
  int total_gpus = 128;
  /// When set, jobs are bound to concrete GPUs (compact-first allocation)
  /// and their *measured* throughput follows the actual placement's
  /// communication bottleneck — fragmentation physically slows jobs. The
  /// default (off) is the paper's count-based simulator.
  bool placement_aware = false;
};

class ClusterSim {
 public:
  /// The replay clock's step.
  static constexpr Seconds kTick = 10.0;
  /// How often the elastic allocation rule re-runs (it also runs on every
  /// admission and completion).
  static constexpr Seconds kRebalanceInterval = 300.0;

  ClusterSim(const train::ThroughputModel& throughput,
             const baselines::AdjustmentCostModel& costs, PolicyKind policy,
             baselines::System system, ClusterParams params = {});

  /// Runs the trace to completion and returns the metrics. Throws
  /// InvalidArgument, before replaying, when a job's bounds break
  /// 1 <= min_res <= req_res <= max_res, when a job starts on more GPUs than
  /// the cluster has (req_res under FIFO and BF, min_res under the elastic
  /// policies), or, under E-SRTF, which orders the queue by each job's time
  /// at req_res, when req_res does.
  ScheduleMetrics run(const std::vector<SchedJobSpec>& trace);

 private:
  const train::ThroughputModel* throughput_;
  const baselines::AdjustmentCostModel* costs_;
  PolicyKind policy_;
  baselines::System system_;
  ClusterParams params_;

  // Run state.
  Seconds now_ = 0;
  std::vector<SchedJob> jobs_;
  std::vector<int> queue_;    // pending job indices in submit order
  std::vector<int> running_;  // running job indices
  int free_gpus_ = 0;
  GpuPool free_pool_;  // placement-aware mode only
  ScheduleMetrics metrics_;
  Seconds next_rebalance_ = 0;
  bool rebalance_requested_ = false;

  // One throughput ladder per job configuration (model kind, req_res,
  // base_total_batch, min_res; see pack_ladder_key in the .cpp). Rung w
  // holds the batch hybrid scaling picks at w workers and the estimated
  // throughput there. run() fills every rung the replay can read: req_res
  // under FIFO and BF, and [min_res, min(max_res, total_gpus)] under the
  // elastic policies, where it also fills the waterfill's steps
  // (sched/allocation.h) up to the widest such cap of the configuration's
  // jobs: step k is seconds_per_sample at min_res + k workers less that at
  // one more, and floors[k] the smallest of steps[0..k]. SchedJob::ladder
  // indexes ladders_.
  struct Rung {
    int batch = 0;  // 0: not filled
    double tput = 0.0;
  };
  struct Ladder {
    std::vector<Rung> rungs;
    std::vector<double> steps;
    std::vector<double> floors;
  };
  std::vector<Ladder> ladders_;
  std::unordered_map<std::uint64_t, int> ladder_of_;  // packed configuration -> ladders_ index
  // Adjustment pauses (see pack_pause_key): a 5k-job replay prices about
  // 20,000 adjustments of about a thousand shapes. This per-replay map is
  // the lock-free front of the cost model's own makespan memo, which lives
  // as long as the cost model and so across replays.
  std::unordered_map<std::uint64_t, Seconds> pause_cache_;
  // rebalance()'s arrays, one entry per running job in running_ order,
  // reused from call to call: the widths held on entry, the waterfill's
  // widths (its answer on return), its lower bounds and its gains.
  std::vector<int> held_;
  std::vector<int> target_;
  std::vector<int> lower_;
  std::vector<JobGains> gains_;

  void admit_arrivals(const std::vector<SchedJobSpec>& trace, std::size_t& next_arrival);
  void progress_running();
  void schedule_static();
  void schedule_elastic();
  void rebalance();
  void start_job(int index, int workers);
  void finish_job(int index);
  void apply_allocation(SchedJob& job, int new_workers);
  Seconds adjustment_pause(AdjustmentType type, const SchedJob& job, int new_workers);

  // The job's throughput at `workers` and `batch`; in placement-aware mode,
  // on its actual GPUs.
  double measured_throughput(const SchedJob& job, int workers, int batch) const;

  // Rung `workers` of the ladder of `job`'s configuration.
  const Rung& rung(const SchedJob& job, int workers) const {
    const std::vector<Rung>& rungs = ladders_[static_cast<std::size_t>(job.ladder)].rungs;
    ELAN_CHECK(workers > 0 && static_cast<std::size_t>(workers) < rungs.size() &&
                   rungs[static_cast<std::size_t>(workers)].batch != 0,
               "cluster: no filled rung at this width");
    return rungs[static_cast<std::size_t>(workers)];
  }
  void fill_rung(const SchedJob& job, int workers, Rung& r) const;
  double job_throughput(const SchedJob& job, int workers) const {
    return rung(job, workers).tput;
  }
  int hybrid_batch(const SchedJob& job, int workers) const {
    return rung(job, workers).batch;
  }
  // Time to train the job's remaining samples at `workers` (backfill's
  // reservations, E-SRTF's order); +inf when the throughput there is <= 0.
  Seconds estimated_remaining(const SchedJob& job, int workers) const {
    const double tput = job_throughput(job, workers);
    return tput <= 0 ? std::numeric_limits<double>::infinity() : job.remaining_samples / tput;
  }
  bool all_done() const;
};

}  // namespace elan::sched
