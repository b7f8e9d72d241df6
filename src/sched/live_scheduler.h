// Live elastic scheduler.
//
// ClusterSim (cluster.h) is the paper's *discrete-time* scheduling simulator:
// it prices adjustments analytically to evaluate policies over two-day
// traces. LiveScheduler is the complementary end-to-end integration: it
// manages real ElasticJob instances — real application masters, worker
// processes, coordination messages, state replication — on one shared
// discrete-event cluster, driving them through the Table III service API
// exactly the way a production scheduler would (paper Fig 2, step 1).
//
// Policy (the paper's §VI-C elastic policy, E-FIFO flavour). Allocation and
// placement are the rule LiveScheduler shares with ClusterSim
// (sched/allocation.h); only the admission test and the estimate are its own.
//   * admission — the queue head starts on min_workers compactly placed
//     GPUs once that many are free; later jobs wait behind it.
//   * reclaim — while the head needs n more GPUs than are free or on their
//     way back from earlier scale-ins, the waterfill runs over the running
//     jobs with bounds [min_workers, current width] and a budget of n GPUs
//     fewer than they hold. Each job it shrinks scales in the workers on
//     the GPUs release_gpus picks; those GPUs return to the pool once the
//     scale-in has landed.
//   * grow — with nobody waiting, the waterfill runs with bounds [current
//     width, max_workers] over the free GPUs plus the held ones. Each job it
//     widens scales out onto GPUs take_gpus picks near its own.
//   * a job with an adjustment in flight is pinned at its current width.
// A width is priced the way ElasticJob itself decides: hybrid scaling from
// the job's current width and batch.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "elan/job.h"
#include "sched/allocation.h"
#include "sched/metrics.h"
#include "storage/filesystem.h"

namespace elan::sched {

struct LiveJobSpec {
  std::string job_id;
  train::ModelSpec model;
  int min_workers = 1;
  int max_workers = 8;
  /// Per-worker batch the job was tuned for (TBS follows hybrid scaling).
  int per_worker_batch = 32;
  /// Work: the job finishes after this many samples.
  std::uint64_t target_samples = 0;
};

struct LiveJobStats {
  std::string job_id;
  Seconds submitted_at = -1;
  Seconds started_at = -1;
  Seconds finished_at = -1;
  int adjustments = 0;
  Seconds pending_time() const { return started_at - submitted_at; }
  Seconds completion_time() const { return finished_at - submitted_at; }
};

class LiveScheduler {
 public:
  /// How often the scheduling pass re-runs (it also runs whenever a job is
  /// submitted, finishes or hands GPUs back).
  static constexpr Seconds kRebalanceInterval = 30.0;
  /// Every job coordinates with its AM once per iteration.
  static constexpr std::uint64_t kCoordinationInterval = 1;

  LiveScheduler(sim::Simulator& simulator, const topo::Topology& topology,
                const topo::BandwidthModel& bandwidth, storage::SimFilesystem& filesystem,
                transport::MessageBus& bus, transport::KvStore& kv);

  /// Submits a job (queues it; admission happens on the next tick).
  void submit(LiveJobSpec spec);

  /// Starts the periodic scheduling loop.
  void start();

  // --- Introspection --------------------------------------------------------
  int free_gpus() const { return free_.size(); }
  int running_jobs() const { return static_cast<int>(running_.size()); }
  int pending_jobs() const { return static_cast<int>(queue_.size()); }
  bool all_done() const { return queue_.empty() && running_.empty(); }

  const std::vector<LiveJobStats>& finished() const { return finished_; }
  const std::vector<UtilizationSample>& utilization() const { return utilization_; }
  const ElasticJob* job(const std::string& job_id) const;

 private:
  struct RunningJob {
    LiveJobSpec spec;
    std::unique_ptr<ElasticJob> job;
    LiveJobStats stats;
    /// GPUs whose owner the job's in-flight adjustment decides: a
    /// scale-out's new GPUs, or (shrinking) a scale-in's victims' GPUs. Once
    /// the adjustment settles, those no worker of the job holds go back to
    /// the free pool.
    std::vector<topo::GpuId> in_flight;
    bool shrinking = false;
  };

  sim::Simulator& sim_;
  const topo::Topology& topology_;
  const topo::BandwidthModel& bandwidth_;
  storage::SimFilesystem& fs_;
  transport::MessageBus& bus_;
  transport::KvStore& kv_;
  train::ThroughputModel throughput_;
  /// Shared device-memory pool: placement conflicts across jobs become hard
  /// OutOfMemory errors instead of silent oversubscription.
  memory::MemoryPool memory_pool_;

  GpuPool free_;
  std::deque<std::pair<LiveJobSpec, Seconds>> queue_;  // spec + submit time
  std::map<std::string, RunningJob> running_;
  std::vector<LiveJobStats> finished_;
  std::vector<UtilizationSample> utilization_;
  bool started_ = false;

  void tick();
  void try_admit();
  void rebalance();
  void scale_out(RunningJob& rj, int count);
  void scale_in(RunningJob& rj, int count);
  /// Returns the GPUs of a landed (or rejected) adjustment that the job does
  /// not hold to the free pool.
  void settle(RunningJob& rj);
  void finish_job(const std::string& job_id);
  std::uint64_t remaining_samples(const RunningJob& rj) const;
};

}  // namespace elan::sched
