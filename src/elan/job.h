// ElasticJob — the end-to-end elastic training job (paper Fig 2).
//
// Owns the application master, the worker processes, the global serial data
// sampler, the LR controller and the training loop, and executes resource
// adjustments with either Elan's mechanism (asynchronous coordination +
// concurrent IO-free replication) or the Shutdown-&-Restart baseline
// (checkpoint to the shared filesystem, kill, relaunch, reload).
//
// The training loop is lockstep across workers — data-parallel training is
// synchronised by allreduce anyway — while the control plane (reports,
// coordinates, decisions) runs over the real in-sim message bus. Every
// worker holds real state bytes; after any sequence of adjustments all
// replicas must be bit-identical (checked by `consistent()`).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "comm/group.h"
#include "common/rng.h"
#include "data/sampler.h"
#include "memory/device_memory.h"
#include "elan/hybrid_scaling.h"
#include "elan/master.h"
#include "elan/replication.h"
#include "elan/worker.h"
#include "storage/filesystem.h"
#include "train/lr_schedule.h"
#include "train/throughput.h"
#include "transport/bus.h"
#include "transport/kv_store.h"

namespace elan {

/// Which elasticity mechanism executes adjustments.
enum class Mechanism { kElan, kShutdownRestart };

const char* to_string(Mechanism mechanism);

/// Data-loading semantics (§V-C). Serial is Elan's design (loader state is
/// one cursor, repartition free); chunk-based is the conventional scheme
/// (record table, real repartition work on every adjustment).
enum class DataSemantics { kSerial, kChunk };

const char* to_string(DataSemantics semantics);

struct JobConfig {
  std::string job_id = "job0";
  train::ModelSpec model;
  train::EngineKind engine = train::EngineKind::kDynamicGraph;
  /// Custom framework integration: when set, every worker's engine comes
  /// from this factory (e.g. minidl::MiniDlEngine) instead of `engine`.
  WorkerProcess::EngineFactory engine_factory;
  int initial_workers = 4;
  /// GPUs for the initial workers; defaults to 0..initial_workers-1 when
  /// empty. Size must equal initial_workers otherwise.
  std::vector<topo::GpuId> initial_gpus;
  int initial_total_batch = 128;
  double base_lr = 0.1;
  /// Coordinate with the AM every this many iterations (paper: configurable
  /// trade-off between elasticity and training efficiency).
  std::uint64_t coordination_interval = 1;
  HybridScalingParams hybrid;
  Mechanism mechanism = Mechanism::kElan;
  DataSemantics data_semantics = DataSemantics::kSerial;
  /// Chunk size when data_semantics == kChunk.
  std::uint64_t chunk_size = 4096;
  /// Coefficient of variation of per-worker compute time. With a non-zero
  /// value each worker's compute finishes at its own (random) time and the
  /// allreduce barrier waits for the slowest — synchronous training's
  /// straggler effect emerges rather than being modelled.
  double compute_jitter_cv = 0.0;
  WorkerParams worker_params;
  /// Application-master fault-tolerance knobs (report-timeout eviction).
  AmParams am;
  /// How long the scheduler-facing side waits for an adjust reply before
  /// re-sending the request (same request id; the AM replays its cached
  /// verdict for duplicates). Covers the reply being lost in an AM crash.
  Seconds adjust_reply_timeout = 2.0;
  std::uint64_t seed = 1;
};

/// Phase breakdown of one adjustment (Fig 11 for S&R; replication/reconstruct
/// for Elan).
struct AdjustmentBreakdown {
  Seconds checkpoint = 0;  // S&R only: D2H copy + FS write
  Seconds shutdown = 0;    // S&R only
  Seconds start = 0;       // S&R only: max process start over restarted workers
  Seconds init = 0;        // S&R only: framework init
  Seconds load = 0;        // S&R only: FS read + H2D copy
  Seconds replication = 0; // Elan only: concurrent IO-free replication
  Seconds reconstruct = 0; // both: communication-group reconstruction
  Seconds repartition = 0; // chunk semantics only: record-table rework
  Seconds total() const {
    return checkpoint + shutdown + start + init + load + replication + reconstruct +
           repartition;
  }
};

/// Chunk data-plane statistics of one adjustment's replication (Elan
/// mechanism only). The fault-regression suite pins these to prove a
/// mid-transfer source death resumes from the verified prefix instead of
/// re-copying whole blobs.
struct ReplicationStats {
  std::uint32_t num_chunks = 0;      // chunks in the state stream
  std::uint32_t chunks_copied = 0;   // chunk copies applied, across all rounds
  std::uint32_t chunks_relayed = 0;  // of which served by a joining destination
  std::uint32_t replans = 0;         // source-death resume rounds
  std::uint32_t chunks_resumed = 0;  // verified chunks carried across re-plans
};

struct AdjustmentRecord {
  AdjustmentType type{};
  std::uint64_t plan_version = 0;
  int workers_before = 0;
  int workers_after = 0;
  int total_batch_before = 0;
  int total_batch_after = 0;
  double lr_factor = 1.0;
  Seconds requested_at = 0;  // when the scheduler called the service API
  Seconds started_at = 0;    // when training paused for the adjustment
  Seconds completed_at = 0;  // when training resumed
  AdjustmentBreakdown breakdown;
  ReplicationStats replication_stats;
  /// The paper's Fig 15 metric: how long training was paused.
  Seconds pause_time() const { return completed_at - started_at; }
  /// End-to-end latency seen by the scheduler.
  Seconds service_time() const { return completed_at - requested_at; }
};

class ElasticJob {
 public:
  /// `memory_pool` (optional) enables GPU-memory accounting: every worker
  /// allocates its parameter/optimizer state and batch-dependent workspace
  /// on its device; oversubscription throws memory::OutOfMemory. A pool
  /// shared across jobs (as LiveScheduler does) turns placement conflicts
  /// into hard errors.
  ElasticJob(sim::Simulator& simulator, const topo::Topology& topology,
             const topo::BandwidthModel& bandwidth, storage::SimFilesystem& filesystem,
             transport::MessageBus& bus, transport::KvStore& kv, JobConfig config,
             memory::MemoryPool* memory_pool = nullptr);
  ~ElasticJob();

  ElasticJob(const ElasticJob&) = delete;
  ElasticJob& operator=(const ElasticJob&) = delete;

  /// Begins the training loop. The job runs until `stop_after_iterations`
  /// (if set) or until the simulator stops being driven.
  void start();

  /// Stops after the given *global* iteration count is reached.
  void stop_after_iterations(std::uint64_t iterations) { stop_at_iteration_ = iterations; }

  /// Stops the training loop at the next iteration boundary.
  void stop() { stop_requested_ = true; }

  // --- Scheduler-facing service --------------------------------------------
  //
  // These model the scheduler side of Fig 2 step 1: the request travels to
  // the AM as an `adjust_request` message over the control network; the AM's
  // reply carries the launch specs, upon which the "scheduler" (this façade)
  // starts the new worker processes.

  void request_scale_out(const std::vector<topo::GpuId>& gpus);
  void request_scale_in(const std::vector<int>& victims);
  void request_migration(const std::vector<int>& victims,
                         const std::vector<topo::GpuId>& target_gpus);

  // --- Fault injection / recovery (paper §V-D) ------------------------------

  /// Kills the application master (detaches it from the bus). Workers keep
  /// resending their unacknowledged messages.
  void crash_master();

  /// Rebuilds the AM from the state machine persisted in the KV store; the
  /// pending worker resends then complete against the recovered instance.
  void recover_master();

  // --- Introspection --------------------------------------------------------

  ApplicationMaster& master() { return *master_; }
  std::uint64_t iteration() const { return iteration_; }
  std::uint64_t epoch() const {
    return chunk_sampler_ ? chunk_sampler_->epoch() : sampler_.epoch();
  }
  int num_workers() const { return static_cast<int>(workers_.size()); }
  int total_batch() const { return total_batch_; }
  double current_lr() const { return lr_controller_.lr(iteration_); }
  const data::SerialSampler& sampler() const { return sampler_; }
  /// Non-null iff configured with chunk semantics.
  const data::ChunkSampler* chunk_sampler() const { return chunk_sampler_.get(); }
  const JobConfig& config() const { return config_; }
  bool running() const { return running_; }

  /// True while a service request is in flight or an adjustment is pending
  /// at the AM — the scheduler must not issue another request meanwhile.
  bool adjustment_pending() const {
    return requests_in_flight_ > 0 || !master_->idle();
  }

  std::vector<int> worker_ids() const;
  const WorkerProcess& worker(int id) const;

  /// All replica fingerprints; `consistent()` iff they are all equal.
  std::vector<std::uint64_t> worker_checksums() const;
  bool consistent() const;

  const std::vector<AdjustmentRecord>& adjustments() const { return adjustments_; }

  /// Sum of modelled iteration durations (compute + comm only). Comparing
  /// with elapsed virtual time yields the elasticity runtime overhead
  /// (Fig 14).
  Seconds ideal_training_time() const { return ideal_training_time_; }
  std::uint64_t samples_processed() const { return samples_processed_; }

  /// Current iteration duration under the present configuration.
  Seconds current_iteration_time() const;

  /// Marks a worker as a straggler: its iterations take `factor` times
  /// longer (e.g. a co-located job or a failing device). Synchronous
  /// data-parallel training runs at the pace of the slowest replica, which
  /// is why migration-based straggler mitigation (§VII) pays off.
  void set_worker_slowdown(int worker, double factor);
  double worker_slowdown(int worker) const;

  /// Fail-stops a worker (process/device crash). The failure is detected at
  /// the next iteration boundary: the dead replica is removed, the
  /// communication group is reconstructed (a short pause), and training
  /// continues on the survivors — elasticity doubling as worker fault
  /// tolerance. The scheduler can later scale back out to replace it.
  void fail_worker(int worker);
  int worker_failures() const { return worker_failures_; }

  /// True when every replica was lost (failures raced an adjustment that
  /// removed the rest): the job stopped cleanly instead of continuing.
  bool fatally_failed() const { return fatal_failure_; }

  /// Chaos-safe kill: fail-stops an active worker (like fail_worker) or a
  /// joining worker (killed mid-launch or mid-replication; the AM's report
  /// timeout / the dead-join tolerance in finish_adjustment clean it up).
  /// Returns false — and does nothing — for unknown/already-dead workers or
  /// when the kill would leave no active worker.
  bool fault_kill_worker(int worker);

  /// Requests in flight at the scheduler façade (0 when quiescent).
  int requests_in_flight() const { return requests_in_flight_; }

  /// Adjust requests the AM rejected, one per request: a replayed
  /// duplicate reply is not counted again.
  int adjustments_rejected() const { return adjustments_rejected_; }

  /// Coordination replies the current round is still waiting for (0 when no
  /// round is in flight). Chaos diagnostics: a wedged round shows up here.
  int decisions_outstanding() const { return decisions_outstanding_; }

  /// Fires after every completed iteration (tests/benches hook metrics here).
  std::function<void(std::uint64_t iteration)> on_iteration;
  /// Fires when stop_after_iterations is reached.
  std::function<void()> on_stopped;

  // --- Fault-injection observation hooks (src/fault/FaultInjector) ----------

  /// Fires when an adjustment's execution begins, with the planned
  /// replication makespan (0 for S&R) — the anchor for "kill a worker
  /// mid-replication" fault events.
  std::function<void(AdjustmentType type, Seconds replication_time)> on_adjustment_started;
  /// Fires once per training iteration with the epoch and the per-worker
  /// shards consumed — the §V-C exactly-once invariant is checked on this.
  std::function<void(std::uint64_t epoch, const std::vector<data::SampleRange>& shards)>
      on_data_consumed;
  /// Mirrors the AM's phase transitions; survives AM crash/recovery (the job
  /// re-registers on the recovered instance). Same contract as
  /// ApplicationMaster::set_phase_listener: called under the AM lock, only
  /// schedule simulator events from it.
  std::function<void(AmPhase from, AmPhase to)> on_am_phase;
  /// Fires for every newly launched joining worker, before launch() — lets a
  /// fault plan suppress its report.
  std::function<void(WorkerProcess& worker)> on_worker_launched;

 private:
  sim::Simulator& sim_;
  const topo::Topology& topology_;
  const topo::BandwidthModel& bandwidth_;
  storage::SimFilesystem& fs_;
  transport::MessageBus& bus_;
  transport::KvStore& kv_;
  JobConfig config_;
  Rng rng_;

  train::ThroughputModel throughput_;
  HybridScaling hybrid_;
  ReplicationPlanner planner_;
  data::SerialSampler sampler_;
  std::unique_ptr<data::ChunkSampler> chunk_sampler_;  // only for kChunk
  train::LrController lr_controller_;

  std::unique_ptr<ApplicationMaster> master_;
  /// The scheduler's messaging identity for service requests/replies.
  std::unique_ptr<transport::ReliableEndpoint> sched_endpoint_;
  std::uint64_t next_request_id_ = 1;
  /// Pending adjust-reply re-send timers, keyed by request id; cancelled
  /// when the reply arrives.
  std::map<std::uint64_t, sim::EventId> adjust_resend_timers_;
  int requests_in_flight_ = 0;
  int adjustments_rejected_ = 0;
  /// Request ids awaiting replies. An AM recovery loses the endpoint-level
  /// duplicate suppression, so a resent request can draw a second reply;
  /// replies for ids not in this set are discarded.
  std::set<std::uint64_t> outstanding_requests_;
  std::map<int, std::unique_ptr<WorkerProcess>> workers_;
  /// Launched but not yet admitted workers (start/init in flight or waiting
  /// for the adjustment to complete).
  std::map<int, std::unique_ptr<WorkerProcess>> joining_;

  bool running_ = false;
  std::uint64_t iteration_ = 0;
  int total_batch_;
  std::uint64_t stop_at_iteration_ = 0;
  bool stop_requested_ = false;
  Seconds ideal_training_time_ = 0;
  std::uint64_t samples_processed_ = 0;
  std::vector<AdjustmentRecord> adjustments_;
  Seconds last_request_time_ = 0;

  /// Straggler factors by worker id (1.0 = healthy). Migrating a straggler
  /// replaces it with a fresh worker on a different device, shedding the
  /// slowdown.
  std::map<int, double> slowdown_;
  /// Fail-stopped workers awaiting removal at the next iteration boundary.
  std::vector<int> pending_failures_;
  int worker_failures_ = 0;
  bool fatal_failure_ = false;
  void process_pending_failures();

  // Coordination round state.
  int decisions_outstanding_ = 0;
  bool adjust_signalled_ = false;
  AdjustmentPlan signalled_plan_;

  void register_loader_hook(WorkerProcess& worker);
  std::unique_ptr<WorkerProcess> make_worker(int id, topo::GpuId gpu, bool already_running);
  void send_adjust_request(AdjustRequestMsg msg);
  void arm_adjust_resend(AdjustRequestMsg msg);
  void on_adjust_reply(const AdjustReplyMsg& reply);
  void attach_master_listener();
  /// Drops joining workers that died mid-launch or were orphaned by an
  /// aborted plan (report-timeout eviction at the AM).
  void reconcile_joining();
  void begin_iteration();
  void train_step();
  void finish_train_step();
  /// Compute time of one worker this iteration (slowdown + jitter applied).
  Seconds worker_compute_time(int worker);
  /// Exposed communication + engine overhead after the compute barrier.
  Seconds post_barrier_time() const;
  int compute_outstanding_ = 0;
  Seconds barrier_reached_at_ = 0;
  void coordinate_round();
  void on_all_decisions();
  void perform_adjustment(const AdjustmentPlan& plan);
  void execute_elan_adjustment(AdjustmentRecord record, const AdjustmentPlan& plan);
  void execute_snr_adjustment(AdjustmentRecord record, const AdjustmentPlan& plan);
  /// Live state of one chunk-pipelined replication (job.cpp): the canonical
  /// serialized stream (allocated once), per-destination receive buffers and
  /// verified-prefix counters, and the running ReplicationStats.
  struct ReplicationSession;
  /// Schedules one round's chunk-arrival events against the simulator.
  void schedule_chunk_round(const std::shared_ptr<ReplicationSession>& session,
                            const ChunkSchedule& schedule);
  /// One chunk landed: verify it against the source bytes (quick fingerprint
  /// on the hot path, full FNV under sanitize/debug builds) and extend the
  /// destination's verified prefix — or mark the destination for resume if
  /// the source died mid-stream.
  void apply_replication_chunk(const std::shared_ptr<ReplicationSession>& session,
                               const ChunkTransfer& transfer, Seconds round_base);
  /// Replication round completion: destinations with a full verified stream
  /// are checksummed (one full FNV against the canonical stream) and loaded;
  /// destinations that lost their source mid-stream get the missing *suffix*
  /// re-planned from survivors — including fully replicated joiners — and the
  /// adjustment extends by the resume round's makespan (recursing until a
  /// round survives its own window).
  void complete_elan_replication(AdjustmentRecord record, AdjustmentPlan plan,
                                 ScalingDecision decision,
                                 std::shared_ptr<ReplicationSession> session);
  void finish_adjustment(AdjustmentRecord record, const AdjustmentPlan& plan,
                         double batch_factor, int new_total_batch);
  std::uint64_t gradient_seed(const data::SampleRange& range) const;
  /// One iteration's data assignment: the shared gradient seed and each
  /// worker's shard (rank order). Handles epoch turnover for the active
  /// semantics.
  struct IterationData {
    std::uint64_t seed = 0;
    std::uint64_t consumed = 0;
    std::vector<data::SampleRange> shards;
  };
  IterationData consume_iteration_data();
  Seconds repartition_cost() const;

  // GPU-memory accounting (active only when memory_pool_ != nullptr).
  memory::MemoryPool* memory_pool_ = nullptr;
  struct WorkerAllocations {
    memory::AllocationId state = 0;
    memory::AllocationId workspace = 0;
    topo::GpuId gpu = -1;
  };
  std::map<int, WorkerAllocations> allocations_;
  int allocated_batch_ = 0;  // per-worker batch the workspaces are sized for
  void allocate_worker_memory(int worker, topo::GpuId gpu);
  void free_worker_memory(int worker);
  void resize_workspaces();
  int per_worker_batch() const { return (total_batch_ + num_workers() - 1) / num_workers(); }
  std::string checkpoint_path() const { return "/ckpt/" + config_.job_id; }
};

}  // namespace elan
