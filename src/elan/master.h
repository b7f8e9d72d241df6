// Application master (paper §II, §V).
//
// One AM is attached to each job. It offers the resource-adjustment service
// to the scheduler (Table III: ScaleOut / ScaleIn / Migrate), collects
// readiness reports from asynchronously starting new workers, and answers the
// periodic Coordinate calls from existing workers — instructing an adjustment
// only once every joining worker has reported, so start/initialisation stays
// off the training critical path (§V-B).
//
// Fault tolerance (§V-D): the AM is a state machine persisted to the KV store
// after every transition; `recover` rebuilds an equivalent AM after a crash.
// Message loss is handled by the ReliableEndpoint layer underneath.
//
// Thread safety: the report/poll state machine is guarded by one mutex, so
// the scheduler's service calls, worker reports and coordination polls may
// arrive on any thread (the prerequisite for running §V-B coordination off
// the training thread). Replies are sent with no AM lock held. Lock order:
// application_master -> {reliable_endpoint, kv_store} -> ... -> simulator.
// Accessors return snapshots by value — the state machine keeps moving.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/sync.h"
#include "elan/messages.h"
#include "transport/bus.h"
#include "transport/kv_store.h"

namespace elan {

struct WorkerLaunchSpec {
  int worker = -1;
  topo::GpuId gpu = -1;
};

/// The AM's state machine: one record, persisted to the KV store after every
/// transition (§V-D). ApplicationMaster::recover rebuilds an equivalent AM
/// from it.
struct AmRecord {
  AmPhase phase = AmPhase::kSteady;
  int next_worker_id = 0;
  std::uint64_t next_version = 1;
  std::map<int, topo::GpuId> workers;
  AdjustmentPlan plan;
  /// Joining workers that have not reported yet.
  std::set<int> pending_reports;
  /// Replay cache making on_adjust_request idempotent: if the job re-sends a
  /// request because the reply was lost (an AM crash between transport ack
  /// and reply delivery destroys the reply's retry state), the cached reply
  /// is re-sent instead of re-executing the adjustment. Pruned to the most
  /// recent entries (request ids are monotonic).
  std::map<std::uint64_t, AdjustReplyMsg> replied;
  /// Highest iteration each worker has coordinated at. A coordinate below it
  /// is a retransmission from a round that worker already finished (its
  /// reliable endpoint keeps retrying a message that a decision-timeout
  /// re-send replaced); it must not start an adjustment, even after a
  /// recovery.
  std::map<int, std::uint64_t> coordinated;

  static auto wire_fields(auto& r) {
    return std::tie(r.phase, r.next_worker_id, r.next_version, r.workers, r.plan,
                    r.pending_reports, r.replied, r.coordinated);
  }
};

struct AmParams {
  /// How long the AM waits in kWaitingReady for joining workers' reports.
  /// Workers that never report (crashed or partitioned mid-launch) are
  /// evicted from the plan when the timeout fires: the scale-out degrades
  /// gracefully to the workers that did report, or aborts cleanly if none
  /// did. Must comfortably exceed worker start + init time.
  Seconds report_timeout = 120.0;
};

class ApplicationMaster {
 public:
  ApplicationMaster(transport::RawTransport& bus, transport::KvStore& kv, std::string job_id,
                    std::vector<WorkerLaunchSpec> initial_workers, AmParams params = {});
  ~ApplicationMaster();

  const std::string& name() const { return name_; }
  const std::string& job_id() const { return job_id_; }
  AmPhase phase() const {
    MutexLock lock(mu_);
    return state_.phase;
  }
  std::uint64_t plan_version() const {
    MutexLock lock(mu_);
    return state_.plan.version;
  }
  /// Snapshot of the pending plan.
  AdjustmentPlan plan() const {
    MutexLock lock(mu_);
    return state_.plan;
  }

  /// Snapshot of the worker membership as known to the AM (worker -> GPU).
  std::map<int, topo::GpuId> workers() const {
    MutexLock lock(mu_);
    return state_.workers;
  }

  // --- Service API offered to the scheduler (Table III) -------------------

  /// Requests adding workers on the given GPUs. Returns the launch specs the
  /// scheduler must start (step 1 in Fig 2). Fails if an adjustment is
  /// already pending.
  std::vector<WorkerLaunchSpec> scale_out(const std::vector<topo::GpuId>& gpus);

  /// Requests removing the given workers.
  void scale_in(const std::vector<int>& victims);

  /// Requests moving the given workers to new GPUs. Implemented as joining
  /// replacements and removing the originals. Returns the launch specs.
  std::vector<WorkerLaunchSpec> migrate(const std::vector<int>& victims,
                                        const std::vector<topo::GpuId>& target_gpus);

  /// True when a request can be accepted.
  bool idle() const {
    MutexLock lock(mu_);
    return state_.phase == AmPhase::kSteady;
  }

  // --- Completion signal from the job runtime ------------------------------

  /// Called by the job once replication/repartition/reconstruction finished.
  /// `failed_joins` lists planned joiners that died before admission (killed
  /// mid-replication); they are excluded from the new membership.
  void on_adjustment_complete(const std::vector<int>& failed_joins = {});

  /// Removes a fail-stopped worker from the membership (worker fault
  /// tolerance: the job detected a dead replica at an iteration boundary).
  /// Permitted in any phase; a pending plan that references the worker as a
  /// victim keeps working (removing it twice is a no-op).
  void remove_failed(int worker);

  // --- Fault tolerance ------------------------------------------------------

  /// Rebuilds an AM from the state machine persisted in the KV store. A
  /// recovery landing in kWaitingReady re-arms the report timeout.
  static std::unique_ptr<ApplicationMaster> recover(transport::RawTransport& bus,
                                                    transport::KvStore& kv,
                                                    const std::string& job_id,
                                                    AmParams params = {});

  /// Detaches from the bus (crash simulation). Pending report timers die
  /// with the process; recovery re-arms them from the persisted state.
  void crash();

  /// Observer of phase transitions (fault injection hooks on "crash the AM
  /// between phases X and Y"). Invoked with the AM lock held: the listener
  /// must not call back into this AM — scheduling simulator events is the
  /// intended use (lock order application_master -> ... -> simulator).
  using PhaseListener = std::function<void(AmPhase from, AmPhase to)>;
  void set_phase_listener(PhaseListener listener) {
    MutexLock lock(mu_);
    phase_listener_ = std::move(listener);
  }

  std::uint64_t reports_received() const {
    MutexLock lock(mu_);
    return reports_received_;
  }
  std::uint64_t coordinations() const {
    MutexLock lock(mu_);
    return coordinations_;
  }
  /// Joining workers evicted by the report timeout.
  std::uint64_t evictions() const {
    MutexLock lock(mu_);
    return evictions_;
  }

 private:
  ApplicationMaster(transport::RawTransport& bus, transport::KvStore& kv, std::string job_id,
                    AmParams params);

  transport::RawTransport& bus_;
  transport::KvStore& kv_;
  std::string job_id_;
  std::string name_;
  AmParams params_;
  std::unique_ptr<transport::ReliableEndpoint> endpoint_;

  mutable Mutex mu_{"application_master"};
  AmRecord state_ ELAN_GUARDED_BY(mu_);
  // Tracer-clock timestamp of the last phase transition, or of the AM's
  // construction or recovery; each transition emits a span covering the
  // phase that just ended (category "master").
  double phase_started_us_ ELAN_GUARDED_BY(mu_) = 0;
  std::uint64_t reports_received_ ELAN_GUARDED_BY(mu_) = 0;
  std::uint64_t coordinations_ ELAN_GUARDED_BY(mu_) = 0;
  std::uint64_t evictions_ ELAN_GUARDED_BY(mu_) = 0;
  PhaseListener phase_listener_ ELAN_GUARDED_BY(mu_);
  // Report-timeout timer for the current kWaitingReady stay, in the
  // transport's time domain (virtual over the sim bus, wall-clock over
  // sockets). The token outlives the AM so a timer firing after destruction
  // is a no-op.
  transport::TimerId report_timer_ ELAN_GUARDED_BY(mu_) = 0;
  std::shared_ptr<std::atomic<bool>> alive_token_ =
      std::make_shared<std::atomic<bool>>(true);

  void attach_endpoint();
  void arm_report_timer_locked() ELAN_REQUIRES(mu_);
  void cancel_report_timer_locked() ELAN_REQUIRES(mu_);
  void on_report_timeout();
  void handle(const transport::Message& msg);
  void on_report(const ReportMsg& msg);
  void on_coordinate(const CoordinateMsg& msg, const std::string& reply_to);
  void on_adjust_request(const AdjustRequestMsg& msg, const std::string& reply_to);
  // Message-path variant of on_adjustment_complete: an external job runtime
  // (the live launcher) signals completion over the wire. Tolerant of
  // duplicates and stale plan versions (re-sends after lost acks).
  void on_adjust_complete_msg(const AdjustCompleteMsg& msg);
  void on_status(const StatusRequestMsg& msg, const std::string& reply_to);
  void complete_locked(const std::vector<int>& failed_joins) ELAN_REQUIRES(mu_);
  // Unlocked cores of the service API; the public wrappers and the message
  // path (which already holds the lock) both funnel here.
  std::vector<WorkerLaunchSpec> scale_out_locked(const std::vector<topo::GpuId>& gpus)
      ELAN_REQUIRES(mu_);
  void scale_in_locked(const std::vector<int>& victims) ELAN_REQUIRES(mu_);
  std::vector<WorkerLaunchSpec> migrate_locked(const std::vector<int>& victims,
                                               const std::vector<topo::GpuId>& target_gpus)
      ELAN_REQUIRES(mu_);
  // Transition the phase state machine, tracing the phase that just ended.
  void set_phase_locked(AmPhase next) ELAN_REQUIRES(mu_);
  void persist() ELAN_REQUIRES(mu_);
  void restore(AmRecord record);
  std::string kv_key() const { return "elan/am/" + job_id_; }
};

}  // namespace elan
