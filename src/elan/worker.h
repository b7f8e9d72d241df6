// Worker process (control-plane actor + training engine + state hooks).
//
// A worker models one training process bound to one GPU. New workers go
// through Launching (process spawn, CUDA context) -> Initializing (framework
// init) -> Ready (reported to the AM); these delays are what the
// asynchronous coordination mechanism keeps off the critical path. The
// worker's training state is exposed exclusively through the hook registry
// (RegisterHook), which is how Elan stays framework-generic.
//
// Every timer the worker arms (the modelled launch delays, the decision
// timeout) goes through its transport's timer service, like the AM's and
// ReliableEndpoint's: virtual time over the sim bus, wall-clock time over
// sockets. The worker is a single-threaded actor: its timers and message
// handler run on the one thread that runs the transport's callbacks (the
// simulator's, or the socket IO thread), and a live host calls into it only
// from there.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <tuple>

#include "common/rng.h"
#include "common/units.h"
#include "elan/hooks.h"
#include "elan/messages.h"
#include "topology/topology.h"
#include "train/engine.h"
#include "transport/bus.h"

namespace elan {

enum class WorkerState { kLaunching, kInitializing, kReady, kTraining, kStopped };

const char* to_string(WorkerState state);

struct WorkerParams {
  /// Process spawn + CUDA context establishment (mean / stddev of a
  /// truncated normal; the variance is why the AM waits for reports instead
  /// of a fixed delay).
  Seconds start_mean = 12.0;
  Seconds start_stddev = 1.5;
  Seconds shutdown_time = 0.5;
  /// Nominal CPU-state sizes (Table II): loader state and runtime info.
  Bytes loader_state_bytes = 64_KiB;
  Bytes runtime_state_bytes = 1_KiB;
  /// How long a worker waits for a coordination decision before re-sending
  /// its Coordinate. The transport layer guarantees delivery of the
  /// *request*, not the *reply*: if the AM crashes after acking a coordinate
  /// but before its decision reaches the worker, the decision dies with the
  /// AM's endpoint and nobody retries it. The worker-level timer closes that
  /// gap — the recovered AM answers the re-sent coordinate (re-instructing
  /// the in-flight plan if it was mid-adjustment).
  Seconds decision_timeout = 1.0;
};

/// The "runtime" hook's state (Table II: runtime info, CPU-resident).
struct RuntimeState {
  std::uint64_t iteration = 0;

  static auto wire_fields(auto& s) { return std::tie(s.iteration); }
};

class WorkerProcess {
 public:
  using EngineFactory = std::function<std::unique_ptr<train::TrainingEngine>()>;

  /// Creates a worker. `already_running` workers (the job's initial set)
  /// skip the launch sequence and are immediately Ready. When
  /// `engine_factory` is set it supplies the training engine (a custom
  /// framework integration); otherwise `engine_kind` selects one of the
  /// built-in cost-modelled engines.
  WorkerProcess(transport::RawTransport& bus, const std::string& job_id, int id,
                topo::GpuId gpu, const train::ModelSpec& model, train::EngineKind engine_kind,
                WorkerParams params, Rng rng, bool already_running,
                EngineFactory engine_factory = nullptr);
  ~WorkerProcess();

  WorkerProcess(const WorkerProcess&) = delete;
  WorkerProcess& operator=(const WorkerProcess&) = delete;

  int id() const { return id_; }
  topo::GpuId gpu() const { return gpu_; }
  WorkerState state() const { return state_; }
  const std::string& endpoint_name() const { return name_; }

  train::TrainingEngine& engine() { return *engine_; }
  const train::TrainingEngine& engine() const { return *engine_; }
  HookRegistry& hooks() { return hooks_; }
  const HookRegistry& hooks() const { return hooks_; }

  /// Starts the modelled launch sequence (start, then init delay) and ends
  /// in report_ready(). `on_ready` fires (if set) after the report is sent.
  void launch(std::function<void()> on_ready = nullptr);

  /// Marks a launching worker Ready and reports to the AM: the tail of
  /// launch(). A live process, whose start and init are real, calls it
  /// directly once it is up.
  void report_ready();

  /// Sends a Coordinate message to the AM; `on_decision` fires with the AM's
  /// reply (matched by iteration echo).
  void coordinate(std::uint64_t iteration,
                  std::function<void(const DecisionMsg&)> on_decision);

  /// Marks a Ready worker as participating in training (called by the job
  /// when the worker joins after an adjustment).
  void set_training();

  /// True while a coordination decision is outstanding.
  bool has_pending_decision() const { return static_cast<bool>(pending_decision_); }

  /// Graceful stop; detaches from the bus and cancels the launch sequence.
  void shutdown();

  /// Fault hook: the ready report is never sent (a hung or partitioned
  /// container that finished starting but cannot reach the AM). The AM's
  /// report timeout eventually evicts this worker from the plan.
  void fault_suppress_report() { suppress_report_ = true; }

  /// Total Launching time and Initializing time actually incurred (Fig 11
  /// breakdown inputs).
  Seconds measured_start_time() const { return measured_start_; }
  Seconds measured_init_time() const { return measured_init_; }

  /// Replica fingerprint (engine state + iteration) for consistency checks.
  std::uint64_t state_checksum() const {
    return engine_->state_checksum() ^ (engine_->iteration() * 0x9e3779b97f4a7c15ULL);
  }

  /// Nominal state sizes by location, derived from the hook registry.
  Bytes gpu_state_bytes() const { return hooks_.nominal_bytes(StateLocation::kGpu); }
  Bytes cpu_state_bytes() const { return hooks_.nominal_bytes(StateLocation::kCpu); }

 private:
  transport::RawTransport& bus_;
  std::string job_id_;
  std::string name_;
  std::string am_name_;
  int id_;
  topo::GpuId gpu_;
  WorkerState state_;
  WorkerParams params_;
  Rng rng_;
  std::unique_ptr<train::TrainingEngine> engine_;
  HookRegistry hooks_;
  std::unique_ptr<transport::ReliableEndpoint> endpoint_;
  std::function<void(const DecisionMsg&)> pending_decision_;
  /// Iteration echoed in the pending coordinate; decisions for any other
  /// iteration are stale replays (lost-ack re-sends answered by a recovered
  /// AM) and must not consume the pending slot.
  std::uint64_t pending_iteration_ = 0;
  transport::TimerId decision_timer_ = 0;
  /// The pending start or init delay of launch(), 0 otherwise.
  transport::TimerId launch_timer_ = 0;
  /// Coordinates re-sent because no decision arrived within
  /// `decision_timeout` (nonzero after an AM crash ate the reply).
  std::uint64_t decision_resends_ = 0;
  bool suppress_report_ = false;
  Seconds measured_start_ = 0;
  Seconds measured_init_ = 0;
  // cancel_timer is best-effort: a launch callback already dispatched may
  // still run. The token outlives the worker, so such a callback is a no-op.
  std::shared_ptr<std::atomic<bool>> alive_token_ =
      std::make_shared<std::atomic<bool>>(true);

  void register_builtin_hooks();
  void on_decision(const DecisionMsg& decision);
  void send_coordinate();
  void arm_decision_timer();
  void cancel_timers();
};

}  // namespace elan
