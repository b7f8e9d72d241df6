#include "elan/worker.h"

#include <utility>

#include "common/error.h"
#include "common/log.h"
#include "obs/flight.h"

namespace elan {

const char* to_string(WorkerState state) {
  switch (state) {
    case WorkerState::kLaunching: return "launching";
    case WorkerState::kInitializing: return "initializing";
    case WorkerState::kReady: return "ready";
    case WorkerState::kTraining: return "training";
    case WorkerState::kStopped: return "stopped";
  }
  return "?";
}

WorkerProcess::WorkerProcess(transport::RawTransport& bus, const std::string& job_id, int id,
                             topo::GpuId gpu, const train::ModelSpec& model,
                             train::EngineKind engine_kind, WorkerParams params, Rng rng,
                             bool already_running, EngineFactory engine_factory)
    : bus_(bus),
      job_id_(job_id),
      name_("w" + std::to_string(id) + "/" + job_id),
      am_name_("am/" + job_id),
      id_(id),
      gpu_(gpu),
      state_(already_running ? WorkerState::kTraining : WorkerState::kLaunching),
      params_(params),
      rng_(rng),
      engine_(engine_factory ? engine_factory() : train::make_engine(model, engine_kind)) {
  ELAN_CHECK(engine_ != nullptr, "worker: engine factory returned null");
  register_builtin_hooks();
  endpoint_ = std::make_unique<transport::ReliableEndpoint>(
      bus, name_, [this](const transport::Message& msg) {
        dispatch_message(msg, name_, [this](const DecisionMsg& d) { on_decision(d); });
      });
}

WorkerProcess::~WorkerProcess() {
  alive_token_->store(false);
  cancel_timers();
}

void WorkerProcess::cancel_timers() {
  for (transport::TimerId* timer : {&decision_timer_, &launch_timer_}) {
    if (*timer != 0) bus_.cancel_timer(std::exchange(*timer, 0));
  }
}

void WorkerProcess::register_builtin_hooks() {
  // The engine exposes its framework-specific state (Table II: model and
  // optimizer, GPU-resident).
  engine_->register_state_hooks(hooks_);
  // Runtime info (iteration counter etc.) lives in CPU memory.
  hooks_.register_hook(StateHook{
      "runtime", StateLocation::kCpu, params_.runtime_state_bytes,
      [this] { return Blob("runtime", wire::encode(RuntimeState{engine_->iteration()})); },
      [this](const Blob& b) {
        engine_->set_iteration(wire::decode<RuntimeState>(b.bytes()).iteration);
      }});
  // The data-loader hook is registered by the job, which owns the sampler.
}

void WorkerProcess::launch(std::function<void()> on_ready) {
  require(state_ == WorkerState::kLaunching, "launch: worker not in Launching state");
  measured_start_ =
      rng_.truncated_normal(params_.start_mean, params_.start_stddev,
                            params_.start_mean * 0.5, params_.start_mean * 2.0);
  auto token = alive_token_;
  launch_timer_ = bus_.schedule_after(
      measured_start_, [this, token, on_ready = std::move(on_ready)]() mutable {
        if (!token->load() || state_ != WorkerState::kLaunching) return;
        state_ = WorkerState::kInitializing;
        measured_init_ = engine_->initialization_time();
        launch_timer_ =
            bus_.schedule_after(measured_init_, [this, token, on_ready = std::move(on_ready)]() {
              if (!token->load() || state_ != WorkerState::kInitializing) return;
              launch_timer_ = 0;
              report_ready();
              if (on_ready) on_ready();
            });
      });
}

void WorkerProcess::report_ready() {
  require(state_ == WorkerState::kLaunching || state_ == WorkerState::kInitializing,
          "report_ready: worker not launching");
  state_ = WorkerState::kReady;
  if (suppress_report_) {
    log_debug() << name_ << ": ready, but report suppressed (fault injection)";
    return;
  }
  ReportMsg report;
  report.worker = id_;
  report.gpu = gpu_;
  send_message(*endpoint_, am_name_, report);
  log_debug() << name_ << ": ready, reported to AM";
}

void WorkerProcess::coordinate(std::uint64_t iteration,
                               std::function<void(const DecisionMsg&)> on_decision) {
  ELAN_REQUIRE(state_ == WorkerState::kTraining || state_ == WorkerState::kReady,
               "coordinate: worker " + name_ + " not running");
  ELAN_REQUIRE(!pending_decision_, "coordinate: decision already pending on " + name_);
  pending_decision_ = std::move(on_decision);
  pending_iteration_ = iteration;
  send_coordinate();
  arm_decision_timer();
}

void WorkerProcess::send_coordinate() {
  obs::event(obs::FlightEventKind::kCoordinateSend, name_.c_str(), nullptr, pending_iteration_,
             static_cast<std::uint64_t>(id_));
  CoordinateMsg msg;
  msg.worker = id_;
  msg.iteration = pending_iteration_;
  send_message(*endpoint_, am_name_, msg);
}

void WorkerProcess::arm_decision_timer() {
  decision_timer_ = bus_.schedule_after(params_.decision_timeout, [this] {
    decision_timer_ = 0;
    if (!pending_decision_ || state_ == WorkerState::kStopped) return;
    // The transport acked the coordinate but the decision never came — the
    // AM crashed between ack and reply. Re-send under a fresh message id so
    // the (recovered, dedup-reset) AM answers again.
    ++decision_resends_;
    obs::event(obs::FlightEventKind::kCoordinateResend, name_.c_str(), nullptr,
               pending_iteration_, decision_resends_);
    log_debug() << name_ << ": no decision for iteration " << pending_iteration_ << " after "
                << params_.decision_timeout << "s; re-sending coordinate";
    send_coordinate();
    arm_decision_timer();
  });
}

void WorkerProcess::on_decision(const DecisionMsg& decision) {
  if (!pending_decision_) {
    obs::event(obs::FlightEventKind::kDecisionStale, name_.c_str(), nullptr, pending_iteration_,
               0);
    log_trace() << name_ << ": decision with no pending coordination (duplicate)";
    return;
  }
  if (decision.iteration != pending_iteration_) {
    obs::event(obs::FlightEventKind::kDecisionStale, name_.c_str(), nullptr, decision.iteration,
               1, pending_iteration_);
    // A stale replay: a lost-ack coordinate from an earlier round was
    // re-delivered to a recovered AM, which answered it. Consuming it here
    // would hand this round a decision made for a different one (and the
    // real decision would then be dropped as a duplicate).
    log_trace() << name_ << ": stale decision for iteration " << decision.iteration
                << " (awaiting " << pending_iteration_ << "); discarded";
    return;
  }
  if (decision_timer_ != 0) bus_.cancel_timer(std::exchange(decision_timer_, 0));
  obs::event(obs::FlightEventKind::kDecisionRecv, name_.c_str(), nullptr, decision.iteration,
             decision.adjust ? 1 : 0);
  auto cb = std::exchange(pending_decision_, nullptr);
  cb(decision);
}

void WorkerProcess::set_training() {
  require(state_ == WorkerState::kReady, "set_training: worker not Ready");
  state_ = WorkerState::kTraining;
}

void WorkerProcess::shutdown() {
  state_ = WorkerState::kStopped;
  pending_decision_ = nullptr;
  cancel_timers();
  endpoint_->shutdown();
}

}  // namespace elan
