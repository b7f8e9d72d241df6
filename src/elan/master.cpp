#include "elan/master.h"

#include <algorithm>

#include "common/error.h"
#include "common/log.h"
#include "obs/flight.h"
#include "obs/trace.h"

namespace elan {

ApplicationMaster::ApplicationMaster(transport::RawTransport& bus, transport::KvStore& kv,
                                     std::string job_id,
                                     std::vector<WorkerLaunchSpec> initial_workers,
                                     AmParams params)
    : ApplicationMaster(bus, kv, std::move(job_id), params) {
  MutexLock lock(mu_);
  for (const auto& w : initial_workers) {
    require(w.worker >= 0, "AM: bad initial worker id");
    state_.workers.emplace(w.worker, w.gpu);
    state_.next_worker_id = std::max(state_.next_worker_id, w.worker + 1);
  }
  persist();
}

ApplicationMaster::ApplicationMaster(transport::RawTransport& bus, transport::KvStore& kv,
                                     std::string job_id, AmParams params)
    : bus_(bus), kv_(kv), job_id_(std::move(job_id)), name_("am/" + job_id_),
      params_(params), phase_started_us_(obs::Tracer::instance().now_us()) {
  require(params_.report_timeout > 0, "AM: report_timeout must be positive");
  attach_endpoint();
}

ApplicationMaster::~ApplicationMaster() {
  alive_token_->store(false);
  MutexLock lock(mu_);
  cancel_report_timer_locked();
}

void ApplicationMaster::set_phase_locked(AmPhase next) {
  // One span per phase the AM has just left, named "phase/<name>", so the
  // timeline shows how long the AM spent waiting for reports vs adjusting.
  // The start is stamped on every transition, traced or not, so no span
  // reaches back past the AM's construction or recovery.
  auto& tracer = obs::Tracer::instance();
  const double now_us = tracer.now_us();
  if (obs::Tracer::enabled()) {
    tracer.complete("master", std::string("phase/") + to_string(state_.phase), phase_started_us_,
                    now_us - phase_started_us_,
                    "{\"job\":\"" + obs::json_escape(job_id_) + "\"}");
  }
  phase_started_us_ = now_us;
  const AmPhase prev = state_.phase;
  state_.phase = next;
  obs::event(obs::FlightEventKind::kAmPhase, name_.c_str(), to_string(next),
             static_cast<std::uint64_t>(prev), static_cast<std::uint64_t>(next),
             state_.plan.version);
  // Listener runs under mu_ (see header): it may schedule simulator events
  // but must not call back into this AM.
  if (phase_listener_ && prev != next) phase_listener_(prev, next);
}

void ApplicationMaster::arm_report_timer_locked() {
  cancel_report_timer_locked();
  auto token = alive_token_;
  report_timer_ = bus_.schedule_after(params_.report_timeout, [this, token] {
    if (!token->load()) return;
    on_report_timeout();
  });
}

void ApplicationMaster::cancel_report_timer_locked() {
  if (report_timer_ != 0) {
    bus_.cancel_timer(report_timer_);
    report_timer_ = 0;
  }
}

void ApplicationMaster::on_report_timeout() {
  MutexLock lock(mu_);
  report_timer_ = 0;
  if (state_.phase != AmPhase::kWaitingReady) return;  // stale timer
  // Joining workers that never reported are presumed dead (crashed during
  // launch, or partitioned): evict them so the adjustment degrades
  // gracefully to the workers that did report instead of wedging forever.
  for (int id : state_.pending_reports) {
    state_.plan.join.erase(id);
    ++evictions_;
    obs::event(obs::FlightEventKind::kWorkerEvicted, name_.c_str(), nullptr,
               static_cast<std::uint64_t>(id), state_.plan.version);
    log_warn() << name_ << ": evicting joining worker " << id
               << " (no report within " << params_.report_timeout << "s)";
  }
  state_.pending_reports.clear();
  if (state_.plan.join.empty() && state_.plan.type != AdjustmentType::kScaleIn) {
    // Nobody made it: abort the adjustment cleanly (a migration without
    // replacements must not remove its victims).
    log_warn() << name_ << ": plan v" << state_.plan.version
               << " aborted, no joining worker reported";
    state_.plan = AdjustmentPlan{};
    set_phase_locked(AmPhase::kSteady);
  } else {
    set_phase_locked(AmPhase::kReady);
  }
  persist();
}

void ApplicationMaster::attach_endpoint() {
  endpoint_ = std::make_unique<transport::ReliableEndpoint>(
      bus_, name_, [this](const transport::Message& msg) { handle(msg); });
}

void ApplicationMaster::handle(const transport::Message& msg) {
  dispatch_message(msg, name_,
                   [&](const ReportMsg& m) { on_report(m); },
                   [&](const CoordinateMsg& m) { on_coordinate(m, msg.from); },
                   [&](const AdjustRequestMsg& m) { on_adjust_request(m, msg.from); },
                   [&](const AdjustCompleteMsg& m) { on_adjust_complete_msg(m); },
                   [&](const RemoveFailedMsg& m) { remove_failed(m.worker); },
                   [&](const StatusRequestMsg& m) { on_status(m, msg.from); });
}

void ApplicationMaster::on_adjust_request(const AdjustRequestMsg& msg,
                                          const std::string& reply_to) {
  AdjustReplyMsg reply;
  reply.request_id = msg.request_id;
  {
    MutexLock lock(mu_);
    obs::event(obs::FlightEventKind::kAdjustRequest, name_.c_str(), to_string(msg.type),
               msg.request_id);
    auto cached = state_.replied.find(msg.request_id);
    if (cached != state_.replied.end()) {
      // The job re-sent this request because the original reply never
      // arrived — replay the cached verdict instead of re-executing.
      log_debug() << "am/" << job_id_ << ": replaying reply for duplicate adjust request "
                  << msg.request_id;
      obs::event(obs::FlightEventKind::kAdjustReplay, name_.c_str(), nullptr, msg.request_id,
                 cached->second.ok ? 1 : 0);
      reply = cached->second;
    } else {
      try {
        std::vector<WorkerLaunchSpec> specs;
        switch (msg.type) {
          case AdjustmentType::kScaleOut:
            specs = scale_out_locked(msg.gpus);
            break;
          case AdjustmentType::kScaleIn:
            scale_in_locked(msg.victims);
            break;
          case AdjustmentType::kMigrate:
            specs = migrate_locked(msg.victims, msg.gpus);
            break;
        }
        reply.ok = true;
        for (const auto& s : specs) reply.launch.emplace_back(s.worker, s.gpu);
      } catch (const Error& e) {
        reply.ok = false;
        reply.error = e.what();
      }
      obs::event(obs::FlightEventKind::kAdjustVerdict, name_.c_str(), to_string(msg.type),
                 msg.request_id, reply.ok ? 1 : 0, state_.plan.version);
      state_.replied.emplace(msg.request_id, reply);
      while (state_.replied.size() > 16) state_.replied.erase(state_.replied.begin());
      persist();
    }
  }
  // Reply with no AM lock held (endpoint -> bus -> simulator locks follow).
  send_message(*endpoint_, reply_to, reply);
}

std::vector<WorkerLaunchSpec> ApplicationMaster::scale_out(
    const std::vector<topo::GpuId>& gpus) {
  MutexLock lock(mu_);
  return scale_out_locked(gpus);
}

std::vector<WorkerLaunchSpec> ApplicationMaster::scale_out_locked(
    const std::vector<topo::GpuId>& gpus) {
  require(state_.phase == AmPhase::kSteady, "AM: adjustment already pending");
  require(!gpus.empty(), "scale_out: no GPUs");
  state_.plan = AdjustmentPlan{};
  state_.plan.version = state_.next_version++;
  state_.plan.type = AdjustmentType::kScaleOut;
  std::vector<WorkerLaunchSpec> specs;
  for (auto gpu : gpus) {
    const int id = state_.next_worker_id++;
    state_.plan.join.emplace(id, gpu);
    state_.pending_reports.insert(id);
    specs.push_back({id, gpu});
  }
  set_phase_locked(AmPhase::kWaitingReady);
  arm_report_timer_locked();
  persist();
  return specs;
}

void ApplicationMaster::scale_in(const std::vector<int>& victims) {
  MutexLock lock(mu_);
  scale_in_locked(victims);
}

void ApplicationMaster::scale_in_locked(const std::vector<int>& victims) {
  require(state_.phase == AmPhase::kSteady, "AM: adjustment already pending");
  require(!victims.empty(), "scale_in: no victims");
  require(victims.size() < state_.workers.size(), "scale_in: cannot remove all workers");
  for (int v : victims) {
    ELAN_REQUIRE(state_.workers.count(v) > 0, "scale_in: unknown worker " + std::to_string(v));
  }
  state_.plan = AdjustmentPlan{};
  state_.plan.version = state_.next_version++;
  state_.plan.type = AdjustmentType::kScaleIn;
  state_.plan.leave = victims;
  // No new workers to wait for: ready immediately.
  set_phase_locked(AmPhase::kReady);
  persist();
}

std::vector<WorkerLaunchSpec> ApplicationMaster::migrate(
    const std::vector<int>& victims, const std::vector<topo::GpuId>& target_gpus) {
  MutexLock lock(mu_);
  return migrate_locked(victims, target_gpus);
}

std::vector<WorkerLaunchSpec> ApplicationMaster::migrate_locked(
    const std::vector<int>& victims, const std::vector<topo::GpuId>& target_gpus) {
  require(state_.phase == AmPhase::kSteady, "AM: adjustment already pending");
  require(!victims.empty() && victims.size() == target_gpus.size(),
          "migrate: victims/targets mismatch");
  for (int v : victims) {
    ELAN_REQUIRE(state_.workers.count(v) > 0, "migrate: unknown worker " + std::to_string(v));
  }
  state_.plan = AdjustmentPlan{};
  state_.plan.version = state_.next_version++;
  state_.plan.type = AdjustmentType::kMigrate;
  state_.plan.leave = victims;
  std::vector<WorkerLaunchSpec> specs;
  for (auto gpu : target_gpus) {
    const int id = state_.next_worker_id++;
    state_.plan.join.emplace(id, gpu);
    state_.pending_reports.insert(id);
    specs.push_back({id, gpu});
  }
  set_phase_locked(AmPhase::kWaitingReady);
  arm_report_timer_locked();
  persist();
  return specs;
}

void ApplicationMaster::on_report(const ReportMsg& msg) {
  MutexLock lock(mu_);
  ++reports_received_;
  if (state_.phase != AmPhase::kWaitingReady) {
    // Duplicate or stale report (e.g. resent after an AM restart): ignore.
    return;
  }
  obs::event(obs::FlightEventKind::kWorkerReport, name_.c_str(), nullptr,
             static_cast<std::uint64_t>(msg.worker), state_.plan.version);
  state_.pending_reports.erase(msg.worker);
  if (state_.pending_reports.empty()) {
    cancel_report_timer_locked();
    set_phase_locked(AmPhase::kReady);
    log_debug() << name_ << ": all new workers reported, plan v" << state_.plan.version
                << " ready";
  }
  persist();
}

void ApplicationMaster::on_coordinate(const CoordinateMsg& msg, const std::string& reply_to) {
  DecisionMsg decision;
  decision.iteration = msg.iteration;
  {
    MutexLock lock(mu_);
    ++coordinations_;
    std::uint64_t& last = state_.coordinated[msg.worker];
    const bool stale = msg.iteration < last;
    last = std::max(last, msg.iteration);
    // Instruct the adjustment only when every joining worker is ready;
    // workers that coordinate earlier simply proceed with training
    // (asynchronous coordination, §V-B). The worker discards the answer to
    // a stale coordinate, so only a current one may start the adjustment;
    // otherwise, if no later round comes, the AM waits in Adjusting forever.
    if ((state_.phase == AmPhase::kReady && !stale) || state_.phase == AmPhase::kAdjusting) {
      decision.adjust = true;
      decision.plan = state_.plan;
      if (state_.phase == AmPhase::kReady) {
        set_phase_locked(AmPhase::kAdjusting);
        persist();
      }
    }
  }
  send_message(*endpoint_, reply_to, decision);
}

void ApplicationMaster::on_adjustment_complete(const std::vector<int>& failed_joins) {
  MutexLock lock(mu_);
  require(state_.phase == AmPhase::kAdjusting, "AM: no adjustment in flight");
  complete_locked(failed_joins);
}

void ApplicationMaster::complete_locked(const std::vector<int>& failed_joins) {
  for (const auto& [id, gpu] : state_.plan.join) {
    if (std::find(failed_joins.begin(), failed_joins.end(), id) != failed_joins.end()) {
      continue;  // died between reporting and admission
    }
    state_.workers.emplace(id, gpu);
  }
  for (int v : state_.plan.leave) {
    state_.workers.erase(v);
    state_.coordinated.erase(v);
  }
  state_.plan = AdjustmentPlan{};
  state_.plan.version = 0;
  set_phase_locked(AmPhase::kSteady);
  persist();
}

void ApplicationMaster::on_adjust_complete_msg(const AdjustCompleteMsg& msg) {
  MutexLock lock(mu_);
  if (state_.phase != AmPhase::kAdjusting || msg.plan_version != state_.plan.version) {
    // Duplicate (the runtime re-sent after a lost ack) or a completion for a
    // plan that already finished: idempotent no-op, unlike the in-process
    // on_adjustment_complete which treats this as a programming error.
    log_debug() << name_ << ": ignoring adjust_complete for plan v" << msg.plan_version
                << " (phase " << to_string(state_.phase) << ", plan v" << state_.plan.version
                << ")";
    return;
  }
  complete_locked(msg.failed_joins);
}

void ApplicationMaster::on_status(const StatusRequestMsg& msg, const std::string& reply_to) {
  StatusReplyMsg reply;
  reply.request_id = msg.request_id;
  {
    MutexLock lock(mu_);
    reply.phase = state_.phase;
    reply.plan_version = state_.plan.version;
    reply.workers = state_.workers;
    reply.evictions = evictions_;
    reply.coordinations = coordinations_;
    reply.reports = reports_received_;
  }
  // Reply with no AM lock held, like every other message path.
  send_message(*endpoint_, reply_to, reply);
}

void ApplicationMaster::remove_failed(int worker) {
  MutexLock lock(mu_);
  state_.workers.erase(worker);
  state_.coordinated.erase(worker);
  persist();
}

void ApplicationMaster::persist() { kv_.put(kv_key(), wire::encode(state_)); }

void ApplicationMaster::restore(AmRecord record) {
  MutexLock lock(mu_);
  state_ = std::move(record);
  // A recovery landing mid-wait restarts the report-timeout clock: the
  // workers get a fresh window before eviction.
  if (state_.phase == AmPhase::kWaitingReady) arm_report_timer_locked();
}

std::unique_ptr<ApplicationMaster> ApplicationMaster::recover(transport::RawTransport& bus,
                                                              transport::KvStore& kv,
                                                              const std::string& job_id,
                                                              AmParams params) {
  auto data = kv.get_now("elan/am/" + job_id);
  if (!data) throw NotFound("persisted AM state for job " + job_id);
  // Note: cannot use make_unique with a private constructor.
  std::unique_ptr<ApplicationMaster> am(new ApplicationMaster(bus, kv, job_id, params));
  am->restore(wire::decode<AmRecord>(*data));
  return am;
}

void ApplicationMaster::crash() {
  endpoint_->shutdown();
  // Timers are process-local state: they die with the process. Recovery
  // re-arms the report timeout from the persisted phase.
  MutexLock lock(mu_);
  cancel_report_timer_locked();
}

}  // namespace elan
