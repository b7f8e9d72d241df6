#include "elan/master.h"

#include <algorithm>

#include "common/error.h"
#include "common/log.h"
#include "obs/flight.h"
#include "obs/trace.h"

namespace elan {

const char* to_string(AmPhase phase) {
  switch (phase) {
    case AmPhase::kSteady: return "steady";
    case AmPhase::kWaitingReady: return "waiting-ready";
    case AmPhase::kReady: return "ready";
    case AmPhase::kAdjusting: return "adjusting";
  }
  return "?";
}

ApplicationMaster::ApplicationMaster(transport::RawTransport& bus, transport::KvStore& kv,
                                     std::string job_id,
                                     std::vector<WorkerLaunchSpec> initial_workers,
                                     AmParams params)
    : ApplicationMaster(bus, kv, std::move(job_id), params) {
  MutexLock lock(mu_);
  for (const auto& w : initial_workers) {
    require(w.worker >= 0, "AM: bad initial worker id");
    workers_.emplace(w.worker, w.gpu);
    next_worker_id_ = std::max(next_worker_id_, w.worker + 1);
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
    tracer.complete("master", std::string("phase/") + to_string(phase_), phase_started_us_,
                    now_us - phase_started_us_,
                    "{\"job\":\"" + obs::json_escape(job_id_) + "\"}");
  }
  phase_started_us_ = now_us;
  const AmPhase prev = phase_;
  phase_ = next;
  obs::event(obs::FlightEventKind::kAmPhase, name_.c_str(), to_string(next),
             static_cast<std::uint64_t>(prev), static_cast<std::uint64_t>(next),
             plan_.version);
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
  if (phase_ != AmPhase::kWaitingReady) return;  // stale timer
  // Joining workers that never reported are presumed dead (crashed during
  // launch, or partitioned): evict them so the adjustment degrades
  // gracefully to the workers that did report instead of wedging forever.
  for (int id : pending_reports_) {
    plan_.join.erase(id);
    ++evictions_;
    obs::event(obs::FlightEventKind::kWorkerEvicted, name_.c_str(), nullptr,
               static_cast<std::uint64_t>(id), plan_.version);
    log_warn() << name_ << ": evicting joining worker " << id
               << " (no report within " << params_.report_timeout << "s)";
  }
  pending_reports_.clear();
  if (plan_.join.empty() && plan_.type != AdjustmentType::kScaleIn) {
    // Nobody made it: abort the adjustment cleanly (a migration without
    // replacements must not remove its victims).
    log_warn() << name_ << ": plan v" << plan_.version
               << " aborted, no joining worker reported";
    plan_ = AdjustmentPlan{};
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
  if (msg.type == "report") {
    on_report(ReportMsg::deserialize(msg.payload));
  } else if (msg.type == "coordinate") {
    on_coordinate(CoordinateMsg::deserialize(msg.payload), msg.from);
  } else if (msg.type == "adjust_request") {
    on_adjust_request(AdjustRequestMsg::deserialize(msg.payload), msg.from);
  } else if (msg.type == "adjust_complete") {
    on_adjust_complete_msg(AdjustCompleteMsg::deserialize(msg.payload));
  } else if (msg.type == "remove_failed") {
    remove_failed(RemoveFailedMsg::deserialize(msg.payload).worker);
  } else if (msg.type == "status") {
    on_status(StatusRequestMsg::deserialize(msg.payload), msg.from);
  } else {
    log_warn() << name_ << ": unknown message type " << msg.type;
  }
}

void ApplicationMaster::on_adjust_request(const AdjustRequestMsg& msg,
                                          const std::string& reply_to) {
  AdjustReplyMsg reply;
  reply.request_id = msg.request_id;
  {
    MutexLock lock(mu_);
    obs::event(obs::FlightEventKind::kAdjustRequest, name_.c_str(), to_string(msg.type),
               msg.request_id);
    auto cached = replied_.find(msg.request_id);
    if (cached != replied_.end()) {
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
                 msg.request_id, reply.ok ? 1 : 0, plan_.version);
      replied_.emplace(msg.request_id, reply);
      while (replied_.size() > 16) replied_.erase(replied_.begin());
      persist();
    }
  }
  // Reply with no AM lock held (endpoint -> bus -> simulator locks follow).
  endpoint_->send(reply_to, "adjust_reply", reply.serialize());
}

std::vector<WorkerLaunchSpec> ApplicationMaster::scale_out(
    const std::vector<topo::GpuId>& gpus) {
  MutexLock lock(mu_);
  return scale_out_locked(gpus);
}

std::vector<WorkerLaunchSpec> ApplicationMaster::scale_out_locked(
    const std::vector<topo::GpuId>& gpus) {
  require(phase_ == AmPhase::kSteady, "AM: adjustment already pending");
  require(!gpus.empty(), "scale_out: no GPUs");
  plan_ = AdjustmentPlan{};
  plan_.version = next_version_++;
  plan_.type = AdjustmentType::kScaleOut;
  std::vector<WorkerLaunchSpec> specs;
  for (auto gpu : gpus) {
    const int id = next_worker_id_++;
    plan_.join.emplace(id, gpu);
    pending_reports_.insert(id);
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
  require(phase_ == AmPhase::kSteady, "AM: adjustment already pending");
  require(!victims.empty(), "scale_in: no victims");
  require(victims.size() < workers_.size(), "scale_in: cannot remove all workers");
  for (int v : victims) {
    ELAN_REQUIRE(workers_.count(v) > 0, "scale_in: unknown worker " + std::to_string(v));
  }
  plan_ = AdjustmentPlan{};
  plan_.version = next_version_++;
  plan_.type = AdjustmentType::kScaleIn;
  plan_.leave = victims;
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
  require(phase_ == AmPhase::kSteady, "AM: adjustment already pending");
  require(!victims.empty() && victims.size() == target_gpus.size(),
          "migrate: victims/targets mismatch");
  for (int v : victims) {
    ELAN_REQUIRE(workers_.count(v) > 0, "migrate: unknown worker " + std::to_string(v));
  }
  plan_ = AdjustmentPlan{};
  plan_.version = next_version_++;
  plan_.type = AdjustmentType::kMigrate;
  plan_.leave = victims;
  std::vector<WorkerLaunchSpec> specs;
  for (auto gpu : target_gpus) {
    const int id = next_worker_id_++;
    plan_.join.emplace(id, gpu);
    pending_reports_.insert(id);
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
  if (phase_ != AmPhase::kWaitingReady) {
    // Duplicate or stale report (e.g. resent after an AM restart): ignore.
    return;
  }
  obs::event(obs::FlightEventKind::kWorkerReport, name_.c_str(), nullptr,
             static_cast<std::uint64_t>(msg.worker), plan_.version);
  pending_reports_.erase(msg.worker);
  if (pending_reports_.empty()) {
    cancel_report_timer_locked();
    set_phase_locked(AmPhase::kReady);
    log_debug() << name_ << ": all new workers reported, plan v" << plan_.version
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
    std::uint64_t& last = coordinated_[msg.worker];
    const bool stale = msg.iteration < last;
    last = std::max(last, msg.iteration);
    // Instruct the adjustment only when every joining worker is ready;
    // workers that coordinate earlier simply proceed with training
    // (asynchronous coordination, §V-B). The worker discards the answer to
    // a stale coordinate, so only a current one may start the adjustment;
    // otherwise, if no later round comes, the AM waits in Adjusting forever.
    if ((phase_ == AmPhase::kReady && !stale) || phase_ == AmPhase::kAdjusting) {
      decision.adjust = true;
      decision.plan = plan_;
      if (phase_ == AmPhase::kReady) {
        set_phase_locked(AmPhase::kAdjusting);
        persist();
      }
    }
  }
  endpoint_->send(reply_to, "decision", decision.serialize());
}

void ApplicationMaster::on_adjustment_complete(const std::vector<int>& failed_joins) {
  MutexLock lock(mu_);
  require(phase_ == AmPhase::kAdjusting, "AM: no adjustment in flight");
  complete_locked(failed_joins);
}

void ApplicationMaster::complete_locked(const std::vector<int>& failed_joins) {
  for (const auto& [id, gpu] : plan_.join) {
    if (std::find(failed_joins.begin(), failed_joins.end(), id) != failed_joins.end()) {
      continue;  // died between reporting and admission
    }
    workers_.emplace(id, gpu);
  }
  for (int v : plan_.leave) {
    workers_.erase(v);
    coordinated_.erase(v);
  }
  plan_ = AdjustmentPlan{};
  plan_.version = 0;
  set_phase_locked(AmPhase::kSteady);
  persist();
}

void ApplicationMaster::on_adjust_complete_msg(const AdjustCompleteMsg& msg) {
  MutexLock lock(mu_);
  if (phase_ != AmPhase::kAdjusting || msg.plan_version != plan_.version) {
    // Duplicate (the runtime re-sent after a lost ack) or a completion for a
    // plan that already finished: idempotent no-op, unlike the in-process
    // on_adjustment_complete which treats this as a programming error.
    log_debug() << name_ << ": ignoring adjust_complete for plan v" << msg.plan_version
                << " (phase " << to_string(phase_) << ", plan v" << plan_.version << ")";
    return;
  }
  complete_locked(msg.failed_joins);
}

void ApplicationMaster::on_status(const StatusRequestMsg& msg, const std::string& reply_to) {
  StatusReplyMsg reply;
  reply.request_id = msg.request_id;
  {
    MutexLock lock(mu_);
    reply.phase = static_cast<std::uint8_t>(phase_);
    reply.plan_version = plan_.version;
    reply.workers = workers_;
    reply.evictions = evictions_;
    reply.coordinations = coordinations_;
    reply.reports = reports_received_;
  }
  // Reply with no AM lock held, like every other message path.
  endpoint_->send(reply_to, "status_reply", reply.serialize());
}

void ApplicationMaster::remove_failed(int worker) {
  MutexLock lock(mu_);
  workers_.erase(worker);
  coordinated_.erase(worker);
  persist();
}

void ApplicationMaster::persist() {
  BinaryWriter w;
  w.write(static_cast<std::uint8_t>(phase_));
  w.write(next_worker_id_);
  w.write(next_version_);
  w.write<std::uint64_t>(workers_.size());
  for (const auto& [id, gpu] : workers_) {
    w.write(id);
    w.write(gpu);
  }
  const auto plan_bytes = plan_.serialize();
  w.write_bytes(plan_bytes);
  w.write<std::uint64_t>(pending_reports_.size());
  for (int id : pending_reports_) w.write(id);
  w.write<std::uint64_t>(replied_.size());
  for (const auto& [id, reply] : replied_) {
    w.write(id);
    w.write_bytes(reply.serialize());
  }
  w.write<std::uint64_t>(coordinated_.size());
  for (const auto& [id, iteration] : coordinated_) {
    w.write(id);
    w.write(iteration);
  }
  kv_.put(kv_key(), w.take());
}

void ApplicationMaster::restore_from_bytes(std::span<const std::uint8_t> data) {
  MutexLock lock(mu_);
  BinaryReader r(data);
  phase_ = static_cast<AmPhase>(r.read<std::uint8_t>());
  next_worker_id_ = r.read<int>();
  next_version_ = r.read<std::uint64_t>();
  const auto nw = r.read<std::uint64_t>();
  workers_.clear();
  for (std::uint64_t i = 0; i < nw; ++i) {
    const int id = r.read<int>();
    const auto gpu = r.read<topo::GpuId>();
    workers_.emplace(id, gpu);
  }
  const auto plan_bytes = r.read_bytes();
  BinaryReader pr(plan_bytes);
  plan_ = AdjustmentPlan::deserialize(pr);
  pending_reports_.clear();
  const auto np = r.read<std::uint64_t>();
  for (std::uint64_t i = 0; i < np; ++i) pending_reports_.insert(r.read<int>());
  replied_.clear();
  const auto nr = r.read<std::uint64_t>();
  for (std::uint64_t i = 0; i < nr; ++i) {
    const auto id = r.read<std::uint64_t>();
    replied_.emplace(id, AdjustReplyMsg::deserialize(r.read_bytes()));
  }
  coordinated_.clear();
  const auto nc = r.read<std::uint64_t>();
  for (std::uint64_t i = 0; i < nc; ++i) {
    const int id = r.read<int>();
    coordinated_.emplace(id, r.read<std::uint64_t>());
  }
  // A recovery landing mid-wait restarts the report-timeout clock: the
  // workers get a fresh window before eviction.
  if (phase_ == AmPhase::kWaitingReady) arm_report_timer_locked();
}

std::unique_ptr<ApplicationMaster> ApplicationMaster::recover(transport::RawTransport& bus,
                                                              transport::KvStore& kv,
                                                              const std::string& job_id,
                                                              AmParams params) {
  auto data = kv.get_now("elan/am/" + job_id);
  if (!data) throw NotFound("persisted AM state for job " + job_id);
  // Note: cannot use make_unique with a private constructor.
  std::unique_ptr<ApplicationMaster> am(new ApplicationMaster(bus, kv, job_id, params));
  am->restore_from_bytes(*data);
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
