#include "fault/fault.h"

#include <algorithm>
#include <sstream>

#include "common/log.h"
#include "obs/flight.h"

namespace elan::fault {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kKillWorker: return "kill_worker";
    case FaultKind::kKillMidReplication: return "kill_mid_replication";
    case FaultKind::kCrashMaster: return "crash_master";
    case FaultKind::kDropLink: return "drop_link";
    case FaultKind::kSlowLink: return "slow_link";
    case FaultKind::kSuppressReport: return "suppress_report";
  }
  return "?";
}

std::string FaultEvent::describe() const {
  std::ostringstream os;
  os << to_string(kind) << "@" << at;
  if (duration > 0) os << "+" << duration << "s";
  if (target >= 0) os << " target=" << target;
  if (phase >= 0) os << " phase=" << phase;
  if (kind == FaultKind::kDropLink || kind == FaultKind::kSlowLink) {
    os << " link=[" << (endpoint_a.empty() ? "*" : endpoint_a) << "<->"
       << (endpoint_b.empty() ? "*" : endpoint_b) << "]";
    if (kind == FaultKind::kSlowLink) os << " x" << factor;
  }
  if (kind == FaultKind::kKillMidReplication) os << " frac=" << frac;
  return os.str();
}

std::string FaultPlan::describe() const {
  std::ostringstream os;
  os << "plan(seed=" << seed << ", " << events.size() << " events)";
  for (const auto& e : events) os << "\n  " << e.describe();
  return os.str();
}

FaultInjector::FaultInjector(sim::Simulator& sim, transport::MessageBus& bus,
                             ElasticJob& job)
    : sim_(sim), bus_(bus), job_(job) {}

FaultInjector::~FaultInjector() { bus_.set_fault_filter(nullptr); }

bool FaultInjector::LinkWindow::matches(const transport::Message& msg,
                                        Seconds now) const {
  if (now < from || now > until) return false;
  const auto touches = [&](const std::string& name, const std::string& pattern) {
    return pattern.empty() || name.find(pattern) != std::string::npos;
  };
  // Direction-agnostic: a partition severs the pair both ways.
  return (touches(msg.from, a) && touches(msg.to, b)) ||
         (touches(msg.from, b) && touches(msg.to, a));
}

void FaultInjector::record(std::string what) {
  log_info() << "fault: " << what << " (t=" << sim_.now() << ")";
  obs::event(obs::FlightEventKind::kFaultInjected, "fault", what.c_str(),
             static_cast<std::uint64_t>(injected_.size()));
  injected_.push_back(std::move(what));
}

int FaultInjector::pick_victim() const {
  for (int id : job_.worker_ids()) {
    if (job_.worker(id).state() != WorkerState::kStopped) return id;
  }
  return -1;
}

void FaultInjector::kill(int requested, const char* why) {
  const int victim = requested >= 0 ? requested : pick_victim();
  // A victim already dead, unknown, or the last survivor is left alone.
  if (victim >= 0 && job_.fault_kill_worker(victim)) {
    ++kills_;
    record(std::string("kill_worker:") + std::to_string(victim) + " (" + why + ")");
  }
}

void FaultInjector::crash_and_recover(Seconds downtime) {
  job_.crash_master();
  ++master_crashes_;
  record("crash_master downtime=" + std::to_string(downtime));
  sim_.schedule(downtime, [this] {
    job_.recover_master();
    record("recover_master");
  });
}

void FaultInjector::fire(const FaultEvent& event) {
  switch (event.kind) {
    case FaultKind::kKillWorker:
      kill(event.target, "scripted");
      break;
    case FaultKind::kKillMidReplication:
      // Armed, not fired: the kill lands inside the next replication window.
      mid_replication_.emplace_back(event.frac, event.target);
      break;
    case FaultKind::kCrashMaster:
      crash_and_recover(event.duration);
      break;
    case FaultKind::kSuppressReport:
      ++suppress_pending_;
      break;
    case FaultKind::kDropLink:
    case FaultKind::kSlowLink:
      break;  // windows are pre-installed at arm() time
  }
}

void FaultInjector::arm(const FaultPlan& plan) {
  for (const auto& event : plan.events) {
    switch (event.kind) {
      case FaultKind::kDropLink:
      case FaultKind::kSlowLink:
        windows_.push_back(LinkWindow{event.at, event.at + event.duration,
                                      event.endpoint_a, event.endpoint_b,
                                      event.kind == FaultKind::kDropLink,
                                      event.factor});
        // Windows never pass through fire()/record(): the arming is their
        // event.
        obs::event(obs::FlightEventKind::kFaultArmed, "fault", to_string(event.kind),
                   static_cast<std::uint64_t>(event.at * 1e3),
                   static_cast<std::uint64_t>((event.at + event.duration) * 1e3));
        break;
      case FaultKind::kCrashMaster:
        if (event.phase >= 0) {
          phase_crashes_.emplace_back(event.phase, event.duration);
          break;
        }
        [[fallthrough]];
      default:
        sim_.schedule(event.at, [this, event] { fire(event); });
        break;
    }
  }

  if (!windows_.empty()) {
    // The filter runs under the bus lock and only reads windows fixed here —
    // no callbacks, no mutation, no added nondeterminism.
    bus_.set_fault_filter([this](const transport::Message& msg, Seconds now) {
      transport::FaultDecision decision;
      for (const auto& w : windows_) {
        if (!w.matches(msg, now)) continue;
        if (w.drop) {
          decision.drop = true;
        } else {
          decision.latency_factor = std::max(decision.latency_factor, w.factor);
        }
      }
      return decision;
    });
  }

  // Chain onto the job's observation hooks, preserving any already installed.
  auto prev_launched = job_.on_worker_launched;
  job_.on_worker_launched = [this, prev_launched](WorkerProcess& worker) {
    if (prev_launched) prev_launched(worker);
    if (suppress_pending_ > 0) {
      --suppress_pending_;
      worker.fault_suppress_report();
      record("suppress_report:" + std::to_string(worker.id()));
    }
  };

  auto prev_started = job_.on_adjustment_started;
  job_.on_adjustment_started = [this, prev_started](AdjustmentType type,
                                                    Seconds replication_time) {
    if (prev_started) prev_started(type, replication_time);
    if (replication_time <= 0 || mid_replication_.empty()) return;
    const auto [frac, target] = mid_replication_.front();
    mid_replication_.erase(mid_replication_.begin());
    sim_.schedule(replication_time * frac,
                  [this, target] { kill(target, "mid-replication"); });
  };

  auto prev_phase = job_.on_am_phase;
  job_.on_am_phase = [this, prev_phase](AmPhase from, AmPhase to) {
    if (prev_phase) prev_phase(from, to);
    for (auto it = phase_crashes_.begin(); it != phase_crashes_.end(); ++it) {
      if (it->first != static_cast<int>(to)) continue;
      const Seconds downtime = it->second;
      phase_crashes_.erase(it);
      // Called under the AM lock: defer the crash to a fresh sim event.
      sim_.schedule(0.0, [this, downtime] { crash_and_recover(downtime); });
      break;
    }
  };
}

}  // namespace elan::fault
