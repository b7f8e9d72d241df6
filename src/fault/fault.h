// Deterministic fault injection for the elastic runtime.
//
// A FaultPlan is a script of fault events — kill a worker at a time or
// mid-replication, crash and recover the application master (optionally
// pinned to a phase entry), drop or slow a bus link for a bounded window,
// suppress a joining worker's ready report — addressed entirely in simulated
// time. FaultInjector arms a plan against one ElasticJob: link windows
// become a MessageBus fault filter (pure read-only state, so injection adds
// no nondeterminism), and the remaining events become scheduled simulator
// callbacks and job hooks. Everything is derived from the plan and the sim's
// seeded clocks: the same plan against the same job config replays the same
// execution event-for-event, which is what lets a chaos failure be
// reproduced from nothing but a seed (see ChaosRunner).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "elan/job.h"
#include "sim/simulator.h"
#include "transport/bus.h"

namespace elan::fault {

enum class FaultKind {
  /// Fail-stop a worker at `at` (active worker → removed at the next
  /// iteration boundary; joining worker → stranded join).
  kKillWorker,
  /// Arm at `at`: when the next Elan adjustment with a replication phase
  /// begins, kill a replication source at `frac` of the transfer window.
  kKillMidReplication,
  /// Crash the AM at `at` (or on entry to `phase`, if >= 0) and recover it
  /// `duration` later.
  kCrashMaster,
  /// Drop every message matching the endpoint filters during
  /// [`at`, `at`+`duration`] (a network partition).
  kDropLink,
  /// Multiply the latency of matching messages by `factor` during the window
  /// (a congested link / straggling network).
  kSlowLink,
  /// From `at` on, the next launched joining worker finishes starting but
  /// never sends its ready report (hung container).
  kSuppressReport,
};

const char* to_string(FaultKind kind);

struct FaultEvent {
  FaultKind kind{};
  Seconds at = 0;
  /// Window length: AM downtime for kCrashMaster, partition/slowdown window
  /// for the link faults.
  Seconds duration = 0;
  /// Victim worker id for the kill kinds; -1 picks the lowest live id when
  /// the event fires (always deterministic — the sim state at `at` is).
  int target = -1;
  /// kCrashMaster: crash on entry to this AmPhase (cast to int) instead of
  /// at `at`; -1 keeps the purely time-based behaviour.
  int phase = -1;
  /// Link faults match messages whose from/to contain these substrings; an
  /// empty string matches everything (either direction).
  std::string endpoint_a;
  std::string endpoint_b;
  /// kSlowLink latency multiplier.
  double factor = 4.0;
  /// kKillMidReplication: kill at this fraction of the replication window.
  double frac = 0.5;

  std::string describe() const;
};

struct FaultPlan {
  /// Provenance: the generator seed this plan was sampled from (0 for
  /// hand-written plans).
  std::uint64_t seed = 0;
  std::vector<FaultEvent> events;

  std::string describe() const;
};

/// Arms a FaultPlan against one job. The injector chains onto the job's
/// observation hooks (preserving any previously installed ones), installs
/// the bus fault filter, and schedules the time-based events. It must
/// outlive the run; destroying it clears the bus filter.
class FaultInjector {
 public:
  FaultInjector(sim::Simulator& sim, transport::MessageBus& bus, ElasticJob& job);
  ~FaultInjector();

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Installs the plan's hooks and schedules its events. Call once, before
  /// driving the simulator.
  void arm(const FaultPlan& plan);

  // --- Counters for test assertions ----------------------------------------

  int kills() const { return kills_; }
  int master_crashes() const { return master_crashes_; }
  /// Human-readable log of what actually fired, in fire order.
  const std::vector<std::string>& injected() const { return injected_; }

 private:
  /// A drop/slow window, fixed at arm() time. The bus fault filter only ever
  /// reads these (under the bus lock), so injection stays race-free and
  /// deterministic.
  struct LinkWindow {
    Seconds from = 0;
    Seconds until = 0;
    std::string a;
    std::string b;
    bool drop = false;
    double factor = 1.0;
    bool matches(const transport::Message& msg, Seconds now) const;
  };

  sim::Simulator& sim_;
  transport::MessageBus& bus_;
  ElasticJob& job_;

  std::vector<LinkWindow> windows_;
  int suppress_pending_ = 0;
  /// Armed mid-replication kills, consumed by the next replicating
  /// adjustment (fraction of the window at which to kill).
  std::vector<std::pair<double, int>> mid_replication_;
  /// Phase-triggered AM crashes: (phase, downtime), consumed once each.
  std::vector<std::pair<int, Seconds>> phase_crashes_;

  int kills_ = 0;
  int master_crashes_ = 0;
  std::vector<std::string> injected_;

  void fire(const FaultEvent& event);
  void kill(int requested, const char* why);
  void crash_and_recover(Seconds downtime);
  /// Lowest-id active worker that is still alive, or -1.
  int pick_victim() const;
  void record(std::string what);
};

}  // namespace elan::fault
