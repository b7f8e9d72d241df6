// Control-plane message payloads (AM <-> workers, scheduler and launcher).
//
// Each message names its wire type (`kWireType`) and its fields
// (`wire_fields`) once; the wire codec (common/serialize.h, DESIGN.md §5n)
// derives the bytes. send_message and dispatch_message below are the only
// places a type name meets a payload. Payloads round-trip through bytes even
// in one process, so the protocol stays honest (and message sizes drive
// control-network latency).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/log.h"
#include "common/serialize.h"
#include "obs/flight.h"
#include "topology/topology.h"
#include "transport/message.h"

namespace elan {

/// Types of resource adjustments (Table III service API).
enum class AdjustmentType { kScaleOut, kScaleIn, kMigrate };

const char* to_string(AdjustmentType type);
constexpr AdjustmentType wire_max(AdjustmentType) { return AdjustmentType::kMigrate; }

/// The AM's state-machine phase (persisted in AmRecord, reported in
/// StatusReplyMsg).
enum class AmPhase {
  kSteady = 0,       // no pending adjustment
  kWaitingReady = 1, // adjustment requested; waiting for new workers' reports
  kReady = 2,        // all reports in; instruct at the next coordination
  kAdjusting = 3,    // adjustment instructed; waiting for completion
};

const char* to_string(AmPhase phase);
constexpr AmPhase wire_max(AmPhase) { return AmPhase::kAdjusting; }

/// A pending resource adjustment tracked by the AM.
struct AdjustmentPlan {
  std::uint64_t version = 0;
  AdjustmentType type = AdjustmentType::kScaleOut;
  /// New workers to join: worker id -> GPU.
  std::map<int, topo::GpuId> join;
  /// Existing workers to remove.
  std::vector<int> leave;

  static auto wire_fields(auto& m) { return std::tie(m.version, m.type, m.join, m.leave); }

  bool operator==(const AdjustmentPlan&) const = default;
};

/// Worker -> AM: "I started, initialised, and can join the training."
struct ReportMsg {
  static constexpr std::string_view kWireType = "report";
  int worker = -1;
  topo::GpuId gpu = -1;

  static auto wire_fields(auto& m) { return std::tie(m.worker, m.gpu); }
};

/// Worker -> AM at coordination intervals.
struct CoordinateMsg {
  static constexpr std::string_view kWireType = "coordinate";
  int worker = -1;
  std::uint64_t iteration = 0;

  static auto wire_fields(auto& m) { return std::tie(m.worker, m.iteration); }
};

/// AM -> worker: coordination decision. When `adjust` is set the payload
/// carries the full plan so workers act on a consistent view.
struct DecisionMsg {
  static constexpr std::string_view kWireType = "decision";
  bool adjust = false;
  std::uint64_t iteration = 0;  // echo of the coordination iteration
  AdjustmentPlan plan;          // meaningful only when adjust == true

  static auto wire_fields(auto& m) { return std::tie(m.adjust, m.iteration, m.plan); }
};

/// Scheduler -> AM: resource-adjustment request (the Table III service call,
/// step 1 of Fig 2), carried over the control network like everything else.
struct AdjustRequestMsg {
  static constexpr std::string_view kWireType = "adjust_request";
  std::uint64_t request_id = 0;  // correlates the reply
  AdjustmentType type = AdjustmentType::kScaleOut;
  std::vector<topo::GpuId> gpus;  // scale-out targets / migration targets
  std::vector<int> victims;       // scale-in / migration victims

  static auto wire_fields(auto& m) { return std::tie(m.request_id, m.type, m.gpus, m.victims); }
};

/// AM -> scheduler: service reply. On success carries the launch specs the
/// scheduler must start (empty for scale-in).
struct AdjustReplyMsg {
  static constexpr std::string_view kWireType = "adjust_reply";
  std::uint64_t request_id = 0;
  bool ok = false;
  std::string error;
  std::vector<std::pair<int, topo::GpuId>> launch;  // worker id -> GPU

  static auto wire_fields(auto& m) { return std::tie(m.request_id, m.ok, m.error, m.launch); }
};

/// Job runtime / launcher -> AM: the adjustment for `plan_version` finished
/// (replication / repartition done). The wire form of
/// ApplicationMaster::on_adjustment_complete, used when the runtime is a
/// separate process. Idempotent at the AM: stale versions are ignored.
struct AdjustCompleteMsg {
  static constexpr std::string_view kWireType = "adjust_complete";
  std::uint64_t plan_version = 0;
  /// Planned joiners that died between reporting and admission.
  std::vector<int> failed_joins;

  static auto wire_fields(auto& m) { return std::tie(m.plan_version, m.failed_joins); }
};

/// Launcher / runtime -> AM: a running worker fail-stopped (process reaped).
/// Wire form of ApplicationMaster::remove_failed.
struct RemoveFailedMsg {
  static constexpr std::string_view kWireType = "remove_failed";
  int worker = -1;

  static auto wire_fields(auto& m) { return std::tie(m.worker); }
};

/// Any control-plane peer -> AM: introspection poll (the live launcher's
/// steady-state / phase probe).
struct StatusRequestMsg {
  static constexpr std::string_view kWireType = "status";
  std::uint64_t request_id = 0;  // correlates the reply

  static auto wire_fields(auto& m) { return std::tie(m.request_id); }
};

/// AM -> poller: state-machine snapshot.
struct StatusReplyMsg {
  static constexpr std::string_view kWireType = "status_reply";
  std::uint64_t request_id = 0;
  AmPhase phase = AmPhase::kSteady;
  std::uint64_t plan_version = 0;
  std::map<int, topo::GpuId> workers;  // current membership (worker -> GPU)
  std::uint64_t evictions = 0;
  std::uint64_t coordinations = 0;
  std::uint64_t reports = 0;

  static auto wire_fields(auto& m) {
    return std::tie(m.request_id, m.phase, m.plan_version, m.workers, m.evictions,
                    m.coordinations, m.reports);
  }
};

/// Encodes `msg` and sends it through `endpoint` (a ReliableEndpoint or
/// anything with its send signature) under the message's wire type.
template <typename Endpoint, typename M>
auto send_message(Endpoint& endpoint, const std::string& to, const M& msg) {
  return endpoint.send(to, std::string(M::kWireType), wire::encode(msg));
}

namespace detail {

// The message type a handler takes: `[](const DecisionMsg&) {...}` -> DecisionMsg.
template <typename F>
struct HandlerArg : HandlerArg<decltype(&F::operator())> {};
template <typename C, typename M>
struct HandlerArg<void (C::*)(const M&) const> {
  using type = M;
};

template <typename F>
bool dispatch_one(const transport::Message& msg, const std::string& receiver, F& handler) {
  using M = typename HandlerArg<std::remove_cvref_t<F>>::type;
  if (msg.type != M::kWireType) return false;
  M decoded;
  try {  // the handler runs outside: its own errors are not the peer's
    decoded = wire::decode<M>(msg.payload);
  } catch (const InvalidArgument& e) {
    obs::event(obs::FlightEventKind::kMsgMalformed, receiver.c_str(), msg.type.c_str(), msg.id,
               msg.payload.size());
    log_warn() << receiver << ": dropped malformed " << msg.type << " from " << msg.from
               << " (" << e.what() << ")";
    return true;
  }
  handler(decoded);
  return true;
}

}  // namespace detail

/// Hands `msg` to the one handler whose message type (its argument's
/// kWireType) matches msg.type, decoded. A peer's payload that does not
/// decode is dropped: `receiver` records it as one msg.malformed event and
/// logs a warning, and no handler runs. A type no handler takes is logged
/// and ignored.
template <typename... Handlers>
void dispatch_message(const transport::Message& msg, const std::string& receiver,
                      Handlers&&... handlers) {
  if (!(detail::dispatch_one(msg, receiver, handlers) || ...)) {
    log_warn() << receiver << ": unknown message type " << msg.type;
  }
}

}  // namespace elan
