#include "transport/bus.h"

#include <algorithm>

#include "common/log.h"
#include "obs/flight.h"

namespace elan::transport {

MessageBus::MessageBus(sim::Simulator& simulator, const topo::BandwidthModel& bandwidth,
                       BusParams params)
    : sim_(simulator), bandwidth_(bandwidth), params_(params), rng_(params.seed) {}

void MessageBus::attach(const std::string& name, Handler handler) {
  require(static_cast<bool>(handler), "MessageBus::attach: empty handler");
  MutexLock lock(mu_);
  handlers_[name] = std::move(handler);
}

void MessageBus::detach(const std::string& name) {
  MutexLock lock(mu_);
  handlers_.erase(name);
}

Seconds MessageBus::message_latency(Bytes payload_bytes) const {
  return bandwidth_.control_transfer_time(payload_bytes + 128);  // + framing overhead
}

MessageId MessageBus::send(Message msg) {
  // The whole admission path — id assignment, drop decision, per-pair FIFO
  // clock, scheduling — happens under the bus lock: two racing sends on the
  // same (from, to) stream must enter the simulator queue in the same order
  // their delivery times were assigned, or a tie in deliver_at would let the
  // later message overtake on the simulator's insertion-order tiebreak.
  MutexLock lock(mu_);
  if (msg.id == 0) msg.id = next_id_++;
  ++stats_.sent;

  auto forced = forced_drops_.find(msg.from);
  const bool force_drop = forced != forced_drops_.end() && forced->second > 0;
  if (force_drop) --forced->second;

  // Scripted faults (partitions, drop windows, slow links) see the message
  // before the random loss model does, so their behaviour is seed-exact.
  FaultDecision fault;
  if (fault_filter_) fault = fault_filter_(msg, sim_.now());

  if (force_drop || fault.drop || rng_.chance(params_.drop_probability)) {
    ++stats_.dropped;
    // reason: 0 = forced, 1 = scripted fault, 2 = random loss model.
    obs::event(obs::FlightEventKind::kMsgDrop, msg.from.c_str(), msg.type.c_str(), msg.id,
               force_drop ? 0 : (fault.drop ? 1 : 2));
    log_trace() << "bus: dropped " << msg.type << " " << msg.from << "->" << msg.to;
    return msg.id;
  }

  Seconds latency = message_latency(msg.payload.size());
  latency *= 1.0 + rng_.uniform(0.0, params_.jitter_fraction);
  latency *= std::max(1.0, fault.latency_factor);

  // Per-connection FIFO (ZeroMQ semantics): never deliver before an earlier
  // message on the same (from, to) stream.
  Seconds deliver_at = sim_.now() + latency;
  auto& stream_clock = pair_clock_[{msg.from, msg.to}];
  deliver_at = std::max(deliver_at, stream_clock);
  stream_clock = deliver_at;

  const MessageId id = msg.id;
  obs::event(obs::FlightEventKind::kMsgSend, msg.from.c_str(), msg.type.c_str(), id);
  // A driver on another thread may have run the clock past deliver_at since
  // now() was read above; the message then lands at the new now(). Equal
  // times keep FIFO through the insertion-order tiebreak.
  sim_.schedule_no_earlier(deliver_at,
                           [this, msg = std::move(msg)]() { deliver(msg); });
  return id;
}

void MessageBus::deliver(const Message& msg) {
  Handler handler;
  {
    MutexLock lock(mu_);
    auto it = handlers_.find(msg.to);
    if (it == handlers_.end()) {
      ++stats_.to_unknown;
      obs::event(obs::FlightEventKind::kMsgToUnknown, msg.to.c_str(), msg.type.c_str(), msg.id);
      log_trace() << "bus: no endpoint " << msg.to << " for " << msg.type;
      return;
    }
    ++stats_.delivered;
    obs::event(obs::FlightEventKind::kMsgDeliver, msg.to.c_str(), msg.type.c_str(), msg.id);
    // Copy the handler out: the target may detach (or re-attach a new
    // handler) concurrently, and the handler itself may call back into the
    // bus — it must run with no bus lock held.
    handler = it->second;
  }
  handler(msg);
}

ReliableEndpoint::ReliableEndpoint(RawTransport& bus, std::string name, Handler handler,
                                   std::optional<TransportOptions> params)
    : bus_(bus),
      name_(std::move(name)),
      handler_(std::move(handler)),
      params_(params.value_or(bus.default_options())) {
  require(static_cast<bool>(handler_), "ReliableEndpoint: empty handler");
  restart();
}

ReliableEndpoint::~ReliableEndpoint() {
  alive_token_->store(false);
  shutdown();
}

void ReliableEndpoint::shutdown() {
  std::vector<TimerId> timers;
  {
    MutexLock lock(mu_);
    if (!alive_) return;
    alive_ = false;
    for (auto& [id, p] : pending_) {
      if (p.timer != 0) timers.push_back(p.timer);
    }
    pending_.clear();
  }
  // Outside the endpoint lock: detach locks the transport, cancel locks its
  // timer source; neither needs our state anymore.
  bus_.detach(name_);
  for (TimerId t : timers) bus_.cancel_timer(t);
}

void ReliableEndpoint::restart() {
  {
    MutexLock lock(mu_);
    if (alive_) return;
    alive_ = true;
  }
  bus_.attach(name_, [this](const Message& msg) { on_raw(msg); });
}

MessageId ReliableEndpoint::send(const std::string& to, const std::string& type,
                                 Payload payload) {
  MutexLock lock(mu_);
  ELAN_REQUIRE(alive_, "ReliableEndpoint::send on dead endpoint " + name_);
  Message msg;
  msg.from = name_;
  msg.to = to;
  msg.type = type;
  msg.payload = std::move(payload);
  // Reserve the id without transmitting yet so Pending can record it first.
  msg.id = bus_.allocate_id();
  Pending p;
  p.msg = std::move(msg);
  const MessageId id = p.msg.id;
  pending_.emplace(id, std::move(p));
  transmit(id);
  return id;
}

void ReliableEndpoint::transmit(MessageId id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  ++it->second.attempts;
  if (it->second.attempts > 1) {
    ++retries_;
    obs::event(obs::FlightEventKind::kMsgRetry, name_.c_str(), it->second.msg.type.c_str(), id,
               static_cast<std::uint64_t>(it->second.attempts));
  }
  bus_.send(it->second.msg);
  arm_timer(id);
}

void ReliableEndpoint::arm_timer(MessageId id) {
  auto token = alive_token_;
  auto& p = pending_.at(id);
  // Bounded exponential backoff: attempt n waits ack_timeout * factor^(n-1),
  // capped at max_backoff. A crashed peer restarting minutes later is still
  // reached, while a healthy one costs only the base timeout.
  Seconds wait = params_.ack_timeout;
  for (int i = 1; i < p.attempts && wait < params_.max_backoff; ++i) {
    wait *= params_.backoff_factor;
  }
  wait = std::min(wait, std::max(params_.ack_timeout, params_.max_backoff));
  p.timer = bus_.schedule_after(wait, [this, token, id]() {
    if (!token->load()) return;
    MutexLock lock(mu_);
    auto it = pending_.find(id);
    if (it == pending_.end() || !alive_) return;
    it->second.timer = 0;
    if (it->second.attempts >= params_.max_retries) {
      ++gave_up_;
      obs::event(obs::FlightEventKind::kMsgGaveUp, name_.c_str(), it->second.msg.type.c_str(), id,
                 static_cast<std::uint64_t>(it->second.attempts));
      log_warn() << name_ << ": giving up on message " << id << " to " << it->second.msg.to;
      pending_.erase(it);
      return;
    }
    transmit(id);
  });
}

void ReliableEndpoint::on_raw(const Message& msg) {
  if (msg.is_ack) {
    TimerId timer = 0;
    {
      MutexLock lock(mu_);
      auto it = pending_.find(msg.ack_of);
      if (it != pending_.end()) {
        timer = it->second.timer;
        pending_.erase(it);
      }
    }
    if (timer != 0) bus_.cancel_timer(timer);
    return;
  }

  // Ack everything, including duplicates (the first ack may have been lost).
  Message ack;
  ack.from = name_;
  ack.to = msg.from;
  ack.type = "ack";
  ack.is_ack = true;
  ack.ack_of = msg.id;
  bus_.send(std::move(ack));

  bool fresh = false;
  {
    MutexLock lock(mu_);
    // try_emplace copies the sender's name only the first time it is seen.
    fresh = seen_.try_emplace(msg.from).first->second.insert(msg.id);
  }
  if (!fresh) {
    log_trace() << name_ << ": duplicate message " << msg.id << " suppressed";
    return;
  }
  // The application handler runs with no endpoint lock held: it typically
  // locks its own state (e.g. the application master) and then sends replies
  // back through this endpoint — holding mu_ here would close a lock cycle.
  handler_(msg);
}

}  // namespace elan::transport
