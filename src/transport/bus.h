// In-simulation message bus with ZeroMQ-like semantics.
//
// The raw bus is *unreliable*: messages take latency proportional to their
// size on the control (Ethernet) network, can be dropped by fault injection,
// and are silently lost when the destination endpoint is disconnected.
// ReliableEndpoint layers unique message ids, acknowledgements, timeouts and
// resends on top — exactly the fault-tolerance story of paper §V-D. Both are
// written against the RawTransport seam (transport/transport.h), so the same
// ReliableEndpoint (and everything above it) also runs over the socket
// backend.
//
// Thread safety: both classes are fully thread-safe — send / attach / detach
// and the stats accessors may race freely (the §V-B coordination loop runs
// off the training thread). Handlers are invoked on the simulator's driver
// thread with *no* transport lock held, so a handler may call back into the
// bus or endpoint without creating a lock cycle. Lock order (enforced by the
// elan::Mutex order detector): reliable_endpoint -> message_bus -> simulator.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/flat_hash.h"
#include "common/rng.h"
#include "common/sync.h"
#include "common/units.h"
#include "sim/simulator.h"
#include "topology/bandwidth.h"
#include "transport/message.h"
#include "transport/transport.h"

namespace elan::transport {

struct BusParams {
  /// Probability that any given (non-injected) message is lost in flight.
  double drop_probability = 0.0;
  /// Extra random latency jitter as a fraction of base latency.
  double jitter_fraction = 0.1;
  std::uint64_t seed = 7;
};

/// Verdict of a fault filter for one message (see set_fault_filter).
struct FaultDecision {
  bool drop = false;
  /// Multiplies the base latency (>1 models a slow / congested link).
  double latency_factor = 1.0;
};

/// Admission-time fault hook: called for every message under the bus lock,
/// so implementations must not call back into the bus or simulator — they
/// may only consult their own (leaf-locked) state. src/fault/FaultInjector
/// is the canonical implementation (partitions, drop windows, slow links).
using FaultFilter = std::function<FaultDecision(const Message&, Seconds now)>;

class MessageBus final : public RawTransport {
 public:
  using Handler = RawTransport::Handler;

  MessageBus(sim::Simulator& simulator, const topo::BandwidthModel& bandwidth,
             BusParams params = {});

  void attach(const std::string& name, Handler handler) override;
  void detach(const std::string& name) override;

  bool attached(const std::string& name) const override {
    MutexLock lock(mu_);
    return handlers_.count(name) > 0;
  }

  MessageId send(Message msg) override;

  MessageId allocate_id() override {
    MutexLock lock(mu_);
    return next_id_++;
  }

  /// Timers run on the simulator's virtual clock (TimerId == sim::EventId).
  TimerId schedule_after(Seconds delay, std::function<void()> fn) override {
    return sim_.schedule(delay, std::move(fn));
  }
  void cancel_timer(TimerId id) override { sim_.cancel(id); }

  TransportOptions default_options() const override {
    return TransportOptions::sim_defaults();
  }

  /// Latency the bus would charge for a message of `payload_bytes`.
  Seconds message_latency(Bytes payload_bytes) const;

  BusStats stats() const override {
    MutexLock lock(mu_);
    return stats_;
  }

  sim::Simulator& simulator() { return sim_; }

  void inject_drops(const std::string& from, int n) override {
    MutexLock lock(mu_);
    forced_drops_[from] += n;
  }

  /// Installs (or clears, with nullptr) the fault filter consulted on every
  /// send. Filtered drops count into stats().dropped.
  void set_fault_filter(FaultFilter filter) {
    MutexLock lock(mu_);
    fault_filter_ = std::move(filter);
  }

 private:
  sim::Simulator& sim_;
  const topo::BandwidthModel& bandwidth_;
  const BusParams params_;

  mutable Mutex mu_{"message_bus"};
  Rng rng_ ELAN_GUARDED_BY(mu_);
  MessageId next_id_ ELAN_GUARDED_BY(mu_) = 1;
  std::map<std::string, Handler> handlers_ ELAN_GUARDED_BY(mu_);
  std::map<std::string, int> forced_drops_ ELAN_GUARDED_BY(mu_);
  FaultFilter fault_filter_ ELAN_GUARDED_BY(mu_);
  /// ZeroMQ guarantees per-connection ordering: jitter must not let a later
  /// message between the same (from, to) pair overtake an earlier one.
  std::map<std::pair<std::string, std::string>, Seconds> pair_clock_ ELAN_GUARDED_BY(mu_);
  BusStats stats_ ELAN_GUARDED_BY(mu_);

  void deliver(const Message& msg);
};

/// Reliable messaging endpoint: unique ids, ack, timeout-based resend and
/// receiver-side de-duplication, over any RawTransport backend. Thread-safe
/// (see the file comment); the application handler runs with no endpoint
/// lock held. When constructed without explicit options it adopts the
/// backend's default_options(), so the same construction works in virtual
/// and wall-clock time.
class ReliableEndpoint {
 public:
  using Handler = std::function<void(const Message&)>;
  using Params = TransportOptions;

  ReliableEndpoint(RawTransport& bus, std::string name, Handler handler,
                   std::optional<TransportOptions> params = std::nullopt);
  ~ReliableEndpoint();

  ReliableEndpoint(const ReliableEndpoint&) = delete;
  ReliableEndpoint& operator=(const ReliableEndpoint&) = delete;

  const std::string& name() const { return name_; }

  /// Sends reliably: retries until acked or max_retries exceeded. The
  /// payload is wrapped into shared ownership here, once; retransmits reuse
  /// the same buffer.
  MessageId send(const std::string& to, const std::string& type, Payload payload = {});

  /// Detach from the transport (simulates process death); pending retries stop.
  void shutdown();

  /// Re-attach after shutdown (simulates restart). Duplicate suppression
  /// state is intentionally kept: ids are unique per sending transport, so
  /// (sender, id) stays a stable dedup key across our own restarts.
  void restart();

  std::uint64_t retries() const {
    MutexLock lock(mu_);
    return retries_;
  }
  std::uint64_t gave_up() const {
    MutexLock lock(mu_);
    return gave_up_;
  }

  const TransportOptions& options() const { return params_; }

 private:
  struct Pending {
    Message msg;
    int attempts = 0;
    TimerId timer = 0;
  };

  RawTransport& bus_;
  std::string name_;
  Handler handler_;
  Params params_;

  mutable Mutex mu_{"reliable_endpoint"};
  bool alive_ ELAN_GUARDED_BY(mu_) = false;
  std::map<MessageId, Pending> pending_ ELAN_GUARDED_BY(mu_);
  /// Receiver-side dedup: the ids received from each sender. Ids are only
  /// unique per sending transport instance (with the socket backend every
  /// process allocates its own), so each sender name gets its own set of
  /// full 64-bit ids. Grows with the messages received, about 5-11 bytes
  /// per id (a sender's ids share their high word, so the set keeps 4-byte
  /// low words); nothing is evicted (DESIGN.md §5l).
  std::map<std::string, FlatSet64> seen_ ELAN_GUARDED_BY(mu_);
  std::uint64_t retries_ ELAN_GUARDED_BY(mu_) = 0;
  std::uint64_t gave_up_ ELAN_GUARDED_BY(mu_) = 0;
  // Guards callbacks that may fire after destruction.
  std::shared_ptr<std::atomic<bool>> alive_token_ =
      std::make_shared<std::atomic<bool>>(true);

  void on_raw(const Message& msg);
  void transmit(MessageId id) ELAN_REQUIRES(mu_);
  void arm_timer(MessageId id) ELAN_REQUIRES(mu_);
};

}  // namespace elan::transport
