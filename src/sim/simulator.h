// Discrete-event simulation engine.
//
// All of Elan's timing behaviour (iteration times, transfer times, message
// latencies, process start/init delays) is executed against this virtual
// clock; nothing in the repository sleeps on wall-clock time.
//
// The engine is deliberately minimal: an index-tracked d-ary heap of
// (time, sequence, callback) events (see indexed_heap.h). Components schedule
// closures; determinism comes from the strict (time, insertion-order)
// ordering. Callbacks live inline in the heap and `cancel` removes its event
// in place — the queue never accumulates tombstones, so `pending()` is always
// exactly the heap size, even under cancel-heavy workloads like
// ReliableEndpoint retransmit timers.
//
// Thread safety: schedule / schedule_at / cancel / now / pending may be
// called from any thread (the transport and master layers run off the
// training thread, §V-B). Event *execution* is single-driver: exactly one
// thread at a time may call run / run_until / step. Callbacks execute on the
// driver thread with no simulator lock held, so they are free to schedule
// further events.
#pragma once

#include <cstdint>
#include <functional>

#include "common/error.h"
#include "common/sync.h"
#include "common/units.h"
#include "sim/indexed_heap.h"

namespace elan::sim {

/// Handle used to cancel a scheduled event.
using EventId = std::uint64_t;

class Simulator {
 public:
  using Callback = std::function<void()>;

  Simulator();

  /// Test hook: subsequently-constructed Simulators use `arity` as their
  /// event-heap branching factor (0, the default, keeps the production
  /// arity of 4). Determinism guardrail: nothing observable may depend on
  /// the heap's internal array layout, so chaos fingerprints must be
  /// bit-identical whether the heap is binary (deepest, most sift steps) or
  /// 8-ary (shallowest). tests/fault_test.cpp re-runs the sweep under both
  /// extremes.
  static void set_test_layout_hint(unsigned arity);
  static unsigned test_layout_hint();

  /// Current virtual time in seconds.
  Seconds now() const {
    MutexLock lock(mu_);
    return now_;
  }

  /// Schedules `fn` to run `delay` seconds from now. Returns a handle that
  /// can be passed to `cancel`.
  EventId schedule(Seconds delay, Callback fn);

  /// Schedules `fn` at an absolute virtual time (must be >= now()).
  EventId schedule_at(Seconds when, Callback fn);

  /// Schedules `fn` at max(`when`, now()), reading the clock under the same
  /// lock as the insertion. For a producer off the driver thread whose
  /// `when` derives from an earlier now() that the driver may since have
  /// advanced past; with a single thread it is exactly schedule_at.
  EventId schedule_no_earlier(Seconds when, Callback fn);

  /// Cancels a pending event, removing it from the queue in place (O(log n),
  /// no tombstone). Cancelling an already-fired or unknown event is a no-op
  /// (returns false).
  bool cancel(EventId id);

  /// Re-arms a pending event in place to fire `delay` seconds from now,
  /// keeping its id and callback. Equivalent to cancel(id) followed by
  /// schedule(delay, <same callback>) — it consumes one sequence number, so
  /// event ordering is bit-identical to the two-call spelling — but O(log n)
  /// with no tombstone and no callback reconstruction. The retransmit-timer
  /// refresh primitive (ReliableEndpoint backoff bumps). Returns false when
  /// the event already fired or was cancelled; the caller then schedules
  /// afresh, exactly as with a failed cancel.
  bool reschedule(EventId id, Seconds delay);

  /// Runs until the event queue drains. Returns the final virtual time.
  /// Single-driver (see the file comment).
  Seconds run();

  /// Runs events with time <= `deadline`, then advances now() to `deadline`
  /// if the queue drained earlier. Returns the new now(). Single-driver.
  Seconds run_until(Seconds deadline);

  /// Runs until the queue drains or `max_events` callbacks have executed.
  /// Returns true iff the queue drained — the chaos harness's no-deadlock /
  /// no-livelock invariant (an unbounded retry loop never drains).
  /// Single-driver.
  bool run_bounded(std::uint64_t max_events);

  /// Executes at most one event. Returns false if the queue is empty.
  /// Single-driver.
  bool step();

  /// Number of pending (non-cancelled) events.
  std::size_t pending() const {
    MutexLock lock(mu_);
    return heap_.size();
  }

  /// Number of entries physically in the event heap. With in-place cancel
  /// this always equals pending(); tests pin the two together to catch any
  /// reintroduced tombstone leak.
  std::size_t queue_depth() const {
    MutexLock lock(mu_);
    return heap_.size();
  }

  /// Total events executed so far (for tests / diagnostics).
  std::uint64_t executed() const {
    MutexLock lock(mu_);
    return executed_;
  }

 private:
  // Ordered so that the earliest time (and, for ties, lowest sequence
  // number) fires first — a total order, so pop order cannot depend on the
  // heap's internal layout.
  struct EventKey {
    Seconds time;
    std::uint64_t seq;
  };
  struct EventBefore {
    bool operator()(const EventKey& a, const EventKey& b) const {
      if (a.time != b.time) return a.time < b.time;
      return a.seq < b.seq;
    }
  };

  mutable Mutex mu_{"simulator"};
  Seconds now_ ELAN_GUARDED_BY(mu_) = 0.0;
  std::uint64_t next_seq_ ELAN_GUARDED_BY(mu_) = 0;
  std::uint64_t executed_ ELAN_GUARDED_BY(mu_) = 0;

  // Heap handles double as EventIds: never 0, unique among live events, and
  // stale after the event fires or is cancelled (generation-tagged), so a
  // late cancel can never hit an unrelated newer event.
  IndexedHeap<EventKey, Callback, EventBefore> heap_ ELAN_GUARDED_BY(mu_);
};

}  // namespace elan::sim
