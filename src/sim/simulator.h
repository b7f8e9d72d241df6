// Discrete-event simulation engine.
//
// All of Elan's timing behaviour (iteration times, transfer times, message
// latencies, process start/init delays) is executed against this virtual
// clock; nothing in the repository sleeps on wall-clock time.
//
// The engine is deliberately minimal: a binary min-heap of (time, sequence)
// keys over an arena of callbacks. Components schedule closures;
// determinism comes from the strict (time, insertion-order) ordering.
// `cancel` removes its event from the heap in place, so the queue never
// holds tombstones and `pending()` is always exactly the heap size, even
// under the traffic it serves: ReliableEndpoint arms a retransmit timer per
// send and cancels nearly every one on the ack.
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
#include <vector>

#include "common/error.h"
#include "common/sync.h"
#include "common/units.h"

namespace elan::sim {

/// Handle used to cancel a scheduled event. Never 0, and never valid again
/// once its event fires or is cancelled.
using EventId = std::uint64_t;

class Simulator {
 public:
  using Callback = std::function<void()>;

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
  /// no tombstone) and destroying its callback. Cancelling an already-fired,
  /// already-cancelled or unknown event is a no-op (returns false). A timer
  /// is re-armed as cancel + schedule.
  bool cancel(EventId id);

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
  // One queued event. The earliest time fires first and, for ties, the
  // lowest sequence number: a total order, so the firing order depends on
  // the schedule calls alone, never on where an entry sits in the heap.
  struct Entry {
    Seconds time;
    std::uint64_t seq;
    std::uint32_t slot;  // its callback's arena slot

    bool before(const Entry& other) const {
      return time < other.time || (time == other.time && seq < other.seq);
    }
  };
  // An arena slot: a queued event's callback and heap position. The
  // generation advances when the event leaves the queue, so its EventId
  // (generation << 32 | slot + 1) goes stale and a late cancel can never
  // hit a newer event that reuses the slot.
  struct Slot {
    Callback fn;
    std::uint32_t pos = 0;
    std::uint32_t generation = 0;
  };

  EventId push(Seconds time, Callback fn) ELAN_REQUIRES(mu_);
  /// Pops the earliest event if it is due by `deadline`, advancing the
  /// clock to it; returns its callback, or an empty one if none is due.
  Callback pop_due(Seconds deadline) ELAN_REQUIRES(mu_);
  /// Takes the heap entry at `pos` out of the queue; returns its callback.
  Callback remove(std::size_t pos) ELAN_REQUIRES(mu_);
  void sift_up(std::size_t pos, Entry entry) ELAN_REQUIRES(mu_);
  void sift_down(std::size_t pos, Entry entry) ELAN_REQUIRES(mu_);
  void place(std::size_t pos, Entry entry) ELAN_REQUIRES(mu_) {
    heap_[pos] = entry;
    slots_[entry.slot].pos = static_cast<std::uint32_t>(pos);
  }

  mutable Mutex mu_{"simulator"};
  Seconds now_ ELAN_GUARDED_BY(mu_) = 0.0;
  std::uint64_t next_seq_ ELAN_GUARDED_BY(mu_) = 0;
  std::uint64_t executed_ ELAN_GUARDED_BY(mu_) = 0;
  std::vector<Entry> heap_ ELAN_GUARDED_BY(mu_);
  std::vector<Slot> slots_ ELAN_GUARDED_BY(mu_);
  std::vector<std::uint32_t> free_slots_ ELAN_GUARDED_BY(mu_);
};

}  // namespace elan::sim
