#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace elan::sim {

EventId Simulator::schedule(Seconds delay, Callback fn) {
  require(delay >= 0.0 && std::isfinite(delay), "Simulator::schedule: bad delay");
  require(static_cast<bool>(fn), "Simulator::schedule: empty callback");
  MutexLock lock(mu_);
  return push(now_ + delay, std::move(fn));
}

EventId Simulator::schedule_at(Seconds when, Callback fn) {
  require(static_cast<bool>(fn), "Simulator::schedule_at: empty callback");
  MutexLock lock(mu_);
  require(when >= now_, "Simulator::schedule_at: time in the past");
  return push(when, std::move(fn));
}

EventId Simulator::schedule_no_earlier(Seconds when, Callback fn) {
  require(static_cast<bool>(fn), "Simulator::schedule_no_earlier: empty callback");
  MutexLock lock(mu_);
  return push(std::max(when, now_), std::move(fn));
}

bool Simulator::cancel(EventId id) {
  Callback cancelled;  // destroyed after the lock is released
  {
    MutexLock lock(mu_);
    const std::uint64_t slot = (id & 0xffffffffu) - 1;  // id 0 wraps past every slot
    if (slot >= slots_.size() || slots_[slot].generation != id >> 32) return false;
    cancelled = remove(slots_[slot].pos);
  }
  return true;
}

bool Simulator::step() {
  Callback fn;
  {
    MutexLock lock(mu_);
    fn = pop_due(std::numeric_limits<Seconds>::infinity());
  }
  if (!fn) return false;
  // The callback runs with no simulator lock held: it may freely call
  // schedule / cancel / now (and components locking their own mutexes keep
  // the lock-order graph acyclic — nothing is ever locked *around* step()).
  fn();
  return true;
}

Seconds Simulator::run() {
  while (step()) {
  }
  return now();
}

bool Simulator::run_bounded(std::uint64_t max_events) {
  for (std::uint64_t i = 0; i < max_events; ++i) {
    if (!step()) return true;
  }
  MutexLock lock(mu_);
  return heap_.empty();
}

Seconds Simulator::run_until(Seconds deadline) {
  {
    MutexLock lock(mu_);
    require(deadline >= now_, "Simulator::run_until: deadline in the past");
  }
  for (;;) {
    // Deadline check and pop under one lock acquisition; the callback still
    // runs with no lock held (see step()).
    Callback fn;
    {
      MutexLock lock(mu_);
      fn = pop_due(deadline);
      if (!fn) {
        // Advance to the deadline in the same critical section as the
        // emptiness check: a concurrent schedule() between a bare break and
        // a separate advance could land an event before the deadline, and
        // popping it later would move time backwards.
        now_ = std::max(now_, deadline);
        return now_;
      }
    }
    fn();
  }
}

EventId Simulator::push(Seconds time, Callback fn) {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    // Slot + 1 must fit the id's low 32 bits.
    ELAN_CHECK(slots_.size() < 0xffffffffu, "Simulator: event slots exhausted");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[slot].fn = std::move(fn);
  heap_.emplace_back();
  sift_up(heap_.size() - 1, Entry{time, next_seq_++, slot});
  return (EventId{slots_[slot].generation} << 32) | (EventId{slot} + 1);
}

Simulator::Callback Simulator::pop_due(Seconds deadline) {
  if (heap_.empty() || heap_.front().time > deadline) return {};
  ELAN_CHECK(heap_.front().time >= now_, "Simulator: time went backwards");
  now_ = heap_.front().time;
  ++executed_;
  return remove(0);
}

Simulator::Callback Simulator::remove(std::size_t pos) {
  const std::uint32_t slot = heap_[pos].slot;
  Callback fn = std::exchange(slots_[slot].fn, nullptr);
  ++slots_[slot].generation;
  free_slots_.push_back(slot);
  const Entry last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) {
    if (pos > 0 && last.before(heap_[(pos - 1) / 2])) {
      sift_up(pos, last);
    } else {
      sift_down(pos, last);
    }
  }
  return fn;
}

void Simulator::sift_up(std::size_t pos, Entry entry) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!entry.before(heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, entry);
}

void Simulator::sift_down(std::size_t pos, Entry entry) {
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_[child + 1].before(heap_[child])) ++child;
    if (!heap_[child].before(entry)) break;
    place(pos, heap_[child]);
    pos = child;
  }
  place(pos, entry);
}

}  // namespace elan::sim
