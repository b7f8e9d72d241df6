#include "sim/simulator.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <utility>

namespace elan::sim {

namespace {
// Shared by every Simulator so the chaos harness's internally-constructed
// instances (ChaosRunner::run_plan builds its own) pick the hint up too.
std::atomic<unsigned> g_test_layout_hint{0};

unsigned effective_arity() {
  const unsigned hint = g_test_layout_hint.load(std::memory_order_relaxed);
  return hint != 0 ? hint : 4;
}
}  // namespace

Simulator::Simulator() : heap_(effective_arity()) {}

void Simulator::set_test_layout_hint(unsigned arity) {
  g_test_layout_hint.store(arity, std::memory_order_relaxed);
}

unsigned Simulator::test_layout_hint() {
  return g_test_layout_hint.load(std::memory_order_relaxed);
}

EventId Simulator::schedule(Seconds delay, Callback fn) {
  require(delay >= 0.0 && std::isfinite(delay), "Simulator::schedule: bad delay");
  require(static_cast<bool>(fn), "Simulator::schedule: empty callback");
  MutexLock lock(mu_);
  return heap_.push(EventKey{now_ + delay, next_seq_++}, std::move(fn));
}

EventId Simulator::schedule_at(Seconds when, Callback fn) {
  require(static_cast<bool>(fn), "Simulator::schedule_at: empty callback");
  MutexLock lock(mu_);
  require(when >= now_, "Simulator::schedule_at: time in the past");
  return heap_.push(EventKey{when, next_seq_++}, std::move(fn));
}

EventId Simulator::schedule_no_earlier(Seconds when, Callback fn) {
  require(static_cast<bool>(fn), "Simulator::schedule_no_earlier: empty callback");
  MutexLock lock(mu_);
  return heap_.push(EventKey{std::max(when, now_), next_seq_++}, std::move(fn));
}

bool Simulator::cancel(EventId id) {
  MutexLock lock(mu_);
  return heap_.erase(id);
}

bool Simulator::reschedule(EventId id, Seconds delay) {
  require(delay >= 0.0 && std::isfinite(delay),
          "Simulator::reschedule: bad delay");
  MutexLock lock(mu_);
  const std::uint64_t seq = next_seq_++;
  if (heap_.update(id, EventKey{now_ + delay, seq})) return true;
  next_seq_ = seq;  // stale id: no event moved, so no sequence consumed
  return false;
}

bool Simulator::step() {
  Callback fn;
  {
    MutexLock lock(mu_);
    if (heap_.empty()) return false;
    EventKey key{};
    fn = heap_.pop(&key);
    ELAN_CHECK(key.time >= now_, "Simulator: time went backwards");
    now_ = key.time;
    ++executed_;
  }
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
      if (heap_.empty() || heap_.top_priority().time > deadline) {
        // Advance to the deadline in the same critical section as the
        // emptiness check: a concurrent schedule() between a bare break and
        // a separate advance could land an event before the deadline, and
        // popping it later would move time backwards.
        now_ = std::max(now_, deadline);
        return now_;
      }
      EventKey key{};
      fn = heap_.pop(&key);
      ELAN_CHECK(key.time >= now_, "Simulator: time went backwards");
      now_ = key.time;
      ++executed_;
    }
    fn();
  }
}

}  // namespace elan::sim
