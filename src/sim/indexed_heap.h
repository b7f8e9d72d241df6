// Index-tracked d-ary heap with stable handles and O(log n) in-place erase.
//
// This is the ordering core behind sim::Simulator, its one user (the
// scheduler's waterfill picks its grants from a winner tree instead;
// sched/allocation.h). Structure-of-arrays, no hashing, no per-node
// allocation:
//
//   prios_   d-ary-heap-ordered priorities, contiguous — the only lane sift
//            comparisons read, so a 4-ary child group of 16-byte keys is a
//            single cache line.
//   pslot_   the slot id stored at each heap position (moved alongside
//            prios_ entries).
//   values_  payload arena indexed by slot; stable across sifts, touched
//            only on push/pop/erase, so a fat closure never moves during
//            reordering.
//   meta_    per-slot (generation << 32 | heap position). The position half
//            is the back-pointer that makes erase/update O(log n) in-place
//            operations instead of tombstones; the generation half makes
//            stale handles detectable in one load.
//
// A Handle encodes (generation, slot): handles to popped or erased elements
// go stale by generation bump, so cancel-after-fire is a safe no-op and
// slots are recycled through a free list without unbounded growth in any
// array. The payload is destroyed eagerly on pop/erase (a lingering closure
// would pin its captures until slot reuse).
//
// The d-ary layout (default d = 4) trades a few extra comparisons per level
// for half the levels, the right trade once queues reach the 10^5-10^6
// pending events the cluster-scale benchmarks drive; sift_down additionally
// prefetches the grandchild block so the next level's cache lines are in
// flight while the current group is compared.
//
// Ordering: `Before(a, b)` is a strict weak order meaning "a must surface
// before b". Because the caller provides a *total* order (the simulator
// keys on (time, seq)), pop order is independent of the internal array
// layout — the arity is a pure structural perturbation, which is exactly
// what the determinism guardrail in tests/fault_test.cpp exploits (see
// Simulator::set_test_layout_hint).
//
// Not thread-safe; the owner synchronises (the simulator holds its mutex).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.h"

namespace elan::sim {

template <typename Priority, typename T, typename Before>
class IndexedHeap {
 public:
  /// Stable identifier for a pushed element; never 0, never equal for two
  /// simultaneously-live elements, and never revived once its element is
  /// popped or erased.
  using Handle = std::uint64_t;

  explicit IndexedHeap(unsigned arity = 4) : arity_(arity) {
    require(arity_ >= 2 && arity_ <= 8, "IndexedHeap: arity must be in [2, 8]");
  }

  std::size_t size() const { return prios_.size(); }
  bool empty() const { return prios_.empty(); }
  unsigned arity() const { return arity_; }

  void reserve(std::size_t n) {
    prios_.reserve(n);
    pslot_.reserve(n);
    values_.reserve(n);
    meta_.reserve(n);
  }

  Handle push(Priority prio, T value) {
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      ELAN_CHECK(values_.size() < kMaxSlots, "IndexedHeap: slot space exhausted");
      slot = static_cast<std::uint32_t>(values_.size());
      values_.emplace_back();
      meta_.push_back(0);
    }
    values_[slot] = std::move(value);
    const auto pos = prios_.size();
    prios_.push_back(std::move(prio));
    pslot_.push_back(slot);
    set_pos(slot, pos);
    sift_up(pos);
    return make_handle(generation(slot), slot);
  }

  bool contains(Handle h) const { return lookup(h) >= 0; }

  const Priority& top_priority() const {
    ELAN_CHECK(!prios_.empty(), "IndexedHeap: top of empty heap");
    return prios_.front();
  }
  Handle top_handle() const {
    ELAN_CHECK(!prios_.empty(), "IndexedHeap: top of empty heap");
    const std::uint32_t slot = pslot_.front();
    return make_handle(generation(slot), slot);
  }
  const T& top_value() const {
    ELAN_CHECK(!prios_.empty(), "IndexedHeap: top of empty heap");
    return values_[pslot_.front()];
  }

  /// Removes and returns the front element's value (optionally its priority
  /// and handle).
  T pop(Priority* prio = nullptr, Handle* handle = nullptr) {
    ELAN_CHECK(!prios_.empty(), "IndexedHeap: pop of empty heap");
    const std::uint32_t slot = pslot_.front();
    if (prio != nullptr) *prio = prios_.front();
    if (handle != nullptr) *handle = make_handle(generation(slot), slot);
    T out = std::move(values_[slot]);
    release_slot(slot);
    remove_entry(0);
    return out;
  }

  /// Removes the element `h` in place — O(log n), no tombstone. Returns
  /// false when the handle is unknown (already popped or erased).
  bool erase(Handle h) {
    const std::int64_t slot = lookup(h);
    if (slot < 0) return false;
    const std::size_t pos = position(static_cast<std::uint32_t>(slot));
    release_slot(static_cast<std::uint32_t>(slot));
    remove_entry(pos);
    return true;
  }

  /// Re-prioritises element `h` in place. Returns false when unknown.
  bool update(Handle h, Priority prio) {
    const std::int64_t slot = lookup(h);
    if (slot < 0) return false;
    const std::size_t pos = position(static_cast<std::uint32_t>(slot));
    // The old value tells us which direction can be violated; before
    // delegating to a sift we check that direction's single invariant in
    // place, so the common case — a retransmit timer re-armed later while
    // already at a leaf — reads and writes only the priority lane (the
    // slot's meta word stays clean and pslot_ is never touched).
    const bool up = before_(prio, prios_[pos]);
    prios_[pos] = std::move(prio);
    if (up) {
      if (pos > 0 && before_(prios_[pos], prios_[(pos - 1) / arity_])) {
        sift_up(pos);
      }
    } else {
      const std::size_t n = prios_.size();
      const std::size_t first = pos * arity_ + 1;
      if (first < n) {
        const std::size_t last = std::min(first + arity_, n);
        std::size_t best = first;
        for (std::size_t c = first + 1; c < last; ++c) {
          if (before_(prios_[c], prios_[best])) best = c;
        }
        if (before_(prios_[best], prios_[pos])) sift_down(pos);
      }
    }
    return true;
  }

  void clear() {
    prios_.clear();
    pslot_.clear();
    values_.clear();
    meta_.clear();
    free_.clear();
  }

 private:
  static constexpr std::size_t kMaxSlots = (std::size_t{1} << 32) - 2;
  // Position half of meta_ for slots on the free list; no live slot can hold
  // it (kMaxSlots bounds heap positions below it).
  static constexpr std::uint32_t kFreedPos = 0xffffffffu;

  // Slot is offset by 1 in the handle so no valid handle is ever 0.
  static Handle make_handle(std::uint32_t generation, std::uint32_t slot) {
    return (static_cast<Handle>(generation) << 32) |
           (static_cast<Handle>(slot) + 1);
  }

  std::uint32_t generation(std::uint32_t slot) const {
    return static_cast<std::uint32_t>(meta_[slot] >> 32);
  }
  std::size_t position(std::uint32_t slot) const {
    return static_cast<std::uint32_t>(meta_[slot]);
  }
  void set_pos(std::uint32_t slot, std::size_t pos) {
    meta_[slot] = (meta_[slot] & 0xffffffff00000000ULL) |
                  static_cast<std::uint32_t>(pos);
  }

  /// Slot index for a live handle, or -1 when stale/unknown.
  std::int64_t lookup(Handle h) const {
    const std::uint64_t biased = h & 0xffffffffULL;
    if (biased == 0 || biased > values_.size()) return -1;
    const auto slot = static_cast<std::uint32_t>(biased - 1);
    // The generation is bumped the moment a slot is released, so a match
    // implies the slot is live and its position half is current.
    if (generation(slot) != static_cast<std::uint32_t>(h >> 32)) return -1;
    return slot;
  }

  /// Destroys the payload and retires the slot's generation so outstanding
  /// handles to it go stale.
  void release_slot(std::uint32_t slot) {
    values_[slot] = T{};
    meta_[slot] = (static_cast<std::uint64_t>(generation(slot) + 1) << 32) |
                  kFreedPos;
    free_.push_back(slot);
  }

  /// Removes heap position `pos` by swapping in the last entry and
  /// reseating it.
  void remove_entry(std::size_t pos) {
    const std::size_t last = prios_.size() - 1;
    if (pos != last) {
      prios_[pos] = std::move(prios_[last]);
      pslot_[pos] = pslot_[last];
      set_pos(pslot_[pos], pos);
    }
    prios_.pop_back();
    pslot_.pop_back();
    if (pos < prios_.size()) reseat(pos);
  }

  void sift_up(std::size_t i) {
    Priority p = std::move(prios_[i]);
    const std::uint32_t s = pslot_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / arity_;
      if (!before_(p, prios_[parent])) break;
      prios_[i] = std::move(prios_[parent]);
      pslot_[i] = pslot_[parent];
      set_pos(pslot_[i], i);
      i = parent;
    }
    prios_[i] = std::move(p);
    pslot_[i] = s;
    set_pos(s, i);
  }

  void sift_down(std::size_t i) {
    const std::size_t n = prios_.size();
    Priority p = std::move(prios_[i]);
    const std::uint32_t s = pslot_[i];
    for (;;) {
      const std::size_t first = i * arity_ + 1;
      if (first >= n) break;
      const std::size_t last = std::min(first + arity_, n);
      // Request the grandchild block now so whichever child wins, the next
      // level's lines are already in flight when we descend.
      const std::size_t gfirst = first * arity_ + 1;
      if (gfirst < n) {
        const char* base = reinterpret_cast<const char*>(prios_.data() + gfirst);
        const unsigned span = arity_ * arity_ * static_cast<unsigned>(sizeof(Priority));
        for (unsigned b = 0; b < span; b += 64) __builtin_prefetch(base + b);
      }
      std::size_t best = first;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (before_(prios_[c], prios_[best])) best = c;
      }
      if (!before_(prios_[best], p)) break;
      prios_[i] = std::move(prios_[best]);
      pslot_[i] = pslot_[best];
      set_pos(pslot_[i], i);
      i = best;
    }
    prios_[i] = std::move(p);
    pslot_[i] = s;
    set_pos(s, i);
  }

  /// Restores the heap property at `pos` in whichever direction it is
  /// violated.
  void reseat(std::size_t pos) {
    if (pos > 0 && before_(prios_[pos], prios_[(pos - 1) / arity_])) {
      sift_up(pos);
    } else {
      sift_down(pos);
    }
  }

  std::vector<Priority> prios_;        // heap-ordered priority lane
  std::vector<std::uint32_t> pslot_;   // slot id at each heap position
  std::vector<T> values_;              // payload arena, indexed by slot
  std::vector<std::uint64_t> meta_;    // per slot: generation << 32 | position
  std::vector<std::uint32_t> free_;
  unsigned arity_;
  Before before_{};
};

}  // namespace elan::sim
