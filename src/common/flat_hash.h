// Open-addressed hash map and set keyed by 64-bit integers.
//
// The scheduler and simulator hot paths hit their memo/index maps millions of
// times per run, and every reliable endpoint checks each received message id
// against its dedup set; std::unordered_map pays a heap allocation per node
// and a pointer chase per probe, and std::map adds a comparison tree on top.
// These tables store their slots inline in one power-of-two array with
// linear probing (the map deletes by backward shift, no tombstones), so a
// hit is typically one or two adjacent cache lines.
//
// Determinism: the tables are never iterated — there is deliberately no
// begin()/end() — so probe layout cannot leak into observable behaviour. The
// hash is a fixed integer mix (splitmix64 finalizer), identical on every
// platform and run.
//
// Not thread-safe; callers synchronise externally (the simulator holds its
// mutex, the cluster simulator is single-threaded, an endpoint holds its
// own lock).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.h"

namespace elan {
namespace detail {

/// splitmix64 finalizer: full avalanche, fixed constants.
inline std::uint64_t flat_hash_mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace detail

/// Maps std::uint64_t keys to V. One key value is reserved as the
/// empty-slot sentinel (all-ones); callers never use it (packed keys in this
/// repo always leave at least one high bit clear, and heap handles count up
/// from 1).
template <typename V>
class FlatMap64 {
 public:
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

  explicit FlatMap64(std::size_t capacity_hint = 16) {
    std::size_t cap = 16;
    while (cap < capacity_hint * 2) cap <<= 1;
    slots_.resize(cap);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() {
    for (auto& s : slots_) s.key = kEmptyKey;
    size_ = 0;
  }

  /// Pointer to the value for `key`, or nullptr when absent.
  V* find(std::uint64_t key) {
    std::size_t i = index_of(key);
    while (slots_[i].key != kEmptyKey) {
      if (slots_[i].key == key) return &slots_[i].value;
      i = (i + 1) & mask();
    }
    return nullptr;
  }
  const V* find(std::uint64_t key) const {
    return const_cast<FlatMap64*>(this)->find(key);
  }

  /// Inserts `key` (which must be absent — memo caches check find() first)
  /// with `value`.
  void insert(std::uint64_t key, V value) {
    ELAN_CHECK(key != kEmptyKey, "FlatMap64: reserved key");
    if ((size_ + 1) * 4 >= slots_.size() * 3) grow();
    std::size_t i = index_of(key);
    while (slots_[i].key != kEmptyKey) {
      ELAN_CHECK(slots_[i].key != key, "FlatMap64: duplicate insert");
      i = (i + 1) & mask();
    }
    slots_[i].key = key;
    slots_[i].value = std::move(value);
    ++size_;
  }

  /// Value reference for `key`, default-constructing it when absent.
  V& operator[](std::uint64_t key) {
    if (V* v = find(key)) return *v;
    insert(key, V{});
    return *find(key);
  }

  /// Removes `key`; returns false when absent. Backward-shift deletion keeps
  /// probe chains intact without tombstones, so load never rots.
  bool erase(std::uint64_t key) {
    std::size_t i = index_of(key);
    while (slots_[i].key != key) {
      if (slots_[i].key == kEmptyKey) return false;
      i = (i + 1) & mask();
    }
    std::size_t hole = i;
    for (;;) {
      i = (i + 1) & mask();
      if (slots_[i].key == kEmptyKey) break;
      const std::size_t home = index_of(slots_[i].key);
      // Move slot i back into the hole unless it already sits within its own
      // probe run strictly after the hole (cyclic distance test).
      if (((i - home) & mask()) >= ((i - hole) & mask())) {
        slots_[hole] = std::move(slots_[i]);
        hole = i;
      }
    }
    slots_[hole].key = kEmptyKey;
    --size_;
    return true;
  }

 private:
  struct Slot {
    std::uint64_t key = kEmptyKey;
    V value{};
  };

  std::size_t mask() const { return slots_.size() - 1; }

  std::size_t index_of(std::uint64_t key) const {
    return static_cast<std::size_t>(detail::flat_hash_mix(key)) & mask();
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.clear();
    slots_.resize(old.size() * 2);
    size_ = 0;
    for (auto& s : old) {
      if (s.key != kEmptyKey) insert(s.key, std::move(s.value));
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

namespace detail {

/// Insert-only open-addressed set of unsigned words; the all-ones word marks
/// an empty slot and is never stored. Starts unallocated; load at most 3/4.
template <typename Word>
class FlatWordSet {
 public:
  static constexpr Word kEmpty = static_cast<Word>(~Word{0});

  std::size_t size() const { return size_; }

  /// Adds `v` (never kEmpty); returns false when it was already present.
  bool insert(Word v) {
    if (slots_.empty()) slots_.assign(8, kEmpty);
    std::size_t i = index_of(v);
    for (; slots_[i] != kEmpty; i = (i + 1) & mask()) {
      if (slots_[i] == v) return false;
    }
    if ((size_ + 1) * 4 > slots_.size() * 3) {
      grow();
      i = free_slot(v);
    }
    slots_[i] = v;
    ++size_;
    return true;
  }

 private:
  std::size_t mask() const { return slots_.size() - 1; }

  std::size_t index_of(Word v) const {
    return static_cast<std::size_t>(flat_hash_mix(v)) & mask();
  }

  /// First empty slot on `v`'s probe run (v is known to be absent).
  std::size_t free_slot(Word v) const {
    std::size_t i = index_of(v);
    while (slots_[i] != kEmpty) i = (i + 1) & mask();
    return i;
  }

  void grow() {
    std::vector<Word> old(slots_.size() * 2, kEmpty);
    old.swap(slots_);
    for (Word v : old) {
      if (v != kEmpty) slots_[free_slot(v)] = v;
    }
  }

  std::vector<Word> slots_;
  std::size_t size_ = 0;
};

}  // namespace detail

/// Insert-only set of std::uint64_t values; any 64-bit pattern is storable
/// (socket-backend message ids start at (pid << 48) ^ ns and may take any
/// bits). Ids from one sender share their high 32 bits, so values whose high
/// word equals the first inserted value's keep only their low word, in
/// 4-byte slots (about 5-11 bytes per value at a load of 3/8 to 3/4). Every
/// other value — another high word, or a low word of all ones, which marks an
/// empty 4-byte slot — goes to a 64-bit side set that stays unallocated
/// until one arrives.
class FlatSet64 {
 public:
  std::size_t size() const {
    return low_.size() + wide_.size() + (has_all_ones_ ? 1 : 0);
  }

  /// Adds `v`; returns false when it was already present.
  bool insert(std::uint64_t v) {
    const auto high = static_cast<std::uint32_t>(v >> 32);
    const auto low = static_cast<std::uint32_t>(v);
    if (!has_high_) {
      high_ = high;
      has_high_ = true;
    }
    if (high == high_ && low != detail::FlatWordSet<std::uint32_t>::kEmpty) {
      return low_.insert(low);
    }
    if (v == detail::FlatWordSet<std::uint64_t>::kEmpty) {
      return !std::exchange(has_all_ones_, true);
    }
    return wide_.insert(v);
  }

 private:
  detail::FlatWordSet<std::uint32_t> low_;   // low words of high_-prefixed values
  detail::FlatWordSet<std::uint64_t> wide_;  // everything else but all-ones
  std::uint32_t high_ = 0;
  bool has_high_ = false;
  bool has_all_ones_ = false;
};

}  // namespace elan
