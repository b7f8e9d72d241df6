// Open-addressed set of 64-bit integers: the reliable endpoint's receiver
// dedup set (transport/bus.h), which checks every received message id.
//
// A std::unordered_set pays a heap node per id and a pointer chase per
// probe, and a sender's ids accumulate for the life of the endpoint. This
// set stores its values inline in power-of-two arrays with linear probing
// and no deletion, so an id costs a few bytes and a probe typically touches
// one cache line.
//
// Determinism: the set is never iterated — there is deliberately no
// begin()/end() — so probe layout cannot leak into observable behaviour. The
// hash is a fixed integer mix (splitmix64 finalizer), identical on every
// platform and run.
//
// Not thread-safe; the endpoint holds its own lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace elan {
namespace detail {

/// splitmix64 finalizer: full avalanche, fixed constants.
inline std::uint64_t flat_hash_mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

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
