#include "common/blob.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/error.h"

namespace elan {

std::uint64_t fnv1a(std::span<const std::uint8_t> data) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::uint8_t b : data) {
    hash ^= b;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t quick_fingerprint(std::span<const std::uint8_t> data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  if (data.empty()) return h;
  const std::size_t stride = std::max<std::size_t>(1, data.size() / 64);
  for (std::size_t i = 0; i < data.size(); i += stride) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t Blob::quick_fingerprint() const { return elan::quick_fingerprint(data_); }

void xor_keystream(std::span<std::uint8_t> bytes, std::uint64_t state) {
  // xorshift64*: cheap yet seed-sensitive. One state step per 64-bit word.
  const auto next = [&state] {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545f4914f6cdd1dULL;
  };
  std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    std::uint64_t key = next();
    if constexpr (std::endian::native == std::endian::big) key = __builtin_bswap64(key);
    word ^= key;
    std::memcpy(p, &word, 8);
  }
  if (n > 0) {
    const std::uint64_t key = next();
    for (std::size_t i = 0; i < n; ++i) p[i] ^= static_cast<std::uint8_t>(key >> (8 * i));
  }
}

void Blob::fill_pattern(std::uint64_t seed) {
  std::fill(data_.begin(), data_.end(), std::uint8_t{0});
  xor_keystream(data_, seed ^ 0x9e3779b97f4a7c15ULL);
}

void Blob::copy_from(const Blob& other) {
  ELAN_REQUIRE(data_.size() == other.data_.size(),
               "Blob::copy_from size mismatch: " + name_ + " <- " + other.name_);
  data_ = other.data_;
}

}  // namespace elan
