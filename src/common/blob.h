// Blob: a named, owned byte buffer representing training state.
//
// Model parameters, optimizer state and loader cursors are all carried as
// blobs so that state replication moves real bytes whose integrity tests can
// verify with checksums.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/units.h"

namespace elan {

/// FNV-1a 64-bit checksum.
std::uint64_t fnv1a(std::span<const std::uint8_t> data);

/// Cheap content fingerprint over a byte range: samples at most 64 bytes at a
/// fixed stride. Hot paths (per-chunk replication verification) use this; a
/// full fnv1a scan still guards final correctness.
std::uint64_t quick_fingerprint(std::span<const std::uint8_t> data);

/// XORs the xorshift64* keystream that starts from `state` into `bytes`. The
/// generator steps once per 64-bit word, whose bytes apply in little-endian
/// order on every host; a sub-word tail takes the low bytes of one more
/// word. Blob::fill_pattern and the simulated optimizer step (train/
/// optimizer.h) both run on this one loop.
void xor_keystream(std::span<std::uint8_t> bytes, std::uint64_t state);

class Blob {
 public:
  Blob() = default;
  Blob(std::string name, Bytes size) : name_(std::move(name)), data_(size, 0) {}
  Blob(std::string name, std::vector<std::uint8_t> data)
      : name_(std::move(name)), data_(std::move(data)) {}

  const std::string& name() const { return name_; }
  Bytes size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  std::span<const std::uint8_t> bytes() const { return data_; }
  std::span<std::uint8_t> mutable_bytes() { return data_; }

  std::uint64_t checksum() const { return fnv1a(data_); }

  /// Cheap content fingerprint: samples at most 64 bytes at a fixed stride.
  /// Used on hot paths where a full checksum scan would dominate runtime;
  /// replication correctness still uses the full checksum.
  std::uint64_t quick_fingerprint() const;

  /// Fills the blob with a deterministic pattern derived from `seed`; used to
  /// make replication correctness observable.
  void fill_pattern(std::uint64_t seed);

  /// Overwrites this blob's contents with `other`'s (sizes must match).
  void copy_from(const Blob& other);

  bool operator==(const Blob& other) const {
    return name_ == other.name_ && data_ == other.data_;
  }

 private:
  std::string name_;
  std::vector<std::uint8_t> data_;
};

}  // namespace elan
