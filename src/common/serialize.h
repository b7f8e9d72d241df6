// Binary serialisation: the raw little-endian BinaryWriter/BinaryReader, and
// on top of them the wire codec of every control message and persisted
// record (DESIGN.md §5n has the layout rules). A record declares its fields
// once, in wire order, and wire::encode / wire::decode derive both ways:
//
//   static auto wire_fields(auto& self) { return std::tie(self.a, self.b); }
//
// Unordered containers have no encoding, so hash order can never reach the
// wire. Decoding rejects malformed bytes with InvalidArgument, before
// allocating for a count the bytes left cannot hold.
#pragma once

#include <concepts>
#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/blob.h"
#include "common/error.h"

namespace elan {

class BinaryWriter {
 public:
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void write(const T& value) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
    buffer_.insert(buffer_.end(), p, p + sizeof(T));
  }

  void write_string(const std::string& s) {
    write<std::uint64_t>(s.size());
    buffer_.insert(buffer_.end(), s.begin(), s.end());
  }

  void write_bytes(std::span<const std::uint8_t> data) {
    write<std::uint64_t>(data.size());
    buffer_.insert(buffer_.end(), data.begin(), data.end());
  }

  /// Overwrites what was written at `offset` (a length prefix, once known).
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void overwrite(std::size_t offset, const T& value) {
    std::memcpy(buffer_.data() + offset, &value, sizeof(T));
  }

  std::size_t size() const { return buffer_.size(); }
  const std::vector<std::uint8_t>& buffer() const { return buffer_; }
  std::vector<std::uint8_t> take() { return std::move(buffer_); }

 private:
  std::vector<std::uint8_t> buffer_;
};

/// Reads what a BinaryWriter wrote. The bytes may be a peer's, so reading
/// past the end, a bool byte other than 0/1 and a count larger than the
/// bytes left all throw InvalidArgument.
class BinaryReader {
 public:
  explicit BinaryReader(std::span<const std::uint8_t> data) : data_(data) {}

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T read() {
    require(sizeof(T) <= remaining(), "BinaryReader: out of data");
    if constexpr (std::is_same_v<T, bool>) {
      const std::uint8_t byte = data_[pos_++];
      require(byte <= 1, "BinaryReader: bool byte is neither 0 nor 1");
      return byte == 1;
    } else {
      T value;
      std::memcpy(&value, data_.data() + pos_, sizeof(T));
      pos_ += sizeof(T);
      return value;
    }
  }

  /// A u64 count of items that take at least a byte each.
  std::uint64_t read_count() {
    const auto count = read<std::uint64_t>();
    require(count <= remaining(), "BinaryReader: count exceeds the bytes left");
    return count;
  }

  std::span<const std::uint8_t> read_span(std::size_t n) {
    require(n <= remaining(), "BinaryReader: out of data");
    const auto span = data_.subspan(pos_, n);
    pos_ += n;
    return span;
  }

  std::string read_string() {
    const auto span = read_span(read_count());
    return std::string(reinterpret_cast<const char*>(span.data()), span.size());
  }

  std::vector<std::uint8_t> read_bytes() {
    const auto span = read_span(read_count());
    return std::vector<std::uint8_t>(span.begin(), span.end());
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return pos_ == data_.size(); }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

namespace wire {

template <typename T>
concept Record = requires(T& value) { T::wire_fields(value); };

template <typename T>
concept Row = Record<T> && requires { requires T::kWireRow; };

template <typename E>
concept Enum = std::is_enum_v<E> && requires(E e) {
  { wire_max(e) } -> std::same_as<E>;
};

namespace detail {

// The ordered containers (a u64 count, then the elements), with the element
// type their decoder builds.
template <typename C>
struct Sequence : std::false_type {};
template <typename T>
struct Sequence<std::vector<T>> : std::true_type { using Element = T; };
template <typename T>
struct Sequence<std::set<T>> : std::true_type { using Element = T; };
template <typename K, typename V>
struct Sequence<std::map<K, V>> : std::true_type { using Element = std::pair<K, V>; };

// Static members of one struct, so every overload sees all the others.
struct Codec {
  template <Record T>
  static void put_fields(BinaryWriter& w, const T& value) {
    std::apply([&](const auto&... field) { (put(w, field), ...); }, T::wire_fields(value));
  }
  template <Record T>
  static void get_fields(BinaryReader& r, T& value) {
    std::apply([&](auto&... field) { (get(r, field), ...); }, T::wire_fields(value));
  }

  // Scalars: their raw bytes (a bool one byte, 0 or 1).
  template <typename T>
    requires std::is_arithmetic_v<T>
  static void put(BinaryWriter& w, T value) { w.write(value); }
  template <typename T>
    requires std::is_arithmetic_v<T>
  static void get(BinaryReader& r, T& value) { value = r.read<T>(); }

  // Enums: one byte, at most the enum's wire_max.
  template <Enum E>
  static void put(BinaryWriter& w, E value) {
    static_assert(static_cast<std::uint64_t>(wire_max(E{})) <= 0xff, "wire enums are one byte");
    w.write(static_cast<std::uint8_t>(value));
  }
  template <Enum E>
  static void get(BinaryReader& r, E& value) {
    const auto byte = r.read<std::uint8_t>();
    require(byte <= static_cast<std::uint8_t>(wire_max(E{})), "wire: enum value out of range");
    value = static_cast<E>(byte);
  }

  static void put(BinaryWriter& w, const std::string& value) { w.write_string(value); }
  static void get(BinaryReader& r, std::string& value) { value = r.read_string(); }

  template <typename A, typename B>
  static void put(BinaryWriter& w, const std::pair<A, B>& value) {
    put(w, value.first);
    put(w, value.second);
  }
  template <typename A, typename B>
  static void get(BinaryReader& r, std::pair<A, B>& value) {
    get(r, value.first);
    get(r, value.second);
  }

  template <typename C>
    requires Sequence<C>::value
  static void put(BinaryWriter& w, const C& items) {
    w.write<std::uint64_t>(items.size());
    for (const auto& item : items) put(w, item);
  }
  template <typename C>
    requires Sequence<C>::value
  static void get(BinaryReader& r, C& items) {
    items.clear();
    for (auto n = r.read_count(); n > 0; --n) {
      typename Sequence<C>::Element item{};
      get(r, item);
      items.insert(items.end(), std::move(item));
    }
  }

  // A named blob (StateSnapshot's map entries): its bytes; decoded, it is
  // named after its key.
  static void put(BinaryWriter& w, const Blob& blob) { w.write_bytes(blob.bytes()); }
  static void get(BinaryReader& r, std::pair<std::string, Blob>& entry) {
    get(r, entry.first);
    entry.second = Blob(entry.first, r.read_bytes());
  }

  // A nested record: a u64 byte length, then its fields; a row inline.
  template <Record T>
  static void put(BinaryWriter& w, const T& value) {
    if constexpr (Row<T>) {
      put_fields(w, value);
    } else {
      const std::size_t length_at = w.size();
      w.write<std::uint64_t>(0);
      put_fields(w, value);
      w.overwrite<std::uint64_t>(length_at, w.size() - length_at - sizeof(std::uint64_t));
    }
  }
  template <Record T>
  static void get(BinaryReader& r, T& value) {
    if constexpr (Row<T>) {
      get_fields(r, value);
    } else {
      BinaryReader nested(r.read_span(r.read_count()));
      get_fields(nested, value);
      require(nested.exhausted(), "wire: trailing bytes in a nested record");
    }
  }
};

}  // namespace detail

/// The fields of `value`, in list order (a top-level record has no length
/// prefix).
template <Record T>
std::vector<std::uint8_t> encode(const T& value) {
  BinaryWriter w;
  detail::Codec::put_fields(w, value);
  return w.take();
}

/// The record `bytes` hold; throws InvalidArgument unless they are exactly
/// one well-formed T.
template <Record T>
T decode(std::span<const std::uint8_t> bytes) {
  BinaryReader r(bytes);
  T value{};
  detail::Codec::get_fields(r, value);
  require(r.exhausted(), "wire: trailing bytes after the record");
  return value;
}

}  // namespace wire
}  // namespace elan
