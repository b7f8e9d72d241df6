// Basic physical units used throughout the simulator.
//
// All times are virtual seconds (double), all sizes are bytes (std::uint64_t),
// and all bandwidths are bytes per second (double). Small strong-ish types and
// literal helpers keep call sites readable without the weight of a full unit
// library.
#pragma once

#include <cstdint>
#include <string>

namespace elan {

/// Virtual time in seconds.
using Seconds = double;

/// Size in bytes.
using Bytes = std::uint64_t;

/// Bandwidth in bytes per second.
using BytesPerSecond = double;

constexpr Bytes operator""_KiB(unsigned long long v) { return v * 1024ULL; }
constexpr Bytes operator""_MiB(unsigned long long v) { return v * 1024ULL * 1024ULL; }
constexpr Bytes operator""_GiB(unsigned long long v) { return v * 1024ULL * 1024ULL * 1024ULL; }

constexpr BytesPerSecond gib_per_sec(double v) { return v * 1024.0 * 1024.0 * 1024.0; }
constexpr BytesPerSecond mib_per_sec(double v) { return v * 1024.0 * 1024.0; }

/// 56 Gbps InfiniBand payload bandwidth expressed in bytes/second.
constexpr BytesPerSecond gbit_per_sec(double v) { return v * 1e9 / 8.0; }

constexpr Seconds microseconds(double v) { return v * 1e-6; }
constexpr Seconds milliseconds(double v) { return v * 1e-3; }
constexpr Seconds minutes(double v) { return v * 60.0; }
constexpr Seconds hours(double v) { return v * 3600.0; }

/// Human readable byte count, e.g. "1.5 GiB".
std::string format_bytes(Bytes b);

/// Human readable duration, e.g. "1.53 s" or "12.1 ms".
std::string format_seconds(Seconds s);

}  // namespace elan
