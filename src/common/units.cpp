#include "common/units.h"

#include <array>
#include <cmath>
#include <cstdio>

namespace elan {

namespace {

std::string format_with_suffix(double value, const char* suffix) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f %s", value, suffix);
  return buf;
}

}  // namespace

std::string format_bytes(Bytes b) {
  constexpr std::array<const char*, 5> suffixes = {"B", "KiB", "MiB", "GiB", "TiB"};
  double v = static_cast<double>(b);
  std::size_t i = 0;
  while (v >= 1024.0 && i + 1 < suffixes.size()) {
    v /= 1024.0;
    ++i;
  }
  return format_with_suffix(v, suffixes[i]);
}

std::string format_seconds(Seconds s) {
  if (s < 0) return "-" + format_seconds(-s);
  if (s < 1e-3) return format_with_suffix(s * 1e6, "us");
  if (s < 1.0) return format_with_suffix(s * 1e3, "ms");
  if (s < 120.0) return format_with_suffix(s, "s");
  if (s < 7200.0) return format_with_suffix(s / 60.0, "min");
  return format_with_suffix(s / 3600.0, "h");
}

}  // namespace elan
