// Minimal command-line flag parser for the CLI tools.
//
// Supports --key=value, --key value and boolean --key. Unrecognised flags
// throw, values are type-checked, and `usage()` renders help from the
// registered flags. Deliberately tiny: the tools need a dozen flags, not a
// framework.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"

namespace elan {

/// The checked parser for numbers from outside the program (flags, trace
/// files, comma lists): all of `text` must be one base-10 number in [lo, hi].
/// Anything else (empty, trailing characters, out of range, NaN) throws
/// InvalidArgument naming `what` and quoting `text`.
std::int64_t parse_int(std::string_view text, std::int64_t lo, std::int64_t hi,
                       std::string_view what);
double parse_double(std::string_view text, double lo, double hi, std::string_view what);

/// Comma-separated integers ("8,4"), each checked by parse_int; "" is the
/// empty list, and an empty item ("8,,4", "8,") is rejected.
std::vector<std::int64_t> parse_int_list(std::string_view spec, std::int64_t lo,
                                         std::int64_t hi, std::string_view what);

/// A 64-bit seed from outside the program. Text that is wholly a base-10
/// number ("12", "0012") or wholly a 0x-prefixed hex number ("0x2a") is that
/// number; one too large for 64 bits throws InvalidArgument naming `what`.
/// Any other text ("5caa3f725bd3", "12x", "") is hashed with 64-bit FNV-1a,
/// so a commit-hash prefix names a seed of its own.
std::uint64_t parse_seed(std::string_view text, std::string_view what);

class Flags {
 public:
  /// Registers a flag with a default value and a help line.
  void define(const std::string& name, const std::string& default_value,
              const std::string& help);

  /// Parses argv; throws InvalidArgument on unknown flags or missing values.
  /// Returns leftover positional arguments.
  std::vector<std::string> parse(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name) const;
  std::int64_t get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_bool(const std::string& name) const;

  /// True when --help was passed.
  bool help_requested() const { return help_; }
  std::string usage(const std::string& program) const;

 private:
  struct Spec {
    std::string default_value;
    std::string help;
    std::optional<std::string> value;
  };
  std::map<std::string, Spec> specs_;
  std::vector<std::string> order_;
  bool help_ = false;

  const Spec& spec(const std::string& name) const;
};

/// Registers the uniform --log-level flag (trace|debug|info|warn|error|off).
/// The default comes from the ELAN_LOG environment variable when set, so the
/// precedence is: --log-level > ELAN_LOG > the logger's compiled default.
void define_log_level_flag(Flags& flags);

/// Applies a parsed --log-level to the global Logger; throws InvalidArgument
/// on an unrecognised level name.
void apply_log_level_flag(const Flags& flags);

}  // namespace elan
