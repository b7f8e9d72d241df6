#include "common/flags.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "common/log.h"

namespace elan {

namespace {

template <typename T>
T parse_number(std::string_view text, T lo, T hi, std::string_view what) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end || !(value >= lo && value <= hi)) {
    std::ostringstream os;
    os << what << ": expected a number in [" << lo << ", " << hi << "], got '" << text << "'";
    throw InvalidArgument(os.str());
  }
  return value;
}

}  // namespace

std::int64_t parse_int(std::string_view text, std::int64_t lo, std::int64_t hi,
                       std::string_view what) {
  return parse_number(text, lo, hi, what);
}

double parse_double(std::string_view text, double lo, double hi, std::string_view what) {
  return parse_number(text, lo, hi, what);
}

std::vector<std::int64_t> parse_int_list(std::string_view spec, std::int64_t lo,
                                         std::int64_t hi, std::string_view what) {
  std::vector<std::int64_t> out;
  if (spec.empty()) return out;
  for (std::size_t pos = 0;;) {
    const std::size_t comma = spec.find(',', pos);
    out.push_back(parse_int(spec.substr(pos, comma - pos), lo, hi, what));
    if (comma == std::string_view::npos) return out;
    pos = comma + 1;
  }
}

std::uint64_t parse_seed(std::string_view text, std::string_view what) {
  const bool hex = text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X');
  const std::string_view digits = hex ? text.substr(2) : text;
  const auto is_digit = [hex](char c) {
    return (c >= '0' && c <= '9') || (hex && ((c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')));
  };
  if (!digits.empty() && std::all_of(digits.begin(), digits.end(), is_digit)) {
    std::uint64_t value = 0;
    const char* end = digits.data() + digits.size();
    const auto [ptr, ec] = std::from_chars(digits.data(), end, value, hex ? 16 : 10);
    if (ec != std::errc() || ptr != end) {
      std::ostringstream os;
      os << what << ": seed '" << text << "' does not fit in 64 bits";
      throw InvalidArgument(os.str());
    }
    return value;
  }
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (const unsigned char c : text) h = (h ^ c) * 0x100000001b3ULL;
  return h;
}

void Flags::define(const std::string& name, const std::string& default_value,
                   const std::string& help) {
  require(!name.empty() && name[0] != '-', "flag names are given without dashes");
  ELAN_REQUIRE(specs_.emplace(name, Spec{default_value, help, std::nullopt}).second,
               "duplicate flag: " + name);
  order_.push_back(name);
}

const Flags::Spec& Flags::spec(const std::string& name) const {
  auto it = specs_.find(name);
  if (it == specs_.end()) throw NotFound("flag: " + name);
  return it->second;
}

std::vector<std::string> Flags::parse(int argc, const char* const* argv) {
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    if (arg == "help") {
      help_ = true;
      continue;
    }
    std::string value;
    bool have_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      have_value = true;
    }
    auto it = specs_.find(arg);
    ELAN_REQUIRE(it != specs_.end(), "unknown flag --" + arg);
    if (!have_value) {
      // Allow "--flag value" unless the next token is a flag (boolean form).
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        value = "true";
      }
    }
    it->second.value = value;
  }
  return positional;
}

bool Flags::has(const std::string& name) const { return spec(name).value.has_value(); }

std::string Flags::get(const std::string& name) const {
  const auto& s = spec(name);
  return s.value.value_or(s.default_value);
}

std::int64_t Flags::get_int(const std::string& name) const {
  using Limits = std::numeric_limits<std::int64_t>;
  return parse_int(get(name), Limits::min(), Limits::max(), "flag --" + name);
}

double Flags::get_double(const std::string& name) const {
  using Limits = std::numeric_limits<double>;
  return parse_double(get(name), Limits::lowest(), Limits::max(), "flag --" + name);
}

bool Flags::get_bool(const std::string& name) const {
  const std::string v = get(name);
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  throw InvalidArgument("flag --" + name + " expects a boolean, got '" + v + "'");
}

void define_log_level_flag(Flags& flags) {
  std::string def = "warn";
  if (const char* env = std::getenv("ELAN_LOG"); env != nullptr && *env != '\0') {
    if (parse_log_level(env)) def = env;
  }
  flags.define("log-level", def,
               "log verbosity: trace|debug|info|warn|error|off (default honours ELAN_LOG)");
}

void apply_log_level_flag(const Flags& flags) {
  const std::string v = flags.get("log-level");
  const auto level = parse_log_level(v);
  ELAN_REQUIRE(level.has_value(), "flag --log-level: unknown level '" + v + "'");
  Logger::set_level(*level);
}

std::string Flags::usage(const std::string& program) const {
  std::ostringstream os;
  os << "usage: " << program << " [flags]\n";
  for (const auto& name : order_) {
    const auto& s = specs_.at(name);
    os << "  --" << name << " (default: " << s.default_value << ")  " << s.help << "\n";
  }
  return os.str();
}

}  // namespace elan
