// Error types shared across the library.
#pragma once

#include <stdexcept>
#include <string>

namespace elan {

/// Base class for all Elan errors.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A caller supplied an invalid argument or configuration.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error("invalid argument: " + what) {}
};

/// Internal invariant violated; indicates a bug in the library.
class InternalError : public Error {
 public:
  explicit InternalError(const std::string& what) : Error("internal error: " + what) {}
};

/// A requested entity (worker, file, key, ...) does not exist.
class NotFound : public Error {
 public:
  explicit NotFound(const std::string& what) : Error("not found: " + what) {}
};

/// Throws InvalidArgument if `cond` is false. `what` is a literal: nothing
/// is allocated unless the check fails. A message that has to be composed
/// goes through ELAN_REQUIRE, which builds it only on failure.
inline void require(bool cond, const char* what) {
  if (!cond) [[unlikely]] throw InvalidArgument(what);
}

/// The eager form: its caller composes `what` on every call, passing or not.
/// perfbench/src/main.cpp still calls it; everywhere else the build turns a
/// call into an error (-Werror=deprecated-declarations).
[[deprecated("composes its message on every call; use ELAN_REQUIRE")]]
inline void require(bool cond, const std::string& what) {
  if (!cond) throw InvalidArgument(what);
}

namespace detail {

/// Out-of-line failure path of ELAN_REQUIRE (defined in error.cpp).
[[noreturn]] void require_failed(const std::string& what);

/// Process-wide hook invoked on every ELAN_CHECK / ELAN_DCHECK failure,
/// before the InternalError is thrown. The flight recorder (src/obs/flight)
/// installs one to dump a crash record while the failing state is still in
/// memory. The hook must not throw. Returns the previously installed hook;
/// nullptr clears. Defined in error.cpp.
using CheckFailureHook = void (*)(const char* expr, const char* file,
                                  int line, const char* message);
CheckFailureHook set_check_failure_hook(CheckFailureHook hook) noexcept;
void invoke_check_failure_hook(const char* expr, const char* file, int line,
                               const char* message) noexcept;

[[noreturn]] inline void check_failed(const char* expr, const char* file, int line,
                                      const std::string& note = {}) {
  std::string what = "check failed: ";
  what += expr;
  what += " (";
  what += file;
  what += ':';
  what += std::to_string(line);
  what += ')';
  if (!note.empty()) {
    what += ": ";
    what += note;
  }
  invoke_check_failure_hook(expr, file, line, what.c_str());
  throw InternalError(what);
}

}  // namespace detail

}  // namespace elan

/// Internal-invariant check. Throws InternalError carrying the failed
/// expression text and its file:line, plus an optional note:
///
///   ELAN_CHECK(it != map.end());
///   ELAN_CHECK(n >= 0, "negative shard count");
///
/// Use `require()` for caller mistakes (InvalidArgument); ELAN_CHECK is for
/// conditions that can only fail through a bug in this library.
#define ELAN_CHECK(cond, ...)                                              \
  do {                                                                     \
    if (!(cond)) [[unlikely]]                                              \
      ::elan::detail::check_failed(#cond, __FILE__,                        \
                                   __LINE__ __VA_OPT__(, ) __VA_ARGS__);   \
  } while (0)

/// Caller-mistake check with a composed message. Like ELAN_CHECK's note,
/// the message expression is evaluated only when `cond` is false, so a
/// passing check allocates nothing. Throws InvalidArgument(message):
///
///   ELAN_REQUIRE(gpu < total, "GPU id out of range: " + std::to_string(gpu));
///
/// Checks on hot paths run millions of times per job; none of them may pay
/// for a message it does not throw. A literal message needs no macro:
/// `require(cond, "literal")` takes a const char*.
#define ELAN_REQUIRE(cond, ...)                                            \
  do {                                                                     \
    if (!(cond)) [[unlikely]]                                              \
      ::elan::detail::require_failed(__VA_ARGS__);                         \
  } while (0)

/// Debug-only variant: compiled out (condition not evaluated) under NDEBUG,
/// but still parsed, so it cannot bit-rot.
#ifdef NDEBUG
#define ELAN_DCHECK(cond, ...)          \
  do {                                  \
    if (false && (cond)) {              \
    }                                   \
  } while (0)
#else
#define ELAN_DCHECK(cond, ...) ELAN_CHECK(cond __VA_OPT__(, ) __VA_ARGS__)
#endif
