// Concurrency-correctness layer: annotated synchronisation primitives.
//
// Every mutex in the repository goes through this header —
// `tools/elan_analyze` bans naked std::mutex / std::lock_guard /
// std::condition_variable outside this file and its .cpp. Two independent
// safety nets ride on that rule:
//
//   1. *Static*: the ELAN_* macros carry Clang Thread Safety Analysis
//      attributes. Fields annotated ELAN_GUARDED_BY(mu) may only be touched
//      while `mu` is held; functions annotated ELAN_REQUIRES(mu) may only be
//      called with `mu` held. Under Clang the build runs with
//      -Wthread-safety (CI promotes it to an error), so lock-discipline
//      violations are *compile* errors. Under GCC the macros expand to
//      nothing and the wrappers cost exactly one std::mutex.
//
//   2. *Dynamic*: when built with ELAN_LOCK_ORDER_CHECKS (the default; see
//      the CMake option), elan::Mutex feeds a process-wide lock-order graph.
//      Mutexes are grouped into classes by their constructor name; every
//      blocking acquisition while other locks are held records
//      held-class -> acquired-class edges, and an acquisition that would
//      close a cycle in that graph aborts immediately, printing the current
//      held stack *and* the stack recorded when the conflicting edge was
//      first seen. A potential ABBA deadlock is therefore caught on any
//      single-threaded execution of the two code paths — no unlucky
//      interleaving required. Recursive locking of the same instance aborts
//      too.
//
// Naming convention: give every Mutex a unique, stable, lowercase name
// ("thread_pool", "message_bus", ...). Instances sharing a name share a lock
// class; if two same-class instances must ever nest, split the class by
// giving them distinct names, otherwise the detector reports the nesting as
// a self-cycle (deliberately: same-class nesting is how ABBA deadlocks
// between peer objects start).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <source_location>

// --- Clang Thread Safety Analysis attribute macros -------------------------
//
// Canonical expansion of the TSA attribute set (see the Clang docs,
// "Thread Safety Analysis"); no-ops on non-Clang compilers.
#if defined(__clang__)
#define ELAN_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define ELAN_THREAD_ANNOTATION(x)
#endif

/// Marks a type as a lockable capability ("mutex").
#define ELAN_CAPABILITY(x) ELAN_THREAD_ANNOTATION(capability(x))
/// Marks an RAII type whose lifetime acquires/releases a capability.
#define ELAN_SCOPED_CAPABILITY ELAN_THREAD_ANNOTATION(scoped_lockable)
/// Field/variable may only be accessed while holding `x`.
#define ELAN_GUARDED_BY(x) ELAN_THREAD_ANNOTATION(guarded_by(x))
/// Pointee may only be accessed while holding `x`.
#define ELAN_PT_GUARDED_BY(x) ELAN_THREAD_ANNOTATION(pt_guarded_by(x))
/// Function may only be called while holding the given capabilities.
#define ELAN_REQUIRES(...) ELAN_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// Function acquires the given capabilities (held on return).
#define ELAN_ACQUIRE(...) ELAN_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
/// Function releases the given capabilities.
#define ELAN_RELEASE(...) ELAN_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
/// Function acquires the capability only when returning `value`.
#define ELAN_TRY_ACQUIRE(...) ELAN_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
/// Function must NOT be called while holding the given capabilities.
#define ELAN_EXCLUDES(...) ELAN_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// Function returns a reference to the given capability.
#define ELAN_RETURN_CAPABILITY(x) ELAN_THREAD_ANNOTATION(lock_returned(x))
/// Declares `x` held without acquiring it (runtime-verified entry points).
#define ELAN_ASSERT_CAPABILITY(x) ELAN_THREAD_ANNOTATION(assert_capability(x))
/// Escape hatch: disables the analysis for one function. Use only inside the
/// sync layer itself (adopt/release plumbing the analysis cannot follow).
#define ELAN_NO_THREAD_SAFETY_ANALYSIS ELAN_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace elan {

/// True when this build carries the runtime lock-order detector (set by the
/// ELAN_LOCK_ORDER_CHECKS CMake option). Tests use it to skip death tests in
/// builds configured without the detector.
bool lock_order_checks_enabled();

/// Small dense per-thread index, assigned on first use in thread-arrival
/// order. Stable for the thread's lifetime; indices are never reused within
/// a process. The logger and the observability layer use it to tag output
/// with a readable thread id (std::thread::id is opaque and wide).
std::uint32_t this_thread_index();

/// Process-wide hook invoked when the lock-order detector is about to abort
/// (after the report is printed, before std::abort). The flight recorder
/// installs one to dump a crash record. The hook runs while the detector's
/// internal mutex may be held, so it must not allocate or take locks.
/// Returns the previously installed hook; nullptr clears.
using LockOrderDieHook = void (*)(const char* report);
LockOrderDieHook set_lock_order_die_hook(LockOrderDieHook hook) noexcept;

/// Annotated mutex. Non-recursive. See the file comment for the naming
/// convention; the name also appears in every detector report.
class ELAN_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(const char* name = "mutex");
  ~Mutex();

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  /// Blocking acquire. With the detector on: checks the lock-order graph
  /// *before* blocking (so a true deadlock still gets reported), records
  /// ordering edges against every lock the thread already holds, and aborts
  /// on a cycle or on recursive acquisition.
  void lock(std::source_location loc = std::source_location::current()) ELAN_ACQUIRE();

  void unlock() ELAN_RELEASE();

  /// Non-blocking acquire. Cannot deadlock, so the detector records the held
  /// entry but no ordering edges for it.
  bool try_lock(std::source_location loc = std::source_location::current())
      ELAN_TRY_ACQUIRE(true);

  const char* name() const { return name_; }

 private:
  friend class CondVar;

  std::mutex m_;
  const char* name_;
  std::uint32_t class_id_ = 0;  // lock class in the order graph (0 = untracked)
};

/// RAII lock for elan::Mutex — the only way application code should hold one.
class ELAN_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu,
                     std::source_location loc = std::source_location::current())
      ELAN_ACQUIRE(mu)
      : mu_(mu) {
    mu_.lock(loc);
  }

  ~MutexLock() ELAN_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable paired with elan::Mutex.
///
/// No predicate overload on purpose: a predicate lambda cannot carry a
/// capability annotation the analysis can match against the caller's lock,
/// so callers write the canonical loop instead —
///
///   MutexLock lock(mu_);
///   while (!condition) cv_.wait(mu_);
///
/// which Clang TSA verifies end to end.
class CondVar {
 public:
  CondVar() = default;

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu` and waits; `mu` is re-held on return. May wake
  /// spuriously — always wait in a while loop.
  void wait(Mutex& mu) ELAN_REQUIRES(mu);

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace elan
