// Black-box flight recorder (DESIGN.md §5i).
//
// An always-on, bounded, per-thread ring buffer of compact structured
// protocol events: message send/deliver/drop, AM phase transitions, worker
// coordination-round state changes, adjustment decisions, replication chunk
// milestones, fault injections, lock-order-detector hits. Unlike the tracer
// (which grows unbounded vectors and exports only on clean shutdown), the
// recorder keeps the newest `kRingCapacity` events per thread in
// preallocated storage, so a crash record of "what each party believed at
// the moment of death" is always available.
//
// Cost contract:
//   - disabled path: one relaxed atomic load (`FlightRecorder::enabled()`),
//     then return;
//   - enabled hot path: one relaxed fetch_add on the global sequence
//     counter, one on the ring head, a struct store into preallocated
//     slots. Never takes a lock, never allocates. The only exception is the
//     once-per-thread ring registration (a single `new` the first time a
//     thread records) and a pluggable clock (the sim clock reads
//     `Simulator::now()`, which takes the simulator's leaf mutex — same
//     trade the tracer makes; the default real clock is lock-free).
//
// Dump paths:
//   - `dump(path)` — normal context; versioned binary record of the merged
//     rings plus a MetricsRegistry snapshot.
//   - crash dumps (`ELAN_CHECK` failure hook, lock-order `die()` hook,
//     SIGSEGV/SIGABRT handler) — async-signal-safe: raw write(2) of the
//     preallocated rings to the preconfigured path, no allocation, no
//     locks, no stdio. Crash records carry an empty metrics section (the
//     registry lock is not signal-safe).
//
// `tools/elan_postmortem` merges one or more records into a causally
// ordered timeline (timestamp + global sequence + send→deliver edges) and
// renders per-actor "last N ms before death" narratives.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace elan::obs {

/// Event kinds. Append-only: the numeric values are part of the versioned
/// file format (elan_postmortem decodes them), so never renumber.
enum class FlightEventKind : std::uint8_t {
  // Transport (src/transport). a = bus message id.
  kMsgSend = 0,      // detail = msg type
  kMsgDrop = 1,      // b = reason (0 forced, 1 fault filter, 2 random)
  kMsgDeliver = 2,   // detail = msg type
  kMsgToUnknown = 3, // delivery to an unregistered endpoint
  kMsgRetry = 4,     // reliable endpoint re-transmit; b = attempt
  kMsgGaveUp = 5,    // reliable endpoint exhausted max_retries

  // Adjustment Manager (src/elan/master.cpp).
  kAmPhase = 10,       // a = prev phase, b = next phase, c = plan version;
                       // detail = next name
  kAdjustRequest = 11, // a = request_id; detail = request type
  kAdjustReplay = 12,  // a = request_id, b = cached ok (duplicate served
                       // from reply cache)
  kAdjustVerdict = 13, // a = request_id, b = ok, c = plan version
  kWorkerReport = 14,  // a = worker id, b = plan version
  kWorkerEvicted = 15, // a = worker id, b = plan version (report timeout)

  // Worker protocol state machine (src/elan/worker.cpp).
  kCoordinateSend = 20,   // a = iteration, b = worker id
  kCoordinateResend = 21, // a = iteration, b = resend count
  kDecisionRecv = 22,     // a = iteration, b = adjust flag
  kDecisionStale = 23,    // a = iteration, b = 0 no-pending dup, 1 stale iter;
                          // c = awaited iteration (stale iter only)

  // Job coordination rounds + adjustment lifecycle (src/elan/job.cpp).
  kRoundStart = 30,    // a = iteration, b = worker count
  kRoundDecision = 31, // a = iteration, b = worker id, c = adjust flag
  kRoundComplete = 32, // a = iteration, b = adjust signalled
  kAdjustSent = 33,    // a = request_id; detail = plan type
  kAdjustReply = 34,   // a = request_id, b = ok, c = duplicate flag
  kAdjustStart = 35,   // a = plan version, b/c = workers before/after; detail = type
  kAdjustFinish = 36,  // a = plan version, b = workers after, c = failed joins

  // Replication data plane (src/elan/job.cpp).
  kChunkVerified = 40,   // a = chunk, b = dest worker, c = src worker
  kChunkSourceLost = 41, // a = chunk, b = dest worker, c = lost src
  kReplicationReplan = 42, // a = destinations resumed, b = chunks kept, c = replans

  // Fault injection + death causes.
  kFaultInjected = 50, // detail = truncated description
  kLockOrderHit = 51,  // lock-order detector fired (process is about to die)
  kCheckFailed = 52,   // a = line; detail = file basename

  // Socket transport backend (src/transport/socket_transport.cpp).
  kSockError = 60, // a = SocketError value; actor = peer/conn; detail = name
  kLinkState = 61, // a = prev state, b = next state; actor = peer; detail = next name
};

const char* to_string(FlightEventKind kind);

/// One recorded event. Trivially copyable and layout-stable: records are
/// written to disk as raw structs (prefixed by sizeof for sanity), so keep
/// the layout padding-free and append-only.
struct FlightEvent {
  double ts_us = 0.0;       // recorder clock (sim µs under ScopedSimClock)
  std::uint64_t seq = 0;    // global monotone sequence — causal tiebreak
  std::uint64_t a = 0;      // kind-specific (see FlightEventKind comments)
  std::uint64_t b = 0;
  std::uint64_t c = 0;
  std::uint32_t thread = 0; // this_thread_index() of the recording thread
  std::uint8_t kind = 0;
  char actor[17] = {};      // NUL-terminated, truncated endpoint/actor name
  char detail[18] = {};     // NUL-terminated kind-specific string
};
static_assert(sizeof(FlightEvent) == 80, "flight record layout is versioned");

class FlightRecorder {
 public:
  /// Events kept per thread (newest win on wrap). Power of two.
  static constexpr std::uint32_t kRingCapacity = 2048;
  /// Dense thread indices above this stop recording (never happens in
  /// practice: the pool sizes to the machine).
  static constexpr std::uint32_t kMaxThreads = 256;

  using ClockFn = double (*)(void*);

  static FlightRecorder& instance();

  /// The disabled-path gate: one relaxed load.
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }
  static void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Records one event (no-op unless enabled). `actor`/`detail` may be
  /// nullptr; both are truncated to the struct fields. Lock-free and
  /// allocation-free apart from the once-per-thread ring registration.
  static void record(FlightEventKind kind, const char* actor,
                     const char* detail = nullptr, std::uint64_t a = 0,
                     std::uint64_t b = 0, std::uint64_t c = 0);

  /// Timestamp source. nullptr restores the real (steady) clock, µs since
  /// first use. The fn must be callable from any recording thread.
  static void set_clock(ClockFn fn, void* ctx);

  /// Current recorder time in µs (whatever clock is installed).
  static double now_us();

  /// Drops all recorded events. Callers must ensure no thread is
  /// concurrently recording (the chaos runner clears between plans, with
  /// the simulator stopped).
  void clear();

  /// Total events ever recorded (across wraps, all threads).
  std::uint64_t total_recorded() const;

  /// Writes the versioned binary record: merged ring contents plus the
  /// MetricsRegistry text snapshot. Normal (allocating) context only.
  /// Returns false on I/O error.
  bool dump(const std::string& path);

  /// Configures the crash-dump destination and installs the crash hooks:
  /// the ELAN_CHECK failure hook, the lock-order die() hook, and minimal
  /// SIGSEGV/SIGABRT handlers. All of them write the rings (no metrics)
  /// to `path` via the async-signal-safe writer, at most once per process.
  void arm_crash_dump(const std::string& path);

  /// The armed crash path ("" when arm_crash_dump has not run).
  std::string crash_path() const;

  /// Async-signal-safe core: writes header + rings + an empty metrics
  /// section to `fd` using only write(2). Safe from signal handlers.
  void dump_to_fd_signal_safe(int fd) const;

 private:
  FlightRecorder() = default;
  static std::atomic<bool> enabled_;
};

/// Parsed form of a record file, for tests and elan_postmortem.
struct FlightRecord {
  std::uint32_t version = 0;
  struct Ring {
    std::uint32_t thread = 0;
    std::uint64_t total = 0;            // events ever written to this ring
    std::vector<FlightEvent> events;    // oldest → newest, newest-kept
  };
  std::vector<Ring> rings;
  std::string metrics_text;             // empty for crash-path records

  /// All events from all rings, sorted by (ts_us, seq).
  std::vector<FlightEvent> merged() const;
};

/// Loads a record written by dump()/the crash path. Throws elan::Error on
/// a malformed or version-mismatched file.
FlightRecord read_flight_record(const std::string& path);

}  // namespace elan::obs
