// Black-box flight recorder (DESIGN.md §5i).
//
// Bounded ring buffers of compact structured protocol events: message
// send/deliver/drop, AM phase transitions, worker coordination-round state
// changes, adjustment decisions, replication chunk milestones, fault
// injections, lock-order-detector hits. The recorder is off unless
// ELAN_FLIGHT (obs::init_from_env) or a tool flag such as
// `elan_chaos --flight` turns it on. Unlike the tracer (which grows
// unbounded vectors and exports only on clean shutdown), it keeps the newest
// `kRingCapacity` events per ring in preallocated storage, so a crash record
// of "what each party believed at the moment of death" is always available.
//
// Rings: every thread records into a ring of its own. A thread inside an
// obs::RunScope records into that run's ring instead, stamped with the run's
// virtual clock and numbered from the run's own sequence 0, so a run's record
// is a function of the run alone — whichever thread ran it and whatever ran
// beside it (the parallel chaos sweep relies on this).
//
// Cost contract:
//   - disabled path: one relaxed atomic load (`FlightRecorder::enabled()`),
//     then return;
//   - enabled hot path: one thread-local read (the run binding), one relaxed
//     fetch_add on the global sequence counter (or a plain increment of the
//     run's), a struct store into preallocated slots and a release store of
//     the ring head. Never takes a lock. The only allocations are a thread's
//     ring on its first event and a run's ring on the run's first event. The
//     run clock reads `Simulator::now()`, which takes the simulator's leaf
//     mutex — the same trade the tracer makes; the real clock is lock-free.
//
// Dump paths:
//   - `dump(path)` — normal context; versioned binary record of the rings in
//     the calling thread's view (its run's ring inside a RunScope, every
//     thread's ring elsewhere) plus a MetricsRegistry snapshot.
//   - crash dumps (`ELAN_CHECK` failure hook, lock-order `die()` hook,
//     SIGSEGV/SIGABRT handler) — async-signal-safe: raw write(2) of the
//     crashing thread's view to the preconfigured path, no allocation, no
//     locks, no stdio. Crash records carry an empty metrics section (the
//     registry lock is not signal-safe).
//
// `tools/elan_postmortem` merges one or more records into a causally
// ordered timeline (timestamp + sequence + send→deliver edges) and renders
// per-actor "last N ms before death" narratives.
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
  double ts_us = 0.0;       // recorder clock (sim µs under a RunScope)
  std::uint64_t seq = 0;    // monotone sequence (global, or the run's) —
                            // causal tiebreak
  std::uint64_t a = 0;      // kind-specific (see FlightEventKind comments)
  std::uint64_t b = 0;
  std::uint64_t c = 0;
  std::uint32_t thread = 0; // this_thread_index() of the recording thread;
                            // 0 in a run's ring
  std::uint8_t kind = 0;
  char actor[17] = {};      // NUL-terminated, truncated endpoint/actor name
  char detail[18] = {};     // NUL-terminated kind-specific string
};
static_assert(sizeof(FlightEvent) == 80, "flight record layout is versioned");

struct FlightRing;

class FlightRecorder {
 public:
  /// Events kept per ring (newest win on wrap). Power of two.
  static constexpr std::uint32_t kRingCapacity = 2048;
  /// Dense thread indices above this stop recording (never happens in
  /// practice: the pool sizes to the machine).
  static constexpr std::uint32_t kMaxThreads = 256;

  static FlightRecorder& instance();

  /// The disabled-path gate: one relaxed load.
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }
  static void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Records one event (no-op unless enabled) into the calling thread's
  /// ring, or into its run's ring inside a RunScope. `actor`/`detail` may be
  /// nullptr; both are truncated to the struct fields. Lock-free and
  /// allocation-free apart from a ring's allocation on its first event.
  static void record(FlightEventKind kind, const char* actor,
                     const char* detail = nullptr, std::uint64_t a = 0,
                     std::uint64_t b = 0, std::uint64_t c = 0);

  /// Drops the events of every thread's own ring and restarts the global
  /// sequence (runs' rings are not touched: each run starts empty). Callers
  /// must ensure no thread is concurrently recording outside a run.
  void clear();

  /// Total events ever recorded (across wraps) in the calling thread's view:
  /// its run's ring inside a RunScope, every thread's ring elsewhere.
  std::uint64_t total_recorded() const;

  /// Writes the versioned binary record: the rings in the calling thread's
  /// view (see total_recorded) plus the MetricsRegistry text snapshot.
  /// Normal (allocating) context only. Returns false on I/O error.
  bool dump(const std::string& path);

  /// Configures the crash-dump destination and installs the crash hooks:
  /// the ELAN_CHECK failure hook, the lock-order die() hook, and minimal
  /// SIGSEGV/SIGABRT handlers. All of them write the rings (no metrics)
  /// to `path` via the async-signal-safe writer, at most once per process.
  void arm_crash_dump(const std::string& path);

  /// The armed crash path ("" when arm_crash_dump has not run).
  std::string crash_path() const;

  /// Async-signal-safe core: writes header + the calling thread's view of
  /// the rings + an empty metrics section to `fd` using only write(2). Safe
  /// from signal handlers.
  void dump_to_fd_signal_safe(int fd) const;

 private:
  FlightRecorder() = default;
  static std::atomic<bool> enabled_;
};

/// The newest FlightRecorder::kRingCapacity events of one thread or of one
/// run. Single writer; readers load `head` with acquire.
struct FlightRing {
  std::atomic<std::uint64_t> head{0};  // events ever written
  std::uint32_t thread = 0;            // FlightEvent::thread of its events
  FlightEvent slots[FlightRecorder::kRingCapacity];
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
