// Black-box flight recorder and the protocol event call (DESIGN.md §5i).
//
// Every protocol event is one call, `obs::event(kind, actor, detail, a, b,
// c)`: message send/deliver/drop, AM phase transitions, worker
// coordination-round state changes, adjustment decisions, replication chunk
// milestones, fault injections. The event table (`event_info`) is the one
// schema: it names each kind, labels its a/b/c fields and says whether the
// kind is also a trace instant. The flight record, the trace and
// `tools/elan_postmortem` all read it.
//
// The recorder is off unless ELAN_FLIGHT (obs::init_from_env) or a tool flag
// such as `elan_chaos --flight` turns it on. Unlike the tracer (which grows
// unbounded vectors and exports only on clean shutdown), it keeps the newest
// `kRingCapacity` events per ring in preallocated storage, so a crash record
// of "what each party believed at the moment of death" is always available.
//
// Rings: every thread records into a ring of its own. A thread inside an
// obs::RunScope records into that run's ring instead, stamped with the run's
// virtual clock and numbered from the run's own sequence 0, so a run's record
// is a function of the run alone — whichever thread ran it and whatever ran
// beside it (the parallel chaos sweep relies on this). When a run ends with
// the recorder on, its ring is copied over the thread's one kept ended run,
// so a dump outside any run (the exit dump) still holds each thread's most
// recent run.
//
// Cost contract:
//   - both sinks off: two relaxed atomic loads (`FlightRecorder::enabled()`,
//     `Tracer::enabled()`) inline at the call site, and no call;
//   - recorder on: one thread-local read (the run binding), one relaxed
//     fetch_add on the global sequence counter (or a plain increment of the
//     run's), a struct store into preallocated slots and a release store of
//     the ring head. Never takes a lock. The only allocations are a thread's
//     ring on its first event and a run's ring on the run's first event. The
//     run clock reads `Simulator::now()`, which takes the simulator's leaf
//     mutex — the same trade the tracer makes; the real clock is lock-free;
//   - tracer on: a traced kind appends one instant to the tracer's
//     per-thread buffer (trace.h); an untraced kind returns after the table
//     lookup;
//   - either on: one clock reading (Tracer::now_us, the one clock of both
//     sinks), so an event's flight record and its trace instant carry the
//     same time.
//
// Dump paths:
//   - `dump(path)` — normal context; versioned binary record of the rings in
//     the calling thread's view (its run's ring inside a RunScope; elsewhere
//     every thread's ring and each thread's kept ended run) plus a
//     MetricsRegistry snapshot.
//   - crash dumps (`ELAN_CHECK` failure hook, lock-order `die()` hook,
//     SIGSEGV/SIGABRT handler) — async-signal-safe: raw write(2) of the
//     crashing thread's view to the preconfigured path, no allocation, no
//     locks, no stdio. The two hooks record their death cause straight into
//     the ring, not through event(): the tracer takes an elan::Mutex, and the
//     lock-order die() hook must not. Crash records carry an empty metrics
//     section (the registry lock is not signal-safe).
//
// `tools/elan_postmortem` merges one or more records into a causally
// ordered timeline (timestamp + sequence + send→deliver edges) and renders
// per-actor "last N ms before death" narratives.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace elan::obs {

/// Event kinds. Append-only: the numeric values are part of the versioned
/// file format (elan_postmortem decodes them), so never renumber. What each
/// kind's a/b/c mean is its row in the event table (event_info, flight.cpp).
enum class FlightEventKind : std::uint8_t {
  // Transport (src/transport).
  kMsgSend = 0,
  kMsgDrop = 1,
  kMsgDeliver = 2,
  kMsgToUnknown = 3,
  kMsgRetry = 4,
  kMsgGaveUp = 5,
  // A receiver dropped a payload that does not decode (src/elan/messages.h).
  kMsgMalformed = 6,

  // Application master (src/elan/master.cpp).
  kAmPhase = 10,
  kAdjustRequest = 11,
  kAdjustReplay = 12,
  kAdjustVerdict = 13,
  kWorkerReport = 14,
  kWorkerEvicted = 15,

  // Worker protocol state machine (src/elan/worker.cpp).
  kCoordinateSend = 20,
  kCoordinateResend = 21,
  kDecisionRecv = 22,
  kDecisionStale = 23,

  // Job coordination rounds + adjustment lifecycle (src/elan/job.cpp).
  kRoundStart = 30,
  kRoundDecision = 31,
  kRoundComplete = 32,
  kAdjustSent = 33,
  kAdjustReply = 34,
  kAdjustStart = 35,
  kAdjustFinish = 36,

  // Replication data plane (src/elan/job.cpp).
  kChunkVerified = 40,
  kChunkSourceLost = 41,
  kReplicationReplan = 42,

  // Fault injection (src/fault/fault.cpp) + death causes (src/obs/flight.cpp).
  kFaultInjected = 50,
  kLockOrderHit = 51,
  kCheckFailed = 52,
  kFaultArmed = 53,

  // Socket transport backend (src/transport/socket_transport.cpp).
  kSockError = 60,
  kLinkState = 61,
};

/// One row of the event table: the kind's name, the labels of its a/b/c
/// fields (nullptr: the field is unused) and whether obs::event also emits
/// the kind as a trace instant.
struct FlightEventInfo {
  const char* name = nullptr;
  const char* labels[3] = {};
  bool traced = false;
};

/// The event table, the one schema of the flight record, the trace instants
/// and elan_postmortem. Every kind has a row: the switch behind it is
/// exhaustive, so under -Werror=switch a kind without one does not compile.
/// A value that names no kind (a record from a newer build) gets a row with
/// a null name.
FlightEventInfo event_info(FlightEventKind kind);

/// The kind's table name, or "unknown".
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

/// Records one protocol event: the one instrumentation call per event
/// (DESIGN.md §5i). Into the flight ring when the recorder is on; as a trace
/// instant named after the kind when tracing is on and the kind's row says
/// traced. With both off it costs two relaxed loads and no call; otherwise
/// it reads the clock (Tracer::now_us) once, and both views carry that one
/// time. `actor` and `detail` may be nullptr; both views truncate them to
/// the FlightEvent fields.
inline void event(FlightEventKind kind, const char* actor, const char* detail = nullptr,
                  std::uint64_t a = 0, std::uint64_t b = 0, std::uint64_t c = 0);

/// The trace half of event(): the instant at `ts_us`, for a traced kind.
/// Its args are the actor, the detail and the labelled fields. Call event(),
/// not this.
void trace_instant(double ts_us, FlightEventKind kind, const char* actor, const char* detail,
                   std::uint64_t a, std::uint64_t b, std::uint64_t c);

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

  /// Drops the events of every thread's own ring and kept ended run, and
  /// restarts the global sequence (live runs' rings are not touched: each
  /// run starts empty). Callers must ensure no thread is concurrently
  /// recording outside a run.
  void clear();

  /// Total events ever recorded (across wraps) in the calling thread's view
  /// (see dump).
  std::uint64_t total_recorded() const;

  /// Writes the versioned binary record: the rings in the calling thread's
  /// view (its run's ring inside a RunScope; elsewhere every thread's ring
  /// and kept ended run) plus the MetricsRegistry text snapshot.
  /// Normal (allocating) context only. Returns false on I/O error.
  bool dump(const std::string& path);

  /// Configures the crash-dump destination and installs the crash hooks:
  /// the ELAN_CHECK failure hook, the lock-order die() hook, and minimal
  /// SIGSEGV/SIGABRT handlers. All of them write the rings (no metrics)
  /// to `path` via the async-signal-safe writer, at most once per process.
  void arm_crash_dump(const std::string& path);

  /// Async-signal-safe core: writes header + the calling thread's view of
  /// the rings + an empty metrics section to `fd` using only write(2). Safe
  /// from signal handlers.
  void dump_to_fd_signal_safe(int fd) const;

 private:
  friend void event(FlightEventKind, const char*, const char*, std::uint64_t,
                    std::uint64_t, std::uint64_t);
  friend class RunScope;

  FlightRecorder() = default;

  /// Copies an ending run's ring over the calling thread's kept ended run
  /// (one ring per thread, allocated on first use). RunScope's destructor
  /// calls it while the recorder is on.
  static void keep_ended_run(const FlightRing& run);

  /// The flight sink: records one event stamped `ts_us` into the calling
  /// thread's ring, or into its run's ring inside a RunScope. Lock-free and
  /// allocation-free apart from a ring's allocation on its first event.
  /// Reached through event() and the two crash hooks below, which must not
  /// take the tracer's lock.
  static void record(double ts_us, FlightEventKind kind, const char* actor,
                     const char* detail = nullptr, std::uint64_t a = 0, std::uint64_t b = 0,
                     std::uint64_t c = 0);

  /// The ELAN_CHECK failure hook and the lock-order die() hook that
  /// arm_crash_dump installs: record the death cause, then dump.
  static void on_check_failure(const char* expr, const char* file, int line,
                               const char* message);
  static void on_lock_order_death(const char* report);

  static std::atomic<bool> enabled_;
};

inline void event(FlightEventKind kind, const char* actor, const char* detail,
                  std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  const bool flight = FlightRecorder::enabled();
  const bool traced = Tracer::enabled() && event_info(kind).traced;
  if (!flight && !traced) return;
  const double ts_us = Tracer::now_us();
  if (flight) FlightRecorder::record(ts_us, kind, actor, detail, a, b, c);
  if (traced) trace_instant(ts_us, kind, actor, detail, a, b, c);
}

/// The newest FlightRecorder::kRingCapacity events of one thread or of one
/// run. Single writer; readers load `head` with acquire.
struct FlightRing {
  std::atomic<std::uint64_t> head{0};  // events ever written
  std::uint32_t thread = 0;            // FlightEvent::thread of its events
  FlightEvent slots[FlightRecorder::kRingCapacity];
};

/// Which dump path wrote a record: dump() (the exit dump, or a tool's dump
/// of a finished run) or the async-signal-safe crash path. A record's
/// metrics section cannot tell them apart: a process that registers no
/// metrics writes an empty one on a clean exit too.
enum class FlightOrigin : std::uint32_t { kExit = 0, kCrash = 1 };

/// Parsed form of a record file, for tests and elan_postmortem.
struct FlightRecord {
  std::uint32_t version = 0;
  FlightOrigin origin = FlightOrigin::kExit;
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
