#include "obs/flight.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/error.h"
#include "common/sync.h"
#include "obs/metrics.h"
#include "obs/obs.h"

namespace elan::obs {

namespace {

// File format v2 (DESIGN.md §5i). All integers little-endian host order —
// records are read back on the machine (or CI runner) that wrote them, and
// the header pins sizeof(FlightEvent) so a layout drift fails loudly.
//
//   magic "ELANFLT\x02"            8 bytes (last byte = format version)
//   u32 event_size                 sizeof(FlightEvent)
//   u32 origin                     FlightOrigin: 0 dump(), 1 crash path
//   u32 ring_count
//   ring_count times:
//     u32 thread  u32 stored  u64 total   stored * FlightEvent (old→new)
//   u64 metrics_len                0 in crash-path records
//   metrics_len bytes              MetricsRegistry text exposition
constexpr char kMagic[8] = {'E', 'L', 'A', 'N', 'F', 'L', 'T', '\x02'};

// Every thread's own ring, indexed by this_thread_index(). Never freed:
// crash dumps read them from any thread.
std::atomic<FlightRing*> g_rings[FlightRecorder::kMaxThreads];
// A copy of each thread's most recently ended run's ring, made when its
// RunScope ends with the recorder on, so a dump outside any run (the exit
// dump) still holds the run. Allocated on a thread's first such run and
// never freed, like g_rings.
std::atomic<FlightRing*> g_ended_runs[FlightRecorder::kMaxThreads];
std::atomic<std::uint64_t> g_seq{0};

// Crash-dump state. Preconfigured by arm_crash_dump (normal context, may
// allocate); consumed by the async-signal-safe dump path, which may not.
char g_crash_path[512] = {};
char g_crash_note[600] = {};
std::size_t g_crash_note_len = 0;
std::atomic<bool> g_crash_dumped{false};

void copy_field(char* dst, std::size_t cap, const char* src) {
  std::size_t i = 0;
  if (src != nullptr) {
    for (; i + 1 < cap && src[i] != '\0'; ++i) dst[i] = src[i];
  }
  dst[i] = '\0';
}

FlightRing* ring_for_this_thread() {
  thread_local FlightRing* t_ring = nullptr;
  if (t_ring != nullptr) return t_ring;
  const std::uint32_t idx =
      static_cast<std::uint32_t>(this_thread_index());
  if (idx >= FlightRecorder::kMaxThreads) return nullptr;
  FlightRing* ring = g_rings[idx].load(std::memory_order_acquire);
  if (ring == nullptr) {
    // Once-per-thread registration.
    auto* fresh = new FlightRing();
    fresh->thread = idx;
    FlightRing* expected = nullptr;
    if (g_rings[idx].compare_exchange_strong(expected, fresh,
                                             std::memory_order_acq_rel)) {
      ring = fresh;
    } else {
      delete fresh;
      ring = expected;
    }
  }
  t_ring = ring;
  return ring;
}

// ---- async-signal-safe writer -------------------------------------------
// Everything below with a _signal_safe suffix (plus these helpers, which
// the signal-safety analyzer rule reaches through the call graph) runs on
// the crash path: only write(2)/open(2)/close(2), stack buffers, no locks,
// no allocation, no stdio.

bool write_all_sigsafe(int fd, const void* buf, std::size_t len) {
  const char* p = static_cast<const char*>(buf);
  while (len > 0) {
    const ssize_t n = ::write(fd, p, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

// The rings a dump on this thread writes: its run's ring inside a RunScope
// (none before the run's first event); elsewhere every thread's own ring and
// each thread's most recently ended run that recorded events.
struct RingView {
  const FlightRing* rings[2 * FlightRecorder::kMaxThreads];
  std::uint32_t count = 0;
};

void view_signal_safe(RingView& view) {
  view.count = 0;
  if (const RunScope* run = RunScope::current(); run != nullptr) {
    if (const FlightRing* ring = run->recorded_flight_ring(); ring != nullptr) {
      view.rings[view.count++] = ring;
    }
    return;
  }
  for (std::uint32_t i = 0; i < FlightRecorder::kMaxThreads; ++i) {
    const FlightRing* ring = g_rings[i].load(std::memory_order_acquire);
    if (ring != nullptr) view.rings[view.count++] = ring;
    const FlightRing* run = g_ended_runs[i].load(std::memory_order_acquire);
    if (run != nullptr && run->head.load(std::memory_order_acquire) > 0) {
      view.rings[view.count++] = run;
    }
  }
}

bool write_rings_signal_safe(int fd, FlightOrigin origin) {
  RingView view;
  view_signal_safe(view);
  if (!write_all_sigsafe(fd, kMagic, sizeof(kMagic))) return false;
  const std::uint32_t event_size = sizeof(FlightEvent);
  if (!write_all_sigsafe(fd, &event_size, sizeof(event_size))) return false;
  if (!write_all_sigsafe(fd, &origin, sizeof(origin))) return false;
  if (!write_all_sigsafe(fd, &view.count, sizeof(view.count))) return false;
  for (std::uint32_t i = 0; i < view.count; ++i) {
    const FlightRing* ring = view.rings[i];
    const std::uint64_t total = ring->head.load(std::memory_order_acquire);
    const std::uint32_t stored =
        total < FlightRecorder::kRingCapacity
            ? static_cast<std::uint32_t>(total)
            : FlightRecorder::kRingCapacity;
    if (!write_all_sigsafe(fd, &ring->thread, sizeof(ring->thread)) ||
        !write_all_sigsafe(fd, &stored, sizeof(stored)) ||
        !write_all_sigsafe(fd, &total, sizeof(total))) {
      return false;
    }
    if (total <= FlightRecorder::kRingCapacity) {
      if (!write_all_sigsafe(fd, ring->slots, stored * sizeof(FlightEvent)))
        return false;
    } else {
      // Wrapped: oldest event lives at head & mask. Two spans, old→new.
      const std::uint64_t start = total & (FlightRecorder::kRingCapacity - 1);
      const std::uint64_t tail = FlightRecorder::kRingCapacity - start;
      if (!write_all_sigsafe(fd, ring->slots + start,
                             tail * sizeof(FlightEvent)) ||
          !write_all_sigsafe(fd, ring->slots, start * sizeof(FlightEvent))) {
        return false;
      }
    }
  }
  return true;
}

void crash_dump_signal_safe() {
  if (g_crash_path[0] == '\0') return;
  if (g_crash_dumped.exchange(true)) return;  // at most once per process
  const int fd = ::open(g_crash_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  FlightRecorder::instance().dump_to_fd_signal_safe(fd);
  ::close(fd);
  write_all_sigsafe(2, g_crash_note, g_crash_note_len);
}

extern "C" void fatal_signal_handler_signal_safe(int sig) {
  crash_dump_signal_safe();
  // SA_RESETHAND restored the default disposition; re-raise so the process
  // still dies with the original signal (and gtest death tests still match).
  ::raise(sig);
}

const char* path_basename(const char* path) {
  const char* base = path;
  for (const char* p = path; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  return base;
}

void install_signal_handlers() {
  static bool installed = false;
  if (installed) return;
  installed = true;
  struct sigaction sa = {};
  sa.sa_handler = &fatal_signal_handler_signal_safe;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESETHAND;
  ::sigaction(SIGSEGV, &sa, nullptr);
  ::sigaction(SIGABRT, &sa, nullptr);
}

}  // namespace

std::atomic<bool> FlightRecorder::enabled_{false};

FlightRecorder& FlightRecorder::instance() {
  // Leaked singleton: the crash paths may run during static destruction.
  // The one-time `new` happens at arm/enable time, long before any signal
  // handler can reach this.  // elan-analyze: allow(signal-safety)
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

void FlightRecorder::record(double ts_us, FlightEventKind kind, const char* actor,
                            const char* detail, std::uint64_t a,
                            std::uint64_t b, std::uint64_t c) {
  if (!enabled()) return;
  RunScope* run = RunScope::current();
  FlightRing* ring = run != nullptr ? &run->flight_ring() : ring_for_this_thread();
  if (ring == nullptr) return;
  FlightEvent ev;
  ev.ts_us = ts_us;
  ev.seq = run != nullptr ? run->flight_seq_++ : g_seq.fetch_add(1, std::memory_order_relaxed);
  ev.a = a;
  ev.b = b;
  ev.c = c;
  ev.thread = ring->thread;
  ev.kind = static_cast<std::uint8_t>(kind);
  copy_field(ev.actor, sizeof(ev.actor), actor);
  copy_field(ev.detail, sizeof(ev.detail), detail);
  const std::uint64_t head = ring->head.load(std::memory_order_relaxed);
  ring->slots[head & (kRingCapacity - 1)] = ev;
  ring->head.store(head + 1, std::memory_order_release);
}

// ---- crash hooks (normal context: called before throw/abort) ------------

void FlightRecorder::on_check_failure(const char* /*expr*/, const char* file, int line,
                                      const char* /*message*/) {
  record(Tracer::now_us(), FlightEventKind::kCheckFailed, "check", path_basename(file),
         static_cast<std::uint64_t>(line));
  crash_dump_signal_safe();
}

void FlightRecorder::on_lock_order_death(const char* /*report*/) {
  record(Tracer::now_us(), FlightEventKind::kLockOrderHit, "lockorder");
  crash_dump_signal_safe();
}

void FlightRecorder::keep_ended_run(const FlightRing& run) {
  const auto idx = static_cast<std::uint32_t>(this_thread_index());
  if (idx >= kMaxThreads) return;
  FlightRing* kept = g_ended_runs[idx].load(std::memory_order_acquire);
  if (kept == nullptr) {
    kept = new FlightRing();
    g_ended_runs[idx].store(kept, std::memory_order_release);
  }
  // Readers take `head` events from the slots: hide the copy until whole.
  const std::uint64_t total = run.head.load(std::memory_order_acquire);
  kept->head.store(0, std::memory_order_release);
  std::memcpy(kept->slots, run.slots,
              std::min<std::uint64_t>(total, kRingCapacity) * sizeof(FlightEvent));
  kept->thread = run.thread;
  kept->head.store(total, std::memory_order_release);
}

void FlightRecorder::clear() {
  g_seq.store(0, std::memory_order_relaxed);
  for (std::uint32_t i = 0; i < kMaxThreads; ++i) {
    for (const auto* slots : {g_rings, g_ended_runs}) {
      FlightRing* ring = slots[i].load(std::memory_order_acquire);
      if (ring != nullptr) ring->head.store(0, std::memory_order_release);
    }
  }
}

std::uint64_t FlightRecorder::total_recorded() const {
  RingView view;
  view_signal_safe(view);
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < view.count; ++i) {
    total += view.rings[i]->head.load(std::memory_order_acquire);
  }
  return total;
}

bool FlightRecorder::dump(const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  bool ok = write_rings_signal_safe(fd, FlightOrigin::kExit);
  const std::string metrics = MetricsRegistry::instance().text_exposition();
  const std::uint64_t metrics_len = metrics.size();
  ok = ok && write_all_sigsafe(fd, &metrics_len, sizeof(metrics_len));
  ok = ok && write_all_sigsafe(fd, metrics.data(), metrics.size());
  ::close(fd);
  return ok;
}

void FlightRecorder::arm_crash_dump(const std::string& path) {
  std::snprintf(g_crash_path, sizeof(g_crash_path), "%s", path.c_str());
  std::snprintf(g_crash_note, sizeof(g_crash_note),
                "[flight] wrote crash record %s\n", g_crash_path);
  g_crash_note_len = std::strlen(g_crash_note);
  g_crash_dumped.store(false, std::memory_order_relaxed);
  if (path.empty()) return;  // disarm: hooks stay installed but no-op
  elan::detail::set_check_failure_hook(&on_check_failure);
  set_lock_order_die_hook(&on_lock_order_death);
  install_signal_handlers();
}

void FlightRecorder::dump_to_fd_signal_safe(int fd) const {
  if (!write_rings_signal_safe(fd, FlightOrigin::kCrash)) return;
  const std::uint64_t metrics_len = 0;  // registry lock is not signal-safe
  write_all_sigsafe(fd, &metrics_len, sizeof(metrics_len));
}

FlightEventInfo event_info(FlightEventKind kind) {
  using K = FlightEventKind;
  constexpr bool kTraced = true;
  // The traced kinds happen a few times per adjustment. Per-message (msg.*,
  // sock.*) and per-round (round.*, worker.*) kinds stay out of the trace,
  // which keeps every event in memory until export; so do the chunk
  // milestones (each chunk already has a span) and the death causes.
  switch (kind) {
    // detail = message type; actor = sender (send, drop, retry, gave_up) or
    // receiver (deliver, to_unknown, malformed).
    case K::kMsgSend: return {"msg.send", {"id"}};
    // reason: 0 forced, 1 fault filter, 2 random loss.
    case K::kMsgDrop: return {"msg.drop", {"id", "reason"}};
    case K::kMsgDeliver: return {"msg.deliver", {"id"}};
    case K::kMsgToUnknown: return {"msg.to_unknown", {"id"}};
    case K::kMsgRetry: return {"msg.retry", {"id", "attempt"}};
    case K::kMsgGaveUp: return {"msg.gave_up", {"id", "attempt"}};
    // bytes = the payload size.
    case K::kMsgMalformed: return {"msg.malformed", {"id", "bytes"}};

    // actor = the AM; from/to are AmPhase values, detail = the next phase.
    case K::kAmPhase: return {"am.phase", {"from", "to", "plan"}, kTraced};
    // detail = adjustment type.
    case K::kAdjustRequest: return {"am.adjust_request", {"request"}, kTraced};
    case K::kAdjustReplay: return {"am.adjust_replay", {"request", "cached_ok"}, kTraced};
    case K::kAdjustVerdict: return {"am.adjust_verdict", {"request", "ok", "plan"}, kTraced};
    case K::kWorkerReport: return {"am.worker_report", {"worker", "plan"}, kTraced};
    case K::kWorkerEvicted: return {"am.worker_evicted", {"worker", "plan"}, kTraced};

    // actor = "w<id>/<job>".
    case K::kCoordinateSend: return {"worker.coordinate", {"iteration", "worker"}};
    case K::kCoordinateResend: return {"worker.coord_resend", {"iteration", "resend"}};
    case K::kDecisionRecv: return {"worker.decision", {"iteration", "adjust"}};
    // stale 0: a duplicate with no round pending (iteration = the last one);
    // stale 1: a decision for another round than the awaited one.
    case K::kDecisionStale:
      return {"worker.decision_stale", {"iteration", "stale", "awaiting"}};

    // actor = the job id; detail = adjustment type where there is one.
    case K::kRoundStart: return {"round.start", {"iteration", "workers"}};
    case K::kRoundDecision: return {"round.decision", {"iteration", "worker", "adjust"}};
    case K::kRoundComplete: return {"round.complete", {"iteration", "adjust_signalled"}};
    case K::kAdjustSent: return {"job.adjust_sent", {"request"}, kTraced};
    case K::kAdjustReply: return {"job.adjust_reply", {"request", "ok", "duplicate"}, kTraced};
    case K::kAdjustStart:
      return {"job.adjust_start", {"plan", "workers_before", "workers_after"}, kTraced};
    case K::kAdjustFinish:
      return {"job.adjust_finish", {"plan", "workers_after", "failed_joins"}, kTraced};

    case K::kChunkVerified: return {"repl.chunk_verified", {"chunk", "dest", "src"}};
    case K::kChunkSourceLost: return {"repl.chunk_src_lost", {"chunk", "dest", "src"}, kTraced};
    case K::kReplicationReplan:
      return {"repl.replanned", {"resumed", "kept_chunks", "replans"}, kTraced};

    // detail = the fault's description; index = its place in the injector's
    // log.
    case K::kFaultInjected: return {"fault.injected", {"index"}, kTraced};
    case K::kLockOrderHit: return {"death.lock_order"};
    // detail = the source file's basename.
    case K::kCheckFailed: return {"death.check_failed", {"line"}};
    // detail = the fault kind of a link window, armed with the plan.
    case K::kFaultArmed: return {"fault.armed", {"from_ms", "until_ms"}, kTraced};

    // actor = peer or connection; code is a SocketError, detail its name.
    case K::kSockError: return {"sock.error", {"code"}};
    // actor = peer; from/to are LinkState values, detail = the next state.
    case K::kLinkState: return {"sock.link_state", {"from", "to"}};
  }
  return {};
}

const char* to_string(FlightEventKind kind) {
  const char* name = event_info(kind).name;
  return name != nullptr ? name : "unknown";
}

void trace_instant(double ts_us, FlightEventKind kind, const char* actor, const char* detail,
                   std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  const FlightEventInfo row = event_info(kind);
  // The instant shows what the record holds: the same truncated strings.
  FlightEvent e;
  copy_field(e.actor, sizeof(e.actor), actor);
  copy_field(e.detail, sizeof(e.detail), detail);
  std::string args = "{\"actor\":\"" + json_escape(e.actor) + "\",\"detail\":\"" +
                     json_escape(e.detail) + "\"";
  const std::uint64_t values[3] = {a, b, c};
  for (int i = 0; i < 3; ++i) {
    if (row.labels[i] == nullptr) continue;
    args += ",\"" + std::string(row.labels[i]) + "\":" + std::to_string(values[i]);
  }
  args += "}";
  Tracer::instance().instant("event", row.name, ts_us, std::move(args));
}

std::vector<FlightEvent> FlightRecord::merged() const {
  std::vector<FlightEvent> all;
  for (const Ring& ring : rings) {
    all.insert(all.end(), ring.events.begin(), ring.events.end());
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const FlightEvent& x, const FlightEvent& y) {
                     if (x.ts_us != y.ts_us) return x.ts_us < y.ts_us;
                     return x.seq < y.seq;
                   });
  return all;
}

FlightRecord read_flight_record(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("flight record: cannot open " + path);
  auto read_raw = [&](void* dst, std::size_t len) {
    in.read(static_cast<char*>(dst), static_cast<std::streamsize>(len));
    if (!in) throw Error("flight record: truncated file " + path);
  };
  char magic[8];
  read_raw(magic, sizeof(magic));
  if (std::memcmp(magic, kMagic, 7) != 0)
    throw Error("flight record: bad magic in " + path);
  FlightRecord record;
  record.version = static_cast<std::uint32_t>(magic[7]);
  if (record.version != 2)
    throw Error("flight record: unsupported version in " + path);
  std::uint32_t event_size = 0;
  read_raw(&event_size, sizeof(event_size));
  if (event_size != sizeof(FlightEvent))
    throw Error("flight record: event layout mismatch in " + path);
  read_raw(&record.origin, sizeof(record.origin));
  if (record.origin != FlightOrigin::kExit && record.origin != FlightOrigin::kCrash)
    throw Error("flight record: unknown origin in " + path);
  std::uint32_t ring_count = 0;
  read_raw(&ring_count, sizeof(ring_count));
  if (ring_count > FlightRecorder::kMaxThreads)
    throw Error("flight record: implausible ring count in " + path);
  record.rings.resize(ring_count);
  for (FlightRecord::Ring& ring : record.rings) {
    std::uint32_t stored = 0;
    read_raw(&ring.thread, sizeof(ring.thread));
    read_raw(&stored, sizeof(stored));
    read_raw(&ring.total, sizeof(ring.total));
    if (stored > FlightRecorder::kRingCapacity)
      throw Error("flight record: implausible ring size in " + path);
    ring.events.resize(stored);
    if (stored > 0)
      read_raw(ring.events.data(), stored * sizeof(FlightEvent));
  }
  std::uint64_t metrics_len = 0;
  read_raw(&metrics_len, sizeof(metrics_len));
  if (metrics_len > (1u << 30))
    throw Error("flight record: implausible metrics size in " + path);
  record.metrics_text.resize(metrics_len);
  if (metrics_len > 0) read_raw(record.metrics_text.data(), metrics_len);
  return record;
}

}  // namespace elan::obs
