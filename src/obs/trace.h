// Structured tracing: thread-safe, low-overhead span recorder.
//
// The tracer answers the question the coarse bench totals cannot: *where does
// the time inside an adjustment go?* Instrumentation sites emit spans
// (complete events) explicitly; protocol events become instants through the
// one event call, obs::event (flight.h), for the kinds the event table marks
// traced. The exporter writes Chrome trace-event JSON, loadable in Perfetto /
// chrome://tracing, and tools/elan_trace_report renders per-category
// summaries from the same file.
//
// Design constraints, in priority order:
//
//   1. *Near-zero cost when disabled.* Every macro and recording entry point
//      starts with one relaxed atomic load; nothing else runs. Instrumented
//      hot loops (trainer step, allreduce, kernel dispatch) must show no
//      measurable regression with tracing off (checked against
//      BENCH_kernels.json).
//   2. *Thread safety without hot-path contention.* Events append to a
//      per-thread buffer guarded by that buffer's own elan::Mutex (PR 2
//      discipline: every mutex is an annotated elan::Mutex). The per-thread
//      mutex is uncontended except during a flush, so an append is a
//      lock/push_back/unlock. flush() drains all buffers under the registry
//      mutex, taking each buffer mutex one at a time (lock order:
//      trace_registry -> trace_buffer; appends take only trace_buffer).
//   3. *Two clock domains, one clock.* Tracer::now_us() stamps the trace
//      and the flight recorder alike. By default it reads a monotonic
//      real-time clock (microseconds since its first reading). A thread
//      inside an obs::RunScope (obs/obs.h) reads its run's discrete-event
//      simulator instead, so sim runs produce virtual-time timelines
//      comparable to the paper's Figs 10-11, and concurrent runs never share
//      a clock.
//      Instrumentation that already knows its virtual interval (replication
//      transfer plans, allreduce steps) bypasses the clock entirely and
//      records explicit timestamps via complete().
//
// Event model (Chrome trace-event format):
//   'X' complete  — a span: ts + dur. ELAN_TRACE_SCOPE or explicit complete().
//   'i' instant   — a point event: a traced protocol event (category
//                   "event", named after its kind; obs::event).
// Events carry a pid (logical process lane, set_pid(); benches use it to put
// e.g. the S&R and Elan runs side by side) and a tid (real thread index by
// default, overridable so virtual spans can occupy per-worker/per-link lanes).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/sync.h"

namespace elan::obs {

struct TraceEvent {
  char phase = 'X';          // 'X' complete, 'i' instant
  const char* category = ""; // static string at every call site
  std::string name;
  double ts_us = 0;          // event start, microseconds in the active clock
  double dur_us = 0;         // 'X' only
  int pid = 1;
  std::uint64_t tid = 0;
  std::string args;          // pre-rendered JSON object ("{...}") or empty
};

class Tracer {
 public:
  static Tracer& instance();

  /// The disabled fast path: one relaxed atomic load.
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// True when the calling thread's clock is a run's virtual clock (it is
  /// inside an obs::RunScope).
  bool has_custom_clock() const;

  /// The observability clock, which every sink stamps with: microseconds in
  /// the calling thread's clock domain. Inside an obs::RunScope that is the
  /// run's virtual time; elsewhere a monotonic real clock whose epoch is its
  /// first reading in the process.
  static double now_us();

  /// Logical process lane stamped on subsequent events (default 1); `name`
  /// becomes the Perfetto process label via a metadata event.
  void set_pid(int pid, const std::string& name = "");

  /// Sentinel for `tid`: use the recording thread's dense index.
  static constexpr std::uint64_t kCurrentThread = ~0ull;

  // --- Recording (each is a no-op when disabled) ---------------------------

  /// A span [ts_us, ts_us + dur_us). Explicit timestamps make this the
  /// workhorse for virtual-time instrumentation (replication transfers,
  /// allreduce steps, adjustment phases); ELAN_TRACE_SCOPE uses it with
  /// clock-derived timestamps. `args` must be a rendered JSON object or "".
  void complete(const char* category, std::string name, double ts_us, double dur_us,
                std::string args = {}, std::uint64_t tid = kCurrentThread);

  /// A point event at `ts_us` (usually now_us(); obs::event passes the time
  /// it also stamps on the flight record).
  void instant(const char* category, std::string name, double ts_us, std::string args = {});

  // --- Export ---------------------------------------------------------------

  /// Drains every per-thread buffer into the collected list.
  void flush();
  /// flush() + copy of everything recorded since the last clear().
  std::vector<TraceEvent> snapshot();
  /// Chrome trace-event JSON ({"traceEvents": [...]}).
  std::string to_json();
  /// Writes to_json() to `path`; throws InternalError on failure.
  void write_json(const std::string& path);
  /// Drops all recorded events (buffers and collected list).
  void clear();

 private:
  Tracer() = default;

  struct ThreadBuffer {
    Mutex mu{"trace_buffer"};
    std::vector<TraceEvent> events ELAN_GUARDED_BY(mu);
  };

  ThreadBuffer& buffer_for_this_thread();
  void record(TraceEvent event);

  static std::atomic<bool> enabled_;

  std::atomic<int> pid_{1};

  mutable Mutex registry_mu_{"trace_registry"};
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_ ELAN_GUARDED_BY(registry_mu_);
  std::vector<TraceEvent> collected_ ELAN_GUARDED_BY(registry_mu_);
  std::vector<std::pair<int, std::string>> process_names_ ELAN_GUARDED_BY(registry_mu_);
};

/// RAII span: records a complete event covering its lifetime. When tracing is
/// disabled the constructor is one atomic load and the destructor one branch.
class TraceScope {
 public:
  TraceScope(const char* category, const char* name) {
    if (!Tracer::enabled()) return;
    active_ = true;
    category_ = category;
    name_ = name;
    start_us_ = Tracer::instance().now_us();
  }

  ~TraceScope() {
    if (!active_) return;
    auto& tracer = Tracer::instance();
    tracer.complete(category_, name_, start_us_, tracer.now_us() - start_us_);
  }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  bool active_ = false;
  const char* category_ = "";
  const char* name_ = "";
  double start_us_ = 0;
};

/// JSON string escaping for event names / arg values.
std::string json_escape(const std::string& s);

}  // namespace elan::obs

// ELAN_TRACE_SCOPE(category, name): a span covering the rest of the enclosing
// scope. `category` and `name` must be string literals (or otherwise outlive
// the program); multiple scopes per block are fine (__COUNTER__-unique names).
#define ELAN_OBS_CONCAT_(a, b) a##b
#define ELAN_OBS_CONCAT(a, b) ELAN_OBS_CONCAT_(a, b)
#define ELAN_TRACE_SCOPE(category, name) \
  ::elan::obs::TraceScope ELAN_OBS_CONCAT(elan_trace_scope_, __COUNTER__)(category, name)
