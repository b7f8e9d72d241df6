// Observability bootstrap shared by benches and tools.
//
//   obs::init_from_env() — one call near the top of main (bench binaries get
//   it for free through bench::print_header):
//     ELAN_LOG=trace|debug|info|warn|error  sets the global logger level;
//     ELAN_TRACE=<path>   enables the tracer and writes a Chrome trace-event
//                         JSON to <path> at process exit;
//     ELAN_METRICS=<path> writes the Prometheus-style metrics snapshot to
//                         <path> at process exit.
//     ELAN_FLIGHT=<path>  enables the black-box flight recorder, arms its
//                         crash dump (ELAN_CHECK failures, lock-order
//                         aborts, SIGSEGV/SIGABRT), and writes the record
//                         to <path> at process exit as well.
//
//   obs::RunScope — binds one simulated run's observability context to the
//   calling thread: the tracer and the flight recorder stamp the thread's
//   events with the simulator's virtual clock (comparable to the explicitly-
//   timestamped spans the job runtime emits, paper Figs 10-11 timelines),
//   and its flight events go to a ring and sequence of the run's own.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "obs/flight.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace elan::obs {

/// Applies ELAN_LOG / ELAN_TRACE / ELAN_METRICS (see the file comment).
/// Idempotent; the exit dump registers only once.
void init_from_env();

/// True when init_from_env enabled the flight recorder (ELAN_FLIGHT set).
bool flight_requested();

/// The ELAN_FLIGHT destination ("" when unset).
std::string flight_path();

/// One simulated run's observability context, bound to the calling thread
/// while the scope lives (DESIGN.md §5d, §5i):
///   - the thread's tracer and flight-recorder timestamps come from
///     `sim.now()`;
///   - its flight events go to a ring of the run's own (allocated on the
///     run's first event), numbered from sequence 0, and a
///     FlightRecorder::dump() on the thread writes that ring. When the scope
///     ends with the recorder on, the ring is kept as the thread's most
///     recently ended run, which dumps outside any run include.
/// A run's record therefore depends only on the run: not on which thread ran
/// it, nor on what other threads ran beside it. Other threads keep their own
/// binding; the tracer's event buffers and the metrics registry stay
/// process-wide. Scopes nest: the innermost one binds until it ends.
class RunScope {
 public:
  explicit RunScope(sim::Simulator& sim);
  ~RunScope();

  RunScope(const RunScope&) = delete;
  RunScope& operator=(const RunScope&) = delete;

  /// The calling thread's innermost scope, or nullptr outside any run.
  static RunScope* current();

  /// The run's virtual time in µs.
  double now_us() const { return sim_.now() * 1e6; }

  /// The run's flight ring, or nullptr before its first flight event.
  const FlightRing* recorded_flight_ring() const { return flight_ring_.get(); }

 private:
  friend class FlightRecorder;

  FlightRing& flight_ring();  // allocated on first use

  sim::Simulator& sim_;
  RunScope* outer_;
  std::unique_ptr<FlightRing> flight_ring_;
  std::uint64_t flight_seq_ = 0;
};

}  // namespace elan::obs
