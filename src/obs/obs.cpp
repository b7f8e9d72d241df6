#include "obs/obs.h"

#include <cstdio>
#include <cstdlib>

#include "common/log.h"
#include "obs/metrics.h"

namespace elan::obs {

namespace {

// Written once by init_from_env before the atexit registration; read by the
// exit hook. No locking needed for that ordering, but keep it simple.
std::string& trace_path() {
  static std::string path;
  return path;
}

std::string& metrics_path() {
  static std::string path;
  return path;
}

std::string& flight_path_storage() {
  static std::string path;
  return path;
}

thread_local RunScope* t_run = nullptr;  // the thread's innermost RunScope

void dump_observability() {
  if (!trace_path().empty()) {
    try {
      Tracer::instance().write_json(trace_path());
      std::fprintf(stderr, "[obs] wrote trace %s\n", trace_path().c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[obs] trace dump failed: %s\n", e.what());
    }
    trace_path().clear();
  }
  if (!metrics_path().empty()) {
    try {
      MetricsRegistry::instance().write_text(metrics_path());
      std::fprintf(stderr, "[obs] wrote metrics %s\n", metrics_path().c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[obs] metrics dump failed: %s\n", e.what());
    }
    metrics_path().clear();
  }
  if (!flight_path_storage().empty()) {
    // Clean-exit flight record (crash paths write their own through the
    // armed hooks). Keep the path so flight_requested() stays true.
    if (FlightRecorder::instance().dump(flight_path_storage())) {
      std::fprintf(stderr, "[obs] wrote flight record %s\n",
                   flight_path_storage().c_str());
    } else {
      std::fprintf(stderr, "[obs] flight record dump failed: %s\n",
                   flight_path_storage().c_str());
    }
  }
}

}  // namespace

void init_from_env() {
  static bool initialized = false;
  if (initialized) return;
  initialized = true;

  Logger::init_from_env();

  bool want_dump = false;
  if (const char* trace = std::getenv("ELAN_TRACE"); trace != nullptr && *trace != '\0') {
    trace_path() = trace;
    Tracer::instance().set_enabled(true);
    want_dump = true;
  }
  if (const char* metrics = std::getenv("ELAN_METRICS");
      metrics != nullptr && *metrics != '\0') {
    metrics_path() = metrics;
    want_dump = true;
  }
  if (const char* flight = std::getenv("ELAN_FLIGHT");
      flight != nullptr && *flight != '\0') {
    flight_path_storage() = flight;
    FlightRecorder::set_enabled(true);
    FlightRecorder::instance().arm_crash_dump(flight);
    want_dump = true;
  }
  if (want_dump) std::atexit(dump_observability);
}

RunScope::RunScope(sim::Simulator& sim) : sim_(sim), outer_(t_run) { t_run = this; }

RunScope::~RunScope() {
  if (flight_ring_ != nullptr && FlightRecorder::enabled()) {
    FlightRecorder::keep_ended_run(*flight_ring_);
  }
  t_run = outer_;
}

RunScope* RunScope::current() { return t_run; }

FlightRing& RunScope::flight_ring() {
  if (!flight_ring_) flight_ring_ = std::make_unique<FlightRing>();
  return *flight_ring_;
}

bool flight_requested() { return !flight_path_storage().empty(); }

std::string flight_path() { return flight_path_storage(); }

}  // namespace elan::obs
