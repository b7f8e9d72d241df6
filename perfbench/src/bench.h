// Shared pieces of the repository benchmark (perfbench/README.md).
//
// Every workload has two entry points:
//   *_e2e    — the untraced run the end-to-end metrics come from. It sets up
//              several times (set-up time is reported as a median) and then
//              repeats timed operations until --seconds have passed.
//   *_traced — a fixed amount of work run twice, first with tracing off and
//              then with the program's tracer on and the benchmark timing the
//              calls into each layer from outside. The two passes must give
//              identical outputs (the traced run is transparent); their wall
//              times give obs.trace_overhead.<workload>.
//
// The benchmark's own layer timings are plain steady_clock intervals kept in
// this process' memory. They never go through obs::Tracer, whose events in
// the simulated workloads carry virtual (sim-clock) timestamps, so no span
// duration is ever computed across the two clock domains.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double ms_since(Clock::time_point start) { return 1e3 * seconds_since(start); }

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);
double sum(const std::vector<double>& values);

/// Operation accounting and correctness checks of one run. A failed check
/// counts its operations as failed.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few messages, for the log

  void record(std::uint64_t ops, bool ok, const std::string& what);
  /// A check on an operation already counted: marks one more failure.
  void require(bool ok, const std::string& what);
};

struct Options {
  std::uint64_t seed = 0;
  double seconds = 0;
  int threads = 1;
};

/// What the end-to-end metrics of one workload are computed from.
struct E2eRun {
  const char* item = "";  // unit of work counted in `op_items` (plan, iteration, ...)
  const char* op = "";    // the operation each `op_ms` entry times
  /// Throughput is the median over windows of this many consecutive
  /// operations, so a burst of interference from other processes moves it
  /// less than it would move a plain total.
  std::size_t window = 1;
  std::vector<double> setup_s;   // one entry per set-up
  std::vector<double> op_ms;     // wall time of each timed operation
  std::vector<double> op_items;  // work each timed operation completed
  Checks checks;

  void add_op(double ms, double items) {
    op_ms.push_back(ms);
    op_items.push_back(items);
  }
  /// Median over windows of items per second.
  double items_per_s() const;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Per-layer metrics of a traced run.
struct LayerRun {
  std::vector<Metric> metrics;
  Checks checks;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Re-creates the process-wide ThreadPool: pool spin-up is part of every
/// set-up the benchmark times.
void spin_up_pool(int threads);

/// Turns the program's tracer on or off and drops whatever it recorded.
void set_tracing(bool on);

E2eRun chaos_e2e(const Options& options);
E2eRun elastic_e2e(const Options& options);
E2eRun minidl_e2e(const Options& options);
E2eRun sched_e2e(const Options& options);

void chaos_traced(const Options& options, LayerRun& out);
void elastic_traced(const Options& options, LayerRun& out);
void minidl_traced(const Options& options, LayerRun& out);
void sched_traced(const Options& options, LayerRun& out);

}  // namespace perfbench
