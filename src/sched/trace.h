// Synthetic production-trace generator.
//
// The paper replays a down-sampled two-day trace from a Sensetime DL training
// cluster (Fig 1 shows its utilisation shape) on a 128-GPU simulator, with a
// model configuration drawn from Table I per job. That trace is proprietary;
// this generator produces a statistically similar one: a diurnal
// (sinusoidally modulated) Poisson arrival process, a small-job-heavy size
// distribution, log-normal durations, and min/max resource bounds derived
// the way the paper describes (min fits GPU memory, max keeps convergence).
#pragma once

#include <vector>

#include "common/rng.h"
#include "sched/job.h"
#include "train/throughput.h"

namespace elan::sched {

struct TraceParams {
  Seconds span = hours(48.0);
  /// Mean arrivals per hour at the daily peak and trough, with peak >=
  /// trough > 0. Defaults offer ~75% of cluster capacity on average, so
  /// peaks overload (queues build) and troughs drain — the Fig 1
  /// utilisation pattern.
  double peak_jobs_per_hour = 22.0;
  double trough_jobs_per_hour = 10.0;
  /// Log-normal duration (of the job running alone on req_res workers).
  double duration_median = minutes(60.0);
  double duration_sigma = 1.0;
  Seconds duration_cap = hours(10.0);
  int per_worker_batch = 32;
  /// Arrival-rate multiplier applied to both the peak and trough rates —
  /// the production-scale knob. 1.0 reproduces the paper's ~770-job
  /// two-day trace exactly (rates multiply by exactly 1.0, so existing
  /// seeds are bit-stable); ~6.5 yields a 5k-job trace with the same
  /// diurnal shape.
  double load = 1.0;
  std::uint64_t seed = 2020;
};

/// TraceParams whose load is tuned so generate() yields approximately
/// `target_jobs` jobs over the default 48-hour span — the 5k+-job
/// production-scale traces bench_sched replays.
TraceParams production_trace_params(int target_jobs, std::uint64_t seed = 2020);

class TraceGenerator {
 public:
  TraceGenerator(const train::ThroughputModel& throughput, TraceParams params = {});

  /// Generates the job list, sorted by submit time.
  std::vector<SchedJobSpec> generate() const;

 private:
  const train::ThroughputModel* throughput_;
  TraceParams params_;

  SchedJobSpec make_job(int id, Seconds submit, const std::vector<train::ModelSpec>& zoo,
                        Rng& rng) const;
};

}  // namespace elan::sched
