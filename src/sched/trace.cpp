#include "sched/trace.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>

#include "common/error.h"

namespace elan::sched {

namespace {

constexpr double kPi = 3.14159265358979323846;

/// Request sizes weighted towards small jobs, as in production DL clusters.
int sample_req_res(Rng& rng) {
  const double u = rng.uniform();
  if (u < 0.30) return 1;
  if (u < 0.50) return 2;
  if (u < 0.70) return 4;
  if (u < 0.85) return 8;
  if (u < 0.95) return 16;
  return 32;
}

/// A rate for an error message: "5", "22.5".
std::string rate_text(double jobs_per_hour) {
  std::ostringstream os;
  os << jobs_per_hour;
  return os.str();
}

}  // namespace

TraceParams production_trace_params(int target_jobs, std::uint64_t seed) {
  require(target_jobs > 0, "trace: target_jobs must be positive");
  TraceParams params;
  params.seed = seed;
  const double mean_jobs = (params.peak_jobs_per_hour + params.trough_jobs_per_hour) /
                           2.0 * (params.span / 3600.0);
  params.load = static_cast<double>(target_jobs) / mean_jobs;
  return params;
}

TraceGenerator::TraceGenerator(const train::ThroughputModel& throughput, TraceParams params)
    : throughput_(&throughput), params_(params) {
  require(params_.span > 0, "trace: span must be positive");
  // generate() draws candidates at the peak rate and keeps each with
  // probability rate(t) / peak: below the trough the peak would flatten the
  // diurnal shape.
  ELAN_REQUIRE(params_.trough_jobs_per_hour > 0 &&
                   params_.peak_jobs_per_hour >= params_.trough_jobs_per_hour,
               "trace: need peak >= trough > 0 arrivals per hour, got peak " +
                   rate_text(params_.peak_jobs_per_hour) + " and trough " +
                   rate_text(params_.trough_jobs_per_hour));
  require(params_.load > 0, "trace: load must be positive");
}

SchedJobSpec TraceGenerator::make_job(int id, Seconds submit,
                                      const std::vector<train::ModelSpec>& zoo,
                                      Rng& rng) const {
  SchedJobSpec job;
  job.id = id;
  job.submit_time = submit;

  job.model = zoo[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(zoo.size()) - 1))];

  job.req_res = sample_req_res(rng);
  job.base_total_batch = params_.per_worker_batch * job.req_res;

  // min_res: smallest worker count whose per-worker batch fits in GPU memory
  // (the paper: "the model can fit in GPU memory with min_res workers").
  int min_res = std::max(1, job.req_res / 4);
  while (min_res < job.req_res &&
         !throughput_->fits(job.model, min_res, job.base_total_batch)) {
    ++min_res;
  }
  job.min_res = min_res;

  // max_res: enough room to weak-scale a couple of times but bounded so the
  // batch stays in convergence-safe territory ("converge with max_res").
  job.max_res = std::min({job.req_res * 4, throughput_->topology().total_gpus() / 2});
  job.max_res = std::max(job.max_res, job.req_res);

  const double duration = std::min(
      params_.duration_cap,
      params_.duration_median * std::exp(rng.normal(0.0, params_.duration_sigma)));
  const double tput =
      throughput_->throughput(job.model, job.req_res, job.base_total_batch);
  job.total_samples = static_cast<std::uint64_t>(std::max(1.0, duration * tput));
  return job;
}

std::vector<SchedJobSpec> TraceGenerator::generate() const {
  Rng rng(params_.seed);
  const auto zoo = train::model_zoo();
  std::vector<SchedJobSpec> jobs;
  // `load` scales both rates; the default 1.0 multiplies exactly, keeping
  // historical seeds bit-stable.
  const double mean_rate = (params_.peak_jobs_per_hour + params_.trough_jobs_per_hour) /
                           2.0 / 3600.0 * params_.load;
  const double amplitude = (params_.peak_jobs_per_hour - params_.trough_jobs_per_hour) /
                           2.0 / 3600.0 * params_.load;
  const double peak_rate = mean_rate + amplitude;

  // Thinned Poisson process: candidates at the peak rate, accepted with
  // probability rate(t)/peak_rate. Peak activity at 15:00 each day.
  Seconds t = 0;
  int id = 0;
  while (true) {
    t += rng.exponential(peak_rate);
    if (t >= params_.span) break;
    const double day_phase = 2.0 * kPi * (t / hours(24.0) - 15.0 / 24.0);
    const double rate = mean_rate + amplitude * std::cos(day_phase);
    if (!rng.chance(rate / peak_rate)) continue;
    jobs.push_back(make_job(id++, t, zoo, rng));
  }
  return jobs;
}

}  // namespace elan::sched
