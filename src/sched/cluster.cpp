#include "sched/cluster.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>

#include "common/error.h"
#include "elan/hybrid_scaling.h"
#include "sched/allocation.h"

namespace elan::sched {

namespace {

// Memo keys: the looked-up configuration packed into one 64-bit integer.
// The packing must be injective — the ELAN_CHECKs pin each field to its bit
// budget (any realistic trace is orders of magnitude below them).
std::uint64_t pack_ladder_key(int kind, int req, int base, int min) {
  ELAN_CHECK(kind >= 0 && kind < (1 << 8), "ladder key: model kind out of range");
  ELAN_CHECK(min >= 0 && min < (1 << 12), "ladder key: min_res out of range");
  ELAN_CHECK(req >= 0 && req < (1 << 12), "ladder key: req_res out of range");
  ELAN_CHECK(base >= 0 && base < (1 << 20), "ladder key: base batch out of range");
  return (static_cast<std::uint64_t>(kind) << 44) | (static_cast<std::uint64_t>(min) << 32) |
         (static_cast<std::uint64_t>(req) << 20) | static_cast<std::uint64_t>(base);
}

std::uint64_t pack_pause_key(AdjustmentType type, int kind, int before, int after) {
  const int t = static_cast<int>(type);
  ELAN_CHECK(t >= 0 && t < (1 << 8), "pause key: adjustment type out of range");
  ELAN_CHECK(kind >= 0 && kind < (1 << 8), "pause key: model kind out of range");
  ELAN_CHECK(before >= 0 && before < (1 << 16), "pause key: workers before out of range");
  ELAN_CHECK(after >= 0 && after < (1 << 16), "pause key: workers after out of range");
  return (static_cast<std::uint64_t>(t) << 40) | (static_cast<std::uint64_t>(kind) << 32) |
         (static_cast<std::uint64_t>(before) << 16) | static_cast<std::uint64_t>(after);
}

}  // namespace

const char* to_string(PolicyKind policy) {
  switch (policy) {
    case PolicyKind::kFifo: return "FIFO";
    case PolicyKind::kBackfill: return "BF";
    case PolicyKind::kElasticFifo: return "E-FIFO";
    case PolicyKind::kElasticBackfill: return "E-BF";
    case PolicyKind::kElasticSrtf: return "E-SRTF";
  }
  return "?";
}

bool is_elastic(PolicyKind policy) {
  return policy == PolicyKind::kElasticFifo || policy == PolicyKind::kElasticBackfill ||
         policy == PolicyKind::kElasticSrtf;
}

ClusterSim::ClusterSim(const train::ThroughputModel& throughput,
                       const baselines::AdjustmentCostModel& costs, PolicyKind policy,
                       baselines::System system, ClusterParams params)
    : throughput_(&throughput),
      costs_(&costs),
      policy_(policy),
      system_(system),
      params_(params),
      free_pool_(throughput.topology()) {
  require(params_.total_gpus > 0, "cluster: total_gpus must be positive");
}

void ClusterSim::fill_rung(const SchedJob& job, int workers, Rung& r) const {
  const HybridScaling hybrid(*throughput_, job.spec.model);
  // Decide relative to the job's tuned configuration so the batch size is a
  // pure function of the worker count (keeps reallocation estimates stable).
  r.batch = hybrid.decide(job.spec.req_res, job.spec.base_total_batch, workers).total_batch;
  r.tput = throughput_->throughput(job.spec.model, workers, r.batch) *
           (1.0 - costs_->runtime_overhead(system_, job.spec.model, workers, r.batch));
}

double ClusterSim::measured_throughput(const SchedJob& job) const {
  if (!params_.placement_aware) return job_throughput(job, job.effective_workers(now_));
  // The job's real placement sets the communication bottleneck. During an
  // adjustment's start window the previous width applies; approximate the
  // previous placement by the first prev_workers GPUs of the current set.
  std::span<const topo::GpuId> members = job.gpus;
  const int eff = job.effective_workers(now_);
  if (static_cast<int>(members.size()) > eff && eff > 0) {
    members = members.first(static_cast<std::size_t>(eff));
  }
  const int tbs = job.effective_batch(now_);
  double tput = throughput_->throughput_on(job.spec.model, members, tbs);
  tput *= 1.0 - costs_->runtime_overhead(system_, job.spec.model,
                                         static_cast<int>(members.size()), tbs);
  return tput;
}

double ClusterSim::measured_throughput_cached(int index) {
  const SchedJob& job = jobs_[static_cast<std::size_t>(index)];
  // The measured throughput is a pure function of the adjustment-timeline
  // phase now_ falls in: the allocation, batch, and placement are all
  // constant between allocation changes (which invalidate the cache).
  const int phase = now_ < job.pause_start ? 0 : (now_ < job.paused_until ? 1 : 2);
  JobTput& cached = job_tput_[static_cast<std::size_t>(index)];
  if (cached.phase != phase) {
    cached.tput = measured_throughput(job);
    cached.phase = phase;
  }
  return cached.tput;
}

void ClusterSim::start_job(int index, int workers) {
  SchedJob& job = jobs_[static_cast<std::size_t>(index)];
  ELAN_CHECK(job.status == JobStatus::kPending, "start_job: not pending");
  ELAN_CHECK(workers <= free_gpus_, "start_job: not enough free GPUs");
  job.status = JobStatus::kRunning;
  job.workers = workers;
  job.total_batch = hybrid_batch(job, workers);
  job.start_time = now_;
  free_gpus_ -= workers;
  if (params_.placement_aware) {
    job.gpus = take_gpus(free_pool_, workers, {});
  }
  job_tput_[static_cast<std::size_t>(index)].phase = -1;
  running_.push_back(index);
  metrics_.pending_time.add(job.pending_time());
}

void ClusterSim::finish_job(int index) {
  SchedJob& job = jobs_[static_cast<std::size_t>(index)];
  job.status = JobStatus::kFinished;
  job.finish_time = now_;
  free_gpus_ += job.workers;
  if (params_.placement_aware) {
    for (auto g : job.gpus) free_pool_.insert(g);
    job.gpus.clear();
  }
  job.workers = 0;
  running_.erase(std::find(running_.begin(), running_.end(), index));
  metrics_.completion_time.add(job.completion_time());
  ++metrics_.jobs_finished;
  metrics_.makespan = std::max(metrics_.makespan, now_);
  rebalance_requested_ = true;  // freed resources: re-run the allocation rule
}

Seconds ClusterSim::adjustment_pause(AdjustmentType type, const SchedJob& job,
                                     int new_workers) {
  const std::uint64_t key =
      pack_pause_key(type, static_cast<int>(job.spec.model.kind), job.workers, new_workers);
  if (const double* hit = pause_cache_.find(key)) return *hit;
  const Seconds pause =
      costs_->pause_time(system_, type, job.spec.model, job.workers, new_workers);
  pause_cache_.insert(key, pause);
  return pause;
}

void ClusterSim::apply_allocation(SchedJob& job, int new_workers) {
  if (new_workers == job.workers) return;
  const auto type = new_workers > job.workers ? AdjustmentType::kScaleOut
                                              : AdjustmentType::kScaleIn;
  const Seconds pause = adjustment_pause(type, job, new_workers);
  // Scale-out cannot take effect before the new workers have spawned and
  // initialised, but under both Elan and S&R they do that *asynchronously*:
  // the job keeps training on its old workers during the window and only
  // pauses for the mechanism's own critical path afterwards.
  const Seconds start_window =
      type == AdjustmentType::kScaleOut && system_ != baselines::System::kIdeal
          ? costs_->new_worker_ready_time()
          : 0.0;
  job.prev_workers = job.effective_workers(now_);
  job.prev_total_batch = job.effective_batch(now_);
  job.pause_start = now_ + start_window;
  job.paused_until = now_ + start_window + pause;
  free_gpus_ += job.workers - new_workers;
  if (params_.placement_aware) {
    if (new_workers > job.workers) {
      const auto added = take_gpus(free_pool_, new_workers - job.workers, job.gpus);
      job.gpus.insert(job.gpus.end(), added.begin(), added.end());
    } else {
      for (auto g : release_gpus(job.gpus, job.workers - new_workers,
                                 throughput_->topology())) {
        free_pool_.insert(g);
      }
    }
  }
  job.workers = new_workers;
  job.total_batch = hybrid_batch(job, new_workers);
  job_tput_[static_cast<std::size_t>(&job - jobs_.data())].phase = -1;
  ++job.adjustments;
  ++metrics_.total_adjustments;
}

bool ClusterSim::progress_running() {
  std::vector<int> finished;
  for (int index : running_) {
    SchedJob& job = jobs_[static_cast<std::size_t>(index)];
    if (job.paused(now_)) continue;
    job.remaining_samples -= measured_throughput_cached(index) * kTick;
    if (job.remaining_samples <= 0) finished.push_back(index);
  }
  for (int index : finished) finish_job(index);
  return !finished.empty();
}

void ClusterSim::schedule_static() {
  // FIFO head-of-queue starts.
  while (!queue_.empty()) {
    const SchedJob& head = jobs_[static_cast<std::size_t>(queue_.front())];
    if (head.spec.req_res > free_gpus_) break;
    start_job(queue_.front(), head.spec.req_res);
    queue_.erase(queue_.begin());
  }
  if (policy_ != PolicyKind::kBackfill || queue_.empty() || free_gpus_ == 0) return;

  // EASY backfill: reserve a start time for the head, then let later jobs
  // run now if they fit and finish before the reservation.
  const SchedJob& head = jobs_[static_cast<std::size_t>(queue_.front())];
  std::vector<std::pair<Seconds, int>> releases;  // (finish estimate, workers)
  for (int index : running_) {
    const SchedJob& job = jobs_[static_cast<std::size_t>(index)];
    releases.emplace_back(now_ + estimated_remaining(job, job.workers), job.workers);
  }
  std::sort(releases.begin(), releases.end());
  int avail = free_gpus_;
  Seconds shadow_time = std::numeric_limits<double>::infinity();
  for (const auto& [when, workers] : releases) {
    avail += workers;
    if (avail >= head.spec.req_res) {
      shadow_time = when;
      break;
    }
  }

  for (auto it = queue_.begin() + 1; it != queue_.end() && free_gpus_ > 0;) {
    const SchedJob& job = jobs_[static_cast<std::size_t>(*it)];
    const bool fits = job.spec.req_res <= free_gpus_;
    const bool harmless =
        now_ + estimated_remaining(job, job.spec.req_res) <= shadow_time;
    if (fits && harmless) {
      start_job(*it, job.spec.req_res);
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
}

void ClusterSim::schedule_elastic() {
  // Admission rule: a job can start once min_res GPUs are free. E-FIFO
  // admits strictly in order; E-BF lets any queued job slip in; E-SRTF
  // admits the shortest-estimated job first (the paper's future-work
  // "more complicated policy").
  if (policy_ == PolicyKind::kElasticSrtf) {
    std::stable_sort(queue_.begin(), queue_.end(), [&](int a, int b) {
      const auto& ja = jobs_[static_cast<std::size_t>(a)];
      const auto& jb = jobs_[static_cast<std::size_t>(b)];
      return estimated_remaining(ja, ja.spec.req_res) <
             estimated_remaining(jb, jb.spec.req_res);
    });
  }
  bool admitted = false;
  for (auto it = queue_.begin(); it != queue_.end();) {
    const SchedJob& job = jobs_[static_cast<std::size_t>(*it)];
    if (job.spec.min_res <= free_gpus_) {
      start_job(*it, job.spec.min_res);
      it = queue_.erase(it);
      admitted = true;
    } else if (policy_ == PolicyKind::kElasticFifo) {
      break;  // strict ordering
    } else {
      ++it;  // backfill/SRTF flavours keep scanning
    }
  }
  if (admitted || rebalance_requested_ || now_ >= next_rebalance_) {
    rebalance();
    rebalance_requested_ = false;
    next_rebalance_ = now_ + kRebalanceInterval;
  }
}

bool ClusterSim::scheduling_is_noop() const {
  // True only when the scheduling pass at now_ is provably a no-op, so the
  // replay loop may skip it without perturbing a single decision.
  if (is_elastic(policy_)) {
    if (rebalance_requested_ || now_ >= next_rebalance_) return false;
    if (queue_.empty()) return true;
    if (free_gpus_ <= 0) return true;  // min_res >= 1: nothing can be admitted
    if (policy_ == PolicyKind::kElasticFifo) {
      // Strict ordering: the scan stops at the head either way.
      return jobs_[static_cast<std::size_t>(queue_.front())].spec.min_res > free_gpus_;
    }
    // E-BF / E-SRTF scan the whole queue. (E-SRTF's admission re-sort is
    // idempotent while nothing is admitted: a pending job's estimated
    // remaining time never changes.)
    for (int index : queue_) {
      if (jobs_[static_cast<std::size_t>(index)].spec.min_res <= free_gpus_) return false;
    }
    return true;
  }
  if (queue_.empty()) return true;
  if (policy_ == PolicyKind::kFifo) {
    return jobs_[static_cast<std::size_t>(queue_.front())].spec.req_res > free_gpus_;
  }
  // Backfill: the shadow-time condition is time-dependent; conservatively
  // run the full pass whenever GPUs are free and jobs wait.
  return free_gpus_ == 0;
}

void ClusterSim::rebalance() {
  if (running_.empty()) return;
  // Allocation rule (paper §VI-C): every running job starts at min_res and
  // the waterfill hands out the rest of the cluster by marginal gain, the
  // estimated JCT reduction per added worker (as in Optimus). It repairs
  // the allocation the jobs hold now rather than rebuilding it. A job's
  // gain is its remaining samples times its ladder's step, and its ladder
  // holds steps up to the widest cap of its configuration: the job's own
  // cap cuts them.
  const std::size_t n = running_.size();
  std::vector<int> target(n);
  std::vector<int> lower(n);
  std::vector<JobGains> gains(n);
  for (std::size_t pos = 0; pos < n; ++pos) {
    const SchedJob& job = jobs_[static_cast<std::size_t>(running_[pos])];
    const Ladder& ladder = ladders_[static_cast<std::size_t>(job.ladder)];
    const auto room = static_cast<std::size_t>(
        std::max(0, std::min(job.spec.max_res, params_.total_gpus) - job.spec.min_res));
    target[pos] = job.workers;
    lower[pos] = job.spec.min_res;
    gains[pos] = JobGains{job.remaining_samples, std::span(ladder.steps).first(room),
                          std::span(ladder.floors).first(room)};
  }
  waterfill(target, lower, gains, params_.total_gpus);

  // Apply shrinks before grows: in placement-aware mode the grown jobs take
  // concrete GPUs from the pool the shrunk jobs just returned.
  for (const bool shrink_pass : {true, false}) {
    for (std::size_t pos = 0; pos < n; ++pos) {
      SchedJob& job = jobs_[static_cast<std::size_t>(running_[pos])];
      if ((target[pos] < job.workers) != shrink_pass) continue;
      apply_allocation(job, target[pos]);
    }
  }
}

void ClusterSim::admit_arrivals(const std::vector<SchedJobSpec>& trace,
                                std::size_t& next_arrival) {
  while (next_arrival < trace.size() && trace[next_arrival].submit_time <= now_) {
    queue_.push_back(static_cast<int>(next_arrival));
    ++next_arrival;
  }
}

bool ClusterSim::all_done() const {
  return queue_.empty() && running_.empty();
}

ScheduleMetrics ClusterSim::run(const std::vector<SchedJobSpec>& trace) {
  require(!trace.empty(), "cluster: empty trace");
  require(std::is_sorted(trace.begin(), trace.end(),
                         [](const SchedJobSpec& a, const SchedJobSpec& b) {
                           return a.submit_time < b.submit_time;
                         }),
          "cluster: trace must be sorted by submit time");

  // A job that cannot start on the whole cluster would wait forever.
  for (const auto& spec : trace) {
    const int start = is_elastic(policy_) ? spec.min_res : spec.req_res;
    ELAN_REQUIRE(start <= params_.total_gpus,
                 "cluster: job " + std::to_string(spec.id) + " starts on " +
                     std::to_string(start) + " GPUs, more than the cluster's " +
                     std::to_string(params_.total_gpus));
  }

  now_ = 0;
  jobs_.clear();
  jobs_.reserve(trace.size());
  for (const auto& spec : trace) {
    SchedJob job;
    job.spec = spec;
    job.remaining_samples = static_cast<double>(spec.total_samples);
    const std::uint64_t key = pack_ladder_key(static_cast<int>(spec.model.kind), spec.req_res,
                                              spec.base_total_batch, spec.min_res);
    if (const int* hit = ladder_of_.find(key)) {
      job.ladder = *hit;
    } else {
      job.ladder = static_cast<int>(ladders_.size());
      ladder_of_.insert(key, job.ladder);
      ladders_.emplace_back();
    }
    // Every width the replay prices lies in [1, max(min_res, req_res, max_res)].
    Ladder& ladder = ladders_[static_cast<std::size_t>(job.ladder)];
    const auto widest =
        static_cast<std::size_t>(std::max({spec.min_res, spec.req_res, spec.max_res}));
    if (ladder.rungs.size() <= widest) ladder.rungs.resize(widest + 1);
    // The waterfill reads the steps up to the job's cap; a width past the
    // cluster is never granted, and may not be priceable.
    if (is_elastic(policy_)) {
      const int cap = std::min(spec.max_res, params_.total_gpus);
      for (auto w = spec.min_res + static_cast<int>(ladder.steps.size()); w < cap; ++w) {
        append_step(ladder.steps, ladder.floors,
                    seconds_per_sample(job_throughput(job, w)) -
                        seconds_per_sample(job_throughput(job, w + 1)));
      }
    }
    jobs_.push_back(std::move(job));
  }
  queue_.clear();
  running_.clear();
  free_gpus_ = params_.total_gpus;
  free_pool_ = GpuPool(throughput_->topology());
  if (params_.placement_aware) {
    require(params_.total_gpus <= throughput_->topology().total_gpus(),
            "cluster: placement-aware mode needs a topology covering total_gpus");
    for (topo::GpuId g = 0; g < params_.total_gpus; ++g) free_pool_.insert(g);
  }
  metrics_ = ScheduleMetrics{};
  next_rebalance_ = 0;
  rebalance_requested_ = false;
  job_tput_.assign(jobs_.size(), JobTput{});

  // The clock always advances by exact `kTick` increments (never t0 + i*kTick
  // in one multiply — repeated addition keeps the sums, and so the pinned
  // metrics, bit-identical). The scheduling pass is elided only on ticks
  // where it is provably a no-op.
  std::size_t next_arrival = 0;
  while (next_arrival < trace.size() || !all_done()) {
    const bool arrivals_due =
        next_arrival < trace.size() && trace[next_arrival].submit_time <= now_;
    if (arrivals_due) admit_arrivals(trace, next_arrival);
    const bool finished_any = progress_running();
    const bool lean = !arrivals_due && !finished_any && scheduling_is_noop();
    if (!lean) {
      if (is_elastic(policy_)) {
        schedule_elastic();
      } else {
        schedule_static();
      }
    }
    const int busy = params_.total_gpus - free_gpus_;
    metrics_.utilization.push_back(
        {now_, static_cast<double>(busy) / params_.total_gpus});
    now_ += kTick;
  }
  return metrics_;
}

}  // namespace elan::sched
