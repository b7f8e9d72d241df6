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

double ClusterSim::measured_throughput(const SchedJob& job, int workers, int batch) const {
  if (!params_.placement_aware) return job_throughput(job, workers);
  // The job's real placement sets the communication bottleneck. During an
  // adjustment's start window the previous width applies; approximate the
  // previous placement by the first `workers` GPUs of the current set.
  std::span<const topo::GpuId> members = job.gpus;
  if (static_cast<int>(members.size()) > workers && workers > 0) {
    members = members.first(static_cast<std::size_t>(workers));
  }
  double tput = throughput_->throughput_on(job.spec.model, members, batch);
  tput *= 1.0 - costs_->runtime_overhead(system_, job.spec.model,
                                         static_cast<int>(members.size()), batch);
  return tput;
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
  job.tput_after_pause = measured_throughput(job, workers, job.total_batch);
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
  if (const auto hit = pause_cache_.find(key); hit != pause_cache_.end()) return hit->second;
  const Seconds pause =
      costs_->pause_time(system_, type, job.spec.model, job.workers, new_workers);
  pause_cache_.try_emplace(key, pause);
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
  job.tput_after_pause = measured_throughput(job, new_workers, job.total_batch);
  if (start_window > 0) {
    job.tput_before_pause = measured_throughput(job, job.prev_workers, job.prev_total_batch);
  }
  ++job.adjustments;
  ++metrics_.total_adjustments;
}

void ClusterSim::progress_running() {
  std::vector<int> finished;
  for (int index : running_) {
    SchedJob& job = jobs_[static_cast<std::size_t>(index)];
    if (job.paused(now_)) continue;
    const double tput = now_ < job.pause_start ? job.tput_before_pause : job.tput_after_pause;
    job.remaining_samples -= tput * kTick;
    if (job.remaining_samples <= 0) finished.push_back(index);
  }
  for (int index : finished) finish_job(index);
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
  // "more complicated policy"; admit_arrivals keeps its queue in that
  // order). Every min_res is at least 1, so a full cluster admits nothing.
  bool admitted = false;
  for (auto it = queue_.begin(); it != queue_.end() && free_gpus_ > 0;) {
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
  held_.resize(n);
  target_.resize(n);
  lower_.resize(n);
  gains_.resize(n);
  for (std::size_t pos = 0; pos < n; ++pos) {
    const SchedJob& job = jobs_[static_cast<std::size_t>(running_[pos])];
    const Ladder& ladder = ladders_[static_cast<std::size_t>(job.ladder)];
    const auto room = static_cast<std::size_t>(
        std::max(0, std::min(job.spec.max_res, params_.total_gpus) - job.spec.min_res));
    held_[pos] = target_[pos] = job.workers;
    lower_[pos] = job.spec.min_res;
    gains_[pos] = JobGains{job.remaining_samples, std::span(ladder.steps).first(room),
                           std::span(ladder.floors).first(room)};
  }
  waterfill(target_, lower_, gains_, params_.total_gpus);

  // Apply shrinks before grows: in placement-aware mode the grown jobs take
  // concrete GPUs from the pool the shrunk jobs just returned. A job whose
  // width holds is not touched.
  for (const bool shrink_pass : {true, false}) {
    for (std::size_t pos = 0; pos < n; ++pos) {
      if (target_[pos] == held_[pos] || (target_[pos] < held_[pos]) != shrink_pass) continue;
      apply_allocation(jobs_[static_cast<std::size_t>(running_[pos])], target_[pos]);
    }
  }
}

void ClusterSim::admit_arrivals(const std::vector<SchedJobSpec>& trace,
                                std::size_t& next_arrival) {
  const std::size_t first = next_arrival;
  while (next_arrival < trace.size() && trace[next_arrival].submit_time <= now_) {
    queue_.push_back(static_cast<int>(next_arrival));
    ++next_arrival;
  }
  // E-SRTF's queue stays in order of estimated remaining time. A pending
  // job's estimate never changes, so only arrivals can unsort it.
  if (policy_ == PolicyKind::kElasticSrtf && next_arrival > first) {
    std::stable_sort(queue_.begin(), queue_.end(), [&](int a, int b) {
      const auto& ja = jobs_[static_cast<std::size_t>(a)];
      const auto& jb = jobs_[static_cast<std::size_t>(b)];
      return estimated_remaining(ja, ja.spec.req_res) <
             estimated_remaining(jb, jb.spec.req_res);
    });
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

  // The replay prices a job only at widths in [min_res, max_res], and a job
  // that cannot start on the whole cluster would wait forever.
  for (const auto& spec : trace) {
    ELAN_REQUIRE(1 <= spec.min_res && spec.min_res <= spec.req_res &&
                     spec.req_res <= spec.max_res,
                 "cluster: job " + std::to_string(spec.id) + " has min_res " +
                     std::to_string(spec.min_res) + ", req_res " + std::to_string(spec.req_res) +
                     ", max_res " + std::to_string(spec.max_res) +
                     "; needs 1 <= min_res <= req_res <= max_res");
    const int start = is_elastic(policy_) ? spec.min_res : spec.req_res;
    ELAN_REQUIRE(start <= params_.total_gpus,
                 "cluster: job " + std::to_string(spec.id) + " starts on " +
                     std::to_string(start) + " GPUs, more than the cluster's " +
                     std::to_string(params_.total_gpus));
    ELAN_REQUIRE(policy_ != PolicyKind::kElasticSrtf || spec.req_res <= params_.total_gpus,
                 "cluster: job " + std::to_string(spec.id) + " has req_res " +
                     std::to_string(spec.req_res) + ", more than the cluster's " +
                     std::to_string(params_.total_gpus) +
                     "; E-SRTF orders the queue by each job's time at req_res");
  }

  now_ = 0;
  jobs_.clear();
  jobs_.reserve(trace.size());
  for (const auto& spec : trace) {
    SchedJob job;
    job.spec = spec;
    job.remaining_samples = static_cast<double>(spec.total_samples);
    const auto [entry, fresh] = ladder_of_.try_emplace(
        pack_ladder_key(static_cast<int>(spec.model.kind), spec.req_res, spec.base_total_batch,
                        spec.min_res),
        static_cast<int>(ladders_.size()));
    if (fresh) ladders_.emplace_back();
    job.ladder = entry->second;
    // Fill every rung the replay can read: FIFO and BF run a job at req_res,
    // the elastic policies anywhere from min_res up to its cap, which also
    // holds E-SRTF's req_res. A width past the cluster is never granted, and
    // may not be priceable.
    const bool elastic = is_elastic(policy_);
    const int lo = elastic ? spec.min_res : spec.req_res;
    const int cap = elastic ? std::min(spec.max_res, params_.total_gpus) : spec.req_res;
    Ladder& ladder = ladders_[static_cast<std::size_t>(job.ladder)];
    if (ladder.rungs.size() <= static_cast<std::size_t>(cap)) {
      ladder.rungs.resize(static_cast<std::size_t>(cap) + 1);
    }
    for (int w = lo; w <= cap; ++w) {
      Rung& r = ladder.rungs[static_cast<std::size_t>(w)];
      if (r.batch == 0) fill_rung(job, w, r);
    }
    // The waterfill reads the steps up to the job's cap.
    if (elastic) {
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

  // The clock always advances by exact `kTick` increments (never t0 + i*kTick
  // in one multiply — repeated addition keeps the sums, and so the pinned
  // metrics, bit-identical).
  std::size_t next_arrival = 0;
  while (next_arrival < trace.size() || !all_done()) {
    admit_arrivals(trace, next_arrival);
    progress_running();
    if (is_elastic(policy_)) {
      schedule_elastic();
    } else {
      schedule_static();
    }
    const int busy = params_.total_gpus - free_gpus_;
    metrics_.utilization.push_back(
        {now_, static_cast<double>(busy) / params_.total_gpus});
    now_ += kTick;
  }
  return metrics_;
}

}  // namespace elan::sched
