#include "sched/live_scheduler.h"

#include <algorithm>

#include "common/error.h"
#include "common/log.h"
#include "elan/hybrid_scaling.h"
#include "sched/allocation.h"

namespace elan::sched {

namespace {

std::vector<topo::GpuId> gpus_of(const ElasticJob& job) {
  std::vector<topo::GpuId> gpus;
  for (int id : job.worker_ids()) gpus.push_back(job.worker(id).gpu());
  return gpus;
}

}  // namespace

LiveScheduler::LiveScheduler(sim::Simulator& simulator, const topo::Topology& topology,
                             const topo::BandwidthModel& bandwidth,
                             storage::SimFilesystem& filesystem, transport::MessageBus& bus,
                             transport::KvStore& kv)
    : sim_(simulator),
      topology_(topology),
      bandwidth_(bandwidth),
      fs_(filesystem),
      bus_(bus),
      kv_(kv),
      throughput_(topology, bandwidth),
      memory_pool_(topology),
      free_(topology) {
  for (topo::GpuId g = 0; g < topology_.total_gpus(); ++g) free_.insert(g);
}

void LiveScheduler::submit(LiveJobSpec spec) {
  require(!spec.job_id.empty(), "live: job needs an id");
  require(spec.min_workers > 0 && spec.min_workers <= spec.max_workers,
          "live: bad worker bounds");
  require(spec.min_workers <= topology_.total_gpus(), "live: job larger than cluster");
  require(spec.target_samples > 0, "live: job needs work");
  queue_.emplace_back(std::move(spec), sim_.now());
  if (started_) sim_.schedule(0.0, [this] { tick(); });
}

void LiveScheduler::start() {
  require(!started_, "live: already started");
  started_ = true;
  tick();
}

const ElasticJob* LiveScheduler::job(const std::string& job_id) const {
  auto it = running_.find(job_id);
  return it == running_.end() ? nullptr : it->second.job.get();
}

std::uint64_t LiveScheduler::remaining_samples(const RunningJob& rj) const {
  const auto processed = rj.job->samples_processed();
  return processed >= rj.spec.target_samples ? 0 : rj.spec.target_samples - processed;
}

void LiveScheduler::try_admit() {
  // E-FIFO: the queue head starts once min_workers GPUs are free.
  while (!queue_.empty() && free_gpus() >= queue_.front().first.min_workers) {
    const auto& [spec, submitted] = queue_.front();

    RunningJob rj;
    rj.spec = spec;
    rj.stats.job_id = spec.job_id;
    rj.stats.submitted_at = submitted;
    rj.stats.started_at = sim_.now();

    JobConfig cfg;
    cfg.job_id = spec.job_id;
    cfg.model = spec.model;
    cfg.initial_workers = spec.min_workers;
    cfg.initial_gpus = take_gpus(free_, spec.min_workers, {});
    cfg.initial_total_batch = spec.per_worker_batch * spec.min_workers;
    cfg.base_lr = 0.1 * cfg.initial_total_batch / 256.0;
    cfg.coordination_interval = kCoordinationInterval;
    auto job = std::make_unique<ElasticJob>(sim_, topology_, bandwidth_, fs_, bus_, kv_,
                                            std::move(cfg), &memory_pool_);
    const std::string id = spec.job_id;
    job->on_iteration = [this, id](std::uint64_t) {
      auto it = running_.find(id);
      if (it == running_.end()) return;
      RunningJob& rj = it->second;
      settle(rj);
      // Stop only between adjustments: joining workers must not outlive
      // their job.
      if (remaining_samples(rj) == 0 && !rj.job->adjustment_pending()) rj.job->stop();
    };
    job->on_stopped = [this, id] {
      // Defer: on_stopped fires inside the job's own call stack.
      sim_.schedule(0.0, [this, id] { finish_job(id); });
    };
    job->stop_after_iterations(~0ULL >> 1);
    job->start();
    rj.job = std::move(job);
    log_info() << "live: admitted " << id << " with " << spec.min_workers << " workers";
    running_.emplace(id, std::move(rj));
    queue_.pop_front();
  }
}

void LiveScheduler::finish_job(const std::string& job_id) {
  auto it = running_.find(job_id);
  if (it == running_.end()) return;
  auto& rj = it->second;
  rj.stats.finished_at = sim_.now();
  rj.stats.adjustments = static_cast<int>(rj.job->adjustments().size());
  for (int id : rj.job->worker_ids()) free_.insert(rj.job->worker(id).gpu());
  finished_.push_back(rj.stats);
  log_info() << "live: finished " << job_id;
  running_.erase(it);
  sim_.schedule(0.0, [this] { tick(); });
}

void LiveScheduler::scale_out(RunningJob& rj, int count) {
  rj.in_flight = take_gpus(free_, count, gpus_of(*rj.job));
  rj.shrinking = false;
  rj.job->request_scale_out(rj.in_flight);
}

void LiveScheduler::scale_in(RunningJob& rj, int count) {
  const ElasticJob& job = *rj.job;
  auto held = gpus_of(job);
  rj.in_flight = release_gpus(held, count, topology_);
  rj.shrinking = true;
  const auto ids = job.worker_ids();
  std::vector<int> victims;
  for (auto g : rj.in_flight) {
    for (int id : ids) {
      if (job.worker(id).gpu() == g) victims.push_back(id);
    }
  }
  rj.job->request_scale_in(victims);
}

void LiveScheduler::settle(RunningJob& rj) {
  if (rj.in_flight.empty() || rj.job->adjustment_pending()) return;
  const auto held = gpus_of(*rj.job);
  bool returned = false;
  for (auto g : rj.in_flight) {
    if (std::find(held.begin(), held.end(), g) != held.end()) continue;
    free_.insert(g);
    returned = true;
  }
  rj.in_flight.clear();
  if (returned) sim_.schedule(0.0, [this] { tick(); });
}

void LiveScheduler::rebalance() {
  // One waterfill over the running jobs in id order. While the queue head
  // waits it reclaims, otherwise it grows into the free GPUs; the header
  // gives each trigger's bounds and budget.
  std::vector<RunningJob*> jobs;
  int held = 0;
  int owed = 0;  // GPUs that in-flight scale-ins will return
  for (auto& [id, rj] : running_) {
    jobs.push_back(&rj);
    held += rj.job->num_workers();
    if (rj.shrinking) owed += static_cast<int>(rj.in_flight.size());
  }
  const bool reclaim = !queue_.empty();
  const int needed = reclaim ? queue_.front().first.min_workers - free_gpus() - owed : 0;
  if (reclaim ? needed <= 0 : free_.empty()) return;

  const std::size_t n = jobs.size();
  std::vector<int> width(n);
  std::vector<int> lower(n);
  std::vector<int> cap(n);
  int lower_sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const RunningJob& rj = *jobs[i];
    const int cur = rj.job->num_workers();
    // In flight until settled: a landed scale-in still owes its GPUs.
    const bool pinned = !rj.in_flight.empty() || rj.job->adjustment_pending();
    width[i] = cur;
    lower[i] = pinned || !reclaim ? cur : rj.spec.min_workers;
    // A growing job can take the free GPUs at most.
    cap[i] = pinned || reclaim ? cur : std::min(rj.spec.max_workers, cur + free_gpus());
    lower_sum += lower[i];
  }
  const int budget = reclaim ? held - needed : held + free_gpus();
  if (lower_sum > budget) return;  // the unpinned jobs cannot free enough yet

  // Each job's steps over [lower, cap), with the batch hybrid scaling picks
  // moving it from its current width and batch; its gain scales them by
  // its remaining samples.
  std::vector<std::vector<double>> steps(n);
  std::vector<std::vector<double>> floors(n);
  std::vector<JobGains> gains(n);
  for (std::size_t i = 0; i < n; ++i) {
    const RunningJob& rj = *jobs[i];
    const HybridScaling hybrid(throughput_, rj.spec.model);
    const auto per_sample = [&](int workers) {
      const int tbs =
          hybrid.decide(rj.job->num_workers(), rj.job->total_batch(), workers).total_batch;
      return seconds_per_sample(throughput_.throughput(rj.spec.model, workers, tbs));
    };
    double here = per_sample(lower[i]);
    for (int w = lower[i]; w < cap[i]; ++w) {
      const double next = per_sample(w + 1);
      append_step(steps[i], floors[i], here - next);
      here = next;
    }
    gains[i] = JobGains{static_cast<double>(remaining_samples(rj)), steps[i], floors[i]};
  }
  waterfill(width, lower, gains, budget);
  for (std::size_t i = 0; i < n; ++i) {
    const int cur = jobs[i]->job->num_workers();
    if (width[i] < cur) scale_in(*jobs[i], cur - width[i]);
    if (width[i] > cur) scale_out(*jobs[i], width[i] - cur);
  }
}

void LiveScheduler::tick() {
  if (!started_) return;
  try_admit();
  rebalance();

  int busy = 0;
  for (const auto& [id, rj] : running_) busy += rj.job->num_workers();
  utilization_.push_back(
      {sim_.now(), static_cast<double>(busy) / topology_.total_gpus()});

  if (!all_done()) {
    sim_.schedule(kRebalanceInterval, [this] { tick(); });
  }
}

}  // namespace elan::sched
