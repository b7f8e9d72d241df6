#include "fault/chaos.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <sstream>

#include "common/log.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "obs/obs.h"
#include "storage/filesystem.h"
#include "train/models.h"

namespace elan::fault {
namespace {

/// Event budget for one plan. A healthy run takes well under 100k events;
/// the margin covers retry storms under partitions without letting a wedged
/// run spin forever.
constexpr std::uint64_t kEventBudget = 5'000'000;

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 0x100000001b3ULL;
}

std::string& flight_prefix_storage() {
  static std::string* prefix = new std::string();  // leaked: set-once config
  return *prefix;
}

}  // namespace

void ConsumptionLedger::record(std::uint64_t epoch, const data::SampleRange& range) {
  if (range.empty()) return;
  Epoch& e = epochs_[epoch];
  if (e.bits.empty()) e.bits.resize((num_samples_ + 63) / 64);
  e.covered += range.size();
  e.lowest_begin = std::min(e.lowest_begin, range.begin);
  e.highest_end = std::max(e.highest_end, range.end);
  // Mark the in-dataset part a word at a time; samples past the dataset
  // only show in highest_end.
  const std::uint64_t end = std::min(range.end, num_samples_);
  for (std::uint64_t i = range.begin; i < end;) {
    const std::uint64_t bit = i % 64;
    const std::uint64_t n = std::min<std::uint64_t>(64 - bit, end - i);
    const std::uint64_t mask =
        (n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1) << bit;
    std::uint64_t& word = e.bits[i / 64];
    if ((word & mask) != 0) e.repeated = true;
    word |= mask;
    i += n;
  }
}

std::vector<std::string> ConsumptionLedger::failures(std::uint64_t final_epoch,
                                                     bool serial) const {
  std::vector<std::string> out;
  for (const auto& [epoch, e] : epochs_) {
    const std::string at = "epoch " + std::to_string(epoch) + ": ";
    if (e.repeated) out.push_back(at + "sample consumed twice");
    if (e.highest_end > num_samples_) {
      out.push_back(at + "consumed samples up to " + std::to_string(e.highest_end) +
                    " of a " + std::to_string(num_samples_) + "-sample dataset (out of range)");
    }
    if (epoch < final_epoch && e.covered != num_samples_) {
      out.push_back(at + "consumed " + std::to_string(e.covered) + "/" +
                    std::to_string(num_samples_) + " samples (skip or repeat)");
    }
    if (serial && !e.repeated && (e.lowest_begin != 0 || e.highest_end != e.covered)) {
      out.push_back(at + "serial consumption not contiguous");
    }
  }
  return out;
}

std::string ChaosPlan::describe() const {
  std::ostringstream os;
  os << "chaos(seed=" << seed << ", workers=" << initial_workers << ", "
     << elan::to_string(semantics) << ", " << elan::to_string(mechanism)
     << ", drop=" << drop_probability << ")";
  for (const auto& a : actions) {
    os << "\n  action " << elan::to_string(a.type) << "@" << a.at << " x" << a.count;
  }
  os << "\n  " << faults.describe();
  return os.str();
}

std::string ChaosResult::describe() const {
  std::ostringstream os;
  os << "result(seed=" << seed << ", " << (ok() ? "OK" : "FAIL")
     << ", iters=" << iterations << ", t=" << end_time
     << ", workers=" << final_workers << ", adj=" << adjustments_completed
     << ", kills=" << kills << ", crashes=" << master_crashes
     << ", evictions=" << evictions << ", fp=" << fingerprint << ")";
  for (const auto& f : failures) os << "\n  FAIL: " << f;
  if (!flight_record.empty()) os << "\n  flight record: " << flight_record;
  return os.str();
}

ChaosPlan ChaosRunner::sample_plan(std::uint64_t seed) {
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  ChaosPlan plan;
  plan.seed = seed;
  plan.initial_workers = static_cast<int>(rng.uniform_int(2, 5));
  plan.target_iterations = 100000;  // backstop; the scheduled stop ends the run
  plan.semantics = rng.chance(0.3) ? DataSemantics::kChunk : DataSemantics::kSerial;
  plan.mechanism = rng.chance(0.25) ? Mechanism::kShutdownRestart : Mechanism::kElan;
  plan.drop_probability = rng.chance(0.5) ? rng.uniform(0.0, 0.15) : 0.0;

  const int n_actions = static_cast<int>(rng.uniform_int(1, 3));
  for (int i = 0; i < n_actions; ++i) {
    AdjustmentAction a;
    a.at = rng.uniform(0.5, 8.0);
    const double roll = rng.uniform();
    a.type = roll < 0.5   ? AdjustmentType::kScaleOut
             : roll < 0.8 ? AdjustmentType::kScaleIn
                          : AdjustmentType::kMigrate;
    a.count = static_cast<int>(rng.uniform_int(1, 2));
    plan.actions.push_back(a);
  }
  std::sort(plan.actions.begin(), plan.actions.end(),
            [](const AdjustmentAction& x, const AdjustmentAction& y) { return x.at < y.at; });

  plan.faults.seed = seed;
  const int n_faults = static_cast<int>(rng.uniform_int(1, 4));
  for (int i = 0; i < n_faults; ++i) {
    FaultEvent e;
    e.at = rng.uniform(0.5, 10.0);
    const double roll = rng.uniform();
    if (roll < 0.30) {
      e.kind = FaultKind::kKillWorker;
    } else if (roll < 0.55) {
      e.kind = FaultKind::kCrashMaster;
      e.duration = rng.uniform(0.5, 3.0);
      if (rng.chance(0.4)) {
        e.phase = static_cast<int>(rng.uniform_int(0, 3));  // any AmPhase entry
      }
    } else if (roll < 0.70) {
      e.kind = FaultKind::kDropLink;
      e.duration = rng.uniform(0.3, 2.0);
      if (rng.chance(0.6)) e.endpoint_a = "am/";  // partition the AM off
    } else if (roll < 0.80) {
      e.kind = FaultKind::kSlowLink;
      e.duration = rng.uniform(0.5, 3.0);
      e.factor = rng.uniform(2.0, 10.0);
    } else if (roll < 0.90) {
      e.kind = FaultKind::kSuppressReport;
      e.at = rng.uniform(0.0, 6.0);  // must precede a launch to bite
    } else {
      e.kind = FaultKind::kKillMidReplication;
      e.at = rng.uniform(0.0, 5.0);
      e.frac = rng.uniform(0.1, 0.9);
    }
    plan.faults.events.push_back(e);
  }
  return plan;
}

void ChaosRunner::set_flight_prefix(std::string prefix) {
  flight_prefix_storage() = std::move(prefix);
}

ChaosPlan ChaosRunner::scripted_failure_plan() {
  ChaosPlan plan;
  plan.seed = 0xdead;  // provenance marker; nothing is sampled from it
  plan.initial_workers = 3;
  plan.semantics = DataSemantics::kSerial;
  plan.mechanism = Mechanism::kElan;
  // A wedged run is pure timer churn; a full default budget would spin for
  // millions of events (and wrap the flight ring thousands of times) before
  // failing. Healthy runs take well under 100k events; this stops the
  // livelock a few simulated seconds in, while the wedged round's events
  // are still in the ring.
  plan.event_budget = 2'700;

  AdjustmentAction scale_out;
  scale_out.at = 3.0;
  scale_out.type = AdjustmentType::kScaleOut;
  scale_out.count = 1;
  plan.actions.push_back(scale_out);

  // Permanent partition of the AM from everything, landing while the
  // scale-out is underway: coordinate/decision and adjust-reply traffic is
  // cut forever, workers re-send on their decision timers indefinitely, and
  // the run livelocks — the exact shape a flight record must explain.
  FaultEvent partition;
  partition.kind = FaultKind::kDropLink;
  partition.at = 3.5;
  partition.duration = 1.0e9;
  partition.endpoint_a = "am/";
  plan.faults.seed = plan.seed;
  plan.faults.events.push_back(partition);
  return plan;
}

ChaosResult ChaosRunner::run_plan(const ChaosPlan& plan) {
  ChaosResult result;
  result.seed = plan.seed;
  const auto fail = [&result](std::string why) { result.failures.push_back(std::move(why)); };

  sim::Simulator sim;
  // Trace and flight events of this thread carry sim timestamps for the
  // scope of the run, and flight events go to the run's own ring: a dump
  // holds exactly this run's history, whichever thread ran it.
  obs::RunScope run_scope(sim);
  topo::TopologySpec spec;
  spec.nodes = 2;  // 16 GPUs: enough headroom for every sampled workload
  topo::Topology topology{spec};
  topo::BandwidthModel bandwidth;
  storage::SimFilesystem fs;
  transport::BusParams bus_params;
  bus_params.drop_probability = plan.drop_probability;
  bus_params.seed = plan.seed ^ 0xd1b54a32d192ed03ULL;
  transport::MessageBus bus{sim, bandwidth, bus_params};
  transport::KvStore kv{sim};

  JobConfig config;
  config.job_id = "chaos";
  config.model = train::mobilenet_v2_cifar();
  // Shrink the dataset so epochs turn over a few times per run: the §V-C
  // exactly-once invariant is only meaningful across epoch boundaries.
  config.model.dataset.num_samples = 2048;
  config.chunk_size = 256;
  config.initial_workers = plan.initial_workers;
  config.initial_total_batch = 128;
  config.data_semantics = plan.semantics;
  config.mechanism = plan.mechanism;
  config.worker_params.start_mean = 1.0;  // fast launches keep scenarios short
  config.worker_params.start_stddev = 0.2;
  // Must exceed worst-case start (2s) + init (3.5s); short enough that
  // eviction happens well inside the run.
  config.am.report_timeout = 8.0;
  config.seed = plan.seed;
  ElasticJob job(sim, topology, bandwidth, fs, bus, kv, std::move(config));
  const std::uint64_t num_samples = job.config().model.dataset.num_samples;

  // --- Invariant instrumentation -------------------------------------------

  ConsumptionLedger consumed(num_samples);
  job.on_data_consumed = [&](std::uint64_t epoch,
                             const std::vector<data::SampleRange>& shards) {
    for (const auto& r : shards) consumed.record(epoch, r);
  };
  Seconds last_iteration_at = 0;
  job.on_iteration = [&](std::uint64_t) {
    result.max_iteration_gap = std::max(result.max_iteration_gap, sim.now() - last_iteration_at);
    last_iteration_at = sim.now();
  };

  FaultInjector injector(sim, bus, job);
  injector.arm(plan.faults);

  // --- Workload driver ------------------------------------------------------

  int next_gpu = plan.initial_workers;
  const int total_gpus = topology.total_gpus();
  std::function<void(AdjustmentAction, int)> issue = [&](AdjustmentAction action,
                                                         int attempt) {
    if (!job.running()) return;
    if (job.adjustment_pending()) {
      // The AM serialises adjustments; retry a few times, then drop the
      // action (plans race their own workload — that is the point).
      if (attempt < 4) sim.schedule(2.0, [&issue, action, attempt] { issue(action, attempt + 1); });
      return;
    }
    std::vector<int> alive;
    for (int id : job.worker_ids()) {
      if (job.worker(id).state() != WorkerState::kStopped) alive.push_back(id);
    }
    switch (action.type) {
      case AdjustmentType::kScaleOut: {
        std::vector<topo::GpuId> gpus;
        for (int i = 0; i < action.count; ++i) {
          gpus.push_back(static_cast<topo::GpuId>(next_gpu++ % total_gpus));
        }
        job.request_scale_out(gpus);
        break;
      }
      case AdjustmentType::kScaleIn: {
        const int removable = std::min<int>(action.count, static_cast<int>(alive.size()) - 1);
        if (removable <= 0) return;
        std::vector<int> victims(alive.end() - removable, alive.end());
        job.request_scale_in(victims);
        break;
      }
      case AdjustmentType::kMigrate: {
        if (alive.empty()) return;
        job.request_migration({alive.front()},
                              {static_cast<topo::GpuId>(next_gpu++ % total_gpus)});
        break;
      }
    }
  };
  for (const auto& action : plan.actions) {
    sim.schedule(action.at, [&issue, action] { issue(action, 0); });
  }

  // --- Drive ----------------------------------------------------------------

  job.stop_after_iterations(plan.target_iterations);
  sim.schedule(20.0, [&job] { job.stop(); });
  job.start();
  result.drained =
      sim.run_bounded(plan.event_budget != 0 ? plan.event_budget : kEventBudget);

  // --- Harvest + invariants -------------------------------------------------

  result.iterations = job.iteration();
  result.all_replicas_lost = job.fatally_failed();
  result.end_time = sim.now();
  result.final_workers = job.num_workers();
  result.adjustments_completed = static_cast<int>(job.adjustments().size());
  result.adjustments_rejected = job.adjustments_rejected();
  result.worker_failures = job.worker_failures();
  result.evictions = job.master().evictions();
  result.master_crashes = injector.master_crashes();
  result.kills = injector.kills();
  for (const auto& a : job.adjustments()) result.adjustment_pauses.push_back(a.pause_time());

  if (!result.drained) fail("event budget exhausted: deadlock or livelock");
  if (job.running()) {
    fail("job still running after the queue drained (wedged: decisions_outstanding=" +
         std::to_string(job.decisions_outstanding()) +
         ", am=" + elan::to_string(job.master().phase()) + ")");
  }
  if (result.iterations == 0) fail("no training progress");
  if (!result.all_replicas_lost && !job.consistent()) {
    fail("replica divergence: surviving checksums differ");
  }
  if (job.requests_in_flight() != 0) {
    fail("requests left in flight: " + std::to_string(job.requests_in_flight()));
  }
  const AmPhase phase = job.master().phase();
  if (phase != AmPhase::kSteady && phase != AmPhase::kReady) {
    // kWaitingReady cannot survive the report timeout; kAdjusting always
    // reaches finish_adjustment. Anything else is a wedged adjustment.
    fail(std::string("AM wedged in phase ") + elan::to_string(phase));
  }

  // Exactly-once data consumption (§V-C): within every epoch no sample may
  // repeat, and every *completed* epoch must account for the whole dataset.
  for (std::string& why :
       consumed.failures(job.epoch(), plan.semantics == DataSemantics::kSerial)) {
    fail(std::move(why));
  }

  // Determinism digests over everything externally observable: the outcome
  // first, then the replica bytes on top of it.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = fnv_mix(h, result.iterations);
  h = fnv_mix(h, static_cast<std::uint64_t>(result.final_workers));
  h = fnv_mix(h, static_cast<std::uint64_t>(result.adjustments_completed));
  h = fnv_mix(h, static_cast<std::uint64_t>(result.worker_failures));
  h = fnv_mix(h, result.evictions);
  h = fnv_mix(h, job.epoch());
  h = fnv_mix(h, job.samples_processed());
  std::uint64_t time_bits;
  static_assert(sizeof(time_bits) == sizeof(double));
  const double end_time = result.end_time;
  std::memcpy(&time_bits, &end_time, sizeof(time_bits));
  h = fnv_mix(h, time_bits);
  result.outcome_digest = h;
  for (std::uint64_t checksum : job.worker_checksums()) h = fnv_mix(h, checksum);
  result.fingerprint = h;

  if (!result.ok()) {
    if (obs::FlightRecorder::enabled()) {
      std::string prefix = flight_prefix_storage();
      if (prefix.empty() && obs::flight_requested()) prefix = obs::flight_path();
      if (!prefix.empty()) {
        const std::string path =
            prefix + ".seed" + std::to_string(plan.seed) + ".flt";
        if (obs::FlightRecorder::instance().dump(path)) {
          result.flight_record = path;
          log_warn() << "chaos: wrote flight record " << path
                     << "; inspect with: elan_postmortem " << path;
        }
      }
    }
    log_warn() << "chaos seed " << plan.seed << " failed:\n"
               << plan.describe() << "\n" << result.describe();
  }
  return result;
}

ChaosResult ChaosRunner::run_seed(std::uint64_t seed) {
  return run_plan(sample_plan(seed));
}

std::vector<ChaosResult> ChaosRunner::sweep(std::uint64_t seed_base, int count) {
  count = std::max(count, 0);
  std::vector<ChaosResult> results(static_cast<std::size_t>(count));
  // Plans share no simulation state, and each binds its observability
  // context to its thread (obs::RunScope). Every runner claims the next plan
  // and writes that plan's slot. With two or more pool threads the caller
  // only waits: each thread that runs a plan keeps a malloc arena as large
  // as the heaviest plan it ran, so the pool's threads alone bound the
  // sweep's memory. A one-thread pool runs a submitted task inline, so there
  // the one runner is the caller.
  ThreadPool& pool = ThreadPool::global();
  std::atomic<int> next{0};
  const auto runner = [&] {
    try {
      for (int i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
        results[static_cast<std::size_t>(i)] =
            run_seed(seed_base + static_cast<std::uint64_t>(i));
      }
    } catch (...) {
      next.store(count);  // the other runners stop after their current plan
      throw;
    }
  };
  std::vector<std::future<void>> runners;
  for (int r = 0; r < std::min(pool.size(), count); ++r) runners.push_back(pool.submit(runner));
  for (auto& f : runners) f.wait();  // every runner is done with `results`
  for (auto& f : runners) f.get();   // then rethrow the first error
  return results;
}

}  // namespace elan::fault
