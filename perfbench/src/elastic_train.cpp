// elastic_train: one long ElasticJob (ResNet-50 on the paper's 8x8-GPU
// testbed, lossless bus, no faults). It starts at 8 workers and, on a fixed
// schedule, scales out to 16 and back in five times with one migration in
// between. One set-up serves thousands of iterations, so the run isolates
// the steady iteration loop (optimizer step, per-iteration coordination
// messages) and the chunk-pipelined replication each scale-out performs.
// The benchmark plays the scheduler and owns the Simulator, MessageBus and
// KvStore.
#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "bench.h"
#include "elan/job.h"
#include "obs/trace.h"
#include "storage/filesystem.h"
#include "train/engine.h"
#include "train/models.h"

namespace perfbench {
namespace {

using elan::AdjustmentType;
using elan::ElasticJob;

constexpr int kInitialWorkers = 8;
constexpr int kScaleWorkers = 8;  // workers added by a scale-out
constexpr int kTotalBatch = 256;
constexpr std::uint64_t kIterations = 3000;
/// A dataset small enough that epochs turn over, so the exactly-once check
/// covers several complete epochs.
constexpr std::uint64_t kSamples = 131'072;
/// One adjustment is issued every kAdjustEvery iterations (or at the first
/// iteration after that with no adjustment pending).
constexpr std::uint64_t kAdjustEvery = 220;
constexpr AdjustmentType kSchedule[] = {
    AdjustmentType::kScaleOut, AdjustmentType::kScaleIn,  AdjustmentType::kScaleOut,
    AdjustmentType::kScaleIn,  AdjustmentType::kMigrate,  AdjustmentType::kScaleOut,
    AdjustmentType::kScaleIn,  AdjustmentType::kScaleOut, AdjustmentType::kScaleIn,
    AdjustmentType::kScaleOut, AdjustmentType::kScaleIn};
constexpr std::size_t kAdjustments = std::size(kSchedule);

/// Wall time and call counts of the engine's optimizer step and checksum.
struct EngineTimes {
  std::uint64_t apply_calls = 0;
  double apply_s = 0;
  double checksum_s = 0;
};

/// Delegates to train::make_engine and times apply_update and
/// state_checksum. Installed through JobConfig::engine_factory in the
/// traced pass only.
class TimedEngine final : public elan::train::TrainingEngine {
 public:
  TimedEngine(std::unique_ptr<elan::train::TrainingEngine> inner, EngineTimes& times)
      : TrainingEngine(inner->kind()), inner_(std::move(inner)), times_(&times) {}

  elan::Seconds initialization_time() const override {
    return inner_->initialization_time();
  }
  elan::Seconds per_iteration_overhead() const override {
    return inner_->per_iteration_overhead();
  }
  void register_state_hooks(elan::HookRegistry& registry) override {
    inner_->register_state_hooks(registry);
  }
  void compute_gradients(std::uint64_t seed, const elan::data::SampleRange& shard) override {
    inner_->compute_gradients(seed, shard);
  }
  std::vector<double>* mutable_gradients() override { return inner_->mutable_gradients(); }
  void apply_update(std::uint64_t seed, double lr) override {
    const auto start = Clock::now();
    inner_->apply_update(seed, lr);
    times_->apply_s += seconds_since(start);
    ++times_->apply_calls;
  }
  std::uint64_t state_checksum() const override {
    const auto start = Clock::now();
    const std::uint64_t checksum = inner_->state_checksum();
    times_->checksum_s += seconds_since(start);
    return checksum;
  }

 private:
  std::unique_ptr<elan::train::TrainingEngine> inner_;
  EngineTimes* times_;
};

/// Exactly-once data consumption (paper §V-C), checked from on_data_consumed:
/// within an epoch no sample repeats, serial consumption is contiguous from
/// 0, and every completed epoch covers the whole dataset.
class DataLedger {
 public:
  void add(std::uint64_t epoch, const std::vector<elan::data::SampleRange>& shards) {
    auto& ranges = ranges_[epoch];
    for (const auto& r : shards) {
      if (!r.empty()) ranges.push_back(r);
    }
  }

  std::string violation(std::uint64_t final_epoch, std::uint64_t samples) {
    if (ranges_.empty()) return "no data consumed";
    for (auto& [epoch, ranges] : ranges_) {
      std::sort(ranges.begin(), ranges.end(), [](const auto& x, const auto& y) {
        return x.begin < y.begin || (x.begin == y.begin && x.end < y.end);
      });
      std::uint64_t covered = 0, prev_end = 0;
      for (const auto& r : ranges) {
        if (r.begin != prev_end) {
          return "epoch " + std::to_string(epoch) + ": sample gap or repeat at " +
                 std::to_string(r.begin);
        }
        covered += r.size();
        prev_end = r.end;
      }
      if (epoch < final_epoch && covered != samples) {
        return "epoch " + std::to_string(epoch) + ": consumed " + std::to_string(covered) +
               "/" + std::to_string(samples);
      }
    }
    return "";
  }

 private:
  std::map<std::uint64_t, std::vector<elan::data::SampleRange>> ranges_;
};

/// Per-layer observations of one traced job.
struct JobLayers {
  EngineTimes engine;         // the whole job, end-of-job consistency check included
  EngineTimes engine_in_sim;  // the part spent inside Simulator::run
  double sim_run_s = 0;
  std::uint64_t events = 0;
  std::uint64_t coordinations = 0;
  std::uint64_t reports = 0;
  double pause_s = 0;
  elan::ReplicationStats replication;
  elan::transport::BusStats bus;
  std::uint64_t kv_puts = 0;
  std::uint64_t kv_gets = 0;
  double chunk_plan_us = 0;
};

struct JobRun {
  double setup_s = 0;  // testbed + job construction + first iteration
  double run_s = 0;    // the timed sim.run: every later iteration
  std::vector<double> iteration_ms;
  std::uint64_t iterations = 0;
  std::vector<std::uint64_t> checksums;
};

/// Wall time of ReplicationPlanner::chunk_plan on the workload's 8->16
/// request, median of repeated calls, in microseconds.
double time_chunk_plan(const elan::topo::Topology& topology,
                       const elan::topo::BandwidthModel& bandwidth, const ElasticJob& job) {
  elan::ReplicationRequest request;
  for (int i = 0; i < kInitialWorkers; ++i) request.existing.emplace(i, i);
  for (int i = 0; i < kScaleWorkers; ++i) {
    request.joining.emplace(kInitialWorkers + i, kInitialWorkers + i);
  }
  const auto& worker = job.worker(job.worker_ids().front());
  request.gpu_state_bytes = worker.gpu_state_bytes();
  request.cpu_state_bytes = worker.cpu_state_bytes();
  const elan::ReplicationPlanner planner(topology, bandwidth);
  std::vector<double> us;
  for (int i = 0; i < 11; ++i) {
    const auto start = Clock::now();
    const auto schedule = planner.chunk_plan(request);
    us.push_back(1e6 * seconds_since(start));
    if (schedule.transfers.empty()) return 0.0;
  }
  return quantile(us, 0.5);
}

/// Builds the testbed and the job, runs it to kIterations and checks it.
/// `layers` (traced pass) installs the timed engine and the data ledger and
/// collects per-layer counts.
JobRun run_job(const Options& options, Checks& checks, JobLayers* layers) {
  JobRun run;
  const auto setup_start = Clock::now();
  spin_up_pool(options.threads);
  const elan::topo::Topology topology{elan::topo::TopologySpec{}};
  const elan::topo::BandwidthModel bandwidth;
  elan::storage::SimFilesystem fs;
  elan::sim::Simulator sim;
  elan::transport::BusParams bus_params;
  bus_params.seed = options.seed ^ 0x5bd1e995ULL;
  elan::transport::MessageBus bus{sim, bandwidth, bus_params};
  elan::transport::KvStore kv{sim};

  elan::JobConfig config;
  config.job_id = "perfbench";
  config.model = elan::train::resnet50();
  config.model.dataset.num_samples = kSamples;
  config.initial_workers = kInitialWorkers;
  config.initial_total_batch = kTotalBatch;
  config.seed = options.seed;
  if (layers != nullptr) {
    config.engine_factory = [model = config.model, kind = config.engine,
                             times = &layers->engine] {
      return std::make_unique<TimedEngine>(elan::train::make_engine(model, kind), *times);
    };
  }
  ElasticJob job(sim, topology, bandwidth, fs, bus, kv, config);
  DataLedger ledger;
  if (layers != nullptr) {
    job.on_data_consumed = [&ledger](std::uint64_t epoch, const auto& shards) {
      ledger.add(epoch, shards);
    };
  }

  // The scheduler side: issue the next scheduled adjustment once its
  // iteration is reached and the previous one has completed.
  std::size_t next = 0;
  bool timing = false;
  auto last = Clock::now();
  job.on_iteration = [&](std::uint64_t iteration) {
    if (timing) {
      const auto now = Clock::now();
      run.iteration_ms.push_back(std::chrono::duration<double, std::milli>(now - last).count());
      last = now;
    }
    if (next >= kAdjustments || iteration < (next + 1) * kAdjustEvery ||
        job.adjustment_pending()) {
      return;
    }
    std::vector<int> ids = job.worker_ids();
    std::set<int> busy;
    for (int id : ids) busy.insert(job.worker(id).gpu());
    std::vector<int> free_gpus;
    for (int g = 0; g < topology.total_gpus(); ++g) {
      if (busy.count(g) == 0) free_gpus.push_back(g);
    }
    switch (kSchedule[next++]) {
      case AdjustmentType::kScaleOut:
        job.request_scale_out({free_gpus.begin(), free_gpus.begin() + kScaleWorkers});
        break;
      case AdjustmentType::kScaleIn:
        job.request_scale_in({ids.end() - kScaleWorkers, ids.end()});
        break;
      case AdjustmentType::kMigrate:
        job.request_migration({ids.front()}, {free_gpus.front()});
        break;
    }
  };

  job.stop_after_iterations(kIterations);
  job.start();
  const auto first_start = Clock::now();
  while (job.iteration() < 1 && sim.step()) {
  }
  const double first_s = seconds_since(first_start);
  run.setup_s = seconds_since(setup_start);

  timing = true;
  last = Clock::now();
  const auto run_start = Clock::now();
  sim.run();
  run.run_s = seconds_since(run_start);
  timing = false;
  if (layers != nullptr) {
    layers->sim_run_s = first_s + run.run_s;
    layers->engine_in_sim = layers->engine;
  }

  run.iterations = job.iteration();
  run.checksums = job.worker_checksums();
  checks.require(job.iteration() == kIterations,
                 "elastic job stopped at iteration " + std::to_string(job.iteration()));
  checks.require(job.consistent(), "elastic job replicas diverged");
  checks.require(job.adjustments().size() == kAdjustments,
                 "elastic job completed " + std::to_string(job.adjustments().size()) + "/" +
                     std::to_string(kAdjustments) + " adjustments");
  checks.require(job.num_workers() == kInitialWorkers, "elastic job ended at " +
                                                           std::to_string(job.num_workers()) +
                                                           " workers");
  if (layers == nullptr) return run;

  const std::string ledger_error = ledger.violation(job.epoch(), kSamples);
  checks.require(ledger_error.empty(), "elastic exactly-once: " + ledger_error);
  layers->events = sim.executed();
  layers->coordinations = job.master().coordinations();
  layers->reports = job.master().reports_received();
  for (const auto& a : job.adjustments()) {
    layers->pause_s += a.pause_time();
    layers->replication.num_chunks += a.replication_stats.num_chunks;
    layers->replication.chunks_copied += a.replication_stats.chunks_copied;
    layers->replication.chunks_relayed += a.replication_stats.chunks_relayed;
    layers->replication.replans += a.replication_stats.replans;
  }
  layers->bus = bus.stats();
  layers->kv_puts = kv.puts();
  layers->kv_gets = kv.gets();
  layers->chunk_plan_us = time_chunk_plan(topology, bandwidth, job);
  return run;
}

/// Counts a job's iterations as operations, all failed when any of its
/// checks (or `ok`) failed.
void record_job(Checks& into, const Checks& job, std::uint64_t iterations, bool ok,
                const std::string& what) {
  const bool job_ok = job.failed == 0;
  into.record(std::max<std::uint64_t>(iterations, 1), job_ok && ok,
              job_ok ? what : job.failures.front());
}

}  // namespace

E2eRun elastic_e2e(const Options& options) {
  E2eRun run;
  run.item = "iteration";
  run.op = "iteration";
  // Windows of 500 iterations: each spans about two adjustments.
  run.window = 500;
  const auto start = Clock::now();
  do {
    Checks job_checks;
    JobRun job = run_job(options, job_checks, nullptr);
    run.setup_s.push_back(job.setup_s);
    for (double ms : job.iteration_ms) run.add_op(ms, 1);
    record_job(run.checks, job_checks, job.iterations, true, "");
  } while (seconds_since(start) < options.seconds);
  return run;
}

void elastic_traced(const Options& options, LayerRun& out) {
  set_tracing(false);
  Checks plain_checks;
  const JobRun plain = run_job(options, plain_checks, nullptr);
  record_job(out.checks, plain_checks, plain.iterations, true, "");

  // The program's own spans here mix virtual timestamps (adjustment and
  // replication phases) with wall-clock ones; the benchmark reads none of
  // them and times the layers from outside instead.
  set_tracing(true);
  JobLayers layers;
  Checks traced_checks;
  const JobRun traced = run_job(options, traced_checks, &layers);
  set_tracing(false);
  record_job(out.checks, traced_checks, traced.iterations, traced.checksums == plain.checksums,
             "elastic traced run: worker_checksums differ from the untraced run");

  // elan.control_s is what Simulator::run spent outside the engine: the
  // control plane, transport, simulator core and replication.
  const double train_s = layers.engine_in_sim.apply_s + layers.engine_in_sim.checksum_s;
  const double iterations = static_cast<double>(traced.iterations);
  out.add("train.apply_update_calls", static_cast<double>(layers.engine.apply_calls), "count");
  out.add("train.apply_update_s", layers.engine.apply_s, "s");
  out.add("train.apply_update_share", layers.engine.apply_s / layers.sim_run_s, "ratio");
  out.add("train.checksum_s", layers.engine.checksum_s, "s");
  out.add("sim.events", static_cast<double>(layers.events), "count");
  out.add("sim.events_per_s", static_cast<double>(layers.events) / layers.sim_run_s, "1/s");
  out.add("sim.run_s", layers.sim_run_s, "s");
  out.add("elan.control_s", layers.sim_run_s - train_s, "s");
  out.add("elan.coordinations", static_cast<double>(layers.coordinations), "count");
  out.add("elan.reports", static_cast<double>(layers.reports), "count");
  out.add("elan.adjustments", static_cast<double>(kAdjustments), "count");
  out.add("elan.pause_s_mean", layers.pause_s / static_cast<double>(kAdjustments), "s");
  out.add("replication.chunks", layers.replication.num_chunks, "count");
  out.add("replication.chunks_copied", layers.replication.chunks_copied, "count");
  out.add("replication.chunks_relayed", layers.replication.chunks_relayed, "count");
  out.add("replication.replans", layers.replication.replans, "count");
  out.add("replication.chunk_plan_us", layers.chunk_plan_us, "us");
  out.add("transport.sent", static_cast<double>(layers.bus.sent), "count");
  out.add("transport.delivered", static_cast<double>(layers.bus.delivered), "count");
  out.add("transport.dropped", static_cast<double>(layers.bus.dropped), "count");
  out.add("transport.msgs_per_iter", static_cast<double>(layers.bus.sent) / iterations, "count");
  out.add("kv.puts", static_cast<double>(layers.kv_puts), "count");
  out.add("kv.gets", static_cast<double>(layers.kv_gets), "count");
  // Median iteration times: the first job in a process also pays for
  // first-touch page faults, which a ratio of totals would charge to tracing.
  out.add("obs.trace_overhead.elastic_train",
          quantile(traced.iteration_ms, 0.5) / quantile(plain.iteration_ms, 0.5), "ratio");
}

}  // namespace perfbench
