#include "elan/job.h"

#include <algorithm>

#include "common/error.h"
#include "common/log.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "topology/topology.h"

namespace elan {

const char* to_string(Mechanism mechanism) {
  switch (mechanism) {
    case Mechanism::kElan: return "Elan";
    case Mechanism::kShutdownRestart: return "S&R";
  }
  return "?";
}

const char* to_string(DataSemantics semantics) {
  switch (semantics) {
    case DataSemantics::kSerial: return "serial";
    case DataSemantics::kChunk: return "chunk";
  }
  return "?";
}

ElasticJob::ElasticJob(sim::Simulator& simulator, const topo::Topology& topology,
                       const topo::BandwidthModel& bandwidth,
                       storage::SimFilesystem& filesystem, transport::MessageBus& bus,
                       transport::KvStore& kv, JobConfig config,
                       memory::MemoryPool* memory_pool)
    : sim_(simulator),
      topology_(topology),
      bandwidth_(bandwidth),
      fs_(filesystem),
      bus_(bus),
      kv_(kv),
      config_(std::move(config)),
      rng_(config_.seed),
      throughput_(topology, bandwidth),
      hybrid_(throughput_, config_.model, config_.hybrid),
      planner_(topology, bandwidth),
      sampler_(config_.model.dataset),
      lr_controller_(train::StepSchedule(config_.base_lr, {})),
      total_batch_(config_.initial_total_batch) {
  memory_pool_ = memory_pool;
  require(config_.initial_workers > 0, "job: need at least one worker");
  require(config_.initial_workers <= topology_.total_gpus(), "job: more workers than GPUs");
  require(config_.coordination_interval > 0, "job: coordination interval must be positive");
  require(throughput_.fits(config_.model, config_.initial_workers, total_batch_),
          "job: initial batch does not fit");

  if (config_.data_semantics == DataSemantics::kChunk) {
    chunk_sampler_ = std::make_unique<data::ChunkSampler>(
        config_.model.dataset, config_.chunk_size, config_.initial_workers);
  }

  if (config_.initial_gpus.empty()) {
    for (int i = 0; i < config_.initial_workers; ++i) {
      config_.initial_gpus.push_back(static_cast<topo::GpuId>(i));
    }
  }
  require(config_.initial_gpus.size() == static_cast<std::size_t>(config_.initial_workers),
          "job: initial_gpus size mismatch");
  std::vector<WorkerLaunchSpec> initial;
  for (int i = 0; i < config_.initial_workers; ++i) {
    initial.push_back({i, config_.initial_gpus[static_cast<std::size_t>(i)]});
  }
  master_ = std::make_unique<ApplicationMaster>(bus_, kv_, config_.job_id, initial,
                                                config_.am);
  attach_master_listener();
  sched_endpoint_ = std::make_unique<transport::ReliableEndpoint>(
      bus_, "sched/" + config_.job_id, [this](const transport::Message& msg) {
        dispatch_message(msg, sched_endpoint_->name(),
                         [this](const AdjustReplyMsg& reply) { on_adjust_reply(reply); });
      });
  allocated_batch_ =
      (total_batch_ + config_.initial_workers - 1) / config_.initial_workers;
  for (const auto& spec : initial) {
    allocate_worker_memory(spec.worker, spec.gpu);
    workers_.emplace(spec.worker, make_worker(spec.worker, spec.gpu, /*running=*/true));
  }
}

void ElasticJob::allocate_worker_memory(int worker, topo::GpuId gpu) {
  if (memory_pool_ == nullptr) return;
  auto& device = memory_pool_->device(gpu);
  WorkerAllocations a;
  a.gpu = gpu;
  a.state = device.allocate(config_.job_id + "/w" + std::to_string(worker) + "/state",
                            config_.model.gpu_state_bytes());
  a.workspace =
      device.allocate(config_.job_id + "/w" + std::to_string(worker) + "/workspace",
                      config_.model.workspace_bytes(allocated_batch_));
  allocations_.emplace(worker, a);
}

void ElasticJob::free_worker_memory(int worker) {
  if (memory_pool_ == nullptr) return;
  auto it = allocations_.find(worker);
  ELAN_CHECK(it != allocations_.end(), "memory accounting lost worker");
  auto& device = memory_pool_->device(it->second.gpu);
  device.free(it->second.state);
  device.free(it->second.workspace);
  allocations_.erase(it);
}

void ElasticJob::resize_workspaces() {
  if (memory_pool_ == nullptr) return;
  const int batch = per_worker_batch();
  if (batch == allocated_batch_) return;
  allocated_batch_ = batch;
  for (auto& [worker, a] : allocations_) {
    auto& device = memory_pool_->device(a.gpu);
    device.free(a.workspace);
    a.workspace =
        device.allocate(config_.job_id + "/w" + std::to_string(worker) + "/workspace",
                        config_.model.workspace_bytes(batch));
  }
}

ElasticJob::~ElasticJob() {
  // Return all device memory to a shared pool (it outlives the job).
  if (memory_pool_ != nullptr) {
    for (const auto& [worker, a] : allocations_) {
      memory_pool_->device(a.gpu).free(a.state);
      memory_pool_->device(a.gpu).free(a.workspace);
    }
  }
}

std::unique_ptr<WorkerProcess> ElasticJob::make_worker(int id, topo::GpuId gpu,
                                                       bool already_running) {
  auto w = std::make_unique<WorkerProcess>(bus_, config_.job_id, id, gpu, config_.model,
                                           config_.engine, config_.worker_params, rng_.fork(),
                                           already_running, config_.engine_factory);
  register_loader_hook(*w);
  return w;
}

void ElasticJob::register_loader_hook(WorkerProcess& worker) {
  // The sampler is logically global (one loader view for the whole job);
  // each worker exposes it through its own hook so replication and
  // checkpointing carry it like any other state (Table II: CPU-resident).
  // Under serial semantics the state is a single cursor; under chunk
  // semantics it is the whole record table — the contrast of Fig 13.
  if (config_.data_semantics == DataSemantics::kChunk) {
    worker.hooks().register_hook(StateHook{
        "data_loader", StateLocation::kCpu,
        config_.worker_params.loader_state_bytes + chunk_sampler_->state_bytes(),
        [this] { return Blob("data_loader", chunk_sampler_->serialize_state()); },
        [this](const Blob& b) { chunk_sampler_->restore_state(b.bytes()); }});
    return;
  }
  worker.hooks().register_hook(StateHook{
      "data_loader", StateLocation::kCpu, config_.worker_params.loader_state_bytes,
      [this] { return Blob("data_loader", wire::encode(sampler_.state())); },
      [this](const Blob& b) {
        sampler_.restore(wire::decode<data::SerialSampler::State>(b.bytes()));
      }});
}

void ElasticJob::start() {
  require(!running_, "job already started");
  running_ = true;
  begin_iteration();
}

std::vector<int> ElasticJob::worker_ids() const {
  std::vector<int> ids;
  ids.reserve(workers_.size());
  for (const auto& [id, w] : workers_) ids.push_back(id);
  return ids;
}

const WorkerProcess& ElasticJob::worker(int id) const {
  auto it = workers_.find(id);
  if (it == workers_.end()) throw NotFound("worker " + std::to_string(id));
  return *it->second;
}

std::vector<std::uint64_t> ElasticJob::worker_checksums() const {
  std::vector<std::uint64_t> sums;
  sums.reserve(workers_.size());
  for (const auto& [id, w] : workers_) sums.push_back(w->state_checksum());
  return sums;
}

bool ElasticJob::consistent() const {
  const auto sums = worker_checksums();
  return std::adjacent_find(sums.begin(), sums.end(), std::not_equal_to<>()) == sums.end();
}

void ElasticJob::set_worker_slowdown(int worker, double factor) {
  require(factor >= 1.0, "set_worker_slowdown: factor must be >= 1");
  require(workers_.count(worker) > 0, "set_worker_slowdown: unknown worker");
  if (factor == 1.0) {
    slowdown_.erase(worker);
  } else {
    slowdown_[worker] = factor;
  }
}

double ElasticJob::worker_slowdown(int worker) const {
  auto it = slowdown_.find(worker);
  return it == slowdown_.end() ? 1.0 : it->second;
}

Seconds ElasticJob::repartition_cost() const {
  if (!chunk_sampler_) return 0.0;
  // Record-table scan/rebalance plus a control-plane sync round.
  return 0.002 + 1e-7 * static_cast<double>(chunk_sampler_->num_chunks());
}

Seconds ElasticJob::current_iteration_time() const {
  const int n = num_workers();
  const int per_worker = (total_batch_ + n - 1) / n;
  const Seconds full = throughput_.iteration_time(config_.model, n, per_worker);
  const Seconds compute = throughput_.compute_time(config_.model, per_worker);
  const Seconds engine_overhead = workers_.begin()->second->engine().per_iteration_overhead();
  // Synchronous allreduce: the slowest replica's compute paces the barrier.
  double straggle = 1.0;
  for (const auto& [id, w] : workers_) straggle = std::max(straggle, worker_slowdown(id));
  return compute * straggle + (full - compute) + engine_overhead;
}

std::uint64_t ElasticJob::gradient_seed(const data::SampleRange& range) const {
  // All replicas of an iteration must derive the same seed: it encodes the
  // globally-agreed data range (the simulated analogue of allreduce).
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = (h ^ sampler_.epoch()) * 0x100000001b3ULL;
  h = (h ^ range.begin) * 0x100000001b3ULL;
  h = (h ^ range.end) * 0x100000001b3ULL;
  return h;
}

void ElasticJob::fail_worker(int worker) {
  require(workers_.count(worker) > 0, "fail_worker: unknown worker");
  auto& w = *workers_.at(worker);
  // If the dead worker owes the current coordination round a decision, the
  // round must not wait for it forever.
  const bool owed_decision = w.has_pending_decision();
  w.shutdown();
  pending_failures_.push_back(worker);
  if (owed_decision && decisions_outstanding_ > 0) {
    if (--decisions_outstanding_ == 0) on_all_decisions();
  }
}

bool ElasticJob::fault_kill_worker(int worker) {
  auto it = workers_.find(worker);
  if (it != workers_.end()) {
    if (it->second->state() == WorkerState::kStopped) return false;  // already dead
    // Never orphan the job: at least one live replica must survive to source
    // state from. Workers already promised to leave in the AM's pending plan
    // do not count as survivors — the plan will remove them regardless.
    std::set<int> leaving;
    if (!master_->idle()) {
      for (int v : master_->plan().leave) leaving.insert(v);
    }
    int survivors = 0;
    for (const auto& [id, w] : workers_) {
      if (id != worker && w->state() != WorkerState::kStopped && leaving.count(id) == 0) {
        ++survivors;
      }
    }
    if (survivors == 0) return false;
    fail_worker(worker);
    return true;
  }
  auto jt = joining_.find(worker);
  if (jt == joining_.end() || jt->second->state() == WorkerState::kStopped) return false;
  // A joining worker is not in the communication group yet; killing it only
  // strands its join — report-timeout eviction or the failed-join tolerance
  // in finish_adjustment reaps it.
  jt->second->shutdown();
  return true;
}

void ElasticJob::reconcile_joining() {
  if (joining_.empty()) return;
  // Live entries are orphans only once no adjustment can still admit them:
  // the AM is back in Steady (e.g. it aborted a plan whose joins all timed
  // out) and no service request is in flight.
  const bool orphaned = master_->idle() && requests_in_flight_ == 0;
  for (auto it = joining_.begin(); it != joining_.end();) {
    const bool dead = it->second->state() == WorkerState::kStopped;
    if (!dead && !orphaned) {
      ++it;
      continue;
    }
    log_warn() << config_.job_id << ": reaping " << (dead ? "dead" : "orphaned")
               << " joining worker " << it->first;
    if (!dead) it->second->shutdown();
    free_worker_memory(it->first);
    it = joining_.erase(it);
  }
}

void ElasticJob::process_pending_failures() {
  if (pending_failures_.empty()) return;
  int removed = 0;
  for (int victim : pending_failures_) {
    auto it = workers_.find(victim);
    if (it == workers_.end()) continue;  // already left via an adjustment
    workers_.erase(it);
    slowdown_.erase(victim);
    free_worker_memory(victim);
    master_->remove_failed(victim);
    ++removed;
    ++worker_failures_;
    log_warn() << config_.job_id << ": worker " << victim
               << " fail-stopped; continuing with " << workers_.size() << " replicas";
  }
  pending_failures_.clear();
  if (workers_.empty()) {
    // Every replica is gone (a failure raced an adjustment that removed the
    // rest): the job cannot continue, but the *process* must not die — stop
    // cleanly and let the owner decide (a real deployment would restart from
    // a checkpoint).
    fatal_failure_ = true;
    running_ = false;
    log_error() << config_.job_id << ": all replicas lost; stopping";
    if (on_stopped) on_stopped();
    return;
  }
  if (removed == 0) {
    // All "failures" had already left through an adjustment; just continue.
    sim_.schedule(0.0, [this] { begin_iteration(); });
    return;
  }
  // Survivors rebuild the communication group, then training resumes.
  // The total batch is kept (strong scaling): work redistributes through the
  // global serial cursor / chunk repartition automatically.
  if (chunk_sampler_) chunk_sampler_->repartition(num_workers());
  resize_workspaces();
  const Seconds reconstruct = comm::GroupParams{}.reconstruct_time(num_workers());
  sim_.schedule(reconstruct + repartition_cost(), [this] { begin_iteration(); });
}

void ElasticJob::begin_iteration() {
  if (!running_) return;
  if (stop_requested_ || (stop_at_iteration_ != 0 && iteration_ >= stop_at_iteration_)) {
    running_ = false;
    if (on_stopped) on_stopped();
    return;
  }
  if (!pending_failures_.empty()) {
    process_pending_failures();
    return;  // resumes via the scheduled reconstruction
  }
  if (iteration_ % config_.coordination_interval == 0) {
    coordinate_round();
  } else {
    train_step();
  }
}

void ElasticJob::coordinate_round() {
  reconcile_joining();
  decisions_outstanding_ = static_cast<int>(workers_.size());
  adjust_signalled_ = false;
  obs::event(obs::FlightEventKind::kRoundStart, config_.job_id.c_str(), nullptr, iteration_,
             static_cast<std::uint64_t>(workers_.size()));
  const Seconds round_started = sim_.now();
  for (auto& [id, worker] : workers_) {
    const int worker_id = id;
    worker->coordinate(iteration_, [this, worker_id, round_started](
                                       const DecisionMsg& decision) {
      if (obs::Tracer::enabled()) {
        // Sim-time span per worker, on a per-worker tid lane: the round is a
        // fan-out, so the overlap (and any straggling reply) is visible.
        obs::Tracer::instance().complete(
            "coordination", "round", round_started * 1e6,
            (sim_.now() - round_started) * 1e6,
            "{\"worker\":" + std::to_string(worker_id) +
                ",\"iteration\":" + std::to_string(iteration_) +
                ",\"adjust\":" + (decision.adjust ? "true" : "false") + "}",
            static_cast<std::uint64_t>(worker_id));
      }
      obs::event(obs::FlightEventKind::kRoundDecision, config_.job_id.c_str(), nullptr,
                 iteration_, static_cast<std::uint64_t>(worker_id), decision.adjust ? 1 : 0);
      if (decision.adjust) {
        adjust_signalled_ = true;
        signalled_plan_ = decision.plan;
      }
      if (--decisions_outstanding_ == 0) on_all_decisions();
    });
  }
}

void ElasticJob::on_all_decisions() {
  obs::event(obs::FlightEventKind::kRoundComplete, config_.job_id.c_str(), nullptr, iteration_,
             adjust_signalled_ ? 1 : 0);
  if (adjust_signalled_) {
    perform_adjustment(signalled_plan_);
  } else {
    train_step();
  }
}

ElasticJob::IterationData ElasticJob::consume_iteration_data() {
  IterationData data;
  if (config_.data_semantics == DataSemantics::kChunk) {
    // Each worker (rank order) draws its share from its own chunks; near the
    // epoch end some workers run dry earlier (fragmentation).
    const auto per_worker =
        static_cast<std::uint64_t>((total_batch_ + num_workers() - 1) / num_workers());
    std::uint64_t mix = 0xcbf29ce484222325ULL ^ chunk_sampler_->epoch();
    for (int rank = 0; rank < num_workers(); ++rank) {
      const auto r = chunk_sampler_->next_batch(rank, per_worker);
      data.consumed += r.size();
      data.shards.push_back(r);
      mix = (mix ^ r.begin) * 0x100000001b3ULL;
      mix = (mix ^ r.end) * 0x100000001b3ULL;
    }
    if (data.consumed == 0) {
      chunk_sampler_->begin_next_epoch();
      return consume_iteration_data();
    }
    data.seed = mix;
    return data;
  }

  auto range = sampler_.next_batch(static_cast<std::uint64_t>(total_batch_));
  if (range.empty()) {
    sampler_.begin_next_epoch();
    range = sampler_.next_batch(static_cast<std::uint64_t>(total_batch_));
  }
  data.seed = gradient_seed(range);
  data.consumed = range.size();
  // Serial semantics: the global contiguous range splits into contiguous
  // per-worker shards in rank order.
  const int n = num_workers();
  const auto per_worker = (range.size() + static_cast<std::uint64_t>(n) - 1) /
                          static_cast<std::uint64_t>(n);
  for (int r = 0; r < n; ++r) {
    const auto begin = std::min(range.end, range.begin + per_worker * static_cast<std::uint64_t>(r));
    const auto end = std::min(range.end, begin + per_worker);
    data.shards.push_back(data::SampleRange{begin, end});
  }
  return data;
}

Seconds ElasticJob::worker_compute_time(int worker) {
  const Seconds base =
      throughput_.compute_time(config_.model, per_worker_batch()) * worker_slowdown(worker);
  if (config_.compute_jitter_cv <= 0.0) return base;
  return base * rng_.truncated_normal(1.0, config_.compute_jitter_cv, 0.5, 2.0);
}

Seconds ElasticJob::post_barrier_time() const {
  // Exposed allreduce (whatever backward could not hide) plus the engine's
  // per-iteration host overhead.
  const int n = num_workers();
  const Seconds full = throughput_.iteration_time(config_.model, n, per_worker_batch());
  const Seconds compute = throughput_.compute_time(config_.model, per_worker_batch());
  const Seconds engine_overhead = workers_.begin()->second->engine().per_iteration_overhead();
  return (full - compute) + engine_overhead;
}

void ElasticJob::train_step() {
  ideal_training_time_ += current_iteration_time();
  // Each worker computes at its own pace; the allreduce barrier waits for
  // the slowest replica, then the exposed communication completes the
  // iteration (synchronous data parallelism).
  compute_outstanding_ = static_cast<int>(workers_.size());
  for (auto& [id, worker] : workers_) {
    sim_.schedule(worker_compute_time(id), [this]() {
      if (--compute_outstanding_ > 0) return;
      sim_.schedule(post_barrier_time(), [this]() { finish_train_step(); });
    });
  }
}

void ElasticJob::finish_train_step() {
  const auto data = consume_iteration_data();
  samples_processed_ += data.consumed;
  // Epoch must be read *after* the consume: on turnover the ranges belong to
  // the new epoch the sampler just began.
  if (on_data_consumed) on_data_consumed(epoch(), data.shards);
  const double lr = lr_controller_.lr(iteration_);

  // Local forward/backward on every replica's shard.
  int rank = 0;
  for (auto& [id, worker] : workers_) {
    worker->engine().compute_gradients(data.seed, data.shards[static_cast<std::size_t>(rank++)]);
  }
  // Gradient allreduce for engines that expose real gradient buffers
  // (cost-modelled engines synchronise through the shared seed instead).
  std::vector<std::vector<double>*> grads;
  for (auto& [id, worker] : workers_) {
    if (auto* g = worker->engine().mutable_gradients()) grads.push_back(g);
  }
  if (grads.size() == workers_.size() && grads.size() > 1) {
    comm::allreduce_sum(grads);
    const double n = static_cast<double>(grads.size());
    for (auto* g : grads) {
      for (auto& v : *g) v /= n;
    }
  }
  // Identical update everywhere.
  for (auto& [id, worker] : workers_) {
    worker->engine().apply_update(data.seed, lr);
    worker->engine().bump_iteration();
  }

  ++iteration_;
  if (on_iteration) on_iteration(iteration_);
  begin_iteration();
}

void ElasticJob::crash_master() { master_->crash(); }

void ElasticJob::recover_master() {
  master_.reset();  // release the endpoint name before re-attaching
  master_ = ApplicationMaster::recover(bus_, kv_, config_.job_id, config_.am);
  attach_master_listener();
}

void ElasticJob::attach_master_listener() {
  master_->set_phase_listener([this](AmPhase from, AmPhase to) {
    if (on_am_phase) on_am_phase(from, to);
  });
}

void ElasticJob::send_adjust_request(AdjustRequestMsg msg) {
  last_request_time_ = sim_.now();
  msg.request_id = next_request_id_++;
  ++requests_in_flight_;
  outstanding_requests_.insert(msg.request_id);
  obs::event(obs::FlightEventKind::kAdjustSent, config_.job_id.c_str(), to_string(msg.type),
             msg.request_id);
  send_message(*sched_endpoint_, master_->name(), msg);
  arm_adjust_resend(std::move(msg));
}

void ElasticJob::arm_adjust_resend(AdjustRequestMsg msg) {
  // The transport retries the *request* until acked, but an AM crash between
  // ack and reply destroys the reply's retry state — without this timer the
  // request would stay in flight forever. Re-sends reuse the request id, so
  // the AM replays its cached verdict instead of re-executing.
  const auto id = msg.request_id;
  adjust_resend_timers_[id] = sim_.schedule(
      config_.adjust_reply_timeout, [this, msg = std::move(msg)]() mutable {
        adjust_resend_timers_.erase(msg.request_id);
        if (!running_ || outstanding_requests_.count(msg.request_id) == 0) return;
        log_debug() << config_.job_id << ": no reply for adjust request " << msg.request_id
                    << " after " << config_.adjust_reply_timeout << "s; re-sending";
        send_message(*sched_endpoint_, master_->name(), msg);
        arm_adjust_resend(std::move(msg));
      });
}

void ElasticJob::on_adjust_reply(const AdjustReplyMsg& reply) {
  auto timer = adjust_resend_timers_.find(reply.request_id);
  if (timer != adjust_resend_timers_.end()) {
    sim_.cancel(timer->second);
    adjust_resend_timers_.erase(timer);
  }
  if (outstanding_requests_.erase(reply.request_id) == 0) {
    // Duplicate reply: the request was resent across an AM recovery (the
    // recovered endpoint has no duplicate-suppression state) and processed
    // twice — the second processing is rejected by the AM and must not
    // disturb the in-flight accounting here.
    obs::event(obs::FlightEventKind::kAdjustReply, config_.job_id.c_str(), nullptr,
               reply.request_id, reply.ok ? 1 : 0, /*duplicate=*/1);
    log_debug() << config_.job_id << ": duplicate reply for request "
                << reply.request_id << " ignored";
    return;
  }
  --requests_in_flight_;
  obs::event(obs::FlightEventKind::kAdjustReply, config_.job_id.c_str(), nullptr,
             reply.request_id, reply.ok ? 1 : 0, /*duplicate=*/0);
  if (!reply.ok) {
    ++adjustments_rejected_;
    log_warn() << config_.job_id << ": adjustment request " << reply.request_id
               << " rejected: " << reply.error;
    return;
  }
  // Step 1 continued: "It also launches new workers if any."
  for (const auto& [id, gpu] : reply.launch) {
    allocate_worker_memory(id, gpu);
    auto w = make_worker(id, gpu, /*running=*/false);
    if (on_worker_launched) on_worker_launched(*w);
    w->launch();
    joining_.emplace(id, std::move(w));
  }
}

void ElasticJob::request_scale_out(const std::vector<topo::GpuId>& gpus) {
  AdjustRequestMsg msg;
  msg.type = AdjustmentType::kScaleOut;
  msg.gpus = gpus;
  send_adjust_request(std::move(msg));
}

void ElasticJob::request_scale_in(const std::vector<int>& victims) {
  AdjustRequestMsg msg;
  msg.type = AdjustmentType::kScaleIn;
  msg.victims = victims;
  send_adjust_request(std::move(msg));
}

void ElasticJob::request_migration(const std::vector<int>& victims,
                                   const std::vector<topo::GpuId>& target_gpus) {
  AdjustRequestMsg msg;
  msg.type = AdjustmentType::kMigrate;
  msg.victims = victims;
  msg.gpus = target_gpus;
  send_adjust_request(std::move(msg));
}

void ElasticJob::perform_adjustment(const AdjustmentPlan& plan) {
  // A failure between plan admission and execution can shrink the cluster so
  // that the plan's leave set now retires every remaining replica (e.g. a
  // kill racing an in-flight scale-in). Executing it would train with zero
  // workers; honour the retirement and stop cleanly instead.
  const int workers_after = num_workers() + static_cast<int>(plan.join.size()) -
                            static_cast<int>(plan.leave.size());
  if (workers_after <= 0) {
    log_error() << config_.job_id << ": adjustment v" << plan.version
                << " would leave no replicas (concurrent failures); retiring the job";
    master_->on_adjustment_complete({});
    for (int v : plan.leave) {
      auto it = workers_.find(v);
      if (it == workers_.end()) continue;
      it->second->shutdown();
      free_worker_memory(it->first);
      workers_.erase(it);
    }
    fatal_failure_ = true;
    running_ = false;
    if (on_stopped) on_stopped();
    return;
  }

  obs::event(obs::FlightEventKind::kAdjustStart, config_.job_id.c_str(), to_string(plan.type),
             plan.version, static_cast<std::uint64_t>(num_workers()),
             static_cast<std::uint64_t>(workers_after));
  AdjustmentRecord record;
  record.type = plan.type;
  record.plan_version = plan.version;
  record.workers_before = num_workers();
  record.total_batch_before = total_batch_;
  record.requested_at = last_request_time_;
  record.started_at = sim_.now();

  if (config_.mechanism == Mechanism::kElan) {
    execute_elan_adjustment(std::move(record), plan);
  } else {
    execute_snr_adjustment(std::move(record), plan);
  }
}

// Live state of one chunk-pipelined replication. The canonical serialized
// stream is produced once (all replicas are bit-identical); each destination
// owns a receive buffer sized once up front, into which chunk slices land in
// stream order. Relay transfers read out of the *peer's buffer*, not the
// canonical stream, so a prefix-tracking bug corrupts the final checksum
// instead of hiding.
struct ElasticJob::ReplicationSession {
  std::uint32_t num_chunks = 0;
  std::shared_ptr<const std::vector<std::uint8_t>> stream;  // allocated once
  std::uint64_t stream_checksum = 0;  // full FNV over the stream, computed once
  struct Dest {
    std::vector<std::uint8_t> buffer;
    std::uint32_t verified = 0;  // chunks held == verified-prefix length
    bool lost = false;           // source died mid-stream; resume pending
    bool done = false;           // full stream checksummed and loaded
  };
  std::map<int, Dest> dests;
  ReplicationStats stats;

  /// Stored-byte range of `chunk`: the scaled stream is cut proportionally
  /// into num_chunks slices (nominal chunk sizes time the schedule; slices
  /// move the real bytes).
  std::pair<std::size_t, std::size_t> slice(std::uint32_t chunk) const {
    const std::size_t stored = stream->size();
    return {stored * chunk / num_chunks, stored * (chunk + 1) / num_chunks};
  }
};

void ElasticJob::schedule_chunk_round(const std::shared_ptr<ReplicationSession>& session,
                                      const ChunkSchedule& schedule) {
  const Seconds base = sim_.now();
  for (const auto& t : schedule.transfers) {
    sim_.schedule(t.finish(), [this, session, t, base] {
      apply_replication_chunk(session, t, base);
    });
  }
}

void ElasticJob::apply_replication_chunk(const std::shared_ptr<ReplicationSession>& session,
                                         const ChunkTransfer& transfer, Seconds round_base) {
  auto dit = session->dests.find(transfer.dest_worker);
  if (dit == session->dests.end()) return;
  auto& dest = dit->second;
  if (dest.done || dest.lost) return;
  auto dst = joining_.find(transfer.dest_worker);
  if (dst == joining_.end() || dst->second->state() == WorkerState::kStopped) {
    dest.lost = true;  // the destination itself died — a failed join
    return;
  }
  ELAN_DCHECK(dest.verified == transfer.chunk, "chunk replication: out-of-order delivery");

  // Resolve the source bytes: a replica streams from the canonical serialized
  // state; a relay destination serves out of its own verified prefix.
  std::span<const std::uint8_t> source_bytes;
  bool from_relay = false;
  if (auto src = workers_.find(transfer.source_worker);
      src != workers_.end() && src->second->state() != WorkerState::kStopped) {
    source_bytes = *session->stream;
  } else if (auto peer = session->dests.find(transfer.source_worker);
             peer != session->dests.end() && peer->second.verified > transfer.chunk &&
             joining_.count(transfer.source_worker) &&
             joining_.at(transfer.source_worker)->state() != WorkerState::kStopped) {
    source_bytes = peer->second.buffer;
    from_relay = true;
  } else {
    // The source fail-stopped (or, for a relay, its prefix died with it):
    // everything up to `verified` stays good; the suffix is re-planned when
    // this round's window closes.
    dest.lost = true;
    obs::event(obs::FlightEventKind::kChunkSourceLost, config_.job_id.c_str(), nullptr,
               transfer.chunk, static_cast<std::uint64_t>(transfer.dest_worker),
               static_cast<std::uint64_t>(transfer.source_worker));
    return;
  }

  const auto [begin, end] = session->slice(transfer.chunk);
  std::copy(source_bytes.begin() + static_cast<std::ptrdiff_t>(begin),
            source_bytes.begin() + static_cast<std::ptrdiff_t>(end),
            dest.buffer.begin() + static_cast<std::ptrdiff_t>(begin));
  // Per-chunk integrity: a sampled fingerprint on the hot path (the full FNV
  // scan per transfer the old executor paid is now one scan per destination,
  // at completion). Sanitize/debug builds keep the full per-chunk scan.
  const auto src_slice = source_bytes.subspan(begin, end - begin);
  const auto dst_slice = std::span<const std::uint8_t>(dest.buffer).subspan(begin, end - begin);
  ELAN_CHECK(quick_fingerprint(dst_slice) == quick_fingerprint(src_slice),
             "replication chunk fingerprint mismatch");
#if defined(ELAN_SANITIZE_BUILD) || !defined(NDEBUG)
  ELAN_CHECK(fnv1a(dst_slice) == fnv1a(src_slice), "replication chunk checksum mismatch");
#endif
  ++dest.verified;
  ++session->stats.chunks_copied;
  if (from_relay) ++session->stats.chunks_relayed;
  obs::event(obs::FlightEventKind::kChunkVerified, config_.job_id.c_str(), nullptr,
             transfer.chunk, static_cast<std::uint64_t>(transfer.dest_worker),
             static_cast<std::uint64_t>(transfer.source_worker));

  if (obs::Tracer::enabled()) {
    obs::Tracer::instance().complete(
        "replication", "chunk", (round_base + transfer.start) * 1e6, transfer.duration * 1e6,
        "{\"src\":" + std::to_string(transfer.source_worker) +
            ",\"dst\":" + std::to_string(transfer.dest_worker) +
            ",\"chunk\":" + std::to_string(transfer.chunk) + ",\"link\":\"" +
            obs::json_escape(topo::to_string(transfer.level)) +
            "\",\"relay\":" + (transfer.relay ? "true" : "false") + "}",
        static_cast<std::uint64_t>(transfer.dest_worker));
  }
}

void ElasticJob::execute_elan_adjustment(AdjustmentRecord record, const AdjustmentPlan& plan) {
  const int workers_after = num_workers() + static_cast<int>(plan.join.size()) -
                            static_cast<int>(plan.leave.size());
  const auto decision = hybrid_.decide(num_workers(), total_batch_, workers_after);

  // Step 4 (Fig 2): concurrent IO-free state replication, chunk-pipelined.
  Seconds replication_time = 0;
  std::shared_ptr<ReplicationSession> session;
  if (!plan.join.empty()) {
    ReplicationRequest request;
    for (const auto& [id, w] : workers_) request.existing.emplace(id, w->gpu());
    for (const auto& [id, gpu] : plan.join) request.joining.emplace(id, gpu);
    const auto& any_worker = *workers_.begin()->second;
    request.gpu_state_bytes = any_worker.gpu_state_bytes();
    request.cpu_state_bytes = any_worker.cpu_state_bytes();
    const auto schedule = planner_.chunk_plan(request, ChunkPlanOptions{});
    replication_time = schedule.total_time;

    session = std::make_shared<ReplicationSession>();
    session->num_chunks = schedule.num_chunks;
    session->stream = std::make_shared<const std::vector<std::uint8_t>>(
        wire::encode(any_worker.hooks().save_all()));
    session->stream_checksum = fnv1a(*session->stream);
    session->stats.num_chunks = schedule.num_chunks;
    for (const auto& [id, gpu] : plan.join) {
      session->dests[id].buffer.assign(session->stream->size(), 0);
    }
    schedule_chunk_round(session, schedule);

    if (obs::Tracer::enabled()) {
      // One aggregated sim-time span per destination (first chunk start to
      // completion), laid out on the destination worker's tid lane: streams
      // over distinct links overlap — the concurrency §IV-3 claims over
      // serial replication — while the per-chunk spans above show the
      // interleaving inside each stream.
      const Seconds base = sim_.now();
      auto& tracer = obs::Tracer::instance();
      for (const auto& [dest, gpu] : request.joining) {
        Seconds first = replication_time;
        int source = -1;
        for (const auto& t : schedule.transfers) {
          if (t.dest_worker != dest) continue;
          if (t.chunk == 0) source = t.source_worker;
          first = std::min(first, t.start);
        }
        tracer.complete(
            "replication", "transfer", (base + first) * 1e6,
            (schedule.completion.at(dest) - first) * 1e6,
            "{\"src\":" + std::to_string(source) + ",\"dst\":" + std::to_string(dest) +
                ",\"chunks\":" + std::to_string(schedule.num_chunks) +
                ",\"gpu_bytes\":" + std::to_string(request.gpu_state_bytes) + "}",
            static_cast<std::uint64_t>(dest));
      }
    }
  }
  record.breakdown.replication = replication_time;
  if (on_adjustment_started) on_adjustment_started(plan.type, replication_time);

  // Step 5: state adjustment — communication-group reconstruction; data
  // repartition is free under serial semantics (the cursor is global) but
  // costs a record-table rework under chunk semantics.
  const Seconds reconstruct = comm::GroupParams{}.reconstruct_time(workers_after);
  record.breakdown.reconstruct = reconstruct;
  record.breakdown.repartition = repartition_cost();

  sim_.schedule(replication_time, [this, record = std::move(record), plan, decision,
                                   session = std::move(session)]() mutable {
    complete_elan_replication(std::move(record), std::move(plan), decision,
                              std::move(session));
  });
}

void ElasticJob::complete_elan_replication(AdjustmentRecord record, AdjustmentPlan plan,
                                           ScalingDecision decision,
                                           std::shared_ptr<ReplicationSession> session) {
  // Destinations holding the full verified stream finalise: one full FNV
  // checksum proves byte identity with the canonical stream (the per-chunk
  // hot path only sampled), then the state loads into the worker's hooks.
  // Destinations whose source fail-stopped mid-stream kept their verified
  // prefix; only the missing suffix is re-planned, from any surviving
  // replica — including joiners that already completed this round.
  std::vector<int> resume;
  if (session) {
    for (auto& [dest_id, dest] : session->dests) {
      if (dest.done) continue;
      auto dst = joining_.find(dest_id);
      if (dst == joining_.end() || dst->second->state() == WorkerState::kStopped) {
        continue;  // the destination itself died — a failed join, nothing to redo
      }
      if (dest.verified >= session->num_chunks) {
        ELAN_CHECK(fnv1a(dest.buffer) == session->stream_checksum,
                   "replicated state differs from the canonical stream");
        dst->second->hooks().load_all(wire::decode<StateSnapshot>(dest.buffer));
        dest.done = true;
      } else {
        resume.push_back(dest_id);
      }
    }
  }

  if (!resume.empty()) {
    ReplicationRequest request;
    for (const auto& [id, w] : workers_) {
      if (w->state() != WorkerState::kStopped) request.existing.emplace(id, w->gpu());
    }
    for (const auto& [id, dest] : session->dests) {
      if (!dest.done) continue;
      auto jt = joining_.find(id);
      if (jt != joining_.end() && jt->second->state() != WorkerState::kStopped) {
        request.existing.emplace(id, jt->second->gpu());
      }
    }
    ELAN_CHECK(!request.existing.empty(), "replication re-plan: no surviving replica");
    ChunkPlanOptions chunk_options;
    std::uint32_t kept = 0;
    for (int dest_id : resume) {
      auto& dest = session->dests.at(dest_id);
      request.joining.emplace(dest_id, joining_.at(dest_id)->gpu());
      chunk_options.verified[dest_id] = dest.verified;
      kept += dest.verified;
      dest.lost = false;
    }
    const int first_source = request.existing.begin()->first;
    const auto& survivor = workers_.count(first_source) ? *workers_.at(first_source)
                                                        : *joining_.at(first_source);
    request.gpu_state_bytes = survivor.gpu_state_bytes();
    request.cpu_state_bytes = survivor.cpu_state_bytes();
    const auto redo = planner_.chunk_plan(request, chunk_options);
    ++session->stats.replans;
    session->stats.chunks_resumed += kept;
    obs::event(obs::FlightEventKind::kReplicationReplan, config_.job_id.c_str(), nullptr,
               static_cast<std::uint64_t>(resume.size()), kept, session->stats.replans);
    record.breakdown.replication += redo.total_time;
    log_warn() << config_.job_id << ": replication source died mid-transfer; resuming "
               << resume.size() << " destination(s) from " << kept
               << " verified chunk(s) (+" << redo.total_time << "s)";
    // The resume round has its own window and can itself lose a source.
    schedule_chunk_round(session, redo);
    sim_.schedule(redo.total_time,
                  [this, record = std::move(record), plan = std::move(plan), decision,
                   session = std::move(session)]() mutable {
      complete_elan_replication(std::move(record), std::move(plan), decision,
                                std::move(session));
    });
    return;
  }

  if (session) record.replication_stats = session->stats;
  sim_.schedule(record.breakdown.reconstruct + record.breakdown.repartition,
                [this, record = std::move(record), plan = std::move(plan),
                 decision]() mutable {
    finish_adjustment(std::move(record), plan, decision.batch_factor, decision.total_batch);
  });
}

void ElasticJob::execute_snr_adjustment(AdjustmentRecord record, const AdjustmentPlan& plan) {
  const int workers_after = num_workers() + static_cast<int>(plan.join.size()) -
                            static_cast<int>(plan.leave.size());
  const auto decision = hybrid_.decide(num_workers(), total_batch_, workers_after);
  if (on_adjustment_started) on_adjustment_started(plan.type, 0.0);
  auto& any_worker = *workers_.begin()->second;
  const Bytes gpu_bytes = any_worker.gpu_state_bytes();

  // Checkpoint: rank 0 copies GPU state to host and writes everything to the
  // shared filesystem.
  const auto snapshot = any_worker.hooks().save_all();
  const Seconds write_time = fs_.write(checkpoint_path(), wire::encode(snapshot));
  record.breakdown.checkpoint = bandwidth_.host_device_copy_time(gpu_bytes) + write_time;

  const bool is_migration = plan.type == AdjustmentType::kMigrate;
  if (is_migration) {
    // Existing workers are discarded, so S&R benefits from the asynchronous
    // start of the replacements (already launched at request time): only
    // checkpoint + load remain on the critical path (§VI-A2).
    record.breakdown.shutdown = 0;
    record.breakdown.start = 0;
    record.breakdown.init = 0;
  } else {
    // Scale-out/in: every surviving worker is shut down and restarted with
    // the new configuration — squarely on the critical path.
    record.breakdown.shutdown = config_.worker_params.shutdown_time;
    Seconds max_start = 0;
    const int restarted = static_cast<int>(workers_.size()) -
                          static_cast<int>(plan.leave.size());
    for (int i = 0; i < restarted; ++i) {
      max_start = std::max(
          max_start, rng_.truncated_normal(config_.worker_params.start_mean,
                                           config_.worker_params.start_stddev,
                                           config_.worker_params.start_mean * 0.5,
                                           config_.worker_params.start_mean * 2.0));
    }
    record.breakdown.start = max_start;
    record.breakdown.init = any_worker.engine().initialization_time();
  }

  // All post-adjustment workers read the checkpoint concurrently and copy it
  // back to their GPUs.
  record.breakdown.load = fs_.concurrent_read_time(workers_after, snapshot.stored_bytes() +
                                                                      gpu_bytes) +
                          bandwidth_.host_device_copy_time(gpu_bytes);
  record.breakdown.reconstruct = comm::GroupParams{}.reconstruct_time(workers_after);
  record.breakdown.repartition = repartition_cost();

  // Restore every worker (new and surviving) from the checkpoint bytes.
  const auto& stored = fs_.read(checkpoint_path());
  const auto loaded = wire::decode<StateSnapshot>(stored);
  for (auto& [id, w] : joining_) w->hooks().load_all(loaded);
  for (auto& [id, w] : workers_) w->hooks().load_all(loaded);

  const Seconds total = record.breakdown.total();
  sim_.schedule(total, [this, record = std::move(record), plan, decision]() mutable {
    finish_adjustment(std::move(record), plan, decision.batch_factor, decision.total_batch);
  });
}

void ElasticJob::finish_adjustment(AdjustmentRecord record, const AdjustmentPlan& plan,
                                   double batch_factor, int new_total_batch) {
  // Remove leaving workers (straggler markings and GPU memory go with them).
  // A victim may already be gone if it fail-stopped in the meantime.
  for (int victim : plan.leave) {
    auto it = workers_.find(victim);
    if (it == workers_.end()) continue;
    it->second->shutdown();
    workers_.erase(it);
    slowdown_.erase(victim);
    free_worker_memory(victim);
  }
  // Admit joining workers. A join can fail underway — the process died
  // mid-launch or mid-replication — and must be dropped, not admitted: the
  // adjustment completes with the survivors and the AM is told which joins
  // never materialised.
  std::vector<int> failed_joins;
  for (const auto& [id, gpu] : plan.join) {
    auto it = joining_.find(id);
    if (it == joining_.end()) {
      failed_joins.push_back(id);
      continue;
    }
    if (it->second->state() != WorkerState::kReady) {
      log_warn() << config_.job_id << ": joining worker " << id << " is "
                 << to_string(it->second->state()) << " at admission; dropping it";
      it->second->shutdown();
      joining_.erase(it);
      free_worker_memory(id);
      failed_joins.push_back(id);
      continue;
    }
    it->second->set_training();
    workers_.emplace(id, std::move(it->second));
    joining_.erase(it);
  }
  // Anything still in joining_ was evicted from the plan before completion
  // (report-timeout at the AM): it never became part of the group.
  for (auto it = joining_.begin(); it != joining_.end();) {
    log_warn() << config_.job_id << ": discarding evicted joining worker " << it->first;
    it->second->shutdown();
    free_worker_memory(it->first);
    it = joining_.erase(it);
  }

  // Data repartition (step 5): free for the serial cursor; the chunk record
  // table reassigns its remaining fragments to the new worker set.
  if (chunk_sampler_) chunk_sampler_->repartition(num_workers());

  // Hybrid scaling: adjust the batch size now and ramp the LR progressively.
  total_batch_ = new_total_batch;
  resize_workspaces();
  if (batch_factor != 1.0) {
    lr_controller_.apply_scaling(batch_factor, iteration_, config_.hybrid.ramp_iterations);
  }
  record.lr_factor = batch_factor;
  record.workers_after = num_workers();
  record.total_batch_after = total_batch_;
  record.completed_at = sim_.now();
  adjustments_.push_back(record);
  obs::event(obs::FlightEventKind::kAdjustFinish, config_.job_id.c_str(), to_string(record.type),
             record.plan_version, static_cast<std::uint64_t>(record.workers_after),
             static_cast<std::uint64_t>(failed_joins.size()));

  if (obs::Tracer::enabled()) {
    auto& tracer = obs::Tracer::instance();
    // Whole-adjustment span first: category/name "adjustment"/"adjustment"
    // is the key elan_trace_report uses for critical-path shares.
    tracer.complete(
        "adjustment", "adjustment", record.started_at * 1e6, record.pause_time() * 1e6,
        std::string("{\"type\":\"") + to_string(record.type) +
            "\",\"mechanism\":\"" + to_string(config_.mechanism) +
            "\",\"workers\":\"" + std::to_string(record.workers_before) + "->" +
            std::to_string(record.workers_after) + "\"}");
    // Then the breakdown as back-to-back spans in total()'s field order —
    // the phases are modelled as sequential, so this reconstructs the
    // paper's Fig 10/11 stacked timeline.
    const std::pair<const char*, Seconds> phases[] = {
        {"checkpoint", record.breakdown.checkpoint},
        {"shutdown", record.breakdown.shutdown},
        {"start", record.breakdown.start},
        {"init", record.breakdown.init},
        {"load", record.breakdown.load},
        {"replication", record.breakdown.replication},
        {"reconstruct", record.breakdown.reconstruct},
        {"repartition", record.breakdown.repartition},
    };
    Seconds at = record.started_at;
    for (const auto& [name, dur] : phases) {
      if (dur <= 0) continue;
      tracer.complete("adjustment", name, at * 1e6, dur * 1e6);
      at += dur;
    }
  }
  static auto& adjustments_total = obs::MetricsRegistry::instance().counter(
      "elan_adjustments_total", "Completed resource adjustments");
  static auto& pause_hist = obs::MetricsRegistry::instance().histogram(
      "elan_adjustment_pause_seconds", obs::MetricsRegistry::latency_seconds_bounds(),
      "Training pause per adjustment (the paper's Fig 15 metric)");
  adjustments_total.add(1);
  pause_hist.observe(record.pause_time());

  master_->on_adjustment_complete(failed_joins);
  log_info() << config_.job_id << ": " << to_string(record.type) << " "
             << record.workers_before << "->" << record.workers_after << " in "
             << record.pause_time() << "s (mechanism " << to_string(config_.mechanism)
             << ")";
  begin_iteration();
}

}  // namespace elan
