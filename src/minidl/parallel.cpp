#include "minidl/parallel.h"

#include <algorithm>

#include "comm/group.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace elan::minidl {

DataParallelTrainer::DataParallelTrainer(const LabeledData& data, ParallelConfig config,
                                         int replicas)
    : data_(&data), config_(std::move(config)) {
  require(replicas > 0, "trainer: need at least one replica");
  require(config_.layer_sizes.front() == data.features.cols(),
          "trainer: input width mismatch");
  for (int i = 0; i < replicas; ++i) add_replica(/*initialize=*/true);
}

int DataParallelTrainer::add_replica(bool initialize) {
  const int id = next_id_++;
  Replica r;
  // Every replica constructs from the same seed — the broadcast-from-rank-0
  // initialisation of data-parallel training.
  r.model = std::make_unique<Mlp>(config_.layer_sizes, config_.seed);
  (void)initialize;
  register_hooks(id, r);
  replicas_.emplace(id, std::move(r));
  return id;
}

void DataParallelTrainer::register_hooks(int /*id*/, Replica& replica) {
  Mlp* model = replica.model.get();
  replica.hooks.register_hook(StateHook{
      "minidl_model", StateLocation::kGpu,
      static_cast<Bytes>(model->parameter_count() * 2 /*params+momentum*/ * 4),
      [model] { return model->save_state(); },
      [model](const Blob& b) { model->load_state(b); }});
}

HookRegistry& DataParallelTrainer::hooks(int replica) {
  auto it = replicas_.find(replica);
  if (it == replicas_.end()) throw NotFound("replica " + std::to_string(replica));
  return it->second.hooks;
}

const Mlp& DataParallelTrainer::replica(int id) const {
  auto it = replicas_.find(id);
  if (it == replicas_.end()) throw NotFound("replica " + std::to_string(id));
  return *it->second.model;
}

float DataParallelTrainer::step(int total_batch) {
  require(total_batch > 0, "step: non-positive batch");
  static auto& steps_total = obs::MetricsRegistry::instance().counter(
      "elan_trainer_steps_total", "Data-parallel trainer steps executed");
  steps_total.add(1);
  ELAN_TRACE_SCOPE("trainer", "step");
  const int n = num_replicas();
  const int per_replica = (total_batch + n - 1) / n;

  // Serial semantics: one global cursor hands each replica a contiguous
  // shard; wrap at the epoch boundary.
  std::vector<LabeledData> shards;
  shards.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    if (cursor_ + static_cast<std::uint64_t>(per_replica) >
        static_cast<std::uint64_t>(data_->size())) {
      cursor_ = 0;  // next epoch
    }
    const int begin = static_cast<int>(cursor_);
    shards.push_back(data_->slice(begin, begin + per_replica));
    cursor_ += static_cast<std::uint64_t>(per_replica);
  }

  // Local forward/backward, one task per replica (shards were pre-sliced
  // above under the serial cursor, so §V-C semantics are untouched). Results
  // land in replica-id order regardless of completion order, and the loss
  // reduction below runs serially in that order — the step is bit-identical
  // at any thread count. In reference kernel mode the dispatch stays serial
  // too (that is the benchmark baseline).
  std::vector<Mlp*> models;
  models.reserve(static_cast<std::size_t>(n));
  for (auto& [id, r] : replicas_) models.push_back(r.model.get());
  std::vector<float> losses(static_cast<std::size_t>(n), 0.0f);
  std::vector<std::vector<double>> grads(static_cast<std::size_t>(n));
  const bool concurrent = kernel_mode() != KernelMode::kReference;
  auto replica_pass = [&](std::int64_t b, std::int64_t e) {
    ELAN_TRACE_SCOPE("trainer", "replica_pass");
    for (std::int64_t i = b; i < e; ++i) {
      const auto u = static_cast<std::size_t>(i);
      losses[u] = models[u]->loss(shards[u].features, shards[u].labels, true);
      grads[u] = models[u]->flatten_gradients();
    }
  };
  {
    ELAN_TRACE_SCOPE("trainer", "forward_backward");
    if (concurrent) {
      ThreadPool::global().parallel_for(0, n, 1, replica_pass);
    } else {
      replica_pass(0, n);
    }
  }
  float loss_sum = 0.0f;
  for (float l : losses) loss_sum += l;

  // Gradient allreduce (sum) then average — every replica applies the same
  // update, so parameters stay bit-identical.
  std::vector<std::vector<double>*> ptrs;
  for (auto& g : grads) ptrs.push_back(&g);
  comm::allreduce_sum(ptrs);
  for (auto& g : grads) {
    for (auto& v : g) v /= n;
  }
  auto replica_update = [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      const auto u = static_cast<std::size_t>(i);
      models[u]->load_gradients(grads[u]);
      models[u]->sgd_step(config_.lr, config_.momentum);
    }
  };
  {
    ELAN_TRACE_SCOPE("trainer", "apply_update");
    if (concurrent) {
      ThreadPool::global().parallel_for(0, n, 1, replica_update);
    } else {
      replica_update(0, n);
    }
  }
  ++iteration_;
  return loss_sum / static_cast<float>(n);
}

std::vector<int> DataParallelTrainer::scale_out(int count) {
  require(count > 0, "scale_out: non-positive count");
  require(!replicas_.empty(), "scale_out: no source replica");
  const auto& source = *replicas_.begin()->second.model;
  const Blob state = source.save_state();
  std::vector<int> ids;
  for (int i = 0; i < count; ++i) {
    const int id = add_replica(/*initialize=*/true);
    // State replication through the hook surface — exactly what Elan's
    // replication executor does with these registries.
    replicas_.at(id).hooks.load_all([&] {
      StateSnapshot s;
      s.blobs.emplace("minidl_model", state);
      return s;
    }());
    ids.push_back(id);
  }
  return ids;
}

void DataParallelTrainer::scale_in(const std::vector<int>& victims) {
  require(victims.size() < replicas_.size(), "scale_in: cannot remove all replicas");
  for (int v : victims) {
    ELAN_REQUIRE(replicas_.erase(v) == 1, "scale_in: unknown replica " + std::to_string(v));
  }
}

std::vector<std::uint64_t> DataParallelTrainer::checksums() const {
  std::vector<std::uint64_t> out;
  out.reserve(replicas_.size());
  for (const auto& [id, r] : replicas_) out.push_back(r.model->state_checksum());
  return out;
}

bool DataParallelTrainer::consistent() const {
  const auto sums = checksums();
  return std::adjacent_find(sums.begin(), sums.end(), std::not_equal_to<>()) == sums.end();
}

double DataParallelTrainer::accuracy() const {
  auto& model = *replicas_.begin()->second.model;
  return model.accuracy(data_->features, data_->labels);
}

}  // namespace elan::minidl
