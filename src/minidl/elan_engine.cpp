#include "minidl/elan_engine.h"

#include <algorithm>

namespace elan::minidl {

MiniDlEngine::MiniDlEngine(std::shared_ptr<const LabeledData> data,
                           MiniDlEngineConfig config)
    : train::TrainingEngine(train::EngineKind::kCustom),
      data_(std::move(data)),
      config_(std::move(config)),
      model_(config_.layer_sizes, config_.seed) {
  require(data_ != nullptr, "MiniDlEngine: null dataset");
  require(config_.layer_sizes.front() == data_->features.cols(),
          "MiniDlEngine: input width mismatch");
  gradients_.assign(model_.parameter_count(), 0.0);
}

void MiniDlEngine::register_state_hooks(HookRegistry& registry) {
  registry.register_hook(StateHook{
      "minidl_model", StateLocation::kGpu,
      static_cast<Bytes>(model_.parameter_count() * 2 /*params+momentum*/ * 4),
      [this] { return model_.save_state(); },
      [this](const Blob& b) { model_.load_state(b); }});
}

void MiniDlEngine::compute_gradients(std::uint64_t, const data::SampleRange& shard) {
  if (shard.empty()) {
    // Epoch-end fragmentation can leave a replica without data this
    // iteration; it contributes a zero gradient to the allreduce.
    std::fill(gradients_.begin(), gradients_.end(), 0.0);
    return;
  }
  const auto begin = static_cast<int>(shard.begin % static_cast<std::uint64_t>(data_->size()));
  const auto end = std::min(begin + static_cast<int>(shard.size()), data_->size());
  const auto batch = data_->slice(begin, end);
  model_.loss(batch.features, batch.labels, /*train=*/true);  // forward + backward
  gradients_ = model_.flatten_gradients();
}

void MiniDlEngine::apply_update(std::uint64_t, double lr) {
  model_.load_gradients(gradients_);
  model_.sgd_step(static_cast<float>(lr), config_.momentum);
}

train::ModelSpec minidl_model_spec(const MiniDlEngineConfig& config,
                                   const LabeledData& data) {
  Mlp probe(config.layer_sizes, config.seed);
  train::ModelSpec m;
  m.kind = train::ModelKind::kResNet50;  // kind is unused for custom engines
  m.name = "minidl-mlp";
  m.type = "MLP";
  m.domain = "synthetic";
  m.parameters = probe.parameter_count();
  m.flops_per_sample = 6.0 * static_cast<double>(probe.parameter_count());
  m.dataset = data::Dataset{"spirals", static_cast<std::uint64_t>(data.size()),
                            static_cast<Bytes>(data.features.cols() * 4 + 4)};
  m.max_batch_per_gpu = data.size();
  m.half_efficiency_batch = 8.0;
  m.iteration_overhead = milliseconds(1.0);
  m.workspace_fixed = 1_MiB;
  m.workspace_per_sample = 1024;
  m.reference_accuracy = 0.0;
  return m;
}

std::function<std::unique_ptr<train::TrainingEngine>()> make_minidl_engine_factory(
    std::shared_ptr<const LabeledData> data, MiniDlEngineConfig config) {
  return [data, config] {
    return std::make_unique<MiniDlEngine>(data, config);
  };
}

}  // namespace elan::minidl
