// MiniDlEngine — the minidl framework plugged into Elan's engine surface.
//
// With this adapter an ElasticJob runs *real* training inside the
// discrete-event cluster: every simulated worker owns a real MLP replica,
// gradients are genuinely computed on each worker's serial-sampler shard and
// allreduced across replicas, the learning rate comes live from the
// hybrid-scaling controller, and scale-out replicates live weights through
// the very same hook/replication machinery as the cost-modelled engines.
#pragma once

#include <functional>
#include <memory>

#include "minidl/dataset.h"
#include "minidl/mlp.h"
#include "train/engine.h"

namespace elan::minidl {

struct MiniDlEngineConfig {
  std::vector<int> layer_sizes{2, 32, 32, 3};
  std::uint64_t seed = 7;
  float momentum = 0.9f;
};

class MiniDlEngine final : public train::TrainingEngine {
 public:
  MiniDlEngine(std::shared_ptr<const LabeledData> data, MiniDlEngineConfig config);

  Seconds initialization_time() const override { return 0.8; }  // tiny framework
  Seconds per_iteration_overhead() const override { return milliseconds(1.0); }

  void register_state_hooks(HookRegistry& registry) override;
  void compute_gradients(std::uint64_t gradient_seed,
                         const data::SampleRange& shard) override;
  std::vector<double>* mutable_gradients() override { return &gradients_; }
  void apply_update(std::uint64_t gradient_seed, double lr) override;
  std::uint64_t state_checksum() const override { return model_.state_checksum(); }

  const Mlp& model() const { return model_; }

 private:
  std::shared_ptr<const LabeledData> data_;
  MiniDlEngineConfig config_;
  Mlp model_;
  std::vector<double> gradients_;
};

/// A ModelSpec describing the MLP to the simulator (timing, state sizes,
/// dataset bounds) so ElasticJob/throughput/memory models can price it.
train::ModelSpec minidl_model_spec(const MiniDlEngineConfig& config,
                                   const LabeledData& data);

/// Convenience factory for JobConfig::engine_factory: every worker gets its
/// own replica over the shared dataset.
std::function<std::unique_ptr<train::TrainingEngine>()> make_minidl_engine_factory(
    std::shared_ptr<const LabeledData> data, MiniDlEngineConfig config);

}  // namespace elan::minidl
