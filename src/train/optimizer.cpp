#include "train/optimizer.h"

namespace elan::train {

SgdOptimizer::SgdOptimizer(const ModelSpec& model)
    : parameters_("parameters", ModelSpec::scaled_blob_bytes(model.param_bytes())),
      momentum_("momentum", ModelSpec::scaled_blob_bytes(model.optimizer_bytes())),
      nominal_param_bytes_(model.param_bytes()),
      nominal_momentum_bytes_(model.optimizer_bytes()) {
  // Deterministic initialisation (same "random init" on every worker, as a
  // broadcast from rank 0 would produce).
  parameters_.fill_pattern(0x5eed0000 ^ model.parameters);
  momentum_.fill_pattern(0);
}

void SgdOptimizer::mix(Blob& blob, std::uint64_t seed) {
  // The key folds in the blob's own content, so a replica's next state
  // depends on its history, not only on the seed.
  xor_keystream(blob.mutable_bytes(),
                seed ^ (blob.quick_fingerprint() * 0x9e3779b97f4a7c15ULL));
}

void SgdOptimizer::step(std::uint64_t gradient_seed) {
  // momentum = f(momentum, grad); parameters = g(parameters, momentum).
  mix(momentum_, gradient_seed);
  mix(parameters_, momentum_.quick_fingerprint());
  ++steps_;
}

std::uint64_t SgdOptimizer::state_checksum() const {
  return parameters_.checksum() * 31 + momentum_.checksum();
}

void SgdOptimizer::load_from(const SgdOptimizer& other) {
  parameters_.copy_from(other.parameters_);
  momentum_.copy_from(other.momentum_);
  steps_ = other.steps_;
}

}  // namespace elan::train
