// SGD-with-momentum optimizer over state blobs.
//
// The simulator does not do real gradient math; what matters for elasticity
// is that (a) the optimizer owns GPU-resident state of realistic size (one
// momentum buffer per parameter buffer) and (b) parameter state evolves
// *deterministically from its history*, so a replica that skipped state
// replication can never accidentally match a correct one. Each step folds
// the iteration seed and the previous contents into both blobs with a cheap
// mixing function; two replicas agree after an adjustment iff replication
// copied the bytes.
#pragma once

#include <cstdint>

#include "common/blob.h"
#include "train/models.h"

namespace elan::train {

class SgdOptimizer {
 public:
  explicit SgdOptimizer(const ModelSpec& model);

  /// Applies one update: mixes the gradient seed (derived from the iteration
  /// and data consumed) into momentum, then momentum into parameters.
  void step(std::uint64_t gradient_seed);

  const Blob& parameters() const { return parameters_; }
  const Blob& momentum() const { return momentum_; }
  Blob& mutable_parameters() { return parameters_; }
  Blob& mutable_momentum() { return momentum_; }

  /// Nominal (real-model) byte sizes used for transfer-time accounting.
  Bytes nominal_parameter_bytes() const { return nominal_param_bytes_; }
  Bytes nominal_optimizer_bytes() const { return nominal_momentum_bytes_; }

  std::uint64_t steps_taken() const { return steps_; }

  /// Combined checksum of parameters and momentum: the replica-consistency
  /// fingerprint tests assert on.
  std::uint64_t state_checksum() const;

  /// Overwrites this optimizer's state from another (state replication).
  void load_from(const SgdOptimizer& other);

  /// The update step applies to one blob: XORs in a keystream (common/
  /// blob.h) keyed by `seed` and the blob's quick fingerprint.
  static void mix(Blob& blob, std::uint64_t seed);

 private:
  Blob parameters_;
  Blob momentum_;
  Bytes nominal_param_bytes_;
  Bytes nominal_momentum_bytes_;
  std::uint64_t steps_ = 0;
};

}  // namespace elan::train
