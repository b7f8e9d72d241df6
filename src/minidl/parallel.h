// Data-parallel training of minidl models with Elan integration.
//
// N replicas hold identical parameters; each iteration every replica
// computes gradients on its shard of the global batch (drawn through the
// serial cursor, §V-C), gradients are sum-allreduced (comm::allreduce_sum —
// the same functional collective the rest of the repository uses), averaged,
// and applied identically everywhere. Elasticity comes through the same hook
// surface as everything else: each replica exposes its full state blob via
// RegisterHook, so Elan's replication planner / checkpoint machinery can add
// or move replicas mid-training with bit-identical results.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "elan/hooks.h"
#include "minidl/dataset.h"
#include "minidl/mlp.h"

namespace elan::minidl {

struct ParallelConfig {
  std::vector<int> layer_sizes{2, 32, 32, 3};
  std::uint64_t seed = 7;
  float lr = 0.2f;
  float momentum = 0.9f;
};

class DataParallelTrainer {
 public:
  DataParallelTrainer(const LabeledData& data, ParallelConfig config, int replicas);

  int num_replicas() const { return static_cast<int>(replicas_.size()); }
  std::uint64_t iteration() const { return iteration_; }
  std::uint64_t cursor() const { return cursor_; }

  /// Runtime learning rate (driven by an external controller, e.g. Elan's
  /// progressive linear scaling after a batch change).
  void set_lr(float lr) {
    require(lr > 0.0f, "set_lr: non-positive learning rate");
    config_.lr = lr;
  }
  float lr() const { return config_.lr; }

  /// Runs one synchronous data-parallel iteration over a global batch of
  /// `total_batch` samples (split contiguously across replicas). Returns the
  /// mean training loss across replicas.
  float step(int total_batch);

  /// Adds `count` fresh replicas; their state arrives through the hook
  /// registry (as Elan replication does), NOT through re-initialisation.
  /// Returns the ids of the new replicas.
  std::vector<int> scale_out(int count);

  /// Removes the given replicas.
  void scale_in(const std::vector<int>& victims);

  /// Per-replica hook registries (the Elan integration surface).
  HookRegistry& hooks(int replica);

  /// Training-state fingerprints; all equal iff the replicas are in sync.
  std::vector<std::uint64_t> checksums() const;
  bool consistent() const;

  /// Evaluation on the full dataset using replica 0.
  double accuracy() const;

  const Mlp& replica(int id) const;

 private:
  struct Replica {
    std::unique_ptr<Mlp> model;
    HookRegistry hooks;
  };

  const LabeledData* data_;
  ParallelConfig config_;
  std::map<int, Replica> replicas_;
  int next_id_ = 0;
  std::uint64_t iteration_ = 0;
  std::uint64_t cursor_ = 0;  // serial global cursor (one integer, §V-C)

  int add_replica(bool initialize);
  void register_hooks(int id, Replica& replica);
};

}  // namespace elan::minidl
