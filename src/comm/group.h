// Communication groups and collective cost models.
//
// Elan targets data-parallel training with collective communication (ring
// allreduce a la NCCL/Horovod). The group tracks its member GPUs, derives the
// ring order and bottleneck link from the topology, and prices allreduce /
// broadcast operations with the standard alpha-beta model:
//
//   T_allreduce(S) = 2 (N-1) alpha  +  2 (N-1)/N * S / B_bottleneck
//
// Group (re)construction cost models NCCL communicator initialisation, which
// is the dominant "init" term the asynchronous coordination mechanism hides.
#pragma once

#include <vector>

#include "common/units.h"
#include "topology/bandwidth.h"
#include "topology/topology.h"

namespace elan::comm {

struct GroupParams {
  /// Fixed communicator bootstrap cost plus a per-rank term. Elan
  /// reconstructs groups from live processes that already hold bootstrap
  /// state, so this is much cheaper than a cold NCCL init from new
  /// processes (that cold cost is part of engine initialisation).
  Seconds reconstruct_fixed = 0.3;
  Seconds reconstruct_per_rank = 0.01;

  /// Time to rebuild a group of `ranks` members: the one formula the job
  /// runtime, CommGroup and the adjustment cost model all use.
  Seconds reconstruct_time(int ranks) const {
    return reconstruct_fixed + reconstruct_per_rank * ranks;
  }
};

class CommGroup {
 public:
  CommGroup(const topo::Topology& topology, const topo::BandwidthModel& bandwidth,
            std::vector<topo::GpuId> members, GroupParams params = {});

  const std::vector<topo::GpuId>& members() const { return members_; }
  int size() const { return static_cast<int>(members_.size()); }
  bool contains(topo::GpuId gpu) const;

  const topo::Topology& topology() const { return *topology_; }
  const topo::BandwidthModel& bandwidth() const { return *bandwidth_; }

  /// Ring order used for collectives: members sorted by GPU id, which groups
  /// switch-, socket- and node-local GPUs together (topology-aware ring).
  const std::vector<topo::GpuId>& ring() const { return members_; }

  /// Slowest link level on the ring (determines achievable bus bandwidth).
  topo::LinkLevel bottleneck_level() const { return bottleneck_; }

  /// Ring allreduce time for a payload of `size` bytes.
  Seconds allreduce_time(Bytes size) const;

  /// Broadcast from one member to all others (binomial tree over the
  /// bottleneck link).
  Seconds broadcast_time(Bytes size) const;

  /// Barrier (latency-only allreduce).
  Seconds barrier_time() const;

  /// Cost of constructing a communicator over `n` ranks.
  Seconds reconstruct_time(int n) const;
  Seconds reconstruct_time() const { return reconstruct_time(size()); }

  /// New group with a different member set (communication-group
  /// reconstruction after a resource adjustment, paper step 5).
  CommGroup reconstructed(std::vector<topo::GpuId> new_members) const;

 private:
  const topo::Topology* topology_;
  const topo::BandwidthModel* bandwidth_;
  std::vector<topo::GpuId> members_;
  GroupParams params_;
  topo::LinkLevel bottleneck_ = topo::LinkLevel::kL1;

  void compute_bottleneck();
};

/// Functional allreduce over per-rank vectors; used by the training engines
/// to keep replica state bit-identical (sum reduction). All vectors must have
/// the same length. Returns the element-wise sum written back to every rank.
void allreduce_sum(std::vector<std::vector<double>*> per_rank);

}  // namespace elan::comm
