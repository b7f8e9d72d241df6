// Communication groups of data-parallel training (ring allreduce a la
// NCCL/Horovod): the ring's bottleneck link, which train::ThroughputModel
// prices (docs/CALIBRATION.md §3), the group-rebuild price, and the
// functional allreduce every training step runs.
#pragma once

#include <span>
#include <vector>

#include "common/units.h"
#include "topology/topology.h"

namespace elan::comm {

struct GroupParams {
  /// Group (re)construction models NCCL communicator initialisation, the
  /// dominant "init" term asynchronous coordination hides: a fixed
  /// communicator bootstrap cost plus a per-rank term. Elan
  /// reconstructs groups from live processes that already hold bootstrap
  /// state, so this is much cheaper than a cold NCCL init from new
  /// processes (that cold cost is part of engine initialisation).
  Seconds reconstruct_fixed = 0.3;
  Seconds reconstruct_per_rank = 0.01;

  /// Time to rebuild a group of `ranks` members: the one formula the job
  /// runtime and the adjustment cost model both use.
  Seconds reconstruct_time(int ranks) const {
    return reconstruct_fixed + reconstruct_per_rank * ranks;
  }
};

/// Slowest link level on the ring over `members`, in any order. The ring
/// visits the members sorted by GPU id, which groups switch-, socket- and
/// node-local GPUs together (topology-aware ring), and closes back to the
/// first. GPU ids are node-major, so every PCIe switch, host bridge and node
/// is a contiguous id range and the slowest hop is the closing one: the
/// result is link_level(highest member, lowest member), read in one pass
/// without sorting. A single member has no link and reports kL1. Throws
/// InvalidArgument on an empty member set, a duplicate anywhere in it or an
/// out-of-range id (a lone member's included).
topo::LinkLevel ring_bottleneck(const topo::Topology& topology,
                                std::span<const topo::GpuId> members);

/// Functional allreduce over per-rank vectors; used by the training engines
/// to keep replica state bit-identical (sum reduction). All vectors must have
/// the same length. Returns the element-wise sum written back to every rank.
void allreduce_sum(std::vector<std::vector<double>*> per_rank);

}  // namespace elan::comm
