// Concurrent IO-free state replication (paper §IV).
//
// Given the topology, the set of existing workers and the set of new workers,
// the planner:
//   1. assigns each new worker the *nearest* existing worker as its source
//      (P2P > SHM > NET), exploiting that every existing worker holds an
//      identical copy of the state (data parallelism);
//   2. spreads load: among equally-near sources, prefers the one serving the
//      fewest destinations;
//   3. runs replications concurrently, except where they contend on a shared
//      physical resource (e.g. two transfers both crossing one node's QPI
//      link), which are serialised (§IV-3);
//   4. overlaps the small CPU-state transfer (over the control network) with
//      the large GPU-state transfer, so the pair costs max(gpu, cpu).
//
// The plan is pure data: callers execute it (moving real blob bytes) and/or
// price it. No filesystem IO and no CPU-GPU copies appear anywhere — that is
// the "IO-free" property the benches contrast with checkpoint-based S&R.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/units.h"
#include "topology/bandwidth.h"
#include "topology/topology.h"

namespace elan {

struct ReplicationTransfer {
  int source_worker = -1;
  int dest_worker = -1;
  topo::GpuId source_gpu = -1;
  topo::GpuId dest_gpu = -1;
  topo::LinkLevel level = topo::LinkLevel::kL1;
  Seconds gpu_transfer_time = 0;  // parameters + optimizer over the GPU link
  Seconds cpu_transfer_time = 0;  // loader/runtime state over the control net
  Seconds start = 0;              // scheduled start (contention-adjusted)
  Seconds duration() const { return std::max(gpu_transfer_time, cpu_transfer_time); }
  Seconds finish() const { return start + duration(); }
};

struct ReplicationPlan {
  std::vector<ReplicationTransfer> transfers;
  /// Makespan of the contention-aware schedule — the replication step's
  /// contribution to adjustment latency.
  Seconds total_time = 0;
  /// Sum of all per-transfer durations (what a serial executor would pay);
  /// total_time / serial_time measures the concurrency win.
  Seconds serial_time = 0;
};

struct ReplicationRequest {
  /// worker id -> GPU for workers that already hold the state.
  std::map<int, topo::GpuId> existing;
  /// worker id -> GPU for workers that need the state.
  std::map<int, topo::GpuId> joining;
  Bytes gpu_state_bytes = 0;
  Bytes cpu_state_bytes = 0;
};

// --- Chunk-granular data plane -----------------------------------------------
//
// The whole-blob plan above moves each destination's state as one atomic
// transfer, so two transfers contending on a shared link (one QPI, one NIC)
// head-of-line block each other for a full blob time, and a freshly
// replicated joiner contributes nothing while later joiners still wait. The
// chunk schedule splits the state stream into fixed-size chunks and assigns
// every (destination, chunk) pair its own source, start and duration:
//
//   - contending transfers interleave chunk-by-chunk on the shared resource
//     instead of serialising wholesale;
//   - delivery per destination is strictly in stream order, so the received
//     chunks always form a *verified prefix* — which makes a destination an
//     eligible source for exactly that prefix (relay/tree pipelining: 1->N
//     fan-out drops from N*T toward T + (N-1)*chunk);
//   - a resume after a mid-transfer source death re-plans only the missing
//     suffix (ChunkPlanOptions::verified).
//
// Endpoints are full duplex (a relay receives its suffix while serving its
// prefix); each endpoint issues at most one outgoing and one incoming chunk
// at a time, and shared physical resources carry one chunk at a time.

/// Chunk size used when ChunkPlanOptions::chunk_bytes == 0.
inline constexpr Bytes kDefaultReplicationChunkBytes = 4_MiB;

struct ChunkTransfer {
  int source_worker = -1;
  int dest_worker = -1;
  topo::GpuId source_gpu = -1;
  topo::GpuId dest_gpu = -1;
  topo::LinkLevel level = topo::LinkLevel::kL1;
  std::uint32_t chunk = 0;  // index into the chunked state stream
  Bytes bytes = 0;          // nominal payload of this chunk
  bool relay = false;       // source is a joining destination serving its prefix
  Seconds start = 0;
  Seconds duration = 0;
  Seconds finish() const { return start + duration; }
};

struct ChunkSchedule {
  Bytes chunk_bytes = 0;
  std::uint32_t num_chunks = 0;
  /// Ascending (start, dest, chunk); per destination the chunk indices are
  /// strictly in order (the prefix property executors and relays rely on).
  std::vector<ChunkTransfer> transfers;
  /// Makespan (includes the overlapped CPU-state transfer).
  Seconds total_time = 0;
  /// Sum of per-chunk durations (what a serial executor would pay).
  Seconds serial_time = 0;
  /// Control-network CPU-state transfer, overlapped with the GPU chunks.
  Seconds cpu_time = 0;
  /// Per-destination completion time (last chunk verified, CPU state in).
  std::map<int, Seconds> completion;
};

struct ChunkPlanOptions {
  /// Chunk size; 0 uses kDefaultReplicationChunkBytes.
  Bytes chunk_bytes = 0;
  /// Let destinations serve their verified prefix onward (kElan only). Off,
  /// the schedule is the whole-blob plan cut into chunks.
  bool relay_sources = true;
  /// Resume after a source death: chunks each destination already holds.
  /// Destinations listed here skip the (already delivered) CPU-state copy.
  std::map<int, std::uint32_t> verified;
};

/// Planner strategies. kElan is the paper's design; the others are ablation
/// baselines quantifying what each ingredient buys (bench/ablation_replication).
enum class ReplicationStrategy {
  kElan,           // topology-aware sources + concurrent contention-aware schedule
  kNearestSerial,  // topology-aware sources, but one transfer at a time
  kSingleSource,   // all state from one worker (PS/checkpoint-like), serialised
  kBlindSources,   // round-robin sources ignoring topology, concurrent schedule
};

const char* to_string(ReplicationStrategy strategy);

class ReplicationPlanner {
 public:
  ReplicationPlanner(const topo::Topology& topology, const topo::BandwidthModel& bandwidth,
                     ReplicationStrategy strategy = ReplicationStrategy::kElan)
      : topology_(&topology), bandwidth_(&bandwidth), strategy_(strategy) {}

  ReplicationStrategy strategy() const { return strategy_; }

  ReplicationPlan plan(const ReplicationRequest& request) const;

  /// Chunk-granular, work-conserving schedule (see the data-plane comment
  /// above). With relay off and chunk_bytes >= gpu_state_bytes this
  /// degenerates to plan(): one chunk per destination, same sources, same
  /// starts, same makespan.
  ChunkSchedule chunk_plan(const ReplicationRequest& request,
                           const ChunkPlanOptions& options = {}) const;

 private:
  const topo::Topology* topology_;
  const topo::BandwidthModel* bandwidth_;
  ReplicationStrategy strategy_;
};

}  // namespace elan
