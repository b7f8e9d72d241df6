// Concurrent IO-free state replication (paper §IV).
//
// Given the topology, the set of existing workers and the set of new workers,
// the planner schedules the state stream onto the links between them:
//   1. each new worker draws from the *nearest* eligible source (P2P > SHM >
//      NET), exploiting that every existing worker holds an identical copy of
//      the state (data parallelism);
//   2. among equally-near sources it prefers the one that frees up earliest,
//      then the one serving the fewest transfers, spreading load;
//   3. transfers run concurrently, except where they contend on a shared
//      physical resource (e.g. two transfers both crossing one node's QPI
//      link), which carries one transfer at a time (§IV-3);
//   4. the small CPU state travels over the control network, overlapped with
//      the large GPU-state transfer, so a destination costs max(gpu, cpu).
//
// One scheduler, ReplicationPlanner::chunk_plan, does all of this. The
// paper's whole-blob design is its one-chunk, relay-free case
// (whole_blob_options); ElasticJob runs the chunk-pipelined case.
//
// The schedule is pure data: callers execute it (moving real blob bytes)
// and/or price it. No filesystem IO and no CPU-GPU copies appear anywhere —
// that is the "IO-free" property the benches contrast with checkpoint-based
// S&R.
#pragma once

#include <map>
#include <vector>

#include "common/units.h"
#include "topology/bandwidth.h"
#include "topology/topology.h"

namespace elan {

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
// The schedule splits the state stream into fixed-size chunks and assigns
// every (destination, chunk) pair its own source, start and duration:
//
//   - contending transfers interleave chunk-by-chunk on the shared resource
//     instead of serialising wholesale (a whole-blob transfer holds a shared
//     QPI or NIC for a full blob time and head-of-line blocks the next one);
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
  /// every chunk comes from an existing worker, the pre-relay §IV design.
  bool relay_sources = true;
  /// Resume after a source death: chunks each destination already holds.
  /// Destinations listed here skip the (already delivered) CPU-state copy.
  std::map<int, std::uint32_t> verified;
};

/// The paper's whole-blob replication: one chunk covering the request's GPU
/// state (a 0-byte state is one chunk already), relays off, so each
/// destination receives its state in one transfer from one existing worker.
/// The cost model, the estimator and the paper-figure benches price this.
inline ChunkPlanOptions whole_blob_options(const ReplicationRequest& request) {
  ChunkPlanOptions options;
  options.chunk_bytes = request.gpu_state_bytes;
  options.relay_sources = false;
  return options;
}

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

  /// Chunk-granular, work-conserving schedule (see the data-plane comment
  /// above); whole_blob_options(request) gives one transfer per destination.
  ChunkSchedule chunk_plan(const ReplicationRequest& request,
                           const ChunkPlanOptions& options = {}) const;

 private:
  const topo::Topology* topology_;
  const topo::BandwidthModel* bandwidth_;
  ReplicationStrategy strategy_;
};

}  // namespace elan
