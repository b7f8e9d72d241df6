// Analytic training-throughput model.
//
// Prices one data-parallel training iteration:
//
//   t_compute(b) = t_overhead + (3 * flops_per_sample / peak_flops)
//                  * (b + h)^2 / b
//
// The (b+h)^2/b form is linear in the per-GPU batch b for large b and
// superlinear as b shrinks below h (kernels fall under occupancy, fixed
// per-layer costs dominate) — this is what makes strong scaling *decline*
// past its optimum rather than merely saturate.
//
//   t_comm(N) = ring allreduce of the gradient payload over the group's
//               bottleneck link: 2(N-1) alpha + 2(N-1)/N * S / B_chunk,
//               where B_chunk accounts for the per-step chunk size S/N and
//               multi-node rings run at a measured efficiency factor
//               (PCIe-host staging without GPUDirect RDMA roughly halves
//               achievable bus bandwidth). This is the repository's one
//               allreduce price; comm::ring_bottleneck names the link.
//
//   t_iter = t_compute + max(0, t_comm - overlap * t_backward)
//
// This reproduces the paper's §III observations: weak scaling is near-linear
// with slope growing in per-worker batch; strong scaling rises then falls
// with the optimum shifting right as the total batch grows (Figs 3, 4, 17) —
// calibrated so ResNet-50's optimal worker counts are 16/32/64 for total
// batch sizes 512/1024/2048 (Fig 17).
#pragma once

#include <span>
#include <vector>

#include "common/units.h"
#include "topology/bandwidth.h"
#include "topology/topology.h"
#include "train/models.h"

namespace elan::train {

struct GpuSpec {
  /// Achievable fp32 FLOPs on DL kernels (GeForce 1080Ti-class).
  double peak_flops = 4.5e12;
};

struct ThroughputParams {
  GpuSpec gpu;
  /// Fraction of backward-pass time usable to hide allreduce traffic
  /// (bucketed gradient overlap a la PyTorch DDP).
  double comm_overlap = 1.0;
  /// Achieved fraction of link bandwidth for rings spanning multiple nodes
  /// (hosts without GPUDirect RDMA stage cross-node traffic through CPU
  /// memory).
  double multi_node_ring_efficiency = 0.44;
};

class ThroughputModel {
 public:
  ThroughputModel(const topo::Topology& topology, const topo::BandwidthModel& bandwidth,
                  ThroughputParams params = {});

  const topo::Topology& topology() const { return *topology_; }
  const topo::BandwidthModel& bandwidth() const { return *bandwidth_; }
  const ThroughputParams& params() const { return params_; }

  /// Compute time of one iteration on one GPU with per-GPU batch `b`.
  Seconds compute_time(const ModelSpec& model, int per_worker_batch) const;

  /// Allreduce time of the model's gradients over `workers` compactly placed
  /// workers (worker i on GPU i), whose ring bottleneck is the link closing
  /// it from GPU workers-1 back to GPU 0. Throws InvalidArgument on a
  /// non-positive count or one larger than the cluster.
  Seconds allreduce_time(const ModelSpec& model, int workers) const;

  /// Allreduce time over an explicit GPU placement: the ring's bottleneck
  /// link and node span come from the actual member set, so fragmented
  /// placements genuinely communicate slower.
  Seconds allreduce_time_on(const ModelSpec& model,
                            std::span<const topo::GpuId> members) const;

  /// Full iteration time for `workers` workers and a given per-worker batch.
  Seconds iteration_time(const ModelSpec& model, int workers, int per_worker_batch) const;
  Seconds iteration_time_on(const ModelSpec& model, std::span<const topo::GpuId> members,
                            int per_worker_batch) const;

  /// Samples/second for a total batch size split evenly over `workers`.
  /// total_batch need not be divisible by workers; the straggler holds the
  /// iteration (ceil division).
  double throughput(const ModelSpec& model, int workers, int total_batch) const;
  double throughput_on(const ModelSpec& model, std::span<const topo::GpuId> members,
                       int total_batch) const;

  /// Whether `total_batch` fits in GPU memory on `workers` workers.
  bool fits(const ModelSpec& model, int workers, int total_batch) const;

  /// The optimal worker count under strong scaling with this total batch
  /// size: argmax over power-of-two worker counts (1..cluster size) of
  /// throughput, restricted to feasible (memory-fitting) configurations.
  /// This is the N_opt oracle used by hybrid scaling (Algorithm 1, line 10).
  int optimal_workers(const ModelSpec& model, int total_batch) const;

  /// Power-of-two worker counts from 1 to the cluster size.
  std::vector<int> candidate_worker_counts() const;

 private:
  const topo::Topology* topology_;
  const topo::BandwidthModel* bandwidth_;
  ThroughputParams params_;

  /// The alpha-beta ring price of `members` (>= 2) ranks whose slowest hop
  /// is `bottleneck`.
  Seconds ring_time(const ModelSpec& model, std::size_t members,
                    topo::LinkLevel bottleneck) const;
  /// Compute time plus the part of `comm` the backward pass cannot hide.
  Seconds iteration_time_with(const ModelSpec& model, int per_worker_batch,
                              Seconds comm) const;
};

}  // namespace elan::train
