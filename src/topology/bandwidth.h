// Link bandwidth model.
//
// Effective bandwidth between two devices depends on the link level and the
// message size: every transport has a fixed per-transfer latency and a peak
// bandwidth it only approaches for large messages. This reproduces the shape
// of the paper's Figure 8 (P2P > SHM > NET, all ramping up with message size).
//
// Calibration targets the paper's testbed: PCIe 3.0 x16 GPUs (GeForce
// 1080Ti), 56 Gbps InfiniBand, 1 GbE control network.
#pragma once

#include "common/units.h"
#include "topology/topology.h"

namespace elan::topo {

/// Parameters of one transport.
struct LinkParams {
  BytesPerSecond peak_bandwidth = 0;  // asymptotic bandwidth
  Seconds latency = 0;                // fixed per-transfer setup cost
  Bytes half_peak_size = 0;           // message size at which half of peak is reached
};

class BandwidthModel {
 public:
  /// Defaults calibrated against the paper's testbed (see bandwidth.cpp).
  BandwidthModel();

  const LinkParams& params(LinkLevel level) const;
  void set_params(LinkLevel level, const LinkParams& params);

  /// Effective bandwidth for a `size`-byte transfer over `level` (excludes
  /// the fixed latency term).
  BytesPerSecond effective_bandwidth(LinkLevel level, Bytes size) const;

  /// Wall-clock (virtual) time to move `size` bytes over `level`.
  Seconds transfer_time(LinkLevel level, Bytes size) const;

  /// Time to move `size` bytes over the Ethernet control-plane link used for
  /// coordination messages and CPU-state replication ("web socket" in the
  /// paper).
  Seconds control_transfer_time(Bytes size) const;

  /// Measured bandwidth including latency, i.e. size / transfer_time. This is
  /// what a benchmark like Figure 8 observes.
  BytesPerSecond measured_bandwidth(LinkLevel level, Bytes size) const;

  /// CPU<->GPU copy bandwidth over PCIe (used by checkpoint-based baselines
  /// and by the Litz context-switch model).
  Seconds host_device_copy_time(Bytes size) const;

 private:
  LinkParams l1_, l2_, l3_, l4_;
  LinkParams control_;
  LinkParams host_device_;

  static Seconds time_for(const LinkParams& p, Bytes size);
  static BytesPerSecond bandwidth_for(const LinkParams& p, Bytes size);
};

}  // namespace elan::topo
