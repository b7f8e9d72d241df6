// Analytic adjustment-cost model.
//
// Closed-form estimates of how long a resource adjustment pauses training
// under each mechanism. The elastic-scheduling simulator (paper §VI-C) uses
// these the same way the paper's own discrete-time simulator used "the
// runtime overhead and the resource adjustment performance of Elan and S&R"
// collected from real runs — here they are collected from the same formulas
// the ElasticJob runtime executes, and a test cross-validates the two.
#pragma once

#include <map>
#include <tuple>

#include "comm/group.h"
#include "common/sync.h"
#include "elan/messages.h"
#include "elan/replication.h"
#include "elan/worker.h"
#include "storage/filesystem.h"
#include "train/throughput.h"

namespace elan::baselines {

/// Which elastic system executes the adjustment (Fig 22 comparison set).
enum class System { kIdeal, kElan, kShutdownRestart };

const char* to_string(System system);

/// Workers that receive the state when Elan adjusts `workers_before` ->
/// `workers_after`: the new workers of a scale-out, every worker of a
/// migration (each moves to a fresh GPU), nobody on a scale-in.
int elan_joining_workers(AdjustmentType type, int workers_before, int workers_after);

class AdjustmentCostModel {
 public:
  AdjustmentCostModel(const topo::Topology& topology, const topo::BandwidthModel& bandwidth,
                      const storage::SimFilesystem& filesystem,
                      WorkerParams worker_params = {}, comm::GroupParams group_params = {});

  /// Expected training-pause time for adjusting a `model` job from
  /// `workers_before` to `workers_after` (equal counts = migration).
  Seconds pause_time(System system, AdjustmentType type, const train::ModelSpec& model,
                     int workers_before, int workers_after) const;

  /// Fractional throughput lost to elasticity support while training without
  /// adjustments (coordination cost; Fig 14).
  double runtime_overhead(System system, const train::ModelSpec& model, int workers,
                          int total_batch) const;

  /// The whole-blob replication schedule Elan runs when `new_workers` join
  /// `workers_before` under compact placement: existing workers on GPUs
  /// [0, before), joiners on the next GPUs. Throws when they do not fit the
  /// cluster.
  ChunkSchedule elan_replication_schedule(const train::ModelSpec& model, int workers_before,
                                          int new_workers) const;
  /// That schedule's makespan; 0 when nobody joins. The model remembers
  /// each makespan it prices: given its topology, bandwidth and worker
  /// parameters, the schedule depends on `model` only through its state
  /// bytes, so a shape is planned once per cost model. Safe to call from
  /// several threads.
  Seconds elan_replication_time(const train::ModelSpec& model, int workers_before,
                                int new_workers) const;
  Seconds group_reconstruct_time(int workers) const;

  /// Expected time until an asynchronously launched worker has spawned and
  /// initialised (and can therefore report to the AM).
  Seconds new_worker_ready_time() const;

 private:
  const topo::Topology* topology_;
  const topo::BandwidthModel* bandwidth_;
  const storage::SimFilesystem* fs_;
  WorkerParams worker_params_;
  comm::GroupParams group_params_;
  // Makespans by (gpu_state_bytes, workers_before, new_workers). A leaf
  // lock: nothing else is taken while it is held, and the schedule is
  // planned outside it.
  mutable Mutex makespans_mu_{"replication_makespans"};
  mutable std::map<std::tuple<Bytes, int, int>, Seconds> makespans_
      ELAN_GUARDED_BY(makespans_mu_);

  Seconds expected_max_start(int workers) const;
  Seconds snr_pause(AdjustmentType type, const train::ModelSpec& model, int workers_before,
                    int workers_after) const;
};

}  // namespace elan::baselines
