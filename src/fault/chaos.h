// Chaos harness: seeded random fault plans + invariant checking.
//
// ChaosRunner::sample_plan(seed) deterministically expands one 64-bit seed
// into a full scenario — initial worker count, data semantics, mechanism, a
// workload of scale-out/scale-in/migrate requests, and a FaultPlan of kills,
// AM crashes, partitions, slow links and suppressed reports. run_plan builds
// a fresh simulated cluster, arms the plan, drives the simulator to
// completion under an event budget, and checks the runtime's core
// invariants:
//
//   1. no deadlock / livelock — the event queue drains within the budget;
//   2. convergence — the job reaches its target iteration count;
//   3. replica consistency — all surviving replicas are bit-identical;
//   4. exactly-once data — every completed epoch consumed each sample
//      exactly once (paper §V-C serial semantics), faults notwithstanding;
//   5. clean control plane — no request left in flight, the AM parked in
//      Steady or Ready (never wedged mid-adjustment).
//
// Everything is derived from the seed: a failing plan is reproduced with
// `ChaosRunner::run_plan(ChaosRunner::sample_plan(seed))` and nothing else
// (see README "Reproducing a chaos failure from a seed").
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "data/sampler.h"
#include "elan/job.h"
#include "fault/fault.h"

namespace elan::fault {

/// One scripted service request in the chaos workload.
struct AdjustmentAction {
  Seconds at = 0;
  AdjustmentType type{};
  int count = 1;  // workers to add / remove / migrate
};

/// A complete chaos scenario: job shape, workload, faults.
struct ChaosPlan {
  std::uint64_t seed = 0;
  int initial_workers = 3;
  std::uint64_t target_iterations = 400;
  DataSemantics semantics = DataSemantics::kSerial;
  Mechanism mechanism = Mechanism::kElan;
  /// Baseline message-loss probability on the control bus (on top of any
  /// scripted partitions).
  double drop_probability = 0.0;
  /// Per-plan event-budget override; 0 uses the runner's default. Scripted
  /// wedge plans shrink it so a deliberate livelock fails fast.
  std::uint64_t event_budget = 0;
  std::vector<AdjustmentAction> actions;
  FaultPlan faults;

  std::string describe() const;
};

struct ChaosResult {
  std::uint64_t seed = 0;
  /// Invariant violations; empty means the run passed.
  std::vector<std::string> failures;
  bool ok() const { return failures.empty(); }

  bool drained = false;
  /// The plan destroyed every replica (kills racing scale-ins); the job
  /// stopped cleanly instead of continuing — a legal outcome, not a failure.
  bool all_replicas_lost = false;
  std::uint64_t iterations = 0;
  Seconds end_time = 0;
  int final_workers = 0;
  int adjustments_completed = 0;
  /// Adjust requests the AM refused (duplicate replies not counted). Not
  /// part of either digest.
  int adjustments_rejected = 0;
  int worker_failures = 0;
  std::uint64_t evictions = 0;
  int master_crashes = 0;
  int kills = 0;
  /// Digest of the run's outcome: iterations, final workers, adjustments,
  /// worker failures, evictions, epoch, samples processed and the bits of
  /// the end time. A change to how replica bytes evolve (the optimizer
  /// keystream) moves `fingerprint` but must leave this digest alone.
  std::uint64_t outcome_digest = 0;
  /// outcome_digest with the replica checksums folded in. Two runs of the
  /// same plan must produce equal fingerprints — the determinism contract.
  std::uint64_t fingerprint = 0;
  /// Training pause of each completed adjustment (bench percentile input).
  std::vector<Seconds> adjustment_pauses;
  /// Longest gap between consecutive iteration completions — the worst
  /// training stall any fault caused (worker-failure recovery shows up
  /// here).
  Seconds max_iteration_gap = 0;
  /// Path of the flight record dumped for a failing plan ("" when the run
  /// passed or the recorder was disabled). Feed it to elan_postmortem.
  std::string flight_record;

  std::string describe() const;
};

/// Exactly-once ledger of one run's data consumption (paper §V-C). Per
/// epoch it keeps a bitmap of the samples consumed, the summed range sizes,
/// the lowest begin and the highest end: num_samples / 8 bytes per epoch, not
/// a copy of every range.
class ConsumptionLedger {
 public:
  explicit ConsumptionLedger(std::uint64_t num_samples) : num_samples_(num_samples) {}

  /// Records one range consumed in `epoch`; empty ranges are ignored.
  void record(std::uint64_t epoch, const data::SampleRange& range);

  /// One message per violated invariant, epochs in ascending order: a sample
  /// consumed twice, a sample past the dataset, a completed epoch (below
  /// `final_epoch`) whose range sizes do not sum to the dataset, and, for
  /// serial semantics, an epoch that is not one prefix [0, n).
  std::vector<std::string> failures(std::uint64_t final_epoch, bool serial) const;

 private:
  struct Epoch {
    std::vector<std::uint64_t> bits;  // one bit per sample of the dataset
    std::uint64_t covered = 0;        // summed range sizes
    std::uint64_t lowest_begin = ~std::uint64_t{0};
    std::uint64_t highest_end = 0;
    bool repeated = false;
  };

  std::uint64_t num_samples_;
  std::map<std::uint64_t, Epoch> epochs_;
};

class ChaosRunner {
 public:
  /// Deterministically expands a seed into a scenario.
  static ChaosPlan sample_plan(std::uint64_t seed);

  /// A hand-written plan that is guaranteed to fail: a permanent partition
  /// cuts the AM off mid-adjustment, the coordinate/decision loop livelocks,
  /// and the (shrunk) event budget runs out. Used to exercise the
  /// flight-record + postmortem pipeline deterministically.
  static ChaosPlan scripted_failure_plan();

  /// When non-empty, a failing run_plan dumps the flight recorder to
  /// "<prefix>.seed<seed>.flt" (requires the recorder to be enabled, e.g.
  /// via ELAN_FLIGHT or elan_chaos --flight). Falls back to the ELAN_FLIGHT
  /// path as prefix when unset.
  static void set_flight_prefix(std::string prefix);

  /// Runs one scenario in a fresh simulated cluster and checks invariants.
  static ChaosResult run_plan(const ChaosPlan& plan);

  /// Convenience: sample_plan + run_plan.
  static ChaosResult run_seed(std::uint64_t seed);

  /// Runs the `count` seeded plans starting at `seed_base` and returns their
  /// results in plan order, failing ones included — callers inspect them.
  /// Plans run concurrently on ThreadPool::global(), one runner per pool
  /// thread, while the caller waits; each result is the one run_seed gives
  /// on any thread, so the output does not depend on the pool size. A
  /// one-thread pool runs its one runner inline, so ELAN_THREADS=1 runs the
  /// plans one at a time on the caller's thread.
  /// Call it from outside the pool: a pool thread that waits here holds a
  /// runner slot.
  static std::vector<ChaosResult> sweep(std::uint64_t seed_base, int count);
};

}  // namespace elan::fault
