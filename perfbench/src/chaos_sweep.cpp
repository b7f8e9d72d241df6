// chaos_sweep: fault::ChaosRunner::sweep over seeded fault plans. Each plan is
// a 2-5-worker MobileNet job on a 16-GPU topology with sampled kills, AM
// crashes, partitions and drops, so per-plan set-up, fault recovery and the
// control plane do most of the work. The timed operation is one sweep call
// over kBatch plans: a sweep that ran its plans in parallel shows here and
// nowhere else.
//
// The plans are the 200 that the chaos_smoke test sweeps (plan seeds 1-200),
// cycled from a seed-chosen starting point. Every accepted commit passes them,
// so no run meets a failing plan, and every run covers nearly the same plan
// mix, so the throughput does not follow the seed. (Plans drawn freshly from
// the seed differed in cost by enough to move plans/s by over 10%, and about
// one plan in 20000 fails its invariants today.)
#include <limits>
#include <string>

#include "bench.h"
#include "fault/chaos.h"
#include "obs/trace.h"

namespace perfbench {
namespace {

using elan::fault::ChaosResult;
using elan::fault::ChaosRunner;

constexpr int kBatch = 10;         // plans per timed sweep call
constexpr int kSetups = 9;         // set-ups per run (median reported)
constexpr int kTracedPlans = 100;  // plans per pass of the traced run
constexpr std::uint64_t kFirstPlan = 1;
constexpr std::uint64_t kPlans = 200;
/// Warm-up plan of every set-up. Fixed rather than seeded so set-up time does
/// not depend on the seed.
constexpr std::uint64_t kWarmupPlan = kFirstPlan;

/// Index in the plan cycle where a run starts; a multiple of kBatch, so every
/// sweep call stays inside the 200 plans.
std::uint64_t first_index(std::uint64_t seed) { return seed % (kPlans / kBatch) * kBatch; }

/// Plan seed of the sweep call starting at cycle index `index`.
std::uint64_t plan_seed(std::uint64_t index) { return kFirstPlan + index % kPlans; }

std::string describe_failure(const ChaosResult& r) {
  return "chaos plan " + std::to_string(r.seed) + ": " +
         (r.failures.empty() ? std::string("?") : r.failures.front());
}

}  // namespace

E2eRun chaos_e2e(const Options& options) {
  E2eRun run;
  run.item = "plan";
  run.op = "sweep of 10 plans";
  // Plans differ in cost, so the run's throughput is taken over all of its
  // plans: one window per run.
  run.window = std::numeric_limits<std::size_t>::max();
  for (int i = 0; i < kSetups; ++i) {
    const auto start = Clock::now();
    spin_up_pool(options.threads);
    const auto warm = ChaosRunner::sweep(kWarmupPlan, 1);
    run.setup_s.push_back(seconds_since(start));
    run.checks.record(1, warm.size() == 1 && warm.front().ok(), "chaos warm-up plan failed");
  }

  std::uint64_t index = first_index(options.seed);
  const auto start = Clock::now();
  while (seconds_since(start) < options.seconds) {
    const auto t0 = Clock::now();
    const auto results = ChaosRunner::sweep(plan_seed(index), kBatch);
    run.add_op(ms_since(t0), static_cast<double>(results.size()));
    index += kBatch;
    run.checks.require(results.size() == kBatch, "chaos sweep stopped early");
    for (const auto& r : results) run.checks.record(1, r.ok(), describe_failure(r));
  }
  return run;
}

void chaos_traced(const Options& options, LayerRun& out) {
  const std::uint64_t first = first_index(options.seed);
  spin_up_pool(options.threads);

  set_tracing(false);
  std::vector<ChaosResult> plain;
  auto start = Clock::now();
  for (std::uint64_t i = 0; i < kTracedPlans; i += kBatch) {
    const auto results = ChaosRunner::sweep(plan_seed(first + i), kBatch);
    plain.insert(plain.end(), results.begin(), results.end());
  }
  const double untraced_s = seconds_since(start);
  out.checks.require(plain.size() == kTracedPlans, "chaos sweep stopped early");

  // Traced pass: the same plans, one timed run_plan call each. Spans the
  // program emits under ScopedSimClock are in virtual time; they are dropped
  // after every plan and never mixed with the wall-clock timings here.
  set_tracing(true);
  std::vector<double> plan_ms;
  double iterations = 0, adjustments = 0, rejected = 0, kills = 0, am_crashes = 0,
         evictions = 0;
  start = Clock::now();
  for (std::size_t i = 0; i < plain.size(); ++i) {
    const auto plan = ChaosRunner::sample_plan(plain[i].seed);
    const auto t0 = Clock::now();
    const ChaosResult r = ChaosRunner::run_plan(plan);
    plan_ms.push_back(ms_since(t0));
    elan::obs::Tracer::instance().clear();
    out.checks.record(1, r.ok(), describe_failure(r));
    out.checks.require(plain[i].fingerprint == r.fingerprint,
                       "chaos plan " + std::to_string(r.seed) +
                           ": traced fingerprint differs from the untraced sweep");
    iterations += static_cast<double>(r.iterations);
    adjustments += r.adjustments_completed;
    rejected += r.adjustments_rejected;
    kills += r.kills;
    am_crashes += r.master_crashes;
    evictions += static_cast<double>(r.evictions);
  }
  const double traced_s = seconds_since(start);
  set_tracing(false);

  out.add("fault.run_plan_ms_p50", quantile(plan_ms, 0.50), "ms");
  out.add("fault.run_plan_ms_p95", quantile(plan_ms, 0.95), "ms");
  out.add("fault.iterations", iterations, "count");
  out.add("fault.adjustments", adjustments, "count");
  out.add("fault.rejected", rejected, "count");
  out.add("fault.kills", kills, "count");
  out.add("fault.am_crashes", am_crashes, "count");
  out.add("fault.evictions", evictions, "count");
  out.add("obs.trace_overhead.chaos_sweep", traced_s / untraced_s, "ratio");
}

}  // namespace perfbench
