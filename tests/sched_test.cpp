// Tests of the trace generator and the cluster-scheduling simulator
// (paper §VI-C; Figs 20-22).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "sched/cluster.h"
#include "sched/trace.h"

namespace elan::sched {
namespace {

struct SchedFixture {
  topo::Topology topology{topo::TopologySpec{.nodes = 16}};  // 128 GPUs
  topo::BandwidthModel bandwidth;
  storage::SimFilesystem fs;
  train::ThroughputModel throughput{topology, bandwidth};
  baselines::AdjustmentCostModel costs{topology, bandwidth, fs};

  std::vector<SchedJobSpec> small_trace(std::uint64_t seed = 7) {
    TraceParams p;
    p.span = hours(8.0);
    p.seed = seed;
    return TraceGenerator(throughput, p).generate();
  }

  ScheduleMetrics run(PolicyKind policy, baselines::System system,
                      const std::vector<SchedJobSpec>& trace) {
    return ClusterSim(throughput, costs, policy, system).run(trace);
  }
};

// ---------------------------------------------------------------------------
// Trace generator
// ---------------------------------------------------------------------------

TEST(Trace, GeneratesSortedJobs) {
  SchedFixture f;
  const auto trace = f.small_trace();
  ASSERT_GT(trace.size(), 20u);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LE(trace[i - 1].submit_time, trace[i].submit_time);
  }
}

TEST(Trace, JobBoundsAreConsistent) {
  SchedFixture f;
  for (const auto& j : f.small_trace()) {
    EXPECT_GE(j.min_res, 1);
    EXPECT_LE(j.min_res, j.req_res);
    EXPECT_GE(j.max_res, j.req_res);
    EXPECT_LE(j.max_res, f.topology.total_gpus());
    EXPECT_GT(j.total_samples, 0u);
    // min_res must fit the batch in GPU memory (paper's rule).
    EXPECT_TRUE(f.throughput.fits(j.model, j.min_res, j.base_total_batch)) << j.id;
  }
}

TEST(Trace, Deterministic) {
  SchedFixture f;
  const auto a = f.small_trace(5);
  const auto b = f.small_trace(5);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].submit_time, b[i].submit_time);
    EXPECT_EQ(a[i].req_res, b[i].req_res);
    EXPECT_EQ(a[i].total_samples, b[i].total_samples);
  }
}

TEST(Trace, DiurnalPattern) {
  // More arrivals near the daily peak (15:00) than near the trough (03:00).
  SchedFixture f;
  TraceParams p;
  p.span = hours(48.0);
  p.seed = 11;
  const auto trace = TraceGenerator(f.throughput, p).generate();
  int near_peak = 0;
  int near_trough = 0;
  for (const auto& j : trace) {
    const double hour_of_day = std::fmod(j.submit_time / 3600.0, 24.0);
    if (hour_of_day >= 12 && hour_of_day < 18) ++near_peak;
    if (hour_of_day >= 0 && hour_of_day < 6) ++near_trough;
  }
  EXPECT_GT(near_peak, near_trough);
}

TEST(Trace, RejectsAPeakBelowTheTrough) {
  SchedFixture f;
  TraceParams p;
  p.peak_jobs_per_hour = 5;
  p.trough_jobs_per_hour = 20;
  try {
    static_cast<void>(TraceGenerator(f.throughput, p));
    ADD_FAILURE() << "a peak below the trough was accepted";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("got peak 5 and trough 20"), std::string::npos)
        << e.what();
  }
  p.peak_jobs_per_hour = 0;
  p.trough_jobs_per_hour = 10;
  EXPECT_THROW(TraceGenerator(f.throughput, p), InvalidArgument);
  p.peak_jobs_per_hour = 10;
  p.trough_jobs_per_hour = 0;
  EXPECT_THROW(TraceGenerator(f.throughput, p), InvalidArgument);
  // A flat rate is a peak equal to the trough.
  p.trough_jobs_per_hour = 10;
  p.span = hours(8.0);
  EXPECT_FALSE(TraceGenerator(f.throughput, p).generate().empty());
}

// ---------------------------------------------------------------------------
// Cluster simulator
// ---------------------------------------------------------------------------

TEST(Cluster, AllJobsFinishUnderEveryPolicy) {
  SchedFixture f;
  const auto trace = f.small_trace();
  for (auto policy : {PolicyKind::kFifo, PolicyKind::kBackfill, PolicyKind::kElasticFifo,
                      PolicyKind::kElasticBackfill}) {
    const auto m = f.run(policy, baselines::System::kElan, trace);
    EXPECT_EQ(m.jobs_finished, static_cast<int>(trace.size())) << to_string(policy);
    EXPECT_EQ(m.completion_time.count(), trace.size()) << to_string(policy);
    EXPECT_GT(m.makespan, 0.0);
  }
}

TEST(Cluster, StaticPoliciesNeverAdjust) {
  SchedFixture f;
  const auto trace = f.small_trace();
  EXPECT_EQ(f.run(PolicyKind::kFifo, baselines::System::kElan, trace).total_adjustments, 0);
  EXPECT_EQ(f.run(PolicyKind::kBackfill, baselines::System::kElan, trace).total_adjustments,
            0);
}

TEST(Cluster, ElasticPoliciesAdjust) {
  SchedFixture f;
  const auto trace = f.small_trace();
  EXPECT_GT(f.run(PolicyKind::kElasticFifo, baselines::System::kElan, trace)
                .total_adjustments,
            0);
}

TEST(Cluster, ElasticReducesPendingAndCompletion) {
  // Fig 20's headline: JPT and JCT drop substantially with elasticity.
  SchedFixture f;
  TraceParams p;
  p.span = hours(24.0);
  p.seed = 3;
  const auto trace = TraceGenerator(f.throughput, p).generate();
  const auto fifo = f.run(PolicyKind::kFifo, baselines::System::kElan, trace);
  const auto efifo = f.run(PolicyKind::kElasticFifo, baselines::System::kElan, trace);
  EXPECT_LT(efifo.pending_time.mean(), fifo.pending_time.mean() * 0.57);  // -43%+
  EXPECT_LT(efifo.completion_time.mean(), fifo.completion_time.mean() * 0.75);  // -25%+
  EXPECT_LE(efifo.makespan, fifo.makespan);
}

TEST(Cluster, BackfillBeatsFifoUnderCongestion) {
  SchedFixture f;
  TraceParams p;
  p.span = hours(24.0);
  p.seed = 3;
  const auto trace = TraceGenerator(f.throughput, p).generate();
  const auto fifo = f.run(PolicyKind::kFifo, baselines::System::kElan, trace);
  const auto bf = f.run(PolicyKind::kBackfill, baselines::System::kElan, trace);
  EXPECT_LE(bf.pending_time.mean(), fifo.pending_time.mean());
}

TEST(Cluster, SystemOrderingIdealElanSnr) {
  // Fig 22: Ideal <= Elan << S&R on average JCT; Elan stays within a few
  // percent of Ideal while S&R pays a visible penalty.
  SchedFixture f;
  TraceParams p;
  p.span = hours(24.0);
  p.seed = 3;
  const auto trace = TraceGenerator(f.throughput, p).generate();
  const auto ideal =
      f.run(PolicyKind::kElasticBackfill, baselines::System::kIdeal, trace);
  const auto elan = f.run(PolicyKind::kElasticBackfill, baselines::System::kElan, trace);
  const auto snr =
      f.run(PolicyKind::kElasticBackfill, baselines::System::kShutdownRestart, trace);
  // Elan and Ideal are indistinguishable up to scheduling noise (packing
  // decisions butterfly on single seeds); S&R pays a visible JCT penalty
  // over both.
  EXPECT_NEAR(elan.completion_time.mean(), ideal.completion_time.mean(),
              ideal.completion_time.mean() * 0.06);
  const double best = std::min(elan.completion_time.mean(), ideal.completion_time.mean());
  EXPECT_GT(snr.completion_time.mean(), best * 1.015);
}

TEST(Cluster, UtilizationTimelineRecorded) {
  SchedFixture f;
  const auto trace = f.small_trace();
  const auto m = f.run(PolicyKind::kElasticBackfill, baselines::System::kElan, trace);
  ASSERT_GT(m.utilization.size(), 100u);
  for (const auto& s : m.utilization) {
    EXPECT_GE(s.utilization, 0.0);
    EXPECT_LE(s.utilization, 1.0);
  }
  EXPECT_GT(m.average_utilization(), 0.0);
}

TEST(Cluster, ElasticImprovesUtilization) {
  SchedFixture f;
  TraceParams p;
  p.span = hours(24.0);
  p.seed = 3;
  const auto trace = TraceGenerator(f.throughput, p).generate();
  const auto fifo = f.run(PolicyKind::kFifo, baselines::System::kElan, trace);
  const auto efifo = f.run(PolicyKind::kElasticFifo, baselines::System::kElan, trace);
  EXPECT_GT(efifo.average_utilization(), fifo.average_utilization());
}

TEST(Cluster, AllocationsRespectBounds) {
  // No job ever runs below min_res or above max_res under elastic policies —
  // checked indirectly: the simulation finishes and GPU accounting stays
  // consistent (free never negative would trip an internal ELAN_CHECK).
  SchedFixture f;
  const auto trace = f.small_trace();
  EXPECT_NO_THROW(f.run(PolicyKind::kElasticBackfill, baselines::System::kElan, trace));
}

TEST(Cluster, SrtfImprovesMeanJctUnderCongestion) {
  SchedFixture f;
  TraceParams p;
  p.span = hours(24.0);
  p.seed = 3;
  const auto trace = TraceGenerator(f.throughput, p).generate();
  const auto efifo = f.run(PolicyKind::kElasticFifo, baselines::System::kElan, trace);
  const auto srtf = f.run(PolicyKind::kElasticSrtf, baselines::System::kElan, trace);
  EXPECT_LT(srtf.completion_time.mean(), efifo.completion_time.mean());
  EXPECT_EQ(srtf.jobs_finished, static_cast<int>(trace.size()));
  EXPECT_TRUE(is_elastic(PolicyKind::kElasticSrtf));
}

TEST(Cluster, DeterministicGivenSeed) {
  // Bit-identical reruns: the whole simulation is a pure function of the
  // trace and configuration.
  SchedFixture f;
  const auto trace = f.small_trace(9);
  const auto a = f.run(PolicyKind::kElasticBackfill, baselines::System::kElan, trace);
  const auto b = f.run(PolicyKind::kElasticBackfill, baselines::System::kElan, trace);
  EXPECT_EQ(a.completion_time.mean(), b.completion_time.mean());
  EXPECT_EQ(a.pending_time.mean(), b.pending_time.mean());
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.total_adjustments, b.total_adjustments);
}

TEST(Cluster, PlacementAwareModeCompletesAndAccountsGpus) {
  SchedFixture f;
  const auto trace = f.small_trace();
  ClusterParams p;
  p.placement_aware = true;
  for (auto policy : {PolicyKind::kFifo, PolicyKind::kElasticBackfill}) {
    ClusterSim sim(f.throughput, f.costs, policy, baselines::System::kElan, p);
    const auto m = sim.run(trace);
    EXPECT_EQ(m.jobs_finished, static_cast<int>(trace.size())) << to_string(policy);
  }
}

TEST(Cluster, PlacementFragmentationSlowsJobs) {
  // A job spread one-GPU-per-node communicates over a NET-bottleneck ring.
  // For communication-heavy VGG-19 (548 MiB gradients) backward cannot hide
  // that, so the compact on-node placement is measurably faster; for
  // ResNet-50 the overlap absorbs it (both facts are physical).
  SchedFixture f;
  std::vector<topo::GpuId> compact{0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<topo::GpuId> spread{0, 8, 16, 24, 32, 40, 48, 56};
  const auto vgg = train::vgg19();
  EXPECT_GT(f.throughput.throughput_on(vgg, compact, 256),
            f.throughput.throughput_on(vgg, spread, 256) * 1.1);
  const auto resnet = train::resnet50();
  EXPECT_NEAR(f.throughput.throughput_on(resnet, compact, 256),
              f.throughput.throughput_on(resnet, spread, 256), 1.0);
}

TEST(Cluster, PlacementAwareRunsCloseToCountBased) {
  // With compact-first allocation the placement-aware results stay in the
  // same regime as the count-based model (which assumes compactness).
  SchedFixture f;
  TraceParams tp;
  tp.span = hours(12.0);
  tp.seed = 4;
  const auto trace = TraceGenerator(f.throughput, tp).generate();
  ClusterParams pa;
  pa.placement_aware = true;
  ClusterSim with(f.throughput, f.costs, PolicyKind::kElasticBackfill,
                  baselines::System::kElan, pa);
  ClusterSim without(f.throughput, f.costs, PolicyKind::kElasticBackfill,
                     baselines::System::kElan);
  const auto a = with.run(trace);
  const auto b = without.run(trace);
  EXPECT_EQ(a.jobs_finished, b.jobs_finished);
  // Fragmentation costs something but not an order of magnitude.
  EXPECT_LT(a.completion_time.mean(), b.completion_time.mean() * 1.5);
  EXPECT_GE(a.completion_time.mean(), b.completion_time.mean() * 0.8);
}

TEST(Cluster, RejectsBadInput) {
  SchedFixture f;
  ClusterSim sim(f.throughput, f.costs, PolicyKind::kFifo, baselines::System::kElan);
  EXPECT_THROW(sim.run({}), InvalidArgument);
}

// A trace of one small job and one that starts on 200 GPUs, job 1.
std::vector<SchedJobSpec> trace_with_a_wide_job(int req_res, int min_res) {
  SchedJobSpec small;
  small.id = 0;
  small.model = train::resnet50();
  small.req_res = 8;
  small.min_res = 2;
  small.max_res = 32;
  small.base_total_batch = 256;
  small.total_samples = 1'000'000;
  SchedJobSpec wide = small;
  wide.id = 1;
  wide.submit_time = 10.0;
  wide.req_res = req_res;
  wide.min_res = min_res;
  wide.max_res = req_res;
  wide.base_total_batch = 32 * req_res;
  return {small, wide};
}

// Expects run() to refuse `trace` with an InvalidArgument naming `message`.
void expect_rejected(SchedFixture& f, PolicyKind policy, const std::vector<SchedJobSpec>& trace,
                     const std::string& message) {
  try {
    f.run(policy, baselines::System::kElan, trace);
    ADD_FAILURE() << to_string(policy) << " replayed a job it should reject: " << message;
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
        << to_string(policy) << ": " << e.what();
  } catch (const Error& e) {
    ADD_FAILURE() << to_string(policy) << " failed mid-replay: " << e.what();
  }
}

constexpr const char* kWiderThanTheCluster =
    "job 1 starts on 200 GPUs, more than the cluster's 128";

TEST(Cluster, StaticPoliciesRejectAJobWiderThanTheCluster) {
  // FIFO and BF start a job on req_res GPUs: one wider than the cluster
  // would hold the queue forever.
  SchedFixture f;
  for (auto policy : {PolicyKind::kFifo, PolicyKind::kBackfill}) {
    expect_rejected(f, policy, trace_with_a_wide_job(200, 200), kWiderThanTheCluster);
    expect_rejected(f, policy, trace_with_a_wide_job(200, 100), kWiderThanTheCluster);
  }
}

TEST(Cluster, ElasticPoliciesRejectAJobWhoseLowerBoundExceedsTheCluster) {
  // The elastic policies start a job on min_res GPUs.
  SchedFixture f;
  for (auto policy :
       {PolicyKind::kElasticFifo, PolicyKind::kElasticBackfill, PolicyKind::kElasticSrtf}) {
    expect_rejected(f, policy, trace_with_a_wide_job(200, 200), kWiderThanTheCluster);
  }
}

// A trace of one small job and job 1 with the given bounds.
std::vector<SchedJobSpec> trace_with_bounds(int min_res, int req_res, int max_res) {
  auto trace = trace_with_a_wide_job(req_res, min_res);
  trace[1].max_res = max_res;
  return trace;
}

TEST(Cluster, RejectsInconsistentJobBounds) {
  // The replay prices a job at req_res, or anywhere in [min_res, max_res]
  // under the elastic policies: run() rejects, before replaying, a job whose
  // bounds break 1 <= min_res <= req_res <= max_res.
  SchedFixture f;
  struct Bounds {
    int min_res, req_res, max_res;
  };
  for (const Bounds b : {Bounds{0, 8, 32}, Bounds{16, 8, 32}, Bounds{2, 8, 4}}) {
    const std::string message = "job 1 has min_res " + std::to_string(b.min_res) +
                                ", req_res " + std::to_string(b.req_res) + ", max_res " +
                                std::to_string(b.max_res);
    for (auto policy : {PolicyKind::kFifo, PolicyKind::kElasticBackfill}) {
      expect_rejected(f, policy, trace_with_bounds(b.min_res, b.req_res, b.max_res), message);
    }
  }
  // E-SRTF orders the queue by each job's time at req_res, so req_res must
  // fit the cluster even though the job starts on min_res GPUs.
  expect_rejected(f, PolicyKind::kElasticSrtf, trace_with_bounds(2, 200, 200),
                  "job 1 has req_res 200, more than the cluster's 128");
  for (auto policy : {PolicyKind::kElasticFifo, PolicyKind::kElasticBackfill}) {
    EXPECT_EQ(f.run(policy, baselines::System::kElan, trace_with_bounds(2, 200, 200))
                  .jobs_finished,
              2);
  }
}

TEST(Cluster, JobsSharingAConfigurationButNotMinResReplayAlike) {
  // Jobs of one model, req_res and base batch whose min_res differ have
  // their own ladders (and so their own steps and floors, which run from
  // min_res up): a replay does not depend on which of them the simulator
  // met first. The primed simulator first replays the same jobs all
  // submitted at once, the higher min_res of each configuration first.
  SchedFixture f;
  auto trace = f.small_trace();
  bool raise = false;
  int raised = 0;
  for (auto& job : trace) {
    if (job.min_res < job.req_res && (raise = !raise)) {
      ++job.min_res;
      ++raised;
    }
  }
  ASSERT_GT(raised, 10);
  auto priming = trace;
  const auto higher_min_res = [](const SchedJobSpec& a, const SchedJobSpec& b) {
    return a.min_res > b.min_res;
  };
  std::stable_sort(priming.begin(), priming.end(), higher_min_res);
  for (auto& job : priming) job.submit_time = 0.0;
  ClusterSim fresh(f.throughput, f.costs, PolicyKind::kElasticBackfill, baselines::System::kElan);
  ClusterSim primed(f.throughput, f.costs, PolicyKind::kElasticBackfill, baselines::System::kElan);
  primed.run(priming);
  const auto a = fresh.run(trace);
  const auto b = primed.run(trace);
  EXPECT_EQ(a.jobs_finished, static_cast<int>(trace.size()));
  EXPECT_EQ(a.total_adjustments, b.total_adjustments);
  EXPECT_EQ(a.completion_time.mean(), b.completion_time.mean());
  EXPECT_EQ(a.pending_time.mean(), b.pending_time.mean());
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.average_utilization(), b.average_utilization());
}

TEST(Cluster, PolicyNames) {
  EXPECT_STREQ(to_string(PolicyKind::kFifo), "FIFO");
  EXPECT_STREQ(to_string(PolicyKind::kElasticBackfill), "E-BF");
  EXPECT_TRUE(is_elastic(PolicyKind::kElasticFifo));
  EXPECT_FALSE(is_elastic(PolicyKind::kBackfill));
}

}  // namespace
}  // namespace elan::sched
