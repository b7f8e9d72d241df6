// Integration tests of the end-to-end elastic job (paper Fig 2 procedure).
#include "elan/job.h"

#include <gtest/gtest.h>

#include <set>

#include "storage/filesystem.h"

namespace elan {
namespace {

struct JobFixture {
  sim::Simulator sim;
  topo::Topology topology{topo::TopologySpec{}};
  topo::BandwidthModel bandwidth;
  storage::SimFilesystem fs;
  transport::MessageBus bus{sim, bandwidth};
  transport::KvStore kv{sim};

  JobConfig config(int workers, int tbs) {
    JobConfig c;
    c.model = train::resnet50();
    c.initial_workers = workers;
    c.initial_total_batch = tbs;
    c.base_lr = 0.2;
    return c;
  }

  std::unique_ptr<ElasticJob> make_job(JobConfig c) {
    return std::make_unique<ElasticJob>(sim, topology, bandwidth, fs, bus, kv, std::move(c));
  }
};

TEST(ElasticJob, TrainsForRequestedIterations) {
  JobFixture f;
  auto job = f.make_job(f.config(4, 128));
  job->stop_after_iterations(10);
  job->start();
  f.sim.run();
  EXPECT_EQ(job->iteration(), 10u);
  EXPECT_FALSE(job->running());
  EXPECT_EQ(job->samples_processed(), 10u * 128u);
  EXPECT_TRUE(job->consistent());
}

TEST(ElasticJob, ReplicasStayIdenticalWhileTraining) {
  JobFixture f;
  auto job = f.make_job(f.config(4, 128));
  job->on_iteration = [&](std::uint64_t) { EXPECT_TRUE(job->consistent()); };
  job->stop_after_iterations(5);
  job->start();
  f.sim.run();
}

TEST(ElasticJob, ScaleOutAddsWorkersAndKeepsConsistency) {
  JobFixture f;
  auto job = f.make_job(f.config(4, 128));
  job->stop_after_iterations(400);
  job->start();
  // Request two more workers shortly after start; they start/init
  // asynchronously and join at a later coordination.
  f.sim.schedule(1.0, [&] { job->request_scale_out({4, 5}); });
  f.sim.run();
  EXPECT_EQ(job->num_workers(), 6);
  ASSERT_EQ(job->adjustments().size(), 1u);
  const auto& adj = job->adjustments().front();
  EXPECT_EQ(adj.type, AdjustmentType::kScaleOut);
  EXPECT_EQ(adj.workers_before, 4);
  EXPECT_EQ(adj.workers_after, 6);
  EXPECT_TRUE(job->consistent());
  EXPECT_EQ(job->master().phase(), AmPhase::kSteady);
}

TEST(ElasticJob, RejectedRequestCountedOnceDespiteReplayedReplies) {
  JobFixture f;
  auto c = f.config(4, 128);
  // Shorter than a reply's round trip: the job re-sends the request before
  // the verdict lands, and the AM answers each re-send with its cached
  // verdict, so the job also receives duplicate replies.
  c.adjust_reply_timeout = 1e-5;
  auto job = f.make_job(std::move(c));
  std::set<transport::MessageId> replies;
  f.bus.set_fault_filter([&](const transport::Message& m, Seconds) {
    if (m.type == "adjust_reply") replies.insert(m.id);
    return transport::FaultDecision{};
  });
  job->stop_after_iterations(50);
  job->start();
  f.sim.schedule(0.5, [&] { job->request_scale_in({42}); });  // no worker 42
  f.sim.run();
  EXPECT_GE(replies.size(), 2u) << "no duplicate reply reached the job";
  EXPECT_EQ(job->adjustments_rejected(), 1);
  EXPECT_EQ(job->requests_in_flight(), 0);
  EXPECT_TRUE(job->adjustments().empty());
  EXPECT_EQ(job->num_workers(), 4);
}

TEST(ElasticJob, ChunkedReplicationPipelinesAndStaysConsistent) {
  // The replication data plane moves state in fixed-size chunks: joiners'
  // buffers fill chunk-by-chunk (relaying verified prefixes onward), every
  // destination passes the full-state checksum, and the adjustment record
  // reports the chunk statistics.
  JobFixture f;
  auto job = f.make_job(f.config(2, 128));
  job->stop_after_iterations(400);
  job->start();
  f.sim.schedule(1.0, [&] { job->request_scale_out({2, 3, 4, 5}); });
  f.sim.run();
  ASSERT_EQ(job->adjustments().size(), 1u);
  const auto& stats = job->adjustments().front().replication_stats;
  // ResNet-50's 195 MiB GPU state / 4 MiB default chunk.
  EXPECT_EQ(stats.num_chunks, 49u);
  // Four destinations, each receiving every chunk exactly once.
  EXPECT_EQ(stats.chunks_copied, 4u * stats.num_chunks);
  // Early joiners serve their verified prefix to later ones.
  EXPECT_GT(stats.chunks_relayed, 0u);
  EXPECT_EQ(stats.replans, 0u);
  EXPECT_EQ(stats.chunks_resumed, 0u);
  EXPECT_TRUE(job->consistent());
}

TEST(ElasticJob, ScaleOutPauseIsShort) {
  JobFixture f;
  auto job = f.make_job(f.config(4, 128));
  job->stop_after_iterations(500);
  job->start();
  f.sim.schedule(1.0, [&] { job->request_scale_out({4, 5, 6, 7}); });
  f.sim.run();
  ASSERT_EQ(job->adjustments().size(), 1u);
  // Elan's headline: adjustments pause training for ~1 second, not tens.
  EXPECT_LT(job->adjustments().front().pause_time(), 3.0);
  EXPECT_GT(job->adjustments().front().pause_time(), 0.0);
}

TEST(ElasticJob, NewWorkerStartIsOffCriticalPath) {
  JobFixture f;
  auto job = f.make_job(f.config(4, 128));
  job->stop_after_iterations(500);
  job->start();
  f.sim.schedule(1.0, [&] { job->request_scale_out({4}); });
  f.sim.run();
  ASSERT_EQ(job->adjustments().size(), 1u);
  const auto& adj = job->adjustments().front();
  // Service time includes the ~12 s worker start (asynchronous), but the
  // training pause must not.
  EXPECT_GT(adj.service_time(), 10.0);
  EXPECT_LT(adj.pause_time(), 3.0);
}

TEST(ElasticJob, ScaleInRemovesWorkers) {
  JobFixture f;
  auto job = f.make_job(f.config(8, 256));
  job->stop_after_iterations(100);
  job->start();
  f.sim.schedule(0.5, [&] { job->request_scale_in({6, 7}); });
  f.sim.run();
  EXPECT_EQ(job->num_workers(), 6);
  ASSERT_EQ(job->adjustments().size(), 1u);
  EXPECT_EQ(job->adjustments().front().type, AdjustmentType::kScaleIn);
  EXPECT_TRUE(job->consistent());
  // Scale-in has no replication.
  EXPECT_EQ(job->adjustments().front().breakdown.replication, 0.0);
}

TEST(ElasticJob, MigrationMovesWorkersToNewGpus) {
  JobFixture f;
  auto job = f.make_job(f.config(4, 128));
  job->stop_after_iterations(500);
  job->start();
  // Move workers 0 and 1 to GPUs on another node.
  f.sim.schedule(1.0, [&] { job->request_migration({0, 1}, {8, 9}); });
  f.sim.run();
  EXPECT_EQ(job->num_workers(), 4);
  const auto ids = job->worker_ids();
  EXPECT_EQ(ids, (std::vector<int>{2, 3, 4, 5}));
  EXPECT_EQ(job->worker(4).gpu(), 8);
  EXPECT_EQ(job->worker(5).gpu(), 9);
  EXPECT_TRUE(job->consistent());
}

TEST(ElasticJob, HybridScalingGrowsBatchWhenScalingFar) {
  JobFixture f;
  auto c = f.config(16, 512);
  auto job = f.make_job(std::move(c));
  job->stop_after_iterations(400);
  job->start();
  std::vector<topo::GpuId> gpus;
  for (int g = 16; g < 64; ++g) gpus.push_back(g);
  f.sim.schedule(1.0, [&] { job->request_scale_out(gpus); });
  f.sim.run();
  EXPECT_EQ(job->num_workers(), 64);
  // 16 -> 64 workers: strong scaling with TBS 512 tops out at 16 workers, so
  // hybrid scaling must weakly scale the batch (to 2048, whose optimum is 64).
  EXPECT_EQ(job->total_batch(), 2048);
  ASSERT_EQ(job->adjustments().size(), 1u);
  EXPECT_DOUBLE_EQ(job->adjustments().front().lr_factor, 4.0);
  EXPECT_TRUE(job->consistent());
}

TEST(ElasticJob, StrongScalingForSmallSteps) {
  JobFixture f;
  auto job = f.make_job(f.config(16, 2048));
  job->stop_after_iterations(400);
  job->start();
  std::vector<topo::GpuId> gpus;
  for (int g = 16; g < 32; ++g) gpus.push_back(g);
  f.sim.schedule(1.0, [&] { job->request_scale_out(gpus); });
  f.sim.run();
  EXPECT_EQ(job->num_workers(), 32);
  // TBS 2048's optimum (64) covers 16 workers: strong scaling, batch kept.
  EXPECT_EQ(job->total_batch(), 2048);
  EXPECT_DOUBLE_EQ(job->adjustments().front().lr_factor, 1.0);
}

TEST(ElasticJob, LearningRateRampsAfterWeakScaling) {
  JobFixture f;
  auto c = f.config(16, 512);
  c.hybrid.ramp_iterations = 50;
  auto job = f.make_job(std::move(c));
  job->stop_after_iterations(500);
  job->start();
  std::vector<topo::GpuId> gpus;
  for (int g = 16; g < 64; ++g) gpus.push_back(g);
  const double lr_before = job->current_lr();
  f.sim.schedule(1.0, [&] { job->request_scale_out(gpus); });
  f.sim.run();
  // After the ramp completes the LR settles at k * lr0 (Eq. 2).
  EXPECT_NEAR(job->current_lr(), lr_before * 4.0, 1e-9);
}

TEST(ElasticJob, SerialSamplerSkipsNothingAcrossAdjustment) {
  JobFixture f;
  auto job = f.make_job(f.config(4, 128));
  job->stop_after_iterations(600);
  job->start();
  f.sim.schedule(1.0, [&] { job->request_scale_out({4, 5}); });
  f.sim.run();
  // Every consumed sample is contiguous from the epoch start: the cursor
  // equals the number of samples processed (serial semantics, §V-C).
  EXPECT_EQ(job->sampler().cursor(), job->samples_processed());
}

TEST(ElasticJob, ShutdownRestartIsMuchSlower) {
  JobFixture f;
  auto elan_cfg = f.config(4, 128);
  auto snr_cfg = f.config(4, 128);
  snr_cfg.job_id = "job-snr";
  snr_cfg.mechanism = Mechanism::kShutdownRestart;

  auto elan_job = f.make_job(std::move(elan_cfg));
  auto snr_job = f.make_job(std::move(snr_cfg));
  elan_job->stop_after_iterations(500);
  snr_job->stop_after_iterations(500);
  elan_job->start();
  snr_job->start();
  f.sim.schedule(1.0, [&] {
    elan_job->request_scale_out({4, 5});
    snr_job->request_scale_out({6, 7});
  });
  f.sim.run();
  ASSERT_EQ(elan_job->adjustments().size(), 1u);
  ASSERT_EQ(snr_job->adjustments().size(), 1u);
  const double elan_pause = elan_job->adjustments().front().pause_time();
  const double snr_pause = snr_job->adjustments().front().pause_time();
  // Paper §VI-A2: 10-80x faster scale-out.
  EXPECT_GT(snr_pause / elan_pause, 10.0);
  // Both mechanisms leave consistent replicas.
  EXPECT_TRUE(elan_job->consistent());
  EXPECT_TRUE(snr_job->consistent());
}

TEST(ElasticJob, BackToBackAdjustments) {
  JobFixture f;
  auto job = f.make_job(f.config(4, 128));
  job->stop_after_iterations(900);
  job->start();
  f.sim.schedule(1.0, [&] { job->request_scale_out({4, 5}); });
  f.sim.schedule(40.0, [&] { job->request_scale_in({0, 1}); });
  f.sim.schedule(80.0, [&] { job->request_migration({2}, {10}); });
  f.sim.run();
  EXPECT_EQ(job->adjustments().size(), 3u);
  EXPECT_EQ(job->num_workers(), 4);
  EXPECT_TRUE(job->consistent());
  EXPECT_EQ(job->master().phase(), AmPhase::kSteady);
}

TEST(ElasticJob, SurvivesAmCrashDuringAdjustment) {
  // Fault tolerance end-to-end (§V-D): the AM dies while new workers start;
  // a recovered AM (rebuilt from the KV store) collects the resent reports
  // and the adjustment completes normally.
  JobFixture f;
  auto job = f.make_job(f.config(4, 128));
  job->stop_after_iterations(100000);
  job->on_iteration = [&](std::uint64_t) {
    if (!job->adjustments().empty()) job->stop();
  };
  job->start();
  f.sim.schedule(2.0, [&] { job->request_scale_out({4, 5}); });
  f.sim.schedule(6.0, [&] { job->crash_master(); });
  f.sim.schedule(9.0, [&] { job->recover_master(); });
  f.sim.run();
  ASSERT_EQ(job->adjustments().size(), 1u);
  EXPECT_EQ(job->num_workers(), 6);
  EXPECT_TRUE(job->consistent());
  EXPECT_EQ(job->master().phase(), AmPhase::kSteady);
}

TEST(ElasticJob, SurvivesLossyControlNetwork) {
  // Random message loss is absorbed by the reliable endpoints; training and
  // the adjustment still complete.
  sim::Simulator sim;
  topo::Topology topology{topo::TopologySpec{}};
  topo::BandwidthModel bandwidth;
  storage::SimFilesystem fs;
  transport::BusParams bp;
  bp.drop_probability = 0.1;
  bp.seed = 77;
  transport::MessageBus bus{sim, bandwidth, bp};
  transport::KvStore kv{sim};
  JobConfig c;
  c.model = train::resnet50();
  c.initial_workers = 4;
  c.initial_total_batch = 128;
  c.base_lr = 0.2;
  ElasticJob job(sim, topology, bandwidth, fs, bus, kv, std::move(c));
  job.stop_after_iterations(300);
  job.start();
  sim.schedule(1.0, [&] { job.request_scale_out({4, 5}); });
  sim.run();
  EXPECT_EQ(job.iteration(), 300u);
  EXPECT_EQ(job.num_workers(), 6);
  EXPECT_TRUE(job.consistent());
  EXPECT_GT(bus.stats().dropped, 0u);
}

TEST(ElasticJob, MemoryAccountingTracksWorkers) {
  JobFixture f;
  memory::MemoryPool pool(f.topology);
  auto c = f.config(4, 128);
  {
    ElasticJob job(f.sim, f.topology, f.bandwidth, f.fs, f.bus, f.kv, std::move(c), &pool);
    // Each of the 4 workers holds state + workspace for batch 32 on its GPU.
    const auto m = train::resnet50();
    const Bytes per_worker = m.gpu_state_bytes() + m.workspace_bytes(32);
    EXPECT_EQ(pool.total_used(), 4 * per_worker);
    EXPECT_EQ(pool.device(0).used(), per_worker);
    EXPECT_EQ(pool.device(4).used(), 0u);

    job.stop_after_iterations(400);
    job.start();
    f.sim.schedule(1.0, [&] { job.request_scale_out({4, 5}); });
    f.sim.run();
    // 6 workers now; the per-worker batch shrank (128/6 -> 22), shrinking
    // workspaces accordingly.
    EXPECT_EQ(job.num_workers(), 6);
    const Bytes smaller = m.gpu_state_bytes() + m.workspace_bytes(22);
    EXPECT_EQ(pool.total_used(), 6 * smaller);
  }
  // The job's destructor returns everything to the pool.
  EXPECT_EQ(pool.total_used(), 0u);
}

TEST(ElasticJob, OversubscribedGpuThrows) {
  // Two jobs on the same GPUs with a shared pool: the second cannot fit
  // another full ResNet context next to the first.
  JobFixture f;
  memory::MemoryPool pool(f.topology, 11_GiB);
  auto c1 = f.config(4, 4 * 96);  // batch 96/GPU: workspace ~7 GiB
  ElasticJob job1(f.sim, f.topology, f.bandwidth, f.fs, f.bus, f.kv, std::move(c1), &pool);
  auto c2 = f.config(4, 4 * 96);
  c2.job_id = "job-overlap";
  EXPECT_THROW(
      ElasticJob(f.sim, f.topology, f.bandwidth, f.fs, f.bus, f.kv, std::move(c2), &pool),
      memory::OutOfMemory);
}

TEST(ElasticJob, ChunkSemanticsTrainsAndStaysConsistent) {
  JobFixture f;
  auto c = f.config(4, 128);
  c.data_semantics = DataSemantics::kChunk;
  c.chunk_size = 2048;
  auto job = f.make_job(std::move(c));
  job->stop_after_iterations(50);
  job->start();
  f.sim.run();
  ASSERT_NE(job->chunk_sampler(), nullptr);
  EXPECT_EQ(job->samples_processed(), 50u * 128u);
  EXPECT_EQ(job->chunk_sampler()->consumed(), 50u * 128u);
  EXPECT_TRUE(job->consistent());
}

TEST(ElasticJob, ChunkSemanticsRepartitionsOnAdjustment) {
  JobFixture f;
  auto c = f.config(4, 128);
  c.data_semantics = DataSemantics::kChunk;
  c.chunk_size = 2048;
  auto job = f.make_job(std::move(c));
  job->stop_after_iterations(100000);
  job->on_iteration = [&](std::uint64_t) {
    if (!job->adjustments().empty() && job->iteration() > 200) job->stop();
  };
  job->start();
  f.sim.schedule(1.0, [&] { job->request_scale_out({4, 5}); });
  f.sim.run();
  ASSERT_EQ(job->adjustments().size(), 1u);
  // Repartition work lands on the critical path (unlike serial semantics).
  EXPECT_GT(job->adjustments().front().breakdown.repartition, 0.0);
  EXPECT_EQ(job->chunk_sampler()->num_workers(), 6);
  // Exactly-once across the adjustment: consumed == samples processed.
  EXPECT_EQ(job->chunk_sampler()->consumed() +
                job->epoch() * job->config().model.dataset.num_samples,
            job->samples_processed());
  EXPECT_TRUE(job->consistent());
}

TEST(ElasticJob, SerialSemanticsHasNoRepartitionCost) {
  JobFixture f;
  auto job = f.make_job(f.config(4, 128));
  job->stop_after_iterations(400);
  job->start();
  f.sim.schedule(1.0, [&] { job->request_scale_out({4, 5}); });
  f.sim.run();
  ASSERT_EQ(job->adjustments().size(), 1u);
  EXPECT_DOUBLE_EQ(job->adjustments().front().breakdown.repartition, 0.0);
}

TEST(ElasticJob, StragglerPacesTheJob) {
  JobFixture f;
  auto job = f.make_job(f.config(4, 128));
  const double healthy = job->current_iteration_time();
  job->set_worker_slowdown(2, 3.0);
  EXPECT_GT(job->current_iteration_time(), healthy * 2.5);
  EXPECT_DOUBLE_EQ(job->worker_slowdown(2), 3.0);
  // Resetting to 1.0 clears it.
  job->set_worker_slowdown(2, 1.0);
  EXPECT_DOUBLE_EQ(job->current_iteration_time(), healthy);
  EXPECT_THROW(job->set_worker_slowdown(2, 0.5), InvalidArgument);
  EXPECT_THROW(job->set_worker_slowdown(99, 2.0), InvalidArgument);
}

TEST(ElasticJob, MigrationShedsStraggler) {
  JobFixture f;
  auto job = f.make_job(f.config(4, 128));
  job->stop_after_iterations(100000);
  job->on_iteration = [&](std::uint64_t) {
    if (!job->adjustments().empty()) job->stop();
  };
  job->start();
  f.sim.schedule(1.0, [&] { job->set_worker_slowdown(0, 4.0); });
  f.sim.schedule(2.0, [&] { job->request_migration({0}, {8}); });
  f.sim.run();
  ASSERT_EQ(job->adjustments().size(), 1u);
  // The straggling worker 0 is gone; its replacement is healthy.
  const double healthy_iter =
      f.make_job([&] {
         auto c = f.config(4, 128);
         c.job_id = "ref";
         return c;
       }())->current_iteration_time();
  EXPECT_NEAR(job->current_iteration_time(), healthy_iter, healthy_iter * 0.01);
  EXPECT_TRUE(job->consistent());
}

TEST(ElasticJob, WorkerFailStopIsAbsorbed) {
  // A replica dies mid-training: survivors notice at the barrier, rebuild
  // the communication group, and continue consistently with N-1 workers.
  JobFixture f;
  auto job = f.make_job(f.config(4, 128));
  job->stop_after_iterations(200);
  job->start();
  f.sim.schedule(2.0, [&] { job->fail_worker(2); });
  f.sim.run();
  EXPECT_EQ(job->iteration(), 200u);
  EXPECT_EQ(job->num_workers(), 3);
  EXPECT_EQ(job->worker_failures(), 1);
  EXPECT_TRUE(job->consistent());
  // The AM's membership tracked the failure.
  EXPECT_EQ(job->master().workers().size(), 3u);
  EXPECT_EQ(job->master().workers().count(2), 0u);
  // No sample was lost or duplicated.
  EXPECT_EQ(job->sampler().cursor(), job->samples_processed());
}

TEST(ElasticJob, FailedWorkerIsReplacedByScaleOut) {
  JobFixture f;
  auto job = f.make_job(f.config(4, 128));
  job->stop_after_iterations(100000);
  job->on_iteration = [&](std::uint64_t) {
    if (!job->adjustments().empty() && job->iteration() > 150) job->stop();
  };
  job->start();
  f.sim.schedule(2.0, [&] { job->fail_worker(0); });
  f.sim.schedule(4.0, [&] { job->request_scale_out({8}); });  // replacement GPU
  f.sim.run();
  EXPECT_EQ(job->num_workers(), 4);
  EXPECT_TRUE(job->consistent());
  EXPECT_EQ(job->master().phase(), AmPhase::kSteady);
}

TEST(ElasticJob, MultipleFailuresSurvived) {
  JobFixture f;
  auto job = f.make_job(f.config(8, 256));
  job->stop_after_iterations(150);
  job->start();
  f.sim.schedule(1.0, [&] { job->fail_worker(1); });
  f.sim.schedule(1.0, [&] { job->fail_worker(5); });
  f.sim.schedule(6.0, [&] { job->fail_worker(7); });
  f.sim.run();
  EXPECT_EQ(job->num_workers(), 5);
  EXPECT_EQ(job->worker_failures(), 3);
  EXPECT_TRUE(job->consistent());
  EXPECT_EQ(job->iteration(), 150u);
}

TEST(ElasticJob, ServiceRequestsTravelAsMessages) {
  // Step 1 of Fig 2 is a real control-plane message: immediately after the
  // call the request is only in flight; the AM transitions after delivery.
  JobFixture f;
  auto job = f.make_job(f.config(4, 128));
  job->stop_after_iterations(400);
  job->start();
  f.sim.schedule(1.0, [&] {
    job->request_scale_out({4, 5});
    EXPECT_TRUE(job->adjustment_pending());
    EXPECT_TRUE(job->master().idle());  // message not yet delivered
  });
  f.sim.schedule(1.2, [&] {
    EXPECT_EQ(job->master().phase(), AmPhase::kWaitingReady);
  });
  f.sim.run();
  EXPECT_EQ(job->num_workers(), 6);
  EXPECT_FALSE(job->adjustment_pending());
}

TEST(ElasticJob, ConcurrentServiceRequestIsRejectedGracefully) {
  // A second request while one is pending gets an error reply (the AM
  // accepts one adjustment at a time); the job continues unharmed and the
  // first adjustment completes.
  JobFixture f;
  auto job = f.make_job(f.config(4, 128));
  job->stop_after_iterations(400);
  job->start();
  f.sim.schedule(1.0, [&] { job->request_scale_out({4, 5}); });
  f.sim.schedule(2.0, [&] { job->request_scale_out({6, 7}); });  // rejected
  f.sim.run();
  EXPECT_EQ(job->adjustments().size(), 1u);
  EXPECT_EQ(job->num_workers(), 6);
  EXPECT_TRUE(job->consistent());
  EXPECT_EQ(job->master().phase(), AmPhase::kSteady);
}

TEST(ElasticJob, FullyDeterministicGivenSeeds) {
  // Two runs of the same configuration — including an adjustment — are
  // bit-identical in time and state.
  auto run = [] {
    sim::Simulator sim;
    topo::Topology topology{topo::TopologySpec{}};
    topo::BandwidthModel bandwidth;
    storage::SimFilesystem fs;
    transport::MessageBus bus{sim, bandwidth};
    transport::KvStore kv{sim};
    JobConfig c;
    c.model = train::resnet50();
    c.initial_workers = 4;
    c.initial_total_batch = 128;
    c.base_lr = 0.2;
    ElasticJob job(sim, topology, bandwidth, fs, bus, kv, std::move(c));
    job.stop_after_iterations(300);
    job.start();
    sim.schedule(1.0, [&] { job.request_scale_out({4, 5}); });
    const double wall = sim.run();
    return std::make_tuple(wall, job.worker_checksums().front(),
                           job.adjustments().front().pause_time());
  };
  EXPECT_EQ(run(), run());
}

TEST(ElasticJob, ComputeJitterProducesEmergentStragglerCost) {
  // With per-worker compute jitter the barrier waits for the slowest
  // replica: E[max of N] > E[one], so wall time exceeds the jitter-free
  // ideal by more than the coordination overhead alone — and the effect
  // grows with the worker count.
  auto run = [](int workers, double cv) {
    sim::Simulator sim;
    topo::Topology topology{topo::TopologySpec{}};
    topo::BandwidthModel bandwidth;
    storage::SimFilesystem fs;
    transport::MessageBus bus{sim, bandwidth};
    transport::KvStore kv{sim};
    JobConfig c;
    c.model = train::resnet50();
    c.initial_workers = workers;
    c.initial_total_batch = workers * 32;
    c.base_lr = 0.2;
    c.compute_jitter_cv = cv;
    ElasticJob job(sim, topology, bandwidth, fs, bus, kv, std::move(c));
    job.stop_after_iterations(150);
    job.start();
    const double wall = sim.run();
    return (wall - job.ideal_training_time()) / job.ideal_training_time();
  };
  const double baseline = run(8, 0.0);
  const double jittered8 = run(8, 0.05);
  const double jittered32 = run(32, 0.05);
  EXPECT_GT(jittered8, baseline + 0.01);
  EXPECT_GT(jittered32, jittered8);  // max over more workers waits longer
}

TEST(ElasticJob, RuntimeOverheadIsNegligible) {
  JobFixture f;
  auto c = f.config(8, 256);
  c.coordination_interval = 1;  // coordinate every iteration (worst case)
  auto job = f.make_job(std::move(c));
  job->stop_after_iterations(200);
  job->start();
  const double wall = f.sim.run();
  const double ideal = job->ideal_training_time();
  const double overhead = (wall - ideal) / ideal;
  EXPECT_GT(overhead, 0.0);
  EXPECT_LT(overhead, 0.01);  // paper: <3 per-mille typical, <1% worst case
}

}  // namespace
}  // namespace elan
