// End-to-end tests of the live elastic scheduler: real ElasticJobs (AMs,
// workers, replication) managed on one shared simulated cluster.
#include <gtest/gtest.h>

#include "sched/live_scheduler.h"

namespace elan::sched {
namespace {

struct LiveFixture {
  sim::Simulator sim;
  topo::Topology topology{topo::TopologySpec{}};  // 64 GPUs
  topo::BandwidthModel bandwidth;
  storage::SimFilesystem fs;
  transport::MessageBus bus{sim, bandwidth};
  transport::KvStore kv{sim};
  LiveScheduler scheduler{sim, topology, bandwidth, fs, bus, kv};

  LiveJobSpec spec(const std::string& id, int min_w, int max_w,
                   std::uint64_t samples) {
    LiveJobSpec s;
    s.job_id = id;
    s.model = train::resnet50();
    s.min_workers = min_w;
    s.max_workers = max_w;
    s.target_samples = samples;
    return s;
  }
};

TEST(LiveScheduler, RunsOneJobToCompletion) {
  LiveFixture f;
  f.scheduler.submit(f.spec("j1", 4, 8, 50'000));
  f.scheduler.start();
  f.sim.run();
  EXPECT_TRUE(f.scheduler.all_done());
  ASSERT_EQ(f.scheduler.finished().size(), 1u);
  const auto& s = f.scheduler.finished().front();
  EXPECT_EQ(s.job_id, "j1");
  EXPECT_GE(s.started_at, 0.0);
  EXPECT_GT(s.finished_at, s.started_at);
  // All GPUs returned.
  EXPECT_EQ(f.scheduler.free_gpus(), 64);
}

TEST(LiveScheduler, IdleClusterScalesJobOut) {
  // A lone job on an idle cluster gets scaled beyond its minimum.
  LiveFixture f;
  f.scheduler.submit(f.spec("j1", 4, 32, 2'000'000));
  f.scheduler.start();
  bool saw_big = false;
  // Sample the job's width while it runs.
  std::function<void()> probe = [&] {
    const auto* job = f.scheduler.job("j1");
    if (job != nullptr && job->num_workers() > 4) saw_big = true;
    if (!f.scheduler.all_done()) f.sim.schedule(20.0, probe);
  };
  f.sim.schedule(60.0, probe);
  f.sim.run();
  EXPECT_TRUE(saw_big);
  EXPECT_EQ(f.scheduler.finished().size(), 1u);
  EXPECT_GT(f.scheduler.finished().front().adjustments, 0);
}

TEST(LiveScheduler, ManyJobsAllFinishAndGpusBalance) {
  LiveFixture f;
  for (int i = 0; i < 6; ++i) {
    f.scheduler.submit(f.spec("j" + std::to_string(i), 2, 16, 150'000));
  }
  f.scheduler.start();
  f.sim.run();
  EXPECT_TRUE(f.scheduler.all_done());
  EXPECT_EQ(f.scheduler.finished().size(), 6u);
  EXPECT_EQ(f.scheduler.free_gpus(), 64);
  for (const auto& s : f.scheduler.finished()) {
    EXPECT_GT(s.finished_at, s.started_at) << s.job_id;
  }
}

TEST(LiveScheduler, QueuedJobTriggersReclamation) {
  // A MobileNet-v2 job grows to fill the whole cluster; a job submitted later
  // can start only after the scheduler scales the first one in.
  LiveFixture f;
  auto wide = f.spec("wide", 8, 64, 5'000'000);
  wide.model = train::mobilenet_v2();
  f.scheduler.submit(wide);
  f.scheduler.start();
  int wide_width_at_submit = 0;
  f.sim.schedule(120.0, [&] {
    if (const auto* job = f.scheduler.job("wide")) wide_width_at_submit = job->num_workers();
    f.scheduler.submit(f.spec("late", 8, 16, 100'000));
  });
  // wide's adjustment records, copied while it runs (the job is gone once it
  // finishes).
  std::vector<AdjustmentRecord> wide_adjustments;
  std::function<void()> probe = [&] {
    if (const auto* job = f.scheduler.job("wide")) wide_adjustments = job->adjustments();
    if (!f.scheduler.all_done()) f.sim.schedule(1.0, probe);
  };
  f.sim.schedule(1.0, probe);
  f.sim.run();

  EXPECT_TRUE(f.scheduler.all_done());
  ASSERT_EQ(f.scheduler.finished().size(), 2u);
  EXPECT_EQ(wide_width_at_submit, 64);
  const LiveJobStats* late = nullptr;
  for (const auto& s : f.scheduler.finished()) {
    if (s.job_id == "late") late = &s;
  }
  ASSERT_NE(late, nullptr);
  EXPECT_GT(late->pending_time(), 0.0);
  // late waited for a scale-in of wide, which landed before late started.
  bool reclaimed = false;
  for (const auto& a : wide_adjustments) {
    if (a.type == AdjustmentType::kScaleIn && a.workers_before == 64 &&
        a.completed_at <= late->started_at) {
      reclaimed = true;
    }
  }
  EXPECT_TRUE(reclaimed);
  EXPECT_EQ(f.scheduler.free_gpus(), 64);
}

TEST(LiveScheduler, UtilizationSamplesRecorded) {
  LiveFixture f;
  f.scheduler.submit(f.spec("j1", 4, 8, 50'000));
  f.scheduler.start();
  f.sim.run();
  ASSERT_GT(f.scheduler.utilization().size(), 1u);
  for (const auto& u : f.scheduler.utilization()) {
    EXPECT_GE(u.utilization, 0.0);
    EXPECT_LE(u.utilization, 1.0);
  }
}

TEST(LiveScheduler, CompactPlacement) {
  // The first admitted job's workers land on one node.
  LiveFixture f;
  f.scheduler.submit(f.spec("j1", 8, 8, 1'000'000));
  f.scheduler.start();
  f.sim.run_until(30.0);
  const auto* job = f.scheduler.job("j1");
  ASSERT_NE(job, nullptr);
  std::set<int> nodes;
  for (int id : job->worker_ids()) nodes.insert(f.topology.node_of(job->worker(id).gpu()));
  EXPECT_EQ(nodes.size(), 1u);
  // Let it finish to keep the simulator clean.
  f.sim.run();
}

TEST(LiveScheduler, Validation) {
  LiveFixture f;
  EXPECT_THROW(f.scheduler.submit(LiveJobSpec{}), InvalidArgument);
  auto s = f.spec("x", 128, 256, 100);
  EXPECT_THROW(f.scheduler.submit(s), InvalidArgument);  // larger than cluster
}

}  // namespace
}  // namespace elan::sched
