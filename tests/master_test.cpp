// Tests of the application master state machine, including fault tolerance
// (paper §V-D): persistence to the KV store, crash recovery, and message-loss
// survival through the reliable endpoint layer.
#include <gtest/gtest.h>

#include "elan/master.h"

namespace elan {
namespace {

struct AmFixture {
  sim::Simulator sim;
  topo::BandwidthModel bandwidth;
  transport::MessageBus bus{sim, bandwidth};
  transport::KvStore kv{sim};

  std::unique_ptr<ApplicationMaster> make_am(int workers = 4) {
    std::vector<WorkerLaunchSpec> initial;
    for (int i = 0; i < workers; ++i) initial.push_back({i, i});
    return std::make_unique<ApplicationMaster>(bus, kv, "job0", initial);
  }

  // A bare endpoint standing in for a worker process.
  struct FakeWorker {
    transport::ReliableEndpoint endpoint;
    std::vector<DecisionMsg> decisions;
    FakeWorker(transport::MessageBus& bus, int id, const std::string& job)
        : endpoint(bus, "w" + std::to_string(id) + "/" + job,
                   [this](const transport::Message& m) {
                     if (m.type == DecisionMsg::kWireType) {
                       decisions.push_back(wire::decode<DecisionMsg>(m.payload));
                     }
                   }) {}
    void report(int id, topo::GpuId gpu) {
      ReportMsg r{id, gpu};
      send_message(endpoint, "am/job0", r);
    }
    void coordinate(int id, std::uint64_t iter) {
      CoordinateMsg c{id, iter};
      send_message(endpoint, "am/job0", c);
    }
  };
};

TEST(ApplicationMaster, StartsSteady) {
  AmFixture f;
  auto am = f.make_am();
  EXPECT_EQ(am->phase(), AmPhase::kSteady);
  EXPECT_TRUE(am->idle());
  EXPECT_EQ(am->workers().size(), 4u);
}

TEST(ApplicationMaster, ScaleOutAllocatesWorkerIds) {
  AmFixture f;
  auto am = f.make_am();
  const auto specs = am->scale_out({4, 5});
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].worker, 4);
  EXPECT_EQ(specs[1].worker, 5);
  EXPECT_EQ(am->phase(), AmPhase::kWaitingReady);
  EXPECT_FALSE(am->idle());
}

TEST(ApplicationMaster, RejectsConcurrentAdjustments) {
  AmFixture f;
  auto am = f.make_am();
  am->scale_out({4});
  EXPECT_THROW(am->scale_out({5}), InvalidArgument);
  EXPECT_THROW(am->scale_in({0}), InvalidArgument);
}

TEST(ApplicationMaster, ScaleInReadyImmediately) {
  AmFixture f;
  auto am = f.make_am();
  am->scale_in({2, 3});
  EXPECT_EQ(am->phase(), AmPhase::kReady);
}

TEST(ApplicationMaster, ScaleInValidation) {
  AmFixture f;
  auto am = f.make_am(2);
  EXPECT_THROW(am->scale_in({7}), InvalidArgument);       // unknown worker
  EXPECT_THROW(am->scale_in({0, 1}), InvalidArgument);    // cannot remove all
}

TEST(ApplicationMaster, BecomesReadyOnceAllReport) {
  AmFixture f;
  auto am = f.make_am();
  am->scale_out({4, 5});
  AmFixture::FakeWorker w4(f.bus, 4, "job0");
  AmFixture::FakeWorker w5(f.bus, 5, "job0");
  w4.report(4, 4);
  // Bounded drain: a full run() would reach the report-timeout eviction.
  f.sim.run_until(1.0);
  EXPECT_EQ(am->phase(), AmPhase::kWaitingReady);  // one of two reported
  w5.report(5, 5);
  f.sim.run();
  EXPECT_EQ(am->phase(), AmPhase::kReady);
}

TEST(ApplicationMaster, CoordinateBeforeReadyProceeds) {
  // The asynchronous coordination property: while new workers start, the
  // existing workers' coordinations return "no adjustment" and training
  // continues.
  AmFixture f;
  auto am = f.make_am();
  am->scale_out({4});
  AmFixture::FakeWorker w0(f.bus, 0, "job0");
  w0.coordinate(0, 10);
  f.sim.run();
  ASSERT_EQ(w0.decisions.size(), 1u);
  EXPECT_FALSE(w0.decisions[0].adjust);
  EXPECT_EQ(w0.decisions[0].iteration, 10u);
}

TEST(ApplicationMaster, CoordinateAfterReadyInstructsAdjustment) {
  AmFixture f;
  auto am = f.make_am();
  am->scale_out({4});
  AmFixture::FakeWorker w4(f.bus, 4, "job0");
  w4.report(4, 4);
  f.sim.run();
  AmFixture::FakeWorker w0(f.bus, 0, "job0");
  w0.coordinate(0, 20);
  f.sim.run();
  ASSERT_EQ(w0.decisions.size(), 1u);
  EXPECT_TRUE(w0.decisions[0].adjust);
  EXPECT_EQ(w0.decisions[0].plan.type, AdjustmentType::kScaleOut);
  ASSERT_EQ(w0.decisions[0].plan.join.size(), 1u);
  EXPECT_EQ(w0.decisions[0].plan.join.begin()->first, 4);
  EXPECT_EQ(am->phase(), AmPhase::kAdjusting);
}

TEST(ApplicationMaster, CompletionUpdatesMembership) {
  AmFixture f;
  auto am = f.make_am();
  am->scale_out({4});
  AmFixture::FakeWorker w4(f.bus, 4, "job0");
  w4.report(4, 4);
  f.sim.run();
  AmFixture::FakeWorker w0(f.bus, 0, "job0");
  w0.coordinate(0, 20);
  f.sim.run();
  am->on_adjustment_complete();
  EXPECT_EQ(am->phase(), AmPhase::kSteady);
  EXPECT_EQ(am->workers().size(), 5u);
  EXPECT_TRUE(am->workers().count(4));
}

TEST(ApplicationMaster, MigrationJoinsAndLeaves) {
  AmFixture f;
  auto am = f.make_am();
  const auto specs = am->migrate({0, 1}, {8, 9});
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(am->plan().type, AdjustmentType::kMigrate);
  EXPECT_EQ(am->plan().leave, (std::vector<int>{0, 1}));
  AmFixture::FakeWorker w4(f.bus, specs[0].worker, "job0");
  AmFixture::FakeWorker w5(f.bus, specs[1].worker, "job0");
  w4.report(specs[0].worker, 8);
  w5.report(specs[1].worker, 9);
  f.sim.run();
  EXPECT_EQ(am->phase(), AmPhase::kReady);
}

// ---------------------------------------------------------------------------
// Fault tolerance (§V-D)
// ---------------------------------------------------------------------------

TEST(ApplicationMaster, RecoversFromKvStore) {
  AmFixture f;
  auto am = f.make_am();
  am->scale_out({4, 5});
  AmFixture::FakeWorker w4(f.bus, 4, "job0");
  w4.report(4, 4);
  f.sim.run_until(1.0);  // bounded: stay short of the report-timeout eviction

  // Crash the AM mid-adjustment (one report received, one pending).
  am->crash();
  am.reset();

  auto recovered = ApplicationMaster::recover(f.bus, f.kv, "job0");
  EXPECT_EQ(recovered->phase(), AmPhase::kWaitingReady);
  EXPECT_EQ(recovered->workers().size(), 4u);
  EXPECT_EQ(recovered->plan().join.size(), 2u);

  // The missing report still completes the plan after recovery.
  AmFixture::FakeWorker w5(f.bus, 5, "job0");
  w5.report(5, 5);
  f.sim.run();
  EXPECT_EQ(recovered->phase(), AmPhase::kReady);
}

TEST(ApplicationMaster, ReportResentWhileAmDown) {
  // A worker reports while the AM is down; the reliable endpoint retries
  // until the recovered AM picks it up.
  AmFixture f;
  auto am = f.make_am();
  am->scale_out({4});
  am->crash();

  AmFixture::FakeWorker w4(f.bus, 4, "job0");
  w4.report(4, 4);
  f.sim.run_until(0.2);  // retries happening, no AM

  auto recovered = ApplicationMaster::recover(f.bus, f.kv, "job0");
  f.sim.run();
  EXPECT_EQ(recovered->phase(), AmPhase::kReady);
}

TEST(ApplicationMaster, DuplicateReportsAreHarmless) {
  AmFixture f;
  auto am = f.make_am();
  am->scale_out({4});
  AmFixture::FakeWorker w4(f.bus, 4, "job0");
  w4.report(4, 4);
  w4.report(4, 4);  // duplicate (distinct message id, same content)
  f.sim.run();
  EXPECT_EQ(am->phase(), AmPhase::kReady);
  am = nullptr;
}

TEST(ApplicationMaster, RecoverWithoutStateThrows) {
  AmFixture f;
  EXPECT_THROW(ApplicationMaster::recover(f.bus, f.kv, "nonexistent"), NotFound);
}

TEST(ApplicationMaster, AdjustRequestRpcRoundTrip) {
  // The Table III service call as a wire message: request in, launch specs
  // out; a concurrent request gets a clean error reply.
  AmFixture f;
  auto am = f.make_am();
  std::vector<AdjustReplyMsg> replies;
  transport::ReliableEndpoint sched(f.bus, "sched/test", [&](const transport::Message& m) {
    if (m.type == AdjustReplyMsg::kWireType) {
      replies.push_back(wire::decode<AdjustReplyMsg>(m.payload));
    }
  });

  AdjustRequestMsg req;
  req.request_id = 42;
  req.type = AdjustmentType::kScaleOut;
  req.gpus = {4, 5};
  send_message(sched, "am/job0", req);
  // Send the second request strictly after the first has been processed
  // (messages between one pair are not ordered; the bus models jitter).
  f.sim.schedule(0.5, [&] {
    AdjustRequestMsg second;
    second.request_id = 43;
    second.type = AdjustmentType::kScaleIn;
    second.victims = {0};
    send_message(sched, "am/job0", second);
  });
  // Bounded drain: the launched workers never report in this test, so a full
  // run() would hit the report-timeout eviction and leave kWaitingReady.
  f.sim.run_until(2.0);

  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].request_id, 42u);
  EXPECT_TRUE(replies[0].ok);
  ASSERT_EQ(replies[0].launch.size(), 2u);
  EXPECT_EQ(replies[0].launch[0].second, 4);
  EXPECT_EQ(replies[1].request_id, 43u);
  EXPECT_FALSE(replies[1].ok);
  EXPECT_NE(replies[1].error.find("pending"), std::string::npos);
  EXPECT_EQ(am->phase(), AmPhase::kWaitingReady);
}

TEST(ApplicationMaster, PersistsEveryTransition) {
  AmFixture f;
  auto am = f.make_am();
  const auto puts_before = f.kv.puts();
  am->scale_out({4});
  EXPECT_GT(f.kv.puts(), puts_before);
}

}  // namespace
}  // namespace elan
