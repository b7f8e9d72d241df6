// Regression pins for bugs found by the chaos sweep (tools/elan_chaos).
// Every test here failed against the pre-hardening runtime and must keep
// failing if its fix is reverted:
//
//   R1  adjust reply lost in an AM crash -> request stuck in flight forever
//       (fix: job-side re-send timer + idempotent AM reply cache)
//   R2  coordination decision lost in an AM crash -> round wedges forever
//       (fix: worker-side decision timeout re-sends the coordinate)
//   R3  stale decision replay consumes a later round's pending slot
//       (fix: iteration-echo matching in WorkerProcess::handle)
//   R4  kill racing an in-flight scale-in removes the last replica -> the
//       old ELAN_CHECK aborted the process, and executing the now-oversized
//       leave set threw out of hybrid scaling ("decide: bad worker counts")
//       (fix: leaving-aware survivor guard + graceful fatal stop + zero-
//       replica plan retirement in perform_adjustment)
//   R5  replication source dies mid-transfer -> destination replicas left
//       inconsistent (fix: re-planning in complete_elan_replication)
//   R6  joiner never reports -> AM waits in WaitingReady forever
//       (fix: report-timeout eviction)
//   R7  a worker's endpoint retransmits a coordinate from a round it has
//       long finished; the AM, ready after the job stopped, answers it by
//       moving to Adjusting and no round ever carries the adjustment out
//       (fix: the AM starts an adjustment only on a coordinate at or above
//       the worker's highest one, which it persists)
//   R8  a joiner killed mid-launch is freed by the job, and its pending
//       start event then writes to the freed worker (ASan: heap-use-after-
//       free) (fix: the worker cancels its launch timer on shutdown and
//       destruction, and an alive token guards the launch callbacks)
//
// The first section re-runs the original failing chaos seeds verbatim; the
// second section reconstructs each bug as a minimal scripted scenario so the
// pins survive changes to the plan sampler.
#include <gtest/gtest.h>

#include "common/log.h"
#include "elan/master.h"
#include "elan/worker.h"
#include "fault/chaos.h"
#include "storage/filesystem.h"
#include "train/models.h"

namespace elan::fault {
namespace {

class FaultRegression : public ::testing::Test {
 protected:
  void SetUp() override {
    prev_ = Logger::level();
    Logger::set_level(LogLevel::kOff);
  }
  void TearDown() override { Logger::set_level(prev_); }

 private:
  LogLevel prev_{};
};

// --- Original failing seeds, pinned verbatim --------------------------------

// R2: seeds 124 and 200 wedged with one decision outstanding after the queue
// drained — the AM had acked a coordinate, crashed, and the decision died
// with its endpoint's retry state.
TEST_F(FaultRegression, Seed124LostDecisionWedge) {
  const auto result = ChaosRunner::run_seed(124);
  EXPECT_TRUE(result.ok()) << result.describe();
}

TEST_F(FaultRegression, Seed200LostDecisionWedge) {
  const auto result = ChaosRunner::run_seed(200);
  EXPECT_TRUE(result.ok()) << result.describe();
}

// R7: seed 2118124287 ended "AM wedged in phase adjusting" — after the job
// stopped at t=20 s, w1 retransmitted coordinate 1277 (attempt 9) from an
// early round, replaced long before by a decision-timeout re-send, and the
// freshly ready AM took it as the signal to adjust.
TEST_F(FaultRegression, Seed2118124287StaleCoordinateWedge) {
  const auto result = ChaosRunner::run_seed(2118124287ULL);
  EXPECT_TRUE(result.ok()) << result.describe();
}

// R1: seeds 73 and 103 finished training but left the scale request in
// flight forever — the AM crashed on entering WaitingReady, destroying the
// accept reply (and its launch specs) before delivery.
TEST_F(FaultRegression, Seed73LostAdjustReply) {
  const auto result = ChaosRunner::run_seed(73);
  EXPECT_TRUE(result.ok()) << result.describe();
}

TEST_F(FaultRegression, Seed103LostAdjustReply) {
  const auto result = ChaosRunner::run_seed(103);
  EXPECT_TRUE(result.ok()) << result.describe();
}

// --- Minimal scripted reconstructions ---------------------------------------

// R1. Crashing the AM exactly on the Steady -> WaitingReady transition loses
// the adjust reply deterministically (the reply is in flight when the AM's
// endpoint — and the reply's retry state — is destroyed). The job must
// re-send the request and the recovered AM must replay its cached verdict,
// so the adjustment still completes and nothing stays in flight.
TEST_F(FaultRegression, AdjustReplyLostInAmCrashIsResentAndReplayed) {
  ChaosPlan plan;
  plan.initial_workers = 3;
  plan.target_iterations = 100000;
  plan.actions.push_back({2.0, AdjustmentType::kScaleOut, 1});
  FaultEvent crash;
  crash.kind = FaultKind::kCrashMaster;
  crash.phase = static_cast<int>(AmPhase::kWaitingReady);
  crash.duration = 1.0;
  plan.faults.events.push_back(crash);

  const auto result = ChaosRunner::run_plan(plan);
  EXPECT_TRUE(result.ok()) << plan.describe() << "\n" << result.describe();
  EXPECT_EQ(result.master_crashes, 1);
  EXPECT_GE(result.adjustments_completed, 1);
}

// R2. Crashing the AM exactly on the Ready -> Adjusting transition loses the
// instruct decision it just sent. The worker's decision timeout must re-send
// the coordinate; the recovered AM (restored into Adjusting) re-instructs.
TEST_F(FaultRegression, DecisionLostInAmCrashIsRecoordinated) {
  ChaosPlan plan;
  plan.initial_workers = 3;
  plan.target_iterations = 100000;
  plan.actions.push_back({2.0, AdjustmentType::kScaleOut, 1});
  FaultEvent crash;
  crash.kind = FaultKind::kCrashMaster;
  crash.phase = static_cast<int>(AmPhase::kAdjusting);
  crash.duration = 0.5;
  plan.faults.events.push_back(crash);

  const auto result = ChaosRunner::run_plan(plan);
  EXPECT_TRUE(result.ok()) << plan.describe() << "\n" << result.describe();
  EXPECT_EQ(result.master_crashes, 1);
  EXPECT_GE(result.adjustments_completed, 1);
}

// R3. A decision whose iteration does not match the pending coordinate is a
// stale replay (a lost-ack coordinate answered late by a recovered AM) and
// must not consume the pending slot: the real decision would then be dropped
// as a duplicate and the round's accounting would come up short.
TEST_F(FaultRegression, StaleDecisionReplayDoesNotConsumePendingRound) {
  sim::Simulator sim;
  topo::BandwidthModel bandwidth;
  transport::MessageBus bus{sim, bandwidth};

  WorkerProcess worker(bus, "j", /*id=*/0, /*gpu=*/0, train::mobilenet_v2_cifar(),
                       train::EngineKind::kDynamicGraph, WorkerParams{}, Rng(1),
                       /*already_running=*/true);

  // A bare endpoint posing as the AM.
  transport::ReliableEndpoint am(bus, "am/j", [](const transport::Message&) {});

  std::vector<std::uint64_t> delivered;
  worker.coordinate(7, [&](const DecisionMsg& d) { delivered.push_back(d.iteration); });

  DecisionMsg stale;
  stale.iteration = 6;
  send_message(am, worker.endpoint_name(), stale);
  sim.run_until(0.5);
  EXPECT_TRUE(delivered.empty()) << "stale decision consumed the pending round";
  EXPECT_TRUE(worker.has_pending_decision());

  DecisionMsg real;
  real.iteration = 7;
  send_message(am, worker.endpoint_name(), real);
  sim.run_until(1.0);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0], 7u);
  EXPECT_FALSE(worker.has_pending_decision());

  worker.shutdown();
  am.shutdown();
  sim.run();
}

// R1 (AM side). Re-sending an adjust request with the same request id must
// replay the cached reply — including the launch specs — instead of
// re-executing the adjustment (which would throw "already in progress" and
// make the job treat an accepted adjustment as rejected).
TEST_F(FaultRegression, DuplicateAdjustRequestReplaysCachedReply) {
  sim::Simulator sim;
  topo::BandwidthModel bandwidth;
  transport::MessageBus bus{sim, bandwidth};
  transport::KvStore kv{sim};
  std::vector<WorkerLaunchSpec> initial{{0, 0}, {1, 1}};
  ApplicationMaster am(bus, kv, "job0", initial);

  std::vector<AdjustReplyMsg> replies;
  transport::ReliableEndpoint sched(bus, "sched/job0", [&](const transport::Message& m) {
    if (m.type == AdjustReplyMsg::kWireType) {
      replies.push_back(wire::decode<AdjustReplyMsg>(m.payload));
    }
  });

  AdjustRequestMsg req;
  req.request_id = 42;
  req.type = AdjustmentType::kScaleOut;
  req.gpus = {2};
  send_message(sched, am.name(), req);
  sim.run_until(0.5);
  ASSERT_EQ(replies.size(), 1u);
  ASSERT_TRUE(replies[0].ok);

  // Same request id again — as the job's re-send timer does when the reply
  // was lost. A fresh transport message, so endpoint dedup does not apply.
  send_message(sched, am.name(), req);
  sim.run_until(1.0);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_TRUE(replies[1].ok) << "duplicate was re-executed instead of replayed: "
                             << replies[1].error;
  EXPECT_EQ(replies[0].launch, replies[1].launch);
  EXPECT_EQ(am.phase(), AmPhase::kWaitingReady) << "adjustment executed twice";

  sched.shutdown();
}

// R1 (crash side). The reply cache must survive AM recovery: a re-sent
// request that reaches the *rebuilt* AM still gets the original verdict.
TEST_F(FaultRegression, ReplyCacheSurvivesAmRecovery) {
  sim::Simulator sim;
  topo::BandwidthModel bandwidth;
  transport::MessageBus bus{sim, bandwidth};
  transport::KvStore kv{sim};
  std::vector<WorkerLaunchSpec> initial{{0, 0}, {1, 1}};
  auto am = std::make_unique<ApplicationMaster>(bus, kv, "job0", initial);

  std::vector<AdjustReplyMsg> replies;
  transport::ReliableEndpoint sched(bus, "sched/job0", [&](const transport::Message& m) {
    if (m.type == AdjustReplyMsg::kWireType) {
      replies.push_back(wire::decode<AdjustReplyMsg>(m.payload));
    }
  });

  AdjustRequestMsg req;
  req.request_id = 7;
  req.type = AdjustmentType::kScaleOut;
  req.gpus = {2, 3};
  send_message(sched, am->name(), req);
  sim.run_until(0.5);
  ASSERT_EQ(replies.size(), 1u);
  ASSERT_TRUE(replies[0].ok);

  am->crash();
  am = ApplicationMaster::recover(bus, kv, "job0");

  send_message(sched, am->name(), req);
  sim.run_until(1.0);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_TRUE(replies[1].ok) << replies[1].error;
  EXPECT_EQ(replies[0].launch, replies[1].launch);

  sched.shutdown();
}

// R7. A ready AM must answer a coordinate below the worker's highest one
// without starting the adjustment — also after a crash and recovery — while
// a current coordinate still starts it.
TEST_F(FaultRegression, StaleCoordinateDoesNotStartAdjustment) {
  sim::Simulator sim;
  topo::BandwidthModel bandwidth;
  transport::MessageBus bus{sim, bandwidth};
  transport::KvStore kv{sim};
  std::vector<WorkerLaunchSpec> initial{{0, 0}, {1, 1}};
  auto am = std::make_unique<ApplicationMaster>(bus, kv, "job0", initial);

  // A bare endpoint posing as worker 0 (and as the joiner, for its report).
  std::vector<DecisionMsg> decisions;
  transport::ReliableEndpoint w0(bus, "w0/job0", [&](const transport::Message& m) {
    if (m.type == DecisionMsg::kWireType) decisions.push_back(wire::decode<DecisionMsg>(m.payload));
  });
  transport::ReliableEndpoint sched(bus, "sched/job0", [](const transport::Message&) {});
  const auto coordinate = [&](std::uint64_t iteration, Seconds until) {
    CoordinateMsg msg;
    msg.worker = 0;
    msg.iteration = iteration;
    send_message(w0, am->name(), msg);
    sim.run_until(until);
  };

  coordinate(5, 0.5);  // steady: trains on
  AdjustRequestMsg req;
  req.request_id = 1;
  req.type = AdjustmentType::kScaleOut;
  req.gpus = {2};
  send_message(sched, am->name(), req);
  sim.run_until(1.0);
  ReportMsg report;
  report.worker = 2;
  report.gpu = 2;
  send_message(w0, am->name(), report);
  sim.run_until(1.5);
  ASSERT_EQ(am->phase(), AmPhase::kReady);

  coordinate(3, 2.0);  // retransmission from a finished round
  EXPECT_EQ(am->phase(), AmPhase::kReady) << "stale coordinate started the adjustment";
  am->crash();
  am = ApplicationMaster::recover(bus, kv, "job0");
  coordinate(4, 2.5);
  EXPECT_EQ(am->phase(), AmPhase::kReady) << "recovered AM forgot the worker's round";
  ASSERT_EQ(decisions.size(), 3u);
  EXPECT_FALSE(decisions[1].adjust);
  EXPECT_FALSE(decisions[2].adjust);

  coordinate(6, 3.0);  // the worker's next round
  EXPECT_EQ(am->phase(), AmPhase::kAdjusting);
  ASSERT_EQ(decisions.size(), 4u);
  EXPECT_TRUE(decisions[3].adjust);
  EXPECT_EQ(decisions[3].iteration, 6u);

  w0.shutdown();
  sched.shutdown();
}

// R4. A fault kill passing the "not the last replica" guard can still end up
// removing the last replica when a concurrent scale-in retires everyone
// else before the failure is processed. The runtime must stop cleanly (fatal
// failure) instead of aborting the process on an internal check.
TEST_F(FaultRegression, KillRacingScaleInStopsCleanlyWhenAllReplicasLost) {
  sim::Simulator sim;
  topo::Topology topology{topo::TopologySpec{}};
  topo::BandwidthModel bandwidth;
  storage::SimFilesystem fs;
  transport::MessageBus bus{sim, bandwidth};
  transport::KvStore kv{sim};

  JobConfig config;
  config.model = train::mobilenet_v2_cifar();
  config.initial_workers = 2;
  config.initial_total_batch = 64;
  config.worker_params.start_mean = 1.0;
  config.worker_params.start_stddev = 0.2;
  ElasticJob job(sim, topology, bandwidth, fs, bus, kv, std::move(config));
  job.stop_after_iterations(100000);
  job.start();

  sim.schedule(1.0, [&] {
    // The scale-in is in flight (not yet registered at the AM), so the kill's
    // survivor guard sees worker 1 as a survivor and allows the kill.
    job.request_scale_in({1});
    job.fault_kill_worker(0);
  });
  sim.schedule(20.0, [&] {
    if (job.running()) job.stop();
  });

  // Pre-fix this either aborted the whole process on an ELAN_CHECK
  // ("fail_worker: last worker died") or threw "decide: bad worker counts"
  // out of a sim callback when the leave set retired the last replica. The
  // fixed runtime either stops fatally (every replica gone) or survives with
  // the remaining worker, depending on delivery order — both are clean ends.
  ASSERT_TRUE(sim.run_bounded(2'000'000)) << "run did not drain";
  EXPECT_FALSE(job.running());
  EXPECT_TRUE(job.fatally_failed() || job.num_workers() >= 1);
}

// R8. A joiner killed mid-launch: reconcile_joining frees the dead worker
// long before its modelled start (about 12 s) would have fired. The kill must
// cancel the launch sequence, or the start event writes to freed memory; the
// AM's report timeout then evicts the joiner and aborts the plan.
TEST_F(FaultRegression, JoinerKilledMidLaunchNeverStarts) {
  sim::Simulator sim;
  topo::Topology topology{topo::TopologySpec{}};
  topo::BandwidthModel bandwidth;
  storage::SimFilesystem fs;
  transport::MessageBus bus{sim, bandwidth};
  transport::KvStore kv{sim};

  JobConfig config;
  config.model = train::mobilenet_v2_cifar();
  config.initial_workers = 2;
  config.initial_total_batch = 64;
  ElasticJob job(sim, topology, bandwidth, fs, bus, kv, std::move(config));
  job.stop_after_iterations(1'000'000);
  job.start();

  bool killed = false;
  sim.schedule(1.0, [&] { job.request_scale_out({2}); });
  sim.schedule(2.0, [&] { killed = job.fault_kill_worker(2); });
  sim.schedule(40.0, [&] {
    if (job.running()) job.stop();
  });
  ASSERT_TRUE(sim.run_bounded(2'000'000)) << "run did not drain";
  EXPECT_TRUE(killed) << "worker 2 was not joining at t=2";
  EXPECT_EQ(job.num_workers(), 2);
  EXPECT_EQ(job.master().evictions(), 1u);
  EXPECT_TRUE(job.master().idle());
  EXPECT_TRUE(job.consistent());
}

// R5. An Elan replication source killed mid-transfer: the job must re-plan
// the interrupted copies from surviving replicas, or the destinations end up
// divergent (the consistency invariant catches it).
TEST_F(FaultRegression, ReplicationSourceDeathMidTransferReplans) {
  ChaosPlan plan;
  plan.initial_workers = 3;
  plan.target_iterations = 100000;
  plan.actions.push_back({2.0, AdjustmentType::kScaleOut, 2});
  FaultEvent mid;
  mid.kind = FaultKind::kKillMidReplication;
  mid.at = 0.0;
  mid.frac = 0.5;
  plan.faults.events.push_back(mid);

  const auto result = ChaosRunner::run_plan(plan);
  EXPECT_TRUE(result.ok()) << plan.describe() << "\n" << result.describe();
  EXPECT_EQ(result.kills, 1);
  EXPECT_GE(result.adjustments_completed, 1);
}

// R5 (chunk data plane). A replication source killed mid-chunk-stream: the
// re-plan must resume interrupted destinations from their verified chunk
// prefix — chunks_resumed > 0 — instead of restarting from byte zero, and
// the finished replicas must still pass the full-state checksum.
TEST_F(FaultRegression, MidChunkSourceKillResumesFromVerifiedPrefix) {
  sim::Simulator sim;
  topo::Topology topology{topo::TopologySpec{}};
  topo::BandwidthModel bandwidth;
  storage::SimFilesystem fs;
  transport::MessageBus bus{sim, bandwidth};
  transport::KvStore kv{sim};

  JobConfig config;
  config.model = train::mobilenet_v2_cifar();  // ~28 MiB GPU state: 7 chunks
  config.initial_workers = 2;
  config.initial_total_batch = 64;
  config.worker_params.start_mean = 1.0;
  config.worker_params.start_stddev = 0.2;
  ElasticJob job(sim, topology, bandwidth, fs, bus, kv, std::move(config));
  job.stop_after_iterations(100000);

  FaultInjector injector(sim, bus, job);
  FaultPlan faults;
  FaultEvent mid;
  mid.kind = FaultKind::kKillMidReplication;
  mid.at = 0.0;
  mid.frac = 0.5;  // mid-stream: chunks verified on both sides of the kill
  faults.events.push_back(mid);
  injector.arm(faults);

  sim.schedule(2.0, [&] { job.request_scale_out({2, 3, 4, 5}); });
  sim.schedule(20.0, [&] {
    if (job.running()) job.stop();
  });
  job.start();
  ASSERT_TRUE(sim.run_bounded(5'000'000)) << "run did not drain";

  EXPECT_EQ(injector.kills(), 1);
  ASSERT_GE(job.adjustments().size(), 1u);
  const auto& stats = job.adjustments().front().replication_stats;
  EXPECT_GT(stats.num_chunks, 1u);
  EXPECT_GE(stats.replans, 1u) << "source death did not trigger a re-plan";
  EXPECT_GT(stats.chunks_resumed, 0u)
      << "destinations restarted from byte zero instead of the verified prefix";
  // The interrupted destinations received their suffix without re-copying
  // everything: total applied chunks stay below two full copies per joiner.
  EXPECT_LT(stats.chunks_copied, 2u * 4u * stats.num_chunks);
  EXPECT_TRUE(job.consistent());
}

// R6. A joiner that never reports must be evicted; before the report-timeout
// hardening the AM waited in WaitingReady forever and every later scale
// request was rejected.
TEST_F(FaultRegression, NeverReportingJoinerIsEvicted) {
  ChaosPlan plan;
  plan.initial_workers = 2;
  plan.target_iterations = 100000;
  plan.actions.push_back({1.0, AdjustmentType::kScaleOut, 1});
  FaultEvent hang;
  hang.kind = FaultKind::kSuppressReport;
  hang.at = 0.5;
  plan.faults.events.push_back(hang);

  const auto result = ChaosRunner::run_plan(plan);
  EXPECT_TRUE(result.ok()) << plan.describe() << "\n" << result.describe();
  EXPECT_GE(result.evictions, 1u);
}

}  // namespace
}  // namespace elan::fault
