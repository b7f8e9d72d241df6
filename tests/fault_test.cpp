// Chaos harness tests: the seeded fault-injection sweep (ISSUE acceptance:
// >= 200 fixed-seed plans deterministic across two consecutive runs) plus
// scripted single-fault scenarios exercising each FaultKind end to end.
#include <gtest/gtest.h>

#include "common/log.h"
#include "common/thread_pool.h"
#include "fault/chaos.h"
#include "fault/fault.h"
#include "obs/obs.h"
#include "sim/simulator.h"
#include "storage/filesystem.h"
#include "temp_path.h"
#include "train/models.h"

namespace elan::fault {
namespace {

// Chaos runs log expected warnings (rejected adjustments, injected
// failures); silence them so a 400-run sweep doesn't drown the test output.
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prev_ = Logger::level();
    Logger::set_level(LogLevel::kOff);
  }
  void TearDown() override { Logger::set_level(prev_); }

 private:
  LogLevel prev_{};
};

TEST_F(FaultTest, SamplePlanIsSeedDeterministic) {
  for (std::uint64_t seed : {1ULL, 42ULL, 124ULL, 0xdeadbeefULL}) {
    const auto a = ChaosRunner::sample_plan(seed);
    const auto b = ChaosRunner::sample_plan(seed);
    EXPECT_EQ(a.describe(), b.describe()) << "seed " << seed;
  }
  EXPECT_NE(ChaosRunner::sample_plan(1).describe(), ChaosRunner::sample_plan(2).describe());
}

// The combined outcome_digest of plans 1-200: per-plan digests folded with
// FNV-1a in seed order. It pins what the runs do (iterations, workers,
// adjustments, failures, evictions, epochs, samples, end times) but not the
// replica bytes, so a new optimizer keystream moves every fingerprint and
// leaves this alone. A change that moves it changes behaviour.
constexpr std::uint64_t kSweepOutcomeDigest = 0x762f863d8a6e9cf7ULL;

// Sizes the global pool for one test and restores the previous size.
class ScopedGlobalThreads {
 public:
  explicit ScopedGlobalThreads(int threads) : prev_(ThreadPool::global().size()) {
    ThreadPool::set_global_threads(threads);
  }
  ~ScopedGlobalThreads() { ThreadPool::set_global_threads(prev_); }

  ScopedGlobalThreads(const ScopedGlobalThreads&) = delete;
  ScopedGlobalThreads& operator=(const ScopedGlobalThreads&) = delete;

 private:
  int prev_;
};

// The acceptance sweep: 200 consecutive seeds, every plan passes its
// invariants, the outcomes match the pinned digest, and a second full run of
// the same plans — a parallel sweep on four pool threads — reproduces every
// fingerprint bit for bit.
TEST_F(FaultTest, TwoHundredPlanSweepPassesTwiceDeterministically) {
  constexpr int kPlans = 200;
  constexpr std::uint64_t kBase = 1;
  std::vector<std::uint64_t> fingerprints;
  fingerprints.reserve(kPlans);
  std::uint64_t outcomes = 0xcbf29ce484222325ULL;
  for (int i = 0; i < kPlans; ++i) {
    const auto plan = ChaosRunner::sample_plan(kBase + static_cast<std::uint64_t>(i));
    const auto result = ChaosRunner::run_plan(plan);
    ASSERT_TRUE(result.ok()) << plan.describe() << "\n" << result.describe();
    fingerprints.push_back(result.fingerprint);
    outcomes = (outcomes ^ result.outcome_digest) * 0x100000001b3ULL;
  }
  EXPECT_EQ(outcomes, kSweepOutcomeDigest) << "the sweep's outcomes changed";
  {
    const ScopedGlobalThreads pool(4);
    const auto results = ChaosRunner::sweep(kBase, kPlans);
    ASSERT_EQ(results.size(), static_cast<std::size_t>(kPlans));
    std::uint64_t parallel_outcomes = 0xcbf29ce484222325ULL;
    for (int i = 0; i < kPlans; ++i) {
      const auto& result = results[static_cast<std::size_t>(i)];
      const std::uint64_t seed = kBase + static_cast<std::uint64_t>(i);
      ASSERT_EQ(result.seed, seed);
      ASSERT_TRUE(result.ok()) << result.describe();
      ASSERT_EQ(fingerprints[static_cast<std::size_t>(i)], result.fingerprint)
          << "seed " << seed << " differs between the serial and the parallel sweep";
      parallel_outcomes = (parallel_outcomes ^ result.outcome_digest) * 0x100000001b3ULL;
    }
    EXPECT_EQ(parallel_outcomes, kSweepOutcomeDigest)
        << "the parallel sweep's outcomes changed";
  }
}

// A short parallel sweep (also the ThreadSanitizer case for concurrent
// plans): four pool threads, results in plan order, each equal to the plan
// run alone on this thread.
TEST_F(FaultTest, ParallelSweepMatchesSerialRuns) {
  constexpr int kPlans = 16;
  constexpr std::uint64_t kBase = 101;
  std::vector<ChaosResult> results;
  {
    const ScopedGlobalThreads pool(4);
    results = ChaosRunner::sweep(kBase, kPlans);
  }
  ASSERT_EQ(results.size(), static_cast<std::size_t>(kPlans));
  for (int i = 0; i < kPlans; ++i) {
    const auto& result = results[static_cast<std::size_t>(i)];
    const auto serial = ChaosRunner::run_seed(kBase + static_cast<std::uint64_t>(i));
    EXPECT_EQ(result.seed, serial.seed);
    EXPECT_EQ(result.fingerprint, serial.fingerprint) << "seed " << serial.seed;
    EXPECT_EQ(result.failures, serial.failures) << "seed " << serial.seed;
  }
  EXPECT_TRUE(ChaosRunner::sweep(kBase, 0).empty());
}

// --- ConsumptionLedger: one case per exactly-once failure -------------------

data::SampleRange range(std::uint64_t begin, std::uint64_t end) { return {begin, end}; }

TEST(ConsumptionLedger, CompleteDisjointEpochsPass) {
  ConsumptionLedger ledger(256);
  ledger.record(0, range(0, 100));
  ledger.record(0, range(100, 256));
  ledger.record(1, range(0, 0));  // empty ranges are ignored
  ledger.record(1, range(0, 70));
  EXPECT_TRUE(ledger.failures(/*final_epoch=*/1, /*serial=*/true).empty());
}

TEST(ConsumptionLedger, SampleConsumedTwice) {
  ConsumptionLedger ledger(256);
  ledger.record(0, range(0, 130));
  ledger.record(0, range(129, 256));  // sample 129 again
  EXPECT_EQ(ledger.failures(1, false),
            (std::vector<std::string>{"epoch 0: sample consumed twice",
                                      "epoch 0: consumed 257/256 samples (skip or repeat)"}));
}

TEST(ConsumptionLedger, SkippedSampleInACompletedEpoch) {
  ConsumptionLedger ledger(256);
  ledger.record(3, range(0, 64));
  ledger.record(3, range(65, 256));  // sample 64 never consumed
  ledger.record(4, range(0, 10));    // the open epoch may be partial
  EXPECT_EQ(ledger.failures(4, false),
            (std::vector<std::string>{"epoch 3: consumed 255/256 samples (skip or repeat)"}));
}

TEST(ConsumptionLedger, SerialEpochThatIsNotAPrefix) {
  ConsumptionLedger ledger(256);
  ledger.record(0, range(0, 32));
  ledger.record(0, range(64, 96));
  EXPECT_EQ(ledger.failures(0, true),
            (std::vector<std::string>{"epoch 0: serial consumption not contiguous"}));
  EXPECT_TRUE(ledger.failures(0, false).empty());  // chunk semantics may leave gaps
}

TEST(ConsumptionLedger, SamplePastTheDataset) {
  ConsumptionLedger ledger(256);
  ledger.record(2, range(200, 300));
  EXPECT_EQ(ledger.failures(2, false),
            (std::vector<std::string>{
                "epoch 2: consumed samples up to 300 of a 256-sample dataset (out of range)"}));
}

// §V-C serial semantics under a crash-interrupted scale-out: a worker is
// killed while the scale-out is in flight, and the AM dies on entering
// WaitingReady (losing the accept reply) and again on entering Adjusting
// (losing an instruct decision). Every completed epoch must still consume
// each sample exactly once, contiguously.
TEST_F(FaultTest, SerialExactlyOnceUnderCrashInterruptedScaleOut) {
  ChaosPlan plan;
  plan.initial_workers = 3;
  plan.semantics = DataSemantics::kSerial;
  plan.mechanism = Mechanism::kElan;
  plan.drop_probability = 0.05;
  plan.target_iterations = 100000;  // the 20s horizon ends the run
  plan.actions.push_back({2.0, AdjustmentType::kScaleOut, 2});

  FaultEvent crash_waiting;
  crash_waiting.kind = FaultKind::kCrashMaster;
  crash_waiting.phase = static_cast<int>(AmPhase::kWaitingReady);
  crash_waiting.duration = 1.0;
  plan.faults.events.push_back(crash_waiting);

  FaultEvent crash_adjusting;
  crash_adjusting.kind = FaultKind::kCrashMaster;
  crash_adjusting.phase = static_cast<int>(AmPhase::kAdjusting);
  crash_adjusting.duration = 0.7;
  plan.faults.events.push_back(crash_adjusting);

  FaultEvent kill;
  kill.kind = FaultKind::kKillWorker;
  kill.at = 2.5;  // while the scale-out is in flight
  plan.faults.events.push_back(kill);

  const auto result = ChaosRunner::run_plan(plan);
  EXPECT_TRUE(result.ok()) << plan.describe() << "\n" << result.describe();
  EXPECT_EQ(result.master_crashes, 2);
  EXPECT_EQ(result.kills, 1);
  EXPECT_GE(result.adjustments_completed, 1);
  EXPECT_GT(result.iterations, 0u);
}

// Chunk semantics under the same interruption pattern: no sample repeats
// within an epoch even though chunk hand-off is coarser.
TEST_F(FaultTest, ChunkExactlyOnceUnderCrashInterruptedScaleOut) {
  ChaosPlan plan;
  plan.initial_workers = 3;
  plan.semantics = DataSemantics::kChunk;
  plan.mechanism = Mechanism::kElan;
  plan.drop_probability = 0.05;
  plan.target_iterations = 100000;
  plan.actions.push_back({2.0, AdjustmentType::kScaleOut, 2});
  FaultEvent crash;
  crash.kind = FaultKind::kCrashMaster;
  crash.phase = static_cast<int>(AmPhase::kWaitingReady);
  crash.duration = 1.0;
  plan.faults.events.push_back(crash);

  const auto result = ChaosRunner::run_plan(plan);
  EXPECT_TRUE(result.ok()) << plan.describe() << "\n" << result.describe();
  EXPECT_EQ(result.master_crashes, 1);
}

// A full partition of the AM for a bounded window: the reliable endpoints'
// backoff must ride it out and the workload must complete afterwards.
TEST_F(FaultTest, AmPartitionWindowHealsAndAdjustmentCompletes) {
  ChaosPlan plan;
  plan.initial_workers = 3;
  plan.target_iterations = 100000;
  plan.actions.push_back({3.5, AdjustmentType::kScaleOut, 1});
  FaultEvent part;
  part.kind = FaultKind::kDropLink;
  part.at = 3.0;
  part.duration = 1.5;
  part.endpoint_a = "am/";
  plan.faults.events.push_back(part);

  const auto result = ChaosRunner::run_plan(plan);
  EXPECT_TRUE(result.ok()) << plan.describe() << "\n" << result.describe();
  EXPECT_GE(result.adjustments_completed, 1);
}

// A slowed link delays but must not break an adjustment.
TEST_F(FaultTest, SlowLinkOnlyDelaysAdjustment) {
  ChaosPlan plan;
  plan.initial_workers = 3;
  plan.target_iterations = 100000;
  plan.actions.push_back({2.0, AdjustmentType::kScaleOut, 1});
  FaultEvent slow;
  slow.kind = FaultKind::kSlowLink;
  slow.at = 1.5;
  slow.duration = 4.0;
  slow.factor = 8.0;
  plan.faults.events.push_back(slow);

  const auto result = ChaosRunner::run_plan(plan);
  EXPECT_TRUE(result.ok()) << plan.describe() << "\n" << result.describe();
  EXPECT_GE(result.adjustments_completed, 1);
}

// A link window is armed with the plan, not fired: its flight event is one
// fault.armed carrying the window's bounds in ms, and no fault.injected.
TEST_F(FaultTest, ArmingADropWindowRecordsOneFaultArmedEvent) {
  sim::Simulator sim;
  obs::RunScope run(sim);
  topo::Topology topology{topo::TopologySpec{}};
  topo::BandwidthModel bandwidth;
  storage::SimFilesystem fs;
  transport::MessageBus bus{sim, bandwidth};
  transport::KvStore kv{sim};
  JobConfig config;
  config.model = train::mobilenet_v2_cifar();
  config.initial_workers = 2;
  ElasticJob job(sim, topology, bandwidth, fs, bus, kv, std::move(config));
  FaultInjector injector(sim, bus, job);
  FaultPlan plan;
  FaultEvent window;
  window.kind = FaultKind::kDropLink;
  window.at = 1.5;
  window.duration = 2.25;
  window.endpoint_a = "am/";
  plan.events.push_back(window);

  obs::FlightRecorder::set_enabled(true);
  injector.arm(plan);
  const std::string path = temp_path("fault_armed.flt");
  const bool dumped = obs::FlightRecorder::instance().dump(path);
  obs::FlightRecorder::set_enabled(false);
  ASSERT_TRUE(dumped);

  std::vector<obs::FlightEvent> armed;
  int injected = 0;
  for (const auto& e : obs::read_flight_record(path).merged()) {
    const auto kind = static_cast<obs::FlightEventKind>(e.kind);
    if (kind == obs::FlightEventKind::kFaultArmed) armed.push_back(e);
    if (kind == obs::FlightEventKind::kFaultInjected) ++injected;
  }
  EXPECT_EQ(injected, 0);
  ASSERT_EQ(armed.size(), 1u);
  EXPECT_STREQ(armed[0].actor, "fault");
  EXPECT_STREQ(armed[0].detail, "drop_link");
  EXPECT_EQ(armed[0].a, 1500u);  // window bounds in ms
  EXPECT_EQ(armed[0].b, 3750u);
}

// A joiner that finishes starting but never reports must be evicted by the
// AM's report timeout; the adjustment degrades instead of wedging.
TEST_F(FaultTest, SuppressedReportLeadsToEvictionNotWedge) {
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

// Shutdown-and-restart mechanism under a worker kill: the S&R path shares
// the invariant checker with Elan.
TEST_F(FaultTest, ShutdownRestartSurvivesWorkerKill) {
  ChaosPlan plan;
  plan.initial_workers = 3;
  plan.mechanism = Mechanism::kShutdownRestart;
  plan.target_iterations = 100000;
  plan.actions.push_back({3.0, AdjustmentType::kScaleOut, 1});
  FaultEvent kill;
  kill.kind = FaultKind::kKillWorker;
  kill.at = 1.5;
  plan.faults.events.push_back(kill);

  const auto result = ChaosRunner::run_plan(plan);
  EXPECT_TRUE(result.ok()) << plan.describe() << "\n" << result.describe();
  EXPECT_EQ(result.kills, 1);
  EXPECT_GE(result.worker_failures, 1);
}

}  // namespace
}  // namespace elan::fault
