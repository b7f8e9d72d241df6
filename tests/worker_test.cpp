// Tests of the worker process lifecycle and its hook surface.
#include <gtest/gtest.h>

#include "elan/worker.h"

namespace elan {
namespace {

struct WorkerFixture {
  sim::Simulator sim;
  topo::BandwidthModel bandwidth;
  transport::MessageBus bus{sim, bandwidth};

  std::unique_ptr<WorkerProcess> make_worker(int id, bool running,
                                             WorkerParams params = {}) {
    return std::make_unique<WorkerProcess>(bus, "job0", id, id, train::resnet50(),
                                           train::EngineKind::kDynamicGraph, params,
                                           Rng(7 + static_cast<std::uint64_t>(id)),
                                           running);
  }
};

TEST(Worker, InitialWorkersStartTraining) {
  WorkerFixture f;
  auto w = f.make_worker(0, true);
  EXPECT_EQ(w->state(), WorkerState::kTraining);
  EXPECT_EQ(w->endpoint_name(), "w0/job0");
}

TEST(Worker, LaunchSequenceTakesStartPlusInit) {
  WorkerFixture f;
  auto w = f.make_worker(1, false);
  EXPECT_EQ(w->state(), WorkerState::kLaunching);
  bool ready = false;
  double ready_at = 0;
  w->launch([&] {
    ready = true;
    ready_at = f.sim.now();
  });
  f.sim.run();
  EXPECT_TRUE(ready);
  EXPECT_EQ(w->state(), WorkerState::kReady);
  EXPECT_DOUBLE_EQ(ready_at, w->measured_start_time() + w->measured_init_time());
  // Start ~12s (truncated normal), init = engine init.
  EXPECT_GT(w->measured_start_time(), 6.0);
  EXPECT_LT(w->measured_start_time(), 24.0);
  EXPECT_DOUBLE_EQ(w->measured_init_time(),
                   train::DynamicGraphEngine(train::resnet50()).initialization_time());
}

TEST(Worker, LaunchTwiceRejected) {
  WorkerFixture f;
  auto w = f.make_worker(1, false);
  w->launch();
  f.sim.run();
  EXPECT_THROW(w->launch(), InvalidArgument);
}

// shutdown() mid-launch cancels the launch sequence: neither the start nor
// the init delay may bring a stopped worker back as Ready, and a stopped
// worker reports nothing (its endpoint is dead, so a report would throw out
// of the simulator).
TEST(Worker, ShutdownDuringLaunchStaysStopped) {
  WorkerFixture f;
  std::vector<transport::Message> am_inbox;
  transport::ReliableEndpoint am(f.bus, "am/job0",
                                 [&](const transport::Message& m) { am_inbox.push_back(m); });
  int ready = 0;
  auto starting = f.make_worker(1, false);
  auto initializing = f.make_worker(2, false);
  starting->launch([&] { ++ready; });
  initializing->launch([&] { ++ready; });
  f.sim.run_until(1.0);
  starting->shutdown();
  f.sim.run_until(initializing->measured_start_time() + 0.01);
  ASSERT_EQ(initializing->state(), WorkerState::kInitializing);
  initializing->shutdown();
  EXPECT_NO_THROW(f.sim.run());
  EXPECT_EQ(starting->state(), WorkerState::kStopped);
  EXPECT_EQ(initializing->state(), WorkerState::kStopped);
  EXPECT_EQ(ready, 0);
  EXPECT_TRUE(am_inbox.empty());
}

TEST(Worker, ReportsToAmOnReady) {
  WorkerFixture f;
  std::vector<transport::Message> am_inbox;
  transport::ReliableEndpoint am(f.bus, "am/job0",
                                 [&](const transport::Message& m) { am_inbox.push_back(m); });
  auto w = f.make_worker(2, false);
  w->launch();
  f.sim.run();
  ASSERT_EQ(am_inbox.size(), 1u);
  EXPECT_EQ(am_inbox[0].type, "report");
  const auto report = wire::decode<ReportMsg>(am_inbox[0].payload);
  EXPECT_EQ(report.worker, 2);
  EXPECT_EQ(report.gpu, 2);
}

TEST(Worker, BuiltinHooksCoverGpuAndCpuState) {
  WorkerFixture f;
  auto w = f.make_worker(0, true);
  EXPECT_TRUE(w->hooks().has_hook("model"));
  EXPECT_TRUE(w->hooks().has_hook("optimizer"));
  EXPECT_TRUE(w->hooks().has_hook("runtime"));
  EXPECT_EQ(w->gpu_state_bytes(), train::resnet50().gpu_state_bytes());
  EXPECT_GT(w->cpu_state_bytes(), 0u);
}

TEST(Worker, StateRoundTripsThroughHooks) {
  WorkerFixture f;
  auto a = f.make_worker(0, true);
  auto b = f.make_worker(1, true);
  for (std::uint64_t i = 0; i < 5; ++i) a->engine().run_iteration(i);
  EXPECT_NE(a->state_checksum(), b->state_checksum());
  b->hooks().load_all(a->hooks().save_all());
  EXPECT_EQ(a->state_checksum(), b->state_checksum());
  EXPECT_EQ(b->engine().iteration(), 5u);
}

TEST(Worker, CoordinateGetsDecision) {
  WorkerFixture f;
  transport::ReliableEndpoint am(f.bus, "am/job0", [&](const transport::Message& m) {
    if (m.type != "coordinate") return;
    DecisionMsg d;
    d.adjust = false;
    d.iteration = wire::decode<CoordinateMsg>(m.payload).iteration;
    send_message(am, m.from, d);
  });
  auto w = f.make_worker(0, true);
  bool got = false;
  w->coordinate(17, [&](const DecisionMsg& d) {
    got = true;
    EXPECT_FALSE(d.adjust);
    EXPECT_EQ(d.iteration, 17u);
  });
  f.sim.run();
  EXPECT_TRUE(got);
}

TEST(Worker, DoubleCoordinateRejected) {
  WorkerFixture f;
  auto w = f.make_worker(0, true);
  w->coordinate(1, [](const DecisionMsg&) {});
  EXPECT_THROW(w->coordinate(2, [](const DecisionMsg&) {}), InvalidArgument);
}

TEST(Worker, ShutdownStopsParticipation) {
  WorkerFixture f;
  auto w = f.make_worker(0, true);
  w->shutdown();
  EXPECT_EQ(w->state(), WorkerState::kStopped);
  EXPECT_THROW(w->coordinate(1, [](const DecisionMsg&) {}), InvalidArgument);
}

TEST(Worker, SetTrainingRequiresReady) {
  WorkerFixture f;
  auto w = f.make_worker(0, false);
  EXPECT_THROW(w->set_training(), InvalidArgument);  // still launching
  w->launch();
  f.sim.run();
  w->set_training();
  EXPECT_EQ(w->state(), WorkerState::kTraining);
}

TEST(Worker, StateNames) {
  EXPECT_STREQ(to_string(WorkerState::kLaunching), "launching");
  EXPECT_STREQ(to_string(WorkerState::kStopped), "stopped");
}

}  // namespace
}  // namespace elan
