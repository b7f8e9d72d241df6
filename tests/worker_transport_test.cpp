// A worker whose every timer and handler runs on its transport, on both
// backends (sim bus and unix sockets). Over sockets that is the IO thread,
// exactly as in a live elan_worker: a running worker coordinates on a
// schedule_after loop, a joiner announces itself with report_ready(), and
// the AM takes the job through a scale-out to steady state. The test thread
// observes only through the AM's locked accessors, so a ThreadSanitizer
// build (the tsan_transport_stress ctest) checks the worker's timers and
// handlers sharing the socket IO thread with the AM.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>

#include "common/log.h"
#include "elan/master.h"
#include "elan/worker.h"
#include "train/models.h"
#include "transport/kv_store.h"
#include "transport_backends.h"

namespace elan {
namespace {

template <typename Backend>
class WorkerOnTransport : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!Backend::available()) GTEST_SKIP() << "sockets unavailable in this sandbox";
    prev_ = Logger::level();
    Logger::set_level(LogLevel::kOff);
  }
  void TearDown() override { Logger::set_level(prev_); }

 private:
  LogLevel prev_{};
};

TYPED_TEST_SUITE(WorkerOnTransport, transport::testing::Backends,
                 transport::testing::BackendNames);

TYPED_TEST(WorkerOnTransport, ScaleOutReachesSteadyState) {
  auto ctx = TypeParam::make();
  transport::RawTransport& bus = ctx->transport();
  sim::Simulator kv_clock;  // KvStore's constructor takes one; the AM's puts schedule nothing
  transport::KvStore kv(kv_clock);
  ApplicationMaster am(bus, kv, "job0", {{0, 0}});

  WorkerParams params;
  params.decision_timeout = 0.1;
  WorkerProcess running(bus, "job0", 0, 0, train::mobilenet_v2_cifar(),
                        train::EngineKind::kDynamicGraph, params, Rng(1), true);
  WorkerProcess joiner(bus, "job0", 1, 1, train::mobilenet_v2_cifar(),
                       train::EngineKind::kDynamicGraph, params, Rng(2), false);

  // The running worker's coordination loop, as elan_worker runs it. From
  // here on both workers are touched only from the transport's callbacks.
  std::uint64_t iteration = 0;
  std::function<void()> tick = [&] {
    if (!running.has_pending_decision()) {
      running.coordinate(++iteration, [](const DecisionMsg&) {});
    }
    bus.schedule_after(milliseconds(20.0), tick);
  };
  // However the test ends, no callback runs once the locals above go.
  struct StopBackend {
    transport::testing::BackendContext& ctx;
    ~StopBackend() { ctx.shutdown(); }
  } stop_backend{*ctx};
  bus.schedule_after(0.0, tick);
  ASSERT_TRUE(ctx->wait_until([&] { return am.coordinations() >= 2; }));

  const auto launch = am.scale_out({1});
  ASSERT_EQ(launch.size(), 1u);
  EXPECT_EQ(launch[0].worker, 1);
  bus.schedule_after(0.0, [&] { joiner.report_ready(); });
  // The next coordination after the report carries the plan.
  ASSERT_TRUE(ctx->wait_until([&] { return am.phase() == AmPhase::kAdjusting; }));
  EXPECT_EQ(am.reports_received(), 1u);
  EXPECT_EQ(am.plan().join.count(1), 1u);

  am.on_adjustment_complete();
  ASSERT_TRUE(ctx->wait_until(
      [&] { return am.phase() == AmPhase::kSteady && am.workers().size() == 2; }));
  const std::uint64_t steady = am.coordinations();
  ASSERT_TRUE(ctx->wait_until([&] { return am.coordinations() >= steady + 2; }))
      << "coordination stopped after the adjustment";
  EXPECT_EQ(am.phase(), AmPhase::kSteady);
  EXPECT_EQ(am.evictions(), 0u);
}

}  // namespace
}  // namespace elan
