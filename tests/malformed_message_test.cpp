// Malformed control messages, on both transport backends (sim bus and unix
// sockets): every receiver drops a payload that does not decode and records
// it as one msg.malformed flight event, nothing escapes the simulator or
// the socket IO thread, and the AM keeps serving.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "../tools/live_common.h"
#include "elan/job.h"
#include "elan/master.h"
#include "elan/worker.h"
#include "obs/flight.h"
#include "storage/filesystem.h"
#include "temp_path.h"
#include "transport_backends.h"

namespace elan {
namespace {

using obs::FlightEvent;
using obs::FlightEventKind;
using obs::FlightRecorder;

std::vector<FlightEvent> malformed_events() {
  const std::string path = temp_path("malformed_message.flt");
  EXPECT_TRUE(FlightRecorder::instance().dump(path));
  std::vector<FlightEvent> out;
  for (const FlightEvent& e : obs::read_flight_record(path).merged()) {
    if (e.kind == static_cast<std::uint8_t>(FlightEventKind::kMsgMalformed)) out.push_back(e);
  }
  return out;
}

template <typename Backend>
class MalformedMessage : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!Backend::available()) GTEST_SKIP() << "sockets unavailable in this sandbox";
    FlightRecorder::set_enabled(true);
    FlightRecorder::instance().clear();
  }
  void TearDown() override { FlightRecorder::set_enabled(false); }
};

TYPED_TEST_SUITE(MalformedMessage, transport::testing::Backends,
                 transport::testing::BackendNames);

TYPED_TEST(MalformedMessage, ReceiversDropAndRecordBadPayloads) {
  auto ctx = TypeParam::make();
  transport::RawTransport& bus = ctx->transport();
  sim::Simulator kv_clock;  // KvStore's constructor takes one; the AM's puts schedule nothing
  transport::KvStore kv(kv_clock);
  ApplicationMaster am(bus, kv, "job0", {{0, 0}, {1, 1}});
  WorkerProcess worker(bus, "job0", 0, 0, train::resnet50(), train::EngineKind::kDynamicGraph,
                       WorkerParams{}, Rng(7), true);
  live::ControlClient launcher(bus, "launcher/job0");

  Mutex mu{"malformed_test_inbox"};
  std::vector<transport::Message> inbox;
  transport::ReliableEndpoint peer(bus, "w1/job0", [&](const transport::Message& m) {
    MutexLock lock(mu);
    inbox.push_back(m);
  });
  auto received = [&](std::string_view type) {
    MutexLock lock(mu);
    int n = 0;
    for (const auto& m : inbox) n += m.type == type ? 1 : 0;
    return n;
  };

  std::vector<std::uint8_t> trailing = wire::encode(CoordinateMsg{1, 5});
  trailing.push_back(0);
  std::vector<std::uint8_t> bad_bool = wire::encode(DecisionMsg{});
  bad_bool[0] = 2;  // the adjust flag
  std::vector<std::uint8_t> bad_type = wire::encode(AdjustRequestMsg{1, {}, {2}, {}});
  bad_type[8] = 9;  // the adjustment type, after the u64 request id
  AdjustReplyMsg reply;
  reply.request_id = 1;
  reply.ok = true;
  reply.launch = {{2, 2}};
  std::vector<std::uint8_t> long_count = wire::encode(reply);
  long_count[8 + 1 + 8] = 2;  // two launch entries claimed, one present

  struct Sent {
    transport::MessageId id;
    std::string actor;
    std::string type;
  };
  const std::vector<Sent> sent = {
      {peer.send(am.name(), "coordinate", transport::Payload({1, 2, 3})), am.name(),
       "coordinate"},
      {peer.send(am.name(), "coordinate", trailing), am.name(), "coordinate"},
      {peer.send(worker.endpoint_name(), "decision", bad_bool), worker.endpoint_name(),
       "decision"},
      {peer.send(am.name(), "adjust_request", bad_type), am.name(), "adjust_request"},
      {peer.send(launcher.name(), "adjust_reply", long_count), launcher.name(),
       "adjust_reply"},
  };

  // The AM still answers a well-formed coordinate from the same peer (and,
  // per-connection ordering, has handled the bad ones by then).
  EXPECT_NO_THROW(send_message(peer, am.name(), CoordinateMsg{1, 6}));
  bool answered = false;
  EXPECT_NO_THROW(answered = ctx->wait_until([&] { return received("decision") == 1; }));
  EXPECT_TRUE(answered);
  std::vector<FlightEvent> events;
  ctx->wait_until([&] {
    events = malformed_events();
    return events.size() >= sent.size();
  });
  EXPECT_NO_THROW(ctx->settle());

  ASSERT_EQ(events.size(), sent.size());
  for (const Sent& s : sent) {
    bool found = false;
    for (const FlightEvent& e : events) {
      found = found || (e.a == s.id && e.actor == s.actor && e.detail == s.type);
    }
    EXPECT_TRUE(found) << s.type << " to " << s.actor << " (id " << s.id << ")";
  }
  // The bad adjust_request executed nothing and got no reply, least of all ok=1.
  EXPECT_EQ(received("adjust_reply"), 0);
  EXPECT_EQ(am.phase(), AmPhase::kSteady);
  EXPECT_EQ(am.plan_version(), 0u);
  EXPECT_EQ(am.workers().size(), 2u);
}

// The job's scheduler endpoint drops a malformed adjust_reply and trains on.
TEST(MalformedMessageJob, SchedulerEndpointDropsBadReply) {
  FlightRecorder::set_enabled(true);
  FlightRecorder::instance().clear();
  sim::Simulator sim;
  topo::Topology topology{topo::TopologySpec{}};
  topo::BandwidthModel bandwidth;
  storage::SimFilesystem fs;
  transport::MessageBus bus(sim, bandwidth);
  transport::KvStore kv(sim);
  JobConfig config;
  config.model = train::resnet50();
  config.initial_workers = 2;
  config.initial_total_batch = 64;
  ElasticJob job(sim, topology, bandwidth, fs, bus, kv, config);
  transport::ReliableEndpoint peer(bus, "rogue", [](const transport::Message&) {});
  const auto id = peer.send("sched/job0", "adjust_reply", transport::Payload({1, 2, 3}));
  job.stop_after_iterations(20);
  job.start();
  EXPECT_NO_THROW(sim.run());
  EXPECT_EQ(job.iteration(), 20u);
  const auto events = malformed_events();
  FlightRecorder::set_enabled(false);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].a, id);
  EXPECT_STREQ(events[0].actor, "sched/job0");
  EXPECT_STREQ(events[0].detail, "adjust_reply");
  EXPECT_EQ(events[0].b, 3u);
}

}  // namespace
}  // namespace elan
