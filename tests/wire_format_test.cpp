// Golden byte layouts of every control message and persisted record.
//
// Each case encodes one representative value and compares it with hex
// captured before the wire codec replaced the hand-written encoders, so a
// layout change anywhere (field order, a count's width, a dropped length
// prefix) fails here by name. Decoding the golden bytes must give the value
// back. Only the two entry points below know how a record is encoded.
#include <gtest/gtest.h>

#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "data/sampler.h"
#include "elan/hooks.h"
#include "elan/job.h"
#include "elan/master.h"
#include "elan/messages.h"
#include "storage/filesystem.h"

namespace elan {
namespace {

// --- Encoding entry points ------------------------------------------------

template <typename T>
std::vector<std::uint8_t> wire_bytes(const T& value) {
  return wire::encode(value);
}

template <typename T>
T from_wire(std::span<const std::uint8_t> bytes) {
  return wire::decode<T>(bytes);
}

// ---------------------------------------------------------------------------

std::string hex(std::span<const std::uint8_t> bytes) {
  std::string out;
  char buf[3];
  for (std::uint8_t b : bytes) {
    std::snprintf(buf, sizeof(buf), "%02x", b);
    out += buf;
  }
  return out;
}

std::vector<std::uint8_t> unhex(const std::string& text) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < text.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(std::stoul(text.substr(i, 2), nullptr, 16)));
  }
  return out;
}

AdjustmentPlan two_joiner_plan() {
  AdjustmentPlan p;
  p.version = 2;
  p.type = AdjustmentType::kMigrate;
  p.join = {{4, 12}, {5, 13}};
  p.leave = {0, 1};
  return p;
}

TEST(WireFormat, AdjustmentPlan) {
  const AdjustmentPlan p = two_joiner_plan();
  const std::string golden =
      "0200000000000000020200000000000000040000000c000000050000000d0000"
      "0002000000000000000000000001000000";
  EXPECT_EQ(hex(wire_bytes(p)), golden);
  EXPECT_EQ(from_wire<AdjustmentPlan>(unhex(golden)), p);
}

TEST(WireFormat, Report) {
  const ReportMsg m{7, 42};
  const std::string golden = "070000002a000000";
  EXPECT_EQ(hex(wire_bytes(m)), golden);
  const auto r = from_wire<ReportMsg>(unhex(golden));
  EXPECT_EQ(r.worker, 7);
  EXPECT_EQ(r.gpu, 42);
}

TEST(WireFormat, Coordinate) {
  const CoordinateMsg m{3, 123456789ULL};
  const std::string golden = "0300000015cd5b0700000000";
  EXPECT_EQ(hex(wire_bytes(m)), golden);
  const auto r = from_wire<CoordinateMsg>(unhex(golden));
  EXPECT_EQ(r.worker, 3);
  EXPECT_EQ(r.iteration, 123456789ULL);
}

TEST(WireFormat, DecisionWithTwoJoinerPlan) {
  DecisionMsg m;
  m.adjust = true;
  m.iteration = 77;
  m.plan = two_joiner_plan();
  const std::string golden =
      "014d000000000000003100000000000000020000000000000002020000000000"
      "0000040000000c000000050000000d0000000200000000000000000000000100"
      "0000";
  EXPECT_EQ(hex(wire_bytes(m)), golden);
  const auto r = from_wire<DecisionMsg>(unhex(golden));
  EXPECT_TRUE(r.adjust);
  EXPECT_EQ(r.iteration, 77u);
  EXPECT_EQ(r.plan, m.plan);
}

TEST(WireFormat, AdjustRequest) {
  AdjustRequestMsg m;
  m.request_id = 5;
  m.type = AdjustmentType::kMigrate;
  m.gpus = {10, 11};
  m.victims = {2};
  const std::string golden =
      "05000000000000000202000000000000000a0000000b00000001000000000000"
      "0002000000";
  EXPECT_EQ(hex(wire_bytes(m)), golden);
  const auto r = from_wire<AdjustRequestMsg>(unhex(golden));
  EXPECT_EQ(r.request_id, 5u);
  EXPECT_EQ(r.type, AdjustmentType::kMigrate);
  EXPECT_EQ(r.gpus, m.gpus);
  EXPECT_EQ(r.victims, m.victims);
}

TEST(WireFormat, AdjustReply) {
  AdjustReplyMsg m;
  m.request_id = 6;
  m.ok = true;
  m.error = "late";
  m.launch = {{4, 12}, {5, 13}};
  const std::string golden =
      "06000000000000000104000000000000006c6174650200000000000000040000"
      "000c000000050000000d000000";
  EXPECT_EQ(hex(wire_bytes(m)), golden);
  const auto r = from_wire<AdjustReplyMsg>(unhex(golden));
  EXPECT_EQ(r.request_id, 6u);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.error, "late");
  EXPECT_EQ(r.launch, m.launch);
}

TEST(WireFormat, AdjustComplete) {
  AdjustCompleteMsg m;
  m.plan_version = 9;
  m.failed_joins = {4, 7};
  const std::string golden = "090000000000000002000000000000000400000007000000";
  EXPECT_EQ(hex(wire_bytes(m)), golden);
  const auto r = from_wire<AdjustCompleteMsg>(unhex(golden));
  EXPECT_EQ(r.plan_version, 9u);
  EXPECT_EQ(r.failed_joins, m.failed_joins);
}

TEST(WireFormat, RemoveFailed) {
  RemoveFailedMsg m;
  m.worker = 3;
  const std::string golden = "03000000";
  EXPECT_EQ(hex(wire_bytes(m)), golden);
  EXPECT_EQ(from_wire<RemoveFailedMsg>(unhex(golden)).worker, 3);
}

TEST(WireFormat, StatusRequest) {
  StatusRequestMsg m;
  m.request_id = 123;
  const std::string golden = "7b00000000000000";
  EXPECT_EQ(hex(wire_bytes(m)), golden);
  EXPECT_EQ(from_wire<StatusRequestMsg>(unhex(golden)).request_id, 123u);
}

constexpr const char* kStatusReplyGolden =
    "0500000000000000030b00000000000000020000000000000000000000000000"
    "00010000000400000001000000000000002a0000000000000006000000000000"
    "00";

TEST(WireFormat, StatusReply) {
  StatusReplyMsg m;
  m.request_id = 5;
  m.phase = AmPhase::kAdjusting;
  m.plan_version = 11;
  m.workers = {{0, 0}, {1, 4}};
  m.evictions = 1;
  m.coordinations = 42;
  m.reports = 6;
  const std::string golden = kStatusReplyGolden;
  EXPECT_EQ(hex(wire_bytes(m)), golden);
  const auto r = from_wire<StatusReplyMsg>(unhex(golden));
  EXPECT_EQ(r.request_id, 5u);
  EXPECT_EQ(r.phase, AmPhase::kAdjusting);
  EXPECT_EQ(r.plan_version, 11u);
  EXPECT_EQ(r.workers, m.workers);
  EXPECT_EQ(r.evictions, 1u);
  EXPECT_EQ(r.coordinations, 42u);
  EXPECT_EQ(r.reports, 6u);
}

// The phase byte (offset 8) is one AmPhase; a byte past kAdjusting names no
// phase, so the reply is malformed.
TEST(WireFormat, StatusReplyPhasePastAdjustingIsMalformed) {
  auto bytes = unhex(kStatusReplyGolden);
  bytes[8] = static_cast<std::uint8_t>(AmPhase::kAdjusting) + 1;
  EXPECT_THROW(from_wire<StatusReplyMsg>(bytes), InvalidArgument);
}

// The AM's KV record after: worker 0 coordinated at iteration 5, the
// scheduler asked for a two-GPU scale-out (a cached reply), and joiner 2
// reported (joiner 3 is still pending).
TEST(WireFormat, AmRecord) {
  sim::Simulator sim;
  topo::BandwidthModel bandwidth;
  transport::MessageBus bus(sim, bandwidth);
  transport::KvStore kv(sim);
  ApplicationMaster am(bus, kv, "job0", {{0, 0}, {1, 1}});
  auto ignore = [](const transport::Message&) {};
  transport::ReliableEndpoint sched(bus, "sched/job0", ignore);
  transport::ReliableEndpoint w0(bus, "w0/job0", ignore);
  transport::ReliableEndpoint w2(bus, "w2/job0", ignore);

  w0.send(am.name(), "coordinate", wire_bytes(CoordinateMsg{0, 5}));
  sim.run_until(1.0);
  AdjustRequestMsg req;
  req.request_id = 1;
  req.type = AdjustmentType::kScaleOut;
  req.gpus = {2, 3};
  sched.send(am.name(), "adjust_request", wire_bytes(req));
  sim.run_until(2.0);
  w2.send(am.name(), "report", wire_bytes(ReportMsg{2, 2}));
  sim.run_until(3.0);
  ASSERT_EQ(am.phase(), AmPhase::kWaitingReady);

  const auto record = kv.get_now("elan/am/job0");
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(hex(*record),
      "0104000000020000000000000002000000000000000000000000000000010000"
      "0001000000290000000000000001000000000000000002000000000000000200"
      "0000020000000300000003000000000000000000000001000000000000000300"
      "0000010000000000000001000000000000002900000000000000010000000000"
      "0000010000000000000000020000000000000002000000020000000300000003"
      "0000000100000000000000000000000500000000000000");
}

TEST(WireFormat, StateSnapshotWithTwoBlobs) {
  StateSnapshot s;
  s.blobs.emplace("model", Blob("model", std::vector<std::uint8_t>{1, 2, 3}));
  s.blobs.emplace("data_loader", Blob("data_loader", std::vector<std::uint8_t>{9, 8}));
  s.nominal_gpu_bytes = 4096;
  s.nominal_cpu_bytes = 64;
  const std::string golden =
      "02000000000000000b00000000000000646174615f6c6f616465720200000000"
      "000000090805000000000000006d6f64656c0300000000000000010203001000"
      "00000000004000000000000000";
  EXPECT_EQ(hex(wire_bytes(s)), golden);
  const auto r = from_wire<StateSnapshot>(unhex(golden));
  ASSERT_EQ(r.blobs.size(), 2u);
  for (const auto& [name, blob] : r.blobs) {
    EXPECT_EQ(blob.name(), name);
    EXPECT_EQ(blob, s.blobs.at(name));
  }
  EXPECT_EQ(r.nominal_gpu_bytes, 4096u);
  EXPECT_EQ(r.nominal_cpu_bytes, 64u);
}

TEST(WireFormat, ChunkSamplerTableWithThreeChunks) {
  data::ChunkSampler sampler(data::Dataset{"golden", 10, 4}, 4, 2);
  ASSERT_EQ(sampler.num_chunks(), 3u);
  sampler.next_batch(0, 3);
  sampler.next_batch(1, 2);
  const std::string golden =
      "0000000000000000050000000000000002000000030000000000000000000000"
      "0000000004000000000000000300000000000000000000000400000000000000"
      "080000000000000006000000000000000100000008000000000000000a000000"
      "00000000080000000000000000000000";
  EXPECT_EQ(hex(sampler.serialize_state()), golden);
  data::ChunkSampler restored(data::Dataset{"golden", 10, 4}, 4, 1);
  restored.restore_state(unhex(golden));
  EXPECT_EQ(hex(restored.serialize_state()), golden);
  EXPECT_EQ(restored.num_workers(), 2);
  EXPECT_EQ(restored.consumed(), 5u);
}

// The serial data-loader hook and the runtime hook of a job's worker after
// ten iterations of a two-worker job at total batch 64.
TEST(WireFormat, LoaderAndRuntimeHooks) {
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
  job.stop_after_iterations(10);
  job.start();
  sim.run();
  ASSERT_EQ(job.iteration(), 10u);
  const StateSnapshot s = job.worker(0).hooks().save_all();
  EXPECT_EQ(hex(s.blobs.at("data_loader").bytes()), "00000000000000008002000000000000");
  EXPECT_EQ(hex(s.blobs.at("runtime").bytes()), "0a00000000000000");
}

}  // namespace
}  // namespace elan
