// Round-trip tests of the control-plane wire messages.
#include <gtest/gtest.h>

#include "elan/messages.h"

namespace elan {
namespace {

TEST(Messages, ReportRoundTrip) {
  ReportMsg m{7, 42};
  const auto r = wire::decode<ReportMsg>(wire::encode(m));
  EXPECT_EQ(r.worker, 7);
  EXPECT_EQ(r.gpu, 42);
}

TEST(Messages, CoordinateRoundTrip) {
  CoordinateMsg m{3, 123456789ULL};
  const auto r = wire::decode<CoordinateMsg>(wire::encode(m));
  EXPECT_EQ(r.worker, 3);
  EXPECT_EQ(r.iteration, 123456789ULL);
}

TEST(Messages, PlanRoundTrip) {
  AdjustmentPlan p;
  p.version = 9;
  p.type = AdjustmentType::kMigrate;
  p.join = {{4, 12}, {5, 13}};
  p.leave = {0, 1};
  const auto q = wire::decode<AdjustmentPlan>(wire::encode(p));
  EXPECT_EQ(q, p);
}

TEST(Messages, EmptyPlanRoundTrip) {
  AdjustmentPlan p;
  EXPECT_EQ(wire::decode<AdjustmentPlan>(wire::encode(p)), p);
}

TEST(Messages, DecisionCarriesPlan) {
  DecisionMsg d;
  d.adjust = true;
  d.iteration = 77;
  d.plan.version = 2;
  d.plan.type = AdjustmentType::kScaleIn;
  d.plan.leave = {6};
  const auto r = wire::decode<DecisionMsg>(wire::encode(d));
  EXPECT_TRUE(r.adjust);
  EXPECT_EQ(r.iteration, 77u);
  EXPECT_EQ(r.plan, d.plan);
}

TEST(Messages, NoAdjustDecisionIsSmall) {
  // Coordination replies travel every iteration; they must stay tiny.
  DecisionMsg d;
  d.iteration = 1;
  EXPECT_LT(wire::encode(d).size(), 64u);
}

TEST(Messages, AdjustCompleteRoundTrip) {
  AdjustCompleteMsg m;
  m.plan_version = 9;
  m.failed_joins = {4, 7};
  const auto r = wire::decode<AdjustCompleteMsg>(wire::encode(m));
  EXPECT_EQ(r.plan_version, 9u);
  EXPECT_EQ(r.failed_joins, m.failed_joins);
}

TEST(Messages, RemoveFailedRoundTrip) {
  RemoveFailedMsg m;
  m.worker = 3;
  EXPECT_EQ(wire::decode<RemoveFailedMsg>(wire::encode(m)).worker, 3);
}

TEST(Messages, StatusRequestRoundTrip) {
  StatusRequestMsg m;
  m.request_id = 123;
  EXPECT_EQ(wire::decode<StatusRequestMsg>(wire::encode(m)).request_id, 123u);
}

TEST(Messages, StatusReplyRoundTrip) {
  StatusReplyMsg m;
  m.request_id = 5;
  m.phase = AmPhase::kAdjusting;
  m.plan_version = 11;
  m.workers = {{0, 0}, {1, 4}};
  m.evictions = 1;
  m.coordinations = 42;
  m.reports = 6;
  const auto r = wire::decode<StatusReplyMsg>(wire::encode(m));
  EXPECT_EQ(r.request_id, 5u);
  EXPECT_EQ(r.phase, AmPhase::kAdjusting);
  EXPECT_EQ(r.plan_version, 11u);
  EXPECT_EQ(r.workers, m.workers);
  EXPECT_EQ(r.evictions, 1u);
  EXPECT_EQ(r.coordinations, 42u);
  EXPECT_EQ(r.reports, 6u);
}

// Decoding rejects every malformed shape with InvalidArgument; a count the
// bytes left cannot hold is rejected before anything is allocated for it.
TEST(Messages, DecodeRejectsMalformedBytes) {
  DecisionMsg d;
  d.adjust = true;
  d.plan.leave = {1};
  // adjust | iteration | plan length | version | type | join count | leave count | 1
  const auto good = wire::encode(d);
  ASSERT_EQ(good.size(), 46u);
  auto mutated = [&](auto change) {
    auto bytes = good;
    change(bytes);
    return bytes;
  };
  auto rejects = [](const std::vector<std::uint8_t>& bytes) {
    EXPECT_THROW(wire::decode<DecisionMsg>(bytes), InvalidArgument);
  };
  EXPECT_EQ(wire::decode<DecisionMsg>(good).plan, d.plan);
  rejects(mutated([](auto& b) { b.resize(45); }));      // truncated
  rejects(mutated([](auto& b) { b.push_back(0); }));    // trailing byte
  rejects(mutated([](auto& b) { b[0] = 2; }));          // bool neither 0 nor 1
  rejects(mutated([](auto& b) { b[25] = 3; }));         // no such AdjustmentType
  rejects(mutated([](auto& b) { b[41] = 0x40; }));      // leave count 2^62 + 1
  rejects(mutated([](auto& b) {                         // plan has a trailing byte
    b[9] += 1;
    b.push_back(0);
  }));
}

TEST(Messages, TypeNames) {
  EXPECT_STREQ(to_string(AdjustmentType::kScaleOut), "scale-out");
  EXPECT_STREQ(to_string(AdjustmentType::kScaleIn), "scale-in");
  EXPECT_STREQ(to_string(AdjustmentType::kMigrate), "migrate");
}

}  // namespace
}  // namespace elan
