// Tests of LR schedules (Eq. 2-3), the optimizer state machinery and the two
// training engines.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "train/engine.h"
#include "train/lr_schedule.h"
#include "train/optimizer.h"

namespace elan::train {
namespace {

// ---------------------------------------------------------------------------
// StepSchedule
// ---------------------------------------------------------------------------

TEST(StepSchedule, DecaysAtMilestones) {
  StepSchedule s(0.2, {100, 200});
  EXPECT_DOUBLE_EQ(s.lr(0), 0.2);
  EXPECT_DOUBLE_EQ(s.lr(99), 0.2);
  EXPECT_DOUBLE_EQ(s.lr(100), 0.02);
  EXPECT_NEAR(s.lr(200), 0.002, 1e-12);
}

TEST(StepSchedule, WarmupRampsLinearly) {
  StepSchedule s(0.4, {1000});
  s.with_warmup(100, 0.25);
  EXPECT_DOUBLE_EQ(s.lr(0), 0.1);    // 0.25 * base
  EXPECT_DOUBLE_EQ(s.lr(50), 0.25);  // midpoint
  EXPECT_DOUBLE_EQ(s.lr(100), 0.4);  // full base after warmup
  EXPECT_DOUBLE_EQ(s.lr(1000), 0.04);
}

TEST(StepSchedule, WarmupValidation) {
  StepSchedule s(0.4, {100});
  EXPECT_THROW(s.with_warmup(50, 0.0), InvalidArgument);
  EXPECT_THROW(s.with_warmup(200, 0.1), InvalidArgument);  // past first decay
}

TEST(StepSchedule, WarmupComposesWithController) {
  // Warmup (manual large-batch practice) and progressive linear scaling
  // (Elan's elastic rule) compose: warmup on the base, scaling on top.
  StepSchedule base(0.2, {});
  base.with_warmup(10, 0.5);
  LrController c(std::move(base));
  c.apply_scaling(2.0, 100, 50);
  EXPECT_DOUBLE_EQ(c.lr(0), 0.1);
  EXPECT_DOUBLE_EQ(c.lr(10), 0.2);
  EXPECT_DOUBLE_EQ(c.lr(150), 0.4);
}

TEST(StepSchedule, Validation) {
  EXPECT_THROW(StepSchedule(-1.0, {}), InvalidArgument);
  EXPECT_THROW(StepSchedule(0.1, {200, 100}), InvalidArgument);
  EXPECT_THROW(StepSchedule(0.1, {100}, 1.5), InvalidArgument);
}

// ---------------------------------------------------------------------------
// LrController — progressive linear scaling (Eq. 2-3)
// ---------------------------------------------------------------------------

TEST(LrController, NoScalingFollowsBase) {
  LrController c(StepSchedule(0.2, {100}));
  EXPECT_DOUBLE_EQ(c.lr(0), 0.2);
  EXPECT_DOUBLE_EQ(c.lr(150), 0.02);
}

TEST(LrController, RampIsLinear) {
  LrController c(StepSchedule(0.2, {}));
  c.apply_scaling(2.0, 10, 100);
  EXPECT_DOUBLE_EQ(c.lr(10), 0.2);           // ramp start: lr_0
  EXPECT_DOUBLE_EQ(c.lr(60), 0.3);           // midpoint: lr_0 + 0.5 (lr_T - lr_0)
  EXPECT_DOUBLE_EQ(c.lr(110), 0.4);          // ramp end: lr_T = k * lr_0
  EXPECT_DOUBLE_EQ(c.lr(1000), 0.4);         // stays at target
  EXPECT_TRUE(c.ramp_active(50));
  EXPECT_FALSE(c.ramp_active(110));
}

TEST(LrController, ExactEquation3) {
  // lr_t = lr_0 + (t - T0)/T * (lr_T - lr_0) for t in [T0, T0+T).
  LrController c(StepSchedule(0.1, {}));
  const std::uint64_t t0 = 40;
  const std::uint64_t T = 80;
  const double k = 4.0;
  c.apply_scaling(k, t0, T);
  for (std::uint64_t t = t0; t < t0 + T; t += 7) {
    const double expected = 0.1 + static_cast<double>(t - t0) / T * (0.4 - 0.1);
    EXPECT_NEAR(c.lr(t), expected, 1e-12) << t;
  }
}

TEST(LrController, ScalingComposesAcrossAdjustments) {
  LrController c(StepSchedule(0.1, {}));
  c.apply_scaling(2.0, 0, 10);
  c.apply_scaling(2.0, 100, 10);
  EXPECT_DOUBLE_EQ(c.scale(), 4.0);
  EXPECT_DOUBLE_EQ(c.lr(200), 0.4);
}

TEST(LrController, ScaleInterplaysWithDecay) {
  LrController c(StepSchedule(0.2, {50}));
  c.apply_scaling(2.0, 0, 10);
  // After both the ramp and the decay: base decayed 0.02, scaled by 2.
  EXPECT_NEAR(c.lr(60), 0.04, 1e-12);
}

TEST(LrController, ZeroRampAppliesImmediately) {
  LrController c(StepSchedule(0.1, {}));
  c.apply_scaling(2.0, 5, 0);
  EXPECT_DOUBLE_EQ(c.lr(5), 0.2);
}

TEST(LrController, ScaleInShrinksLr) {
  LrController c(StepSchedule(0.4, {}));
  c.apply_scaling(0.5, 0, 100);
  EXPECT_DOUBLE_EQ(c.lr(100), 0.2);
  EXPECT_THROW(c.apply_scaling(0.0, 0, 10), InvalidArgument);
}

// ---------------------------------------------------------------------------
// SgdOptimizer
// ---------------------------------------------------------------------------

TEST(SgdOptimizer, SameSeedsSameState) {
  for (const auto& m : {resnet50(), vgg19(), mobilenet_v2(), mobilenet_v2_cifar(), seq2seq(),
                        transformer()}) {
    SgdOptimizer a(m);
    SgdOptimizer b(m);
    EXPECT_EQ(a.state_checksum(), b.state_checksum()) << m.name;
    for (std::uint64_t i = 0; i < 20; ++i) {
      a.step(i);
      b.step(i);
    }
    EXPECT_EQ(a.state_checksum(), b.state_checksum()) << m.name;
    EXPECT_EQ(a.parameters(), b.parameters()) << m.name;
    EXPECT_EQ(a.momentum(), b.momentum()) << m.name;
    EXPECT_EQ(a.steps_taken(), 20u);
  }
}

TEST(SgdOptimizer, DifferentSeedsDiverge) {
  const auto m = resnet50();
  SgdOptimizer a(m);
  SgdOptimizer b(m);
  a.step(1);
  b.step(2);
  EXPECT_NE(a.state_checksum(), b.state_checksum());
}

TEST(SgdOptimizer, HistoryMatters) {
  // Applying the same final seed after different histories must differ: a
  // worker that skipped replication cannot catch up by iteration count.
  const auto m = resnet50();
  SgdOptimizer a(m);
  SgdOptimizer b(m);
  a.step(1);
  a.step(3);
  b.step(2);
  b.step(3);
  EXPECT_NE(a.state_checksum(), b.state_checksum());
}

TEST(SgdOptimizer, LoadFromReplicates) {
  const auto m = resnet50();
  SgdOptimizer a(m);
  for (std::uint64_t i = 0; i < 7; ++i) a.step(i);
  SgdOptimizer b(m);
  b.load_from(a);
  EXPECT_EQ(a.state_checksum(), b.state_checksum());
  EXPECT_EQ(b.steps_taken(), 7u);
  // And they evolve identically afterwards.
  a.step(100);
  b.step(100);
  EXPECT_EQ(a.state_checksum(), b.state_checksum());
}

TEST(SgdOptimizer, StepChangesTheSubWordTail) {
  // The keystream advances one 64-bit word per generator step; the bytes
  // past the last whole word must still be mixed. ResNet-50's blobs are
  // 6239 bytes, the 2 KiB floor is whole words.
  for (const Bytes size : {Bytes{1}, Bytes{7}, Bytes{9}, Bytes{2048}, Bytes{6239}}) {
    Blob blob("b", size);
    blob.fill_pattern(size);
    const std::vector<std::uint8_t> before(blob.bytes().begin(), blob.bytes().end());
    SgdOptimizer::mix(blob, 0x1234);
    const std::size_t tail = size % 8 != 0 ? size % 8 : 8;
    const auto after = blob.bytes();
    EXPECT_FALSE(std::equal(after.end() - static_cast<std::ptrdiff_t>(tail), after.end(),
                            before.end() - static_cast<std::ptrdiff_t>(tail)))
        << size << "-byte blob: the last " << tail << " byte(s) did not change";
  }
}

TEST(SgdOptimizer, PinnedStateAfterTenSteps) {
  // Pins the keystream (common/blob.h) and the optimizer's keying. A change
  // here alters every replica's bytes and every chaos fingerprint: make it
  // deliberately, and re-pin together with the outcome-digest check in
  // fault_test.cpp, which must not move.
  SgdOptimizer o(resnet50());
  for (std::uint64_t i = 0; i < 10; ++i) o.step(i);
  EXPECT_EQ(o.state_checksum(), 0x81f41e4610dfd81dULL);
}

TEST(SgdOptimizer, NominalSizesAreRealModelSizes) {
  const auto m = vgg19();
  SgdOptimizer o(m);
  EXPECT_EQ(o.nominal_parameter_bytes(), m.parameters * 4);
  EXPECT_EQ(o.nominal_optimizer_bytes(), m.parameters * 4);
  // Stored blobs are scaled down.
  EXPECT_LT(o.parameters().size(), o.nominal_parameter_bytes() / 1000);
}

// ---------------------------------------------------------------------------
// Engines
// ---------------------------------------------------------------------------

TEST(Engines, StaticInitSlowerIterationFaster) {
  const auto m = resnet50();
  StaticGraphEngine s(m);
  DynamicGraphEngine d(m);
  EXPECT_GT(s.initialization_time(), d.initialization_time());
  EXPECT_LT(s.per_iteration_overhead(), d.per_iteration_overhead());
}

TEST(Engines, StaticInitGrowsWithModelSize) {
  StaticGraphEngine small(mobilenet_v2());
  StaticGraphEngine big(vgg19());
  EXPECT_GT(big.initialization_time(), small.initialization_time());
}

TEST(Engines, IterationAdvancesState) {
  auto e = make_engine(resnet50(), EngineKind::kDynamicGraph);
  const auto before = e->state_checksum();
  e->run_iteration(42);
  EXPECT_NE(e->state_checksum(), before);
  EXPECT_EQ(e->iteration(), 1u);
}

TEST(Engines, BothKindsEvolveIdentically) {
  // The engines differ in cost profile, not in state semantics: the same
  // seeds produce the same optimizer state (generality of the hook surface).
  auto s = make_engine(resnet50(), EngineKind::kStaticGraph);
  auto d = make_engine(resnet50(), EngineKind::kDynamicGraph);
  for (std::uint64_t i = 0; i < 5; ++i) {
    s->run_iteration(i);
    d->run_iteration(i);
  }
  EXPECT_EQ(s->state_checksum(), d->state_checksum());
}

TEST(Engines, KindNames) {
  EXPECT_STREQ(to_string(EngineKind::kStaticGraph), "static-graph");
  EXPECT_STREQ(to_string(EngineKind::kDynamicGraph), "dynamic-graph");
}

}  // namespace
}  // namespace elan::train
