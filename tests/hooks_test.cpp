// Tests of the hook API (paper §V-A) and state snapshots (Table II).
#include <gtest/gtest.h>

#include <memory>

#include "common/error.h"
#include "common/serialize.h"
#include "elan/hooks.h"

namespace elan {
namespace {

StateHook blob_hook(const std::string& name, StateLocation loc, Bytes nominal,
                    std::shared_ptr<Blob> storage) {
  return StateHook{name, loc, nominal, [storage] { return *storage; },
                   [storage](const Blob& b) { storage->copy_from(b); }};
}

struct HookFixture {
  std::shared_ptr<Blob> model = std::make_shared<Blob>("model", 4_KiB);
  std::shared_ptr<Blob> opt = std::make_shared<Blob>("optimizer", 4_KiB);
  std::shared_ptr<Blob> loader = std::make_shared<Blob>("data_loader", 16);
  HookRegistry registry;

  HookFixture() {
    model->fill_pattern(1);
    opt->fill_pattern(2);
    loader->fill_pattern(3);
    registry.register_hook(blob_hook("model", StateLocation::kGpu, 100_MiB, model));
    registry.register_hook(blob_hook("optimizer", StateLocation::kGpu, 100_MiB, opt));
    registry.register_hook(blob_hook("data_loader", StateLocation::kCpu, 64_KiB, loader));
  }
};

TEST(HookRegistry, RegistersAndLooksUp) {
  HookFixture f;
  EXPECT_EQ(f.registry.size(), 3u);
  EXPECT_TRUE(f.registry.has_hook("model"));
  EXPECT_FALSE(f.registry.has_hook("nonexistent"));
  EXPECT_EQ(f.registry.names(),
            (std::vector<std::string>{"model", "optimizer", "data_loader"}));
}

TEST(HookRegistry, RejectsInvalidHooks) {
  HookRegistry r;
  EXPECT_THROW(r.register_hook(StateHook{}), InvalidArgument);  // empty name
  StateHook no_load{"x", StateLocation::kCpu, 0, [] { return Blob(); }, nullptr};
  EXPECT_THROW(r.register_hook(std::move(no_load)), InvalidArgument);
}

TEST(HookRegistry, RejectsDuplicates) {
  HookFixture f;
  EXPECT_THROW(
      f.registry.register_hook(blob_hook("model", StateLocation::kGpu, 1, f.model)),
      InvalidArgument);
}

TEST(HookRegistry, NominalBytesByLocation) {
  // Table II: GPU states (model + optimizer) dwarf CPU states (loader).
  HookFixture f;
  EXPECT_EQ(f.registry.nominal_bytes(StateLocation::kGpu), 200_MiB);
  EXPECT_EQ(f.registry.nominal_bytes(StateLocation::kCpu), 64_KiB);
}

TEST(HookRegistry, SaveLoadRoundTrip) {
  HookFixture f;
  const auto snapshot = f.registry.save_all();
  EXPECT_EQ(snapshot.blobs.size(), 3u);
  EXPECT_EQ(snapshot.nominal_gpu_bytes, 200_MiB);
  EXPECT_EQ(snapshot.nominal_cpu_bytes, 64_KiB);

  // Wreck the state, then restore.
  f.model->fill_pattern(99);
  f.opt->fill_pattern(98);
  f.registry.load_all(snapshot);
  Blob expected_model("model", 4_KiB);
  expected_model.fill_pattern(1);
  EXPECT_EQ(f.model->checksum(), expected_model.checksum());
}

TEST(HookRegistry, LoadAllRejectsIncompleteSnapshot) {
  HookFixture f;
  StateSnapshot empty;
  EXPECT_THROW(f.registry.load_all(empty), NotFound);
}

TEST(StateSnapshot, SerializeRoundTrip) {
  HookFixture f;
  const auto snapshot = f.registry.save_all();
  const auto bytes = wire::encode(snapshot);
  const auto restored = wire::decode<StateSnapshot>(bytes);
  EXPECT_EQ(restored.checksum(), snapshot.checksum());
  EXPECT_EQ(restored.nominal_gpu_bytes, snapshot.nominal_gpu_bytes);
  EXPECT_EQ(restored.nominal_cpu_bytes, snapshot.nominal_cpu_bytes);
  EXPECT_EQ(restored.stored_bytes(), snapshot.stored_bytes());
}

TEST(StateSnapshot, ChecksumDetectsChanges) {
  HookFixture f;
  const auto s1 = f.registry.save_all();
  f.model->fill_pattern(1234);
  const auto s2 = f.registry.save_all();
  EXPECT_NE(s1.checksum(), s2.checksum());
}

TEST(HookRegistry, InventoryMatchesTableII) {
  HookFixture f;
  const auto rows = f.registry.inventory();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].name, "model");
  EXPECT_EQ(rows[0].location, StateLocation::kGpu);
  EXPECT_EQ(rows[2].location, StateLocation::kCpu);
  EXPECT_STREQ(to_string(StateLocation::kGpu), "GPU");
  EXPECT_STREQ(to_string(StateLocation::kCpu), "CPU");
}

}  // namespace
}  // namespace elan
