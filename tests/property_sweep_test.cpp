// Additional parameterised sweeps: convergence across batch sizes and
// topology invariants across cluster shapes.
#include <gtest/gtest.h>

#include <tuple>

#include "topology/topology.h"
#include "train/convergence.h"

namespace elan {
namespace {

// ---------------------------------------------------------------------------
// Convergence: for every batch size, hybrid >= default, both within (0, 1),
// and hybrid's loss vs the reference is bounded below the critical batch.
// ---------------------------------------------------------------------------

class ConvergenceSweep : public ::testing::TestWithParam<int> {};

TEST_P(ConvergenceSweep, HybridDominatesDefault) {
  const int tbs = GetParam();
  const auto m = train::ConvergenceModel::mobilenet_cifar100();
  const double reference = m.final_accuracy(128, 0.05, 100, {60, 80});
  const double def = m.final_accuracy(tbs, 0.05, 100, {60, 80});
  const double hyb = m.final_accuracy(tbs, 0.05 * tbs / 128.0, 100, {60, 80});
  EXPECT_GT(def, 0.0);
  EXPECT_LT(def, 1.0);
  EXPECT_GE(hyb, def - 1e-12);
  if (tbs <= m.params().critical_batch) {
    EXPECT_NEAR(hyb, reference, 0.005) << tbs;
  }
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, ConvergenceSweep,
                         ::testing::Values(128, 256, 512, 1024, 2048, 4096, 8192, 16384),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "tbs" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Topology: structural invariants across cluster shapes.
// ---------------------------------------------------------------------------

using TopoShape = std::tuple<int, int, int, int>;  // nodes, sockets, switches, gpus

class TopologyShapeSweep : public ::testing::TestWithParam<TopoShape> {};

TEST_P(TopologyShapeSweep, Invariants) {
  topo::TopologySpec spec;
  spec.nodes = std::get<0>(GetParam());
  spec.sockets_per_node = std::get<1>(GetParam());
  spec.switches_per_bridge = std::get<2>(GetParam());
  spec.gpus_per_switch = std::get<3>(GetParam());
  const topo::Topology t(spec);

  for (topo::GpuId g = 0; g < t.total_gpus(); ++g) {
    // Round trip.
    EXPECT_EQ(t.gpu_at(t.location(g)), g);
    // Self link.
    EXPECT_EQ(t.link_level(g, g), topo::LinkLevel::kSelf);
  }
  // Symmetry + triangle-ish consistency: two GPUs on one node never use NET.
  const int probe = std::min(t.total_gpus(), 16);
  for (topo::GpuId a = 0; a < probe; ++a) {
    for (topo::GpuId b = 0; b < probe; ++b) {
      EXPECT_EQ(t.link_level(a, b), t.link_level(b, a));
      if (t.node_of(a) == t.node_of(b) && a != b) {
        EXPECT_NE(t.link_level(a, b), topo::LinkLevel::kL4);
      }
    }
  }
  // Every node owns exactly gpus_per_node GPUs and they partition the ids.
  int counted = 0;
  for (int n = 0; n < spec.nodes; ++n) {
    const auto gpus = t.gpus_on_node(n);
    EXPECT_EQ(gpus.size(), static_cast<std::size_t>(spec.gpus_per_node()));
    counted += static_cast<int>(gpus.size());
  }
  EXPECT_EQ(counted, t.total_gpus());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TopologyShapeSweep,
    ::testing::Values(TopoShape{1, 1, 1, 1}, TopoShape{1, 2, 2, 2}, TopoShape{2, 1, 4, 1},
                      TopoShape{3, 2, 1, 4}, TopoShape{8, 2, 2, 2}, TopoShape{16, 2, 2, 2}),
    [](const ::testing::TestParamInfo<TopoShape>& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "s" +
             std::to_string(std::get<1>(info.param)) + "w" +
             std::to_string(std::get<2>(info.param)) + "g" +
             std::to_string(std::get<3>(info.param));
    });

}  // namespace
}  // namespace elan
