// Parameterised property tests: invariants swept across models, mechanisms,
// adjustment scales and topologies.
#include <gtest/gtest.h>

#include <tuple>

#include "elan/job.h"
#include "elan/replication.h"
#include "storage/filesystem.h"

namespace elan {
namespace {

// ---------------------------------------------------------------------------
// Property: any adjustment, under any mechanism, for any model, leaves all
// replicas bit-identical, keeps the serial-loader exactly-once property, and
// returns the AM to steady state.
// ---------------------------------------------------------------------------

using AdjustCase = std::tuple<train::ModelKind, Mechanism, AdjustmentType>;

class AdjustmentInvariants : public ::testing::TestWithParam<AdjustCase> {};

TEST_P(AdjustmentInvariants, HoldAfterAdjustment) {
  const auto [kind, mechanism, type] = GetParam();
  const auto model = train::model_by_kind(kind);

  sim::Simulator sim;
  topo::Topology topology{topo::TopologySpec{}};
  topo::BandwidthModel bandwidth;
  storage::SimFilesystem fs;
  transport::MessageBus bus(sim, bandwidth);
  transport::KvStore kv(sim);

  JobConfig cfg;
  cfg.model = model;
  cfg.mechanism = mechanism;
  cfg.initial_workers = 8;
  cfg.initial_total_batch = 8 * 32;
  ElasticJob job(sim, topology, bandwidth, fs, bus, kv, cfg);
  job.stop_after_iterations(100000);
  job.on_iteration = [&](std::uint64_t) {
    if (!job.adjustments().empty()) job.stop();
  };
  job.start();

  sim.schedule(1.0, [&] {
    switch (type) {
      case AdjustmentType::kScaleOut:
        job.request_scale_out({8, 9, 10, 11});
        break;
      case AdjustmentType::kScaleIn:
        job.request_scale_in({5, 6, 7});
        break;
      case AdjustmentType::kMigrate:
        job.request_migration({0, 1}, {12, 13});
        break;
    }
  });
  sim.run();

  ASSERT_EQ(job.adjustments().size(), 1u);
  const auto& adj = job.adjustments().front();
  EXPECT_EQ(adj.type, type);

  // Invariant 1: replica consistency.
  EXPECT_TRUE(job.consistent());
  // Invariant 2: serial data loading consumed every sample exactly once.
  EXPECT_EQ(job.sampler().cursor() +
                job.sampler().epoch() * model.dataset.num_samples,
            job.samples_processed());
  // Invariant 3: the AM settled and membership matches the runtime.
  EXPECT_EQ(job.master().phase(), AmPhase::kSteady);
  EXPECT_EQ(static_cast<int>(job.master().workers().size()), job.num_workers());
  // Invariant 4: the pause is positive and bounded by a full S&R cycle.
  EXPECT_GT(adj.pause_time(), 0.0);
  EXPECT_LT(adj.pause_time(), 60.0);
  // Invariant 5: training continued after the adjustment.
  EXPECT_GT(job.iteration(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllModelsMechanismsTypes, AdjustmentInvariants,
    ::testing::Combine(
        ::testing::Values(train::ModelKind::kResNet50, train::ModelKind::kVgg19,
                          train::ModelKind::kMobileNetV2, train::ModelKind::kSeq2Seq,
                          train::ModelKind::kTransformer),
        ::testing::Values(Mechanism::kElan, Mechanism::kShutdownRestart),
        ::testing::Values(AdjustmentType::kScaleOut, AdjustmentType::kScaleIn,
                          AdjustmentType::kMigrate)),
    [](const ::testing::TestParamInfo<AdjustCase>& info) {
      std::string name = train::model_by_kind(std::get<0>(info.param)).name + "_" +
                         (std::get<1>(info.param) == Mechanism::kElan ? "Elan" : "SnR") +
                         "_" + to_string(std::get<2>(info.param));
      for (auto& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Property: whole-blob replication schedules are well-formed for any
// (existing, joining) shape — every joiner served by an existing worker, no
// resource used by two overlapping transfers, makespan between the slowest
// single transfer and the serial sum.
// ---------------------------------------------------------------------------

using PlanCase = std::tuple<int, int>;  // existing count, joining count

class ReplicationPlanProperties : public ::testing::TestWithParam<PlanCase> {};

TEST_P(ReplicationPlanProperties, WellFormed) {
  const auto [existing_count, joining_count] = GetParam();
  topo::Topology topology{topo::TopologySpec{}};
  topo::BandwidthModel bandwidth;
  ReplicationPlanner planner(topology, bandwidth);

  ReplicationRequest req;
  for (int i = 0; i < existing_count; ++i) req.existing.emplace(i, i);
  for (int i = 0; i < joining_count; ++i) {
    req.joining.emplace(existing_count + i, existing_count + i);
  }
  req.gpu_state_bytes = 200_MiB;
  req.cpu_state_bytes = 64_KiB;

  const auto plan = planner.chunk_plan(req, whole_blob_options(req));
  ASSERT_EQ(plan.transfers.size(), static_cast<std::size_t>(joining_count));

  double max_single = 0;
  std::set<int> served;
  for (const auto& t : plan.transfers) {
    EXPECT_TRUE(req.existing.count(t.source_worker));
    EXPECT_TRUE(req.joining.count(t.dest_worker));
    served.insert(t.dest_worker);
    EXPECT_GE(t.start, 0.0);
    EXPECT_GT(t.duration, 0.0);
    max_single = std::max(max_single, t.duration);
  }
  EXPECT_EQ(served.size(), static_cast<std::size_t>(joining_count));
  EXPECT_GE(plan.total_time, max_single);
  EXPECT_LE(plan.total_time, plan.serial_time + 1e-9);

  // No two transfers sharing a physical resource overlap in time.
  for (std::size_t i = 0; i < plan.transfers.size(); ++i) {
    for (std::size_t j = i + 1; j < plan.transfers.size(); ++j) {
      const auto& a = plan.transfers[i];
      const auto& b = plan.transfers[j];
      const auto ra = topology.transfer_resources(a.source_gpu, a.dest_gpu);
      auto rb = topology.transfer_resources(b.source_gpu, b.dest_gpu);
      const bool share_worker = a.source_worker == b.source_worker;
      bool share_resource = share_worker;
      for (const auto& k : ra) {
        if (std::find(rb.begin(), rb.end(), k) != rb.end()) share_resource = true;
      }
      if (share_resource) {
        const bool disjoint = a.finish() <= b.start + 1e-12 || b.finish() <= a.start + 1e-12;
        EXPECT_TRUE(disjoint) << "transfers " << i << " and " << j << " overlap";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ReplicationPlanProperties,
                         ::testing::Values(PlanCase{1, 1}, PlanCase{1, 7}, PlanCase{2, 2},
                                           PlanCase{4, 4}, PlanCase{4, 12}, PlanCase{8, 8},
                                           PlanCase{8, 24}, PlanCase{16, 16},
                                           PlanCase{16, 48}, PlanCase{32, 32}),
                         [](const ::testing::TestParamInfo<PlanCase>& info) {
                           return "e" + std::to_string(std::get<0>(info.param)) + "_j" +
                                  std::to_string(std::get<1>(info.param));
                         });

// ---------------------------------------------------------------------------
// Property: hybrid scaling always returns a feasible configuration whose LR
// factor equals the batch ratio, for any (from, to) pair.
// ---------------------------------------------------------------------------

using HybridCase = std::tuple<train::ModelKind, int, int>;  // model, from, to

class HybridScalingProperties : public ::testing::TestWithParam<HybridCase> {};

TEST_P(HybridScalingProperties, FeasibleAndConsistent) {
  const auto [kind, from, to] = GetParam();
  const auto model = train::model_by_kind(kind);
  topo::Topology topology{topo::TopologySpec{}};
  topo::BandwidthModel bandwidth;
  train::ThroughputModel tm(topology, bandwidth);
  HybridScaling hybrid(tm, model);

  const int tbs_before = 32 * from;
  if (!tm.fits(model, from, tbs_before)) GTEST_SKIP();
  const auto d = hybrid.decide(from, tbs_before, to);

  EXPECT_TRUE(tm.fits(model, to, d.total_batch))
      << model.name << " " << from << "->" << to;
  EXPECT_NEAR(d.batch_factor, static_cast<double>(d.total_batch) / tbs_before, 1e-12);
  EXPECT_EQ(d.weak_scaled, d.total_batch != tbs_before);
  if (to > from) {
    // Scaling out never shrinks the batch.
    EXPECT_GE(d.total_batch, tbs_before);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HybridScalingProperties,
    ::testing::Combine(
        ::testing::Values(train::ModelKind::kResNet50, train::ModelKind::kVgg19,
                          train::ModelKind::kMobileNetV2, train::ModelKind::kSeq2Seq,
                          train::ModelKind::kTransformer),
        ::testing::Values(2, 4, 8, 16, 32), ::testing::Values(2, 8, 16, 48, 64)),
    [](const ::testing::TestParamInfo<HybridCase>& info) {
      std::string name = train::model_by_kind(std::get<0>(info.param)).name + "_" +
                         std::to_string(std::get<1>(info.param)) + "_to_" +
                         std::to_string(std::get<2>(info.param));
      for (auto& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Property: the reliable transport delivers exactly once under any drop rate
// below 1.
// ---------------------------------------------------------------------------

class TransportLossSweep : public ::testing::TestWithParam<double> {};

TEST_P(TransportLossSweep, ExactlyOnceDelivery) {
  const double drop = GetParam();
  sim::Simulator sim;
  topo::BandwidthModel bandwidth;
  transport::BusParams params;
  params.drop_probability = drop;
  params.seed = 1234;
  transport::MessageBus bus(sim, bandwidth, params);

  std::map<std::string, int> delivered;
  transport::ReliableEndpoint a(bus, "a", [](const transport::Message&) {});
  transport::ReliableEndpoint b(bus, "b", [&](const transport::Message& m) {
    ++delivered[std::string(m.payload.begin(), m.payload.end())];
  });
  constexpr int kMessages = 40;
  for (int i = 0; i < kMessages; ++i) {
    const std::string body = "m" + std::to_string(i);
    a.send("b", "data", std::vector<std::uint8_t>(body.begin(), body.end()));
  }
  sim.run();
  ASSERT_EQ(delivered.size(), static_cast<std::size_t>(kMessages));
  for (const auto& [body, count] : delivered) {
    EXPECT_EQ(count, 1) << body;  // exactly once despite drops and retries
  }
}

INSTANTIATE_TEST_SUITE_P(DropRates, TransportLossSweep,
                         ::testing::Values(0.0, 0.05, 0.2, 0.4, 0.6),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "drop" + std::to_string(static_cast<int>(
                                               info.param * 100));
                         });

}  // namespace
}  // namespace elan
