// Tests of the Litz baseline model (Fig 16) and the analytic adjustment-cost
// model (Fig 15 / Fig 22 inputs), including cross-validation against the
// ElasticJob runtime.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <thread>
#include <vector>

#include "baselines/adjustment_cost.h"
#include "baselines/litz.h"
#include "common/rng.h"
#include "elan/job.h"

namespace elan::baselines {
namespace {

struct BaselineFixture {
  topo::Topology topology{topo::TopologySpec{}};
  topo::BandwidthModel bandwidth;
  storage::SimFilesystem fs;
  train::ThroughputModel throughput{topology, bandwidth};
  AdjustmentCostModel costs{topology, bandwidth, fs};
};

// ---------------------------------------------------------------------------
// Litz
// ---------------------------------------------------------------------------

TEST(Litz, ContextSwitchDominatedByPcie) {
  BaselineFixture f;
  const LitzModel litz2(f.throughput, {2});
  const auto m = train::transformer();
  // Context = state + the executor's activations; moving it twice over
  // ~10 GiB/s PCIe costs hundreds of milliseconds.
  EXPECT_GT(litz2.context_switch_time(m, 16), 0.2);
  // Bigger per-executor batches mean bigger contexts.
  EXPECT_GT(litz2.context_switch_time(m, 32), litz2.context_switch_time(m, 8));
}

TEST(Litz, MuchSlowerThanElan) {
  // Fig 16: Litz's relative throughput is far below 1 for every model.
  BaselineFixture f;
  const LitzModel litz2(f.throughput, {2});
  const LitzModel litz4(f.throughput, {4});
  for (const auto& m : train::model_zoo()) {
    for (int workers : {8, 16, 32}) {
      const int tbs = 32 * workers;
      const double r2 = litz2.relative_throughput(m, workers, tbs);
      const double r4 = litz4.relative_throughput(m, workers, tbs);
      EXPECT_LT(r2, 0.55) << m.name << " w=" << workers;
      EXPECT_LT(r4, 0.55) << m.name << " w=" << workers;
      EXPECT_GT(r2, 0.0);
      EXPECT_GT(r4, 0.0);
    }
  }
}

TEST(Litz, TransformerReductionExceeds90Percent) {
  // Paper: "the reduction of throughput even exceeds 90% on Transformer".
  BaselineFixture f;
  const LitzModel litz4(f.throughput, {4});
  const auto m = train::transformer();
  EXPECT_LT(litz4.relative_throughput(m, 16, 512), 0.10);
}

TEST(Litz, MoreExecutorsMoreSwitchingCost) {
  // Litz-4 pays more switches than Litz-2 and still cannot match Elan even
  // though it runs more compute (paper's observation).
  BaselineFixture f;
  const LitzModel litz2(f.throughput, {2});
  const LitzModel litz4(f.throughput, {4});
  const auto m = train::resnet50();
  EXPECT_LT(litz4.relative_throughput(m, 16, 512),
            litz2.relative_throughput(m, 16, 512));
}

TEST(Litz, Validation) {
  BaselineFixture f;
  const LitzModel litz(f.throughput, {2});
  EXPECT_THROW(litz.iteration_time(train::resnet50(), 0, 128), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Adjustment cost model
// ---------------------------------------------------------------------------

TEST(AdjustmentCost, IdealIsInstant) {
  BaselineFixture f;
  EXPECT_DOUBLE_EQ(
      f.costs.pause_time(System::kIdeal, AdjustmentType::kScaleOut, train::resnet50(), 16, 32),
      0.0);
  EXPECT_DOUBLE_EQ(f.costs.runtime_overhead(System::kIdeal, train::resnet50(), 16, 512), 0.0);
}

TEST(AdjustmentCost, ElanPausesAreSeconds) {
  BaselineFixture f;
  for (const auto& m : train::model_zoo()) {
    for (auto type : {AdjustmentType::kScaleOut, AdjustmentType::kScaleIn,
                      AdjustmentType::kMigrate}) {
      const int before = 16;
      const int after = type == AdjustmentType::kScaleOut
                            ? 32
                            : (type == AdjustmentType::kScaleIn ? 8 : 16);
      const auto t = f.costs.pause_time(System::kElan, type, m, before, after);
      EXPECT_GT(t, 0.0) << m.name;
      EXPECT_LT(t, 3.0) << m.name << " " << to_string(type);
    }
  }
}

TEST(AdjustmentCost, ElanReplicationPricesTheWholeBlobSchedule) {
  // ResNet-50 from 2 to 5 workers on node 0: the schedule commits the
  // earliest-starting transfer first, so w1 -> w4 crosses the QPI alongside
  // w0 -> w2 and w0 -> w3 follows; the makespan is two SHM copies
  // (2 x 27.30 ms), not an SHM copy followed by a QPI copy.
  BaselineFixture f;
  const auto m = train::resnet50();
  EXPECT_DOUBLE_EQ(f.costs.elan_replication_time(m, 2, 3), 0.054593716566903254);
  const ChunkSchedule schedule = f.costs.elan_replication_schedule(m, 2, 3);
  EXPECT_EQ(schedule.num_chunks, 1u);
  EXPECT_EQ(schedule.transfers.size(), 3u);
  EXPECT_DOUBLE_EQ(schedule.total_time, f.costs.elan_replication_time(m, 2, 3));
}

TEST(AdjustmentCost, RefusesAdjustmentsBeyondTheCluster) {
  // 48 -> 80 workers cannot fit 64 GPUs; the price must not quietly drop
  // the joiners that have no GPU.
  BaselineFixture f;
  const auto m = train::resnet50();
  ASSERT_EQ(f.topology.total_gpus(), 64);
  EXPECT_THROW(f.costs.pause_time(System::kElan, AdjustmentType::kScaleOut, m, 48, 80),
               InvalidArgument);
  EXPECT_THROW(f.costs.elan_replication_time(m, 48, 32), InvalidArgument);
  EXPECT_THROW(f.costs.elan_replication_schedule(m, 65, 0), InvalidArgument);
  EXPECT_GT(f.costs.elan_replication_time(m, 48, 16), 0.0);  // exactly full
}

/// The production-scale cluster, 128 servers x 8 GPUs, on which ClusterSim
/// replays share one cost model.
struct BigClusterFixture {
  topo::Topology topology{topo::TopologySpec{.nodes = 128}};
  topo::BandwidthModel bandwidth;
  storage::SimFilesystem fs;
};

struct ReplicationShape {
  const train::ModelSpec* model;
  int before;
  int joiners;
};

/// Every zoo model at a grid of (workers before, joiners) that fits 1,024
/// GPUs, joiners of 0 included.
std::vector<ReplicationShape> shape_grid(const std::vector<train::ModelSpec>& zoo,
                                         std::initializer_list<int> befores,
                                         std::initializer_list<int> joiners) {
  std::vector<ReplicationShape> grid;
  for (const auto& model : zoo) {
    for (const int before : befores) {
      for (const int joining : joiners) {
        if (before + joining <= 1024) grid.push_back({&model, before, joining});
      }
    }
  }
  return grid;
}

std::uint64_t bits(Seconds t) { return std::bit_cast<std::uint64_t>(t); }

TEST(AdjustmentCost, RemembersReplicationMakespans) {
  // A cost model prices each replication shape once. A model that has
  // priced the grid, in shuffled order, must answer every shape with the
  // bits a fresh model computes; a memo keyed on less than the state bytes
  // and the shape hands one model's price to another.
  const BigClusterFixture f;
  const auto zoo = train::model_zoo();
  const auto grid = shape_grid(zoo, {1, 2, 7, 8, 64, 300, 1000}, {0, 1, 3, 8, 24, 64, 200});
  auto shuffled = grid;
  Rng rng(2020);
  std::shuffle(shuffled.begin(), shuffled.end(), rng.engine());
  const AdjustmentCostModel warm(f.topology, f.bandwidth, f.fs);
  for (const auto& s : shuffled) {
    static_cast<void>(warm.elan_replication_time(*s.model, s.before, s.joiners));
  }
  const AdjustmentCostModel fresh(f.topology, f.bandwidth, f.fs);
  for (const auto& s : grid) {
    EXPECT_EQ(bits(warm.elan_replication_time(*s.model, s.before, s.joiners)),
              bits(fresh.elan_replication_time(*s.model, s.before, s.joiners)))
        << s.model->name << " " << s.before << " + " << s.joiners;
  }

  // Equal shapes of two specs with different state bytes: each its own price.
  const train::ModelSpec resnet = train::resnet50();
  train::ModelSpec edited = resnet;
  edited.parameters *= 3;
  ASSERT_NE(edited.gpu_state_bytes(), resnet.gpu_state_bytes());
  const Seconds resnet_price = warm.elan_replication_time(resnet, 8, 8);
  const Seconds edited_price = warm.elan_replication_time(edited, 8, 8);
  EXPECT_NE(edited_price, resnet_price);
  EXPECT_EQ(bits(edited_price),
            bits(AdjustmentCostModel(f.topology, f.bandwidth, f.fs)
                     .elan_replication_time(edited, 8, 8)));

  // A shape past the cluster still throws, each time it is asked.
  EXPECT_THROW(warm.elan_replication_time(resnet, 1000, 25), InvalidArgument);
  EXPECT_THROW(warm.elan_replication_time(resnet, 1000, 25), InvalidArgument);
}

TEST(AdjustmentCost, ConcurrentPricesMatchSerial) {
  // Four threads price one grid on a shared cost model. Two start at its
  // head and two at its middle, so each pair misses, plans and stores the
  // same shapes at once while the other pair stores different ones.
  const BigClusterFixture f;
  const auto zoo = train::model_zoo();
  const auto grid = shape_grid(zoo, {1, 8, 64}, {1, 16, 100});
  const AdjustmentCostModel serial(f.topology, f.bandwidth, f.fs);
  std::vector<Seconds> expected;
  for (const auto& s : grid) {
    expected.push_back(serial.elan_replication_time(*s.model, s.before, s.joiners));
  }
  constexpr std::size_t kThreads = 4;
  const AdjustmentCostModel shared(f.topology, f.bandwidth, f.fs);
  std::vector<std::vector<Seconds>> got(kThreads, std::vector<Seconds>(grid.size()));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t k = 0; k < grid.size(); ++k) {
        const std::size_t i = (k + t / 2 * grid.size() / 2) % grid.size();
        got[t][i] = shared.elan_replication_time(*grid[i].model, grid[i].before,
                                                 grid[i].joiners);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < grid.size(); ++i) {
      EXPECT_EQ(bits(got[t][i]), bits(expected[i]))
          << "thread " << t << ", " << grid[i].model->name << " " << grid[i].before << " + "
          << grid[i].joiners;
    }
  }
}

TEST(AdjustmentCost, SnrScaleOutIsTensOfSeconds) {
  BaselineFixture f;
  const auto m = train::resnet50();
  const auto elan = f.costs.pause_time(System::kElan, AdjustmentType::kScaleOut, m, 16, 32);
  const auto snr =
      f.costs.pause_time(System::kShutdownRestart, AdjustmentType::kScaleOut, m, 16, 32);
  // Paper: 10-80x faster scale in/out.
  EXPECT_GT(snr / elan, 10.0);
  EXPECT_LT(snr / elan, 120.0);
}

TEST(AdjustmentCost, SnrMigrationGapIsSmaller) {
  // Paper: only ~4x on migration, because S&R's replacements also start
  // asynchronously and just the checkpoint+load remains.
  BaselineFixture f;
  const auto m = train::resnet50();
  const auto elan = f.costs.pause_time(System::kElan, AdjustmentType::kMigrate, m, 16, 16);
  const auto snr =
      f.costs.pause_time(System::kShutdownRestart, AdjustmentType::kMigrate, m, 16, 16);
  EXPECT_GT(snr / elan, 1.4);
  EXPECT_LT(snr / elan, 12.0);
  const auto snr_scale =
      f.costs.pause_time(System::kShutdownRestart, AdjustmentType::kScaleOut, m, 16, 32);
  EXPECT_LT(snr, snr_scale);
}

TEST(AdjustmentCost, OverheadMatchesPaperBound) {
  BaselineFixture f;
  for (const auto& m : train::model_zoo()) {
    for (int workers : {2, 8, 32, 64}) {
      const auto o = f.costs.runtime_overhead(System::kElan, m, workers, 32 * workers);
      EXPECT_GT(o, 0.0);
      EXPECT_LT(o, 0.01) << m.name << " w=" << workers;  // <1%, typically <3 per mille
    }
  }
}

TEST(AdjustmentCost, CrossValidatesAgainstElasticJobRuntime) {
  // The analytic pause estimate feeding the scheduling simulator must agree
  // with what the actual ElasticJob runtime measures for the same scenario.
  BaselineFixture f;
  sim::Simulator sim;
  transport::MessageBus bus(sim, f.bandwidth);
  transport::KvStore kv(sim);
  JobConfig cfg;
  cfg.model = train::resnet50();
  cfg.initial_workers = 4;
  cfg.initial_total_batch = 128;
  ElasticJob job(sim, f.topology, f.bandwidth, f.fs, bus, kv, cfg);
  job.stop_after_iterations(500);
  job.start();
  sim.schedule(1.0, [&] { job.request_scale_out({4, 5}); });
  sim.run();
  ASSERT_EQ(job.adjustments().size(), 1u);
  const double measured = job.adjustments().front().pause_time();
  const double predicted =
      f.costs.pause_time(System::kElan, AdjustmentType::kScaleOut, cfg.model, 4, 6);
  // Within 50% (the runtime adds coordination latency and schedule effects).
  EXPECT_NEAR(predicted, measured, measured * 0.5);
}

TEST(AdjustmentCost, NewWorkerReadyTimeCoversStartPlusInit) {
  BaselineFixture f;
  EXPECT_GT(f.costs.new_worker_ready_time(), 10.0);
  EXPECT_LT(f.costs.new_worker_ready_time(), 30.0);
}

TEST(AdjustmentCost, SystemNames) {
  EXPECT_STREQ(to_string(System::kIdeal), "Ideal");
  EXPECT_STREQ(to_string(System::kElan), "Elan");
  EXPECT_STREQ(to_string(System::kShutdownRestart), "S&R");
}

}  // namespace
}  // namespace elan::baselines
