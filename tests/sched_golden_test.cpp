// Golden pins of ClusterSim's decisions: every bit of the replay metrics for
// all five policies, count-based on the paper testbed (5 policies x 3 seeds)
// and placement-aware on a 1024-GPU cluster (the only mode that runs
// take_gpus / release_gpus), under Elan. S&R rows (start windows, long
// pauses) and Ideal rows (no pause, no window) pin the throughput a job
// trains at before, during and after an adjustment. They are the replay
// loop's only bit-identity reference: a change to the scheduling pass, the
// throughput pricing or the shared allocation rule that alters any decision
// moves them.
//
// On a mismatch the test prints the row the code now computes, in source
// form. Re-pin only for a change that is meant to alter scheduling.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "sched/cluster.h"
#include "sched/trace.h"

namespace elan::sched {
namespace {

struct Golden {
  int jobs_finished = 0;
  int total_adjustments = 0;
  std::uint64_t makespan = 0;     // bits of the double
  std::uint64_t mean_jpt = 0;     // bits of pending_time.mean()
  std::uint64_t mean_jct = 0;     // bits of completion_time.mean()
  std::uint64_t utilization = 0;  // bits of average_utilization()

  bool operator==(const Golden&) const = default;
};

struct GoldenRow {
  std::uint64_t seed;
  PolicyKind policy;
  Golden expected;
};

std::uint64_t bits_of(double v) {
  std::uint64_t u;
  static_assert(sizeof(u) == sizeof(v));
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

Golden golden_of(const ScheduleMetrics& m) {
  return Golden{m.jobs_finished,
                m.total_adjustments,
                bits_of(m.makespan),
                bits_of(m.pending_time.mean()),
                bits_of(m.completion_time.mean()),
                bits_of(m.average_utilization())};
}

const char* policy_enumerator(PolicyKind policy) {
  switch (policy) {
    case PolicyKind::kFifo: return "kFifo";
    case PolicyKind::kBackfill: return "kBackfill";
    case PolicyKind::kElasticFifo: return "kElasticFifo";
    case PolicyKind::kElasticBackfill: return "kElasticBackfill";
    case PolicyKind::kElasticSrtf: return "kElasticSrtf";
  }
  return "?";
}

std::string source_row(std::uint64_t seed, PolicyKind policy, const Golden& g) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{%" PRIu64 ", PolicyKind::%s, {%d, %d, 0x%016" PRIx64 ", 0x%016" PRIx64
                ", 0x%016" PRIx64 ", 0x%016" PRIx64 "}},",
                seed, policy_enumerator(policy), g.jobs_finished, g.total_adjustments,
                g.makespan, g.mean_jpt, g.mean_jct, g.utilization);
  return buf;
}

struct Testbed {
  explicit Testbed(int nodes) : topology(topo::TopologySpec{.nodes = nodes}) {}
  topo::Topology topology;
  topo::BandwidthModel bandwidth;
  storage::SimFilesystem fs;
  train::ThroughputModel throughput{topology, bandwidth};
  baselines::AdjustmentCostModel costs{topology, bandwidth, fs};
};

// The paper's 128-GPU testbed, default two-day traces, count-based.
constexpr GoldenRow kCountBased[] = {
    {2020, PolicyKind::kFifo,
     {793, 0, 0x410ed5c000000000, 0x40d5ff7db86a4e87, 0x40dba0f1c69e9ab8, 0x3fe973bec6bb4cde}},
    {2020, PolicyKind::kBackfill,
     {793, 0, 0x410e122000000000, 0x40cf2c913b3ddabc, 0x40d537bcabd3398f, 0x3fea19511b7c70db}},
    {2020, PolicyKind::kElasticFifo,
     {793, 3285, 0x41080ce000000000, 0x40b0974d136044cd, 0x40bfbfc485554ae5, 0x3feb83219cdd23d2}},
    {2020, PolicyKind::kElasticBackfill,
     {793, 3292, 0x410814b000000000, 0x40909d29f8ec9356, 0x40b37eab0486af54, 0x3feb0cba07e3c360}},
    {2020, PolicyKind::kElasticSrtf,
     {793, 3176, 0x410846b000000000, 0x4092cc8f043915bc, 0x40b3650188e25df9, 0x3febe19d8de6dfaa}},
    {2021, PolicyKind::kFifo,
     {774, 0, 0x410edcf000000000, 0x40dcac9135001782, 0x40e104c34fc03615, 0x3fea73503af7c74d}},
    {2021, PolicyKind::kBackfill,
     {774, 0, 0x410defc000000000, 0x40d39087732e658c, 0x40d8ed7cddaeba3e, 0x3feb44df41455781}},
    {2021, PolicyKind::kElasticFifo,
     {774, 3510, 0x410870e000000000, 0x40b8a2359d18d7b3, 0x40c3cca4115c21c0, 0x3fec1b7b64120d87}},
    {2021, PolicyKind::kElasticBackfill,
     {774, 3488, 0x4107ac0000000000, 0x40957fe850aacfd0, 0x40b48215dc99d5ad, 0x3fec28a5e7d7c3b3}},
    {2021, PolicyKind::kElasticSrtf,
     {774, 3477, 0x41081ff000000000, 0x4091883fa2081546, 0x40b32f2513815bf8, 0x3fec8da97999ee7d}},
    {2022, PolicyKind::kFifo,
     {800, 0, 0x410a4be000000000, 0x40cd87879bb818ac, 0x40d3dc756775a5ec, 0x3fec25b18c0b2b93}},
    {2022, PolicyKind::kBackfill,
     {800, 0, 0x4109e24000000000, 0x40c634546884e57b, 0x40d032dbcddc0c52, 0x3fec988cb7f041de}},
    {2022, PolicyKind::kElasticFifo,
     {800, 3151, 0x4106bbb000000000, 0x40b43e5c043cfe23, 0x40c11bbaceeb4be2, 0x3fec62fb99f3af11}},
    {2022, PolicyKind::kElasticBackfill,
     {800, 3163, 0x4106f3a000000000, 0x409c9f49aa8d921b, 0x40b5a94c043cfe20, 0x3feb503fd38fa678}},
    {2022, PolicyKind::kElasticSrtf,
     {800, 2995, 0x4108bcd000000000, 0x4092f0d6775a5ef4, 0x40b288e8d109caee, 0x3fea99b99d51a0c1}},
};

// Placement-aware on 128 servers x 8 GPUs: the first hour of a
// production-shaped trace at four times the arrival rate of bench_sched's
// 5k-job replay. Its 291 jobs queue on the 1024 GPUs, so the five policies
// decide differently, and the five replays take about a third of a second.
constexpr int kPlacementJobs = 20000;
constexpr Seconds kPlacementSpan = hours(1.0);
constexpr std::uint64_t kPlacementSeed = 2020;
constexpr GoldenRow kPlacementAware[] = {
    {2020, PolicyKind::kFifo,
     {291, 0, 0x40e3254000000000, 0x406b2a65f6b32724, 0x40b6495dbe398ead, 0x3fcc57c04b31bce6}},
    {2020, PolicyKind::kBackfill,
     {291, 0, 0x40e3254000000000, 0x406aebb7c731d554, 0x40b647684cbd841f, 0x3fcc57c04b31bce6}},
    {2020, PolicyKind::kElasticFifo,
     {291, 919, 0x40e91e0000000000, 0x407ff61431035d04, 0x40b09efcf92a9a1a, 0x3fc840e3b0309019}},
    {2020, PolicyKind::kElasticBackfill,
     {291, 1009, 0x40e8d80000000000, 0x406e360dfdbcd472, 0x40af7feda165eb30, 0x3fc7f58afdd63f48}},
    {2020, PolicyKind::kElasticSrtf,
     {291, 1044, 0x40e9b7c000000000, 0x40643dc0934a7732, 0x40aee243d7f0ea4f, 0x3fc729b6861f7d60}},
};

// The count-based seed-2020 trace and the placement-aware trace under the
// other two systems.
constexpr GoldenRow kCountBasedSnr[] = {
    {2020, PolicyKind::kFifo,
     {793, 0, 0x410ed5c000000000, 0x40d5ff7db86a4e87, 0x40dba0f1c69e9ab8, 0x3fe973bec6bb4cde}},
    {2020, PolicyKind::kBackfill,
     {793, 0, 0x410e122000000000, 0x40cf2c913b3ddabc, 0x40d537bcabd3398f, 0x3fea19511b7c70db}},
    {2020, PolicyKind::kElasticFifo,
     {793, 3309, 0x410897f000000000, 0x40b809beb5c1c2ff, 0x40c3bd01e5b16cf7, 0x3feb8a254e03c2cf}},
    {2020, PolicyKind::kElasticBackfill,
     {793, 3229, 0x410802e000000000, 0x4096d5990628f197, 0x40b5627d2d33b80c, 0x3feba3dde731f608}},
    {2020, PolicyKind::kElasticSrtf,
     {793, 3290, 0x410853d000000000, 0x40957fe8705e885c, 0x40b45a03261991f0, 0x3fecae0fe0599b3f}},
};
constexpr GoldenRow kCountBasedIdeal[] = {
    {2020, PolicyKind::kFifo,
     {793, 0, 0x410ed07000000000, 0x40d5eb07e3ac7c5e, 0x40db8ac7530c5d62, 0x3fe970fe6b02119b}},
    {2020, PolicyKind::kBackfill,
     {793, 0, 0x410e19a000000000, 0x40cf880c8cea90d1, 0x40d563c5b5d52968, 0x3fea0b8162cd3e8d}},
    {2020, PolicyKind::kElasticFifo,
     {793, 3345, 0x41081fa000000000, 0x40b36a1cf98cd18b, 0x40c1292a40158056, 0x3feb7f04ce45822b}},
    {2020, PolicyKind::kElasticBackfill,
     {793, 3388, 0x4107ffc000000000, 0x409403d511c818a3, 0x40b4228067a21ffd, 0x3feb3aa8838fa84b}},
    {2020, PolicyKind::kElasticSrtf,
     {793, 3331, 0x4108592000000000, 0x408f9fd60b07509e, 0x40b2d10c82c025cb, 0x3feb2d0660e59324}},
};
constexpr GoldenRow kPlacementAwareSnr[] = {
    {2020, PolicyKind::kFifo,
     {291, 0, 0x40e3254000000000, 0x406b2a65f6b32724, 0x40b6495dbe398ead, 0x3fcc57c04b31bce6}},
    {2020, PolicyKind::kBackfill,
     {291, 0, 0x40e3254000000000, 0x406aebb7c731d554, 0x40b647684cbd841f, 0x3fcc57c04b31bce6}},
    {2020, PolicyKind::kElasticFifo,
     {291, 980, 0x40e917c000000000, 0x40819bcf27763ec9, 0x40b116adcc4ce948, 0x3fc8c14d194d194d}},
    {2020, PolicyKind::kElasticBackfill,
     {291, 1037, 0x40e8e20000000000, 0x4073230e088bb886, 0x40b029fa55899cbe, 0x3fc85aab78640ca8}},
    {2020, PolicyKind::kElasticSrtf,
     {291, 1112, 0x40e97f8000000000, 0x406a3aac5778361a, 0x40afbe67085371c9, 0x3fc7f14edd0d93ae}},
};

constexpr PolicyKind kPolicies[] = {PolicyKind::kFifo, PolicyKind::kBackfill,
                                    PolicyKind::kElasticFifo, PolicyKind::kElasticBackfill,
                                    PolicyKind::kElasticSrtf};

void expect_rows(const Testbed& bed, const std::vector<SchedJobSpec>& trace,
                 std::uint64_t seed, ClusterParams params, baselines::System system,
                 const GoldenRow* rows, std::size_t n_rows) {
  for (const PolicyKind policy : kPolicies) {
    const Golden actual =
        golden_of(ClusterSim(bed.throughput, bed.costs, policy, system, params).run(trace));
    const GoldenRow* row = nullptr;
    for (std::size_t i = 0; i < n_rows; ++i) {
      if (rows[i].seed == seed && rows[i].policy == policy) row = &rows[i];
    }
    if (row == nullptr) {
      ADD_FAILURE() << "no golden row; the code computes:\n"
                    << source_row(seed, policy, actual);
      continue;
    }
    EXPECT_EQ(actual, row->expected) << "the code now computes:\n"
                                     << source_row(seed, policy, actual);
  }
}

TEST(ClusterGolden, CountBasedMatrix) {
  const Testbed bed(16);
  for (const std::uint64_t seed : {2020ULL, 2021ULL, 2022ULL}) {
    TraceParams tp;
    tp.seed = seed;
    const auto trace = TraceGenerator(bed.throughput, tp).generate();
    expect_rows(bed, trace, seed, ClusterParams{}, baselines::System::kElan, kCountBased,
                std::size(kCountBased));
  }
}

TEST(ClusterGolden, CountBasedSnrAndIdeal) {
  const Testbed bed(16);
  TraceParams tp;
  tp.seed = 2020;
  const auto trace = TraceGenerator(bed.throughput, tp).generate();
  expect_rows(bed, trace, tp.seed, ClusterParams{}, baselines::System::kShutdownRestart,
              kCountBasedSnr, std::size(kCountBasedSnr));
  expect_rows(bed, trace, tp.seed, ClusterParams{}, baselines::System::kIdeal,
              kCountBasedIdeal, std::size(kCountBasedIdeal));
}

TEST(ClusterGolden, PlacementAware) {
  const Testbed bed(128);
  TraceParams tp = production_trace_params(kPlacementJobs, kPlacementSeed);
  tp.span = kPlacementSpan;
  const auto trace = TraceGenerator(bed.throughput, tp).generate();
  ClusterParams params;
  params.total_gpus = bed.topology.total_gpus();
  params.placement_aware = true;
  expect_rows(bed, trace, kPlacementSeed, params, baselines::System::kElan, kPlacementAware,
              std::size(kPlacementAware));
  expect_rows(bed, trace, kPlacementSeed, params, baselines::System::kShutdownRestart,
              kPlacementAwareSnr, std::size(kPlacementAwareSnr));
}

}  // namespace
}  // namespace elan::sched
