// Tests of the concurrent IO-free replication scheduler (paper §IV): its
// whole-blob case (whole_blob_options) and its chunk-pipelined data plane.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "elan/replication.h"
#include "train/models.h"

namespace elan {
namespace {

struct PlannerFixture {
  topo::Topology topology{topo::TopologySpec{}};
  topo::BandwidthModel bandwidth;
  ReplicationPlanner planner{topology, bandwidth};

  ReplicationRequest request(std::vector<topo::GpuId> existing,
                             std::vector<topo::GpuId> joining,
                             Bytes gpu_bytes = 200_MiB, Bytes cpu_bytes = 64_KiB) {
    ReplicationRequest r;
    int id = 0;
    for (auto g : existing) r.existing.emplace(id++, g);
    for (auto g : joining) r.joining.emplace(id++, g);
    r.gpu_state_bytes = gpu_bytes;
    r.cpu_state_bytes = cpu_bytes;
    return r;
  }

  ChunkSchedule whole_blob(const ReplicationRequest& r) const {
    return planner.chunk_plan(r, whole_blob_options(r));
  }
};

TEST(Replication, EmptyJoinIsFree) {
  PlannerFixture f;
  const auto plan = f.whole_blob(f.request({0, 1}, {}));
  EXPECT_TRUE(plan.transfers.empty());
  EXPECT_DOUBLE_EQ(plan.total_time, 0.0);
}

TEST(Replication, RequiresSources) {
  PlannerFixture f;
  EXPECT_THROW(f.whole_blob(f.request({}, {1})), InvalidArgument);
}

TEST(Replication, PicksNearestNeighbour) {
  // Paper Fig 9: new worker E (GPU under the same socket as C) replicates
  // from C, not from the remote D.
  PlannerFixture f;
  // Existing: GPU 0 (node 0) and GPU 8 (node 1). New: GPU 1 (switch peer of
  // GPU 0) must choose GPU 0 over GPU 8.
  const auto plan = f.whole_blob(f.request({0, 8}, {1}));
  ASSERT_EQ(plan.transfers.size(), 1u);
  EXPECT_EQ(plan.transfers[0].source_gpu, 0);
  EXPECT_EQ(plan.transfers[0].level, topo::LinkLevel::kL1);
}

TEST(Replication, Fig9Scenario) {
  // The paper's example: workers A,B on one switch, C on the other socket,
  // D on another node; new workers E (same socket as C) and F (same node as
  // D). E pairs with C, F pairs with D, and both run concurrently.
  PlannerFixture f;
  ReplicationRequest r;
  r.existing = {{0, 0}, {1, 1}, {2, 4}, {3, 8}};  // A, B, C, D
  r.joining = {{4, 5}, {5, 9}};                   // E (socket of C), F (node of D)
  r.gpu_state_bytes = 200_MiB;
  r.cpu_state_bytes = 64_KiB;
  const auto plan = f.whole_blob(r);
  ASSERT_EQ(plan.transfers.size(), 2u);
  const auto& e = plan.transfers[0].dest_gpu == 5 ? plan.transfers[0] : plan.transfers[1];
  const auto& ff = plan.transfers[0].dest_gpu == 9 ? plan.transfers[0] : plan.transfers[1];
  EXPECT_EQ(e.source_gpu, 4);   // C
  EXPECT_EQ(ff.source_gpu, 8);  // D
  // Concurrent: both start at time zero; makespan = slower of the two.
  EXPECT_DOUBLE_EQ(e.start, 0.0);
  EXPECT_DOUBLE_EQ(ff.start, 0.0);
  EXPECT_DOUBLE_EQ(plan.total_time, std::max(e.duration, ff.duration));
}

TEST(Replication, SpreadsLoadAcrossEqualSources) {
  // Two new workers whose best link to either source is equal must pick
  // different sources (one outgoing replication per source at a time).
  PlannerFixture f;
  // Existing on GPUs 0 and 2 (node 0, different switches); joining on GPUs 1
  // (peer of 0) and 3 (peer of 2).
  const auto plan = f.whole_blob(f.request({0, 2}, {1, 3}));
  ASSERT_EQ(plan.transfers.size(), 2u);
  EXPECT_NE(plan.transfers[0].source_worker, plan.transfers[1].source_worker);
}

TEST(Replication, ConcurrentWhenIndependent) {
  // Many same-switch replications across distinct switches: all concurrent,
  // makespan ~= a single transfer.
  PlannerFixture f;
  const auto plan = f.whole_blob(f.request({0, 2, 8, 10}, {1, 3, 9, 11}));
  ASSERT_EQ(plan.transfers.size(), 4u);
  for (const auto& t : plan.transfers) EXPECT_DOUBLE_EQ(t.start, 0.0);
  EXPECT_NEAR(plan.total_time, plan.serial_time / 4.0, plan.total_time * 0.01);
}

TEST(Replication, SerializesQpiContention) {
  // Paper §IV-3: replications that both traverse one node's socket link run
  // in turn, not in parallel.
  PlannerFixture f;
  // Existing on socket 0 of node 0 (GPUs 0,1); joining on socket 1 (GPUs 4,5):
  // both transfers cross node0's QPI.
  const auto plan = f.whole_blob(f.request({0, 1}, {4, 5}));
  ASSERT_EQ(plan.transfers.size(), 2u);
  const auto& first = plan.transfers[0];
  const auto& second = plan.transfers[1];
  EXPECT_EQ(first.level, topo::LinkLevel::kL3);
  EXPECT_EQ(second.level, topo::LinkLevel::kL3);
  EXPECT_DOUBLE_EQ(second.start, first.finish());
  EXPECT_NEAR(plan.total_time, plan.serial_time, 1e-9);
}

TEST(Replication, SerializesSharedNic) {
  // Two transfers leaving the same node over the network contend on its NIC.
  PlannerFixture f;
  const auto plan = f.whole_blob(f.request({0, 1}, {16, 24}));
  ASSERT_EQ(plan.transfers.size(), 2u);
  EXPECT_GT(plan.transfers[1].start, 0.0);
}

TEST(Replication, CpuStateOverlapsGpuState) {
  // CPU states ride the control network concurrently with the GPU transfer;
  // the pair costs max(gpu, cpu), and for realistic sizes GPU dominates.
  PlannerFixture f;
  const auto plan = f.whole_blob(f.request({0}, {1}, 200_MiB, 64_KiB));
  ASSERT_EQ(plan.transfers.size(), 1u);
  const auto& t = plan.transfers[0];
  EXPECT_GT(t.duration, plan.cpu_time);
  EXPECT_DOUBLE_EQ(plan.total_time, t.duration);
  // A pathological CPU state would dominate instead.
  const auto plan2 = f.whole_blob(f.request({0}, {1}, 1_MiB, 1_GiB));
  ASSERT_EQ(plan2.transfers.size(), 1u);
  EXPECT_GT(plan2.cpu_time, plan2.transfers[0].duration);
  EXPECT_DOUBLE_EQ(plan2.total_time, plan2.cpu_time);
}

TEST(Replication, PrefersFastLinksForTime) {
  PlannerFixture f;
  // Same-switch replication (P2P) vs forced cross-node replication.
  const auto p2p = f.whole_blob(f.request({0}, {1}));
  const auto net = f.whole_blob(f.request({0}, {8}));
  EXPECT_LT(p2p.total_time * 2, net.total_time);
}

TEST(Replication, ScalesToManyJoiners) {
  // 16 -> 64 scale-out: every new worker gets a source, total time stays
  // far below the serial sum (concurrency), and all sources are existing
  // workers.
  PlannerFixture f;
  std::vector<topo::GpuId> existing;
  std::vector<topo::GpuId> joining;
  for (int g = 0; g < 16; ++g) existing.push_back(g);
  for (int g = 16; g < 64; ++g) joining.push_back(g);
  const auto plan = f.whole_blob(f.request(existing, joining));
  ASSERT_EQ(plan.transfers.size(), 48u);
  EXPECT_LT(plan.total_time, plan.serial_time / 2.0);
  for (const auto& t : plan.transfers) {
    EXPECT_LT(t.source_worker, 16);
    EXPECT_GE(t.dest_worker, 16);
  }
}

TEST(Replication, SubSecondForRealisticStates) {
  // The headline property: replicating ~200 MiB of GPU state to new workers
  // takes well under a second (vs tens of seconds for checkpoint paths).
  PlannerFixture f;
  const auto plan = f.whole_blob(f.request({0, 1, 2, 3}, {4, 5, 6, 7}));
  EXPECT_LT(plan.total_time, 0.5);
}

TEST(Replication, WholeBlobIsOneChunkOfTheRequestedState) {
  // The whole-blob chunk is sized to the request: VGG-19's 1,149,337,920-byte
  // state (more than 1 GiB) still moves as one transfer per destination, and
  // a 0-byte state is one empty chunk.
  PlannerFixture f;
  const Bytes vgg = train::vgg19().gpu_state_bytes();
  ASSERT_GT(vgg, 1_GiB);
  const auto plan = f.whole_blob(f.request({0, 1}, {2, 3, 4}, vgg));
  EXPECT_EQ(plan.num_chunks, 1u);
  ASSERT_EQ(plan.transfers.size(), 3u);
  for (const auto& t : plan.transfers) {
    EXPECT_EQ(t.chunk, 0u);
    EXPECT_EQ(t.bytes, vgg);
    EXPECT_FALSE(t.relay);
  }
  const auto empty = f.whole_blob(f.request({0}, {1, 2}, 0));
  EXPECT_EQ(empty.num_chunks, 1u);
  EXPECT_EQ(empty.transfers.size(), 2u);
}

// ---- Chunk-pipelined data plane (ReplicationPlanner::chunk_plan). --------

void expect_equal_schedules(const ChunkSchedule& a, const ChunkSchedule& b) {
  ASSERT_EQ(a.transfers.size(), b.transfers.size());
  for (std::size_t i = 0; i < a.transfers.size(); ++i) {
    const auto& x = a.transfers[i];
    const auto& y = b.transfers[i];
    EXPECT_EQ(x.source_worker, y.source_worker) << "transfer " << i;
    EXPECT_EQ(x.dest_worker, y.dest_worker) << "transfer " << i;
    EXPECT_EQ(x.chunk, y.chunk) << "transfer " << i;
    EXPECT_EQ(x.relay, y.relay) << "transfer " << i;
    EXPECT_DOUBLE_EQ(x.start, y.start) << "transfer " << i;
    EXPECT_DOUBLE_EQ(x.duration, y.duration) << "transfer " << i;
  }
  EXPECT_DOUBLE_EQ(a.total_time, b.total_time);
}

TEST(ChunkPlan, DefaultChunkSizeIsFourMiB) {
  // chunk_bytes == 0 selects the default chunk size.
  PlannerFixture f;
  EXPECT_EQ(f.planner.chunk_plan(f.request({0}, {1})).chunk_bytes, 4_MiB);
}

TEST(ChunkPlan, QpiContentionSerialisesChunksOnSharedLink) {
  // Same scenario as Replication.SerializesQpiContention: both destinations
  // sit across node 0's QPI from both sources. Chunk transfers crossing the
  // QPI must still serialise pairwise (the shared-resource rule is enforced
  // per chunk, not per blob), but relaying lets the first destination feed
  // the second over its local switch, beating the whole-blob makespan.
  PlannerFixture f;
  const auto req = f.request({0, 1}, {4, 5});
  const auto blob = f.whole_blob(req);
  const auto chunked = f.planner.chunk_plan(req);
  ASSERT_GT(chunked.num_chunks, 1u);

  std::vector<const ChunkTransfer*> qpi;
  int relayed = 0;
  for (const auto& t : chunked.transfers) {
    if (t.level == topo::LinkLevel::kL3) qpi.push_back(&t);
    if (t.relay) {
      ++relayed;
      // Relays stay on socket 1's fast local links, off the QPI.
      EXPECT_LT(t.level, topo::LinkLevel::kL3);
    }
  }
  ASSERT_GE(qpi.size(), chunked.num_chunks);
  std::sort(qpi.begin(), qpi.end(),
            [](const ChunkTransfer* a, const ChunkTransfer* b) { return a->start < b->start; });
  for (std::size_t i = 1; i < qpi.size(); ++i) {
    EXPECT_GE(qpi[i]->start, qpi[i - 1]->finish() - 1e-12)
        << "QPI chunks " << i - 1 << " and " << i << " overlap";
  }
  EXPECT_GT(relayed, 0);
  EXPECT_LT(chunked.total_time, blob.total_time);
}

TEST(ChunkPlan, TieBreaksByPendingDestinationCount) {
  // Two sources on one switch, two destinations equally distant from both:
  // the load tie-break must fan the destinations out across sources instead
  // of queueing both on the first.
  PlannerFixture f;
  const auto req = f.request({0, 1}, {2, 3});
  const auto chunked = f.whole_blob(req);
  ASSERT_EQ(chunked.transfers.size(), 2u);
  EXPECT_NE(chunked.transfers[0].source_worker, chunked.transfers[1].source_worker);
}

TEST(ChunkPlan, DeterministicForEveryStrategy) {
  // Identical requests must produce identical schedules — kBlindSources'
  // round-robin and kSingleSource's source choice included. The executor
  // replays these schedules event-by-event, so any nondeterminism here
  // would break the chaos suite's fingerprint equality.
  for (auto strategy :
       {ReplicationStrategy::kElan, ReplicationStrategy::kNearestSerial,
        ReplicationStrategy::kSingleSource, ReplicationStrategy::kBlindSources}) {
    PlannerFixture f;
    const ReplicationPlanner planner(f.topology, f.bandwidth, strategy);
    const auto req = f.request({0, 3, 9}, {1, 2, 4, 10, 11});
    expect_equal_schedules(planner.chunk_plan(req), planner.chunk_plan(req));
  }
}

TEST(ChunkPlan, ResumeSkipsVerifiedPrefix) {
  // A destination resuming with k verified chunks only receives the suffix,
  // and finishes strictly earlier than a cold start.
  PlannerFixture f;
  const auto req = f.request({0}, {1});
  const auto cold = f.planner.chunk_plan(req);
  ASSERT_GT(cold.num_chunks, 4u);
  const std::uint32_t k = cold.num_chunks / 2;
  ChunkPlanOptions resume;
  resume.verified[1] = k;
  const auto resumed = f.planner.chunk_plan(req, resume);
  EXPECT_EQ(resumed.num_chunks, cold.num_chunks);
  ASSERT_EQ(resumed.transfers.size(), cold.num_chunks - k);
  for (const auto& t : resumed.transfers) EXPECT_GE(t.chunk, k);
  EXPECT_LT(resumed.total_time, cold.total_time);
}

TEST(ChunkPlan, EveryDestinationReceivesEveryByteExactlyOnce) {
  // With relaying on, chunks arrive from a mix of original sources and peer
  // destinations — but each destination still receives each chunk exactly
  // once, totalling the GPU state size.
  PlannerFixture f;
  const auto req = f.request({0, 1}, {4, 5, 6, 7, 8, 9, 10, 11});
  const auto chunked = f.planner.chunk_plan(req);
  std::map<int, std::map<std::uint32_t, int>> seen;
  std::map<int, Bytes> bytes;
  for (const auto& t : chunked.transfers) {
    ++seen[t.dest_worker][t.chunk];
    bytes[t.dest_worker] += t.bytes;
  }
  ASSERT_EQ(seen.size(), req.joining.size());
  for (const auto& [dest, chunks] : seen) {
    EXPECT_EQ(chunks.size(), chunked.num_chunks) << "dest " << dest;
    for (const auto& [chunk, count] : chunks) {
      EXPECT_EQ(count, 1) << "dest " << dest << " chunk " << chunk;
    }
    EXPECT_EQ(bytes[dest], req.gpu_state_bytes) << "dest " << dest;
  }
}

TEST(ChunkPlan, RelayStartsOnlyAfterPeerVerifiedPrefix) {
  // No relayed chunk may leave a peer before that peer has finished
  // receiving it: a relay of chunk c from peer p starts at or after p's
  // receive of c completed.
  PlannerFixture f;
  const auto req = f.request({0}, {1, 2, 3, 4, 5, 6, 7});
  const auto chunked = f.planner.chunk_plan(req);
  std::map<std::pair<int, std::uint32_t>, Seconds> received_at;
  for (const auto& t : chunked.transfers) {
    received_at[{t.dest_worker, t.chunk}] = t.finish();
  }
  int relayed = 0;
  for (const auto& t : chunked.transfers) {
    if (!t.relay) continue;
    ++relayed;
    const auto it = received_at.find({t.source_worker, t.chunk});
    ASSERT_NE(it, received_at.end())
        << "relay source " << t.source_worker << " never received chunk " << t.chunk;
    EXPECT_GE(t.start, it->second - 1e-12);
  }
  EXPECT_GT(relayed, 0);
}


// Every field of every schedule the planner makes for the five
// BENCH_replication_baseline shapes, folded (h ^ word) * FNV prime: each
// transfer (doubles as their bits), the completion map, the three totals and
// the chunk geometry. The cases cover the four strategies, relays on and
// off, whole-blob and 4 MiB chunks, and a resume from verified prefixes. A
// change that moves the digest changes a schedule somewhere, however small.
constexpr std::uint64_t kScheduleDigest = 0xc55334685917ddefULL;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) { return (h ^ v) * 0x100000001b3ULL; }

std::uint64_t fold_schedule(std::uint64_t h, const ChunkSchedule& s) {
  h = mix(h, s.chunk_bytes);
  h = mix(h, s.num_chunks);
  for (const auto& t : s.transfers) {
    for (const std::int64_t field :
         {std::int64_t{t.source_worker}, std::int64_t{t.dest_worker},
          std::int64_t{t.source_gpu}, std::int64_t{t.dest_gpu},
          static_cast<std::int64_t>(t.level), std::int64_t{t.chunk},
          static_cast<std::int64_t>(t.bytes), std::int64_t{t.relay}}) {
      h = mix(h, static_cast<std::uint64_t>(field));
    }
    h = mix(h, std::bit_cast<std::uint64_t>(t.start));
    h = mix(h, std::bit_cast<std::uint64_t>(t.duration));
  }
  for (const auto& [worker, done] : s.completion) {
    h = mix(h, static_cast<std::uint64_t>(worker));
    h = mix(h, std::bit_cast<std::uint64_t>(done));
  }
  h = mix(h, std::bit_cast<std::uint64_t>(s.total_time));
  h = mix(h, std::bit_cast<std::uint64_t>(s.serial_time));
  return mix(h, std::bit_cast<std::uint64_t>(s.cpu_time));
}

TEST(ChunkPlan, ScheduleDigestIsPinned) {
  struct Shape {
    topo::TopologySpec spec;
    std::vector<topo::GpuId> sources;
    std::vector<topo::GpuId> joiners;
  };
  auto range = [](int from, int to) {
    std::vector<topo::GpuId> v;
    for (int g = from; g < to; ++g) v.push_back(g);
    return v;
  };
  const topo::TopologySpec qpi{.nodes = 1,
                               .sockets_per_node = 2,
                               .bridges_per_socket = 1,
                               .switches_per_bridge = 2,
                               .gpus_per_switch = 3};
  const std::vector<Shape> shapes{{qpi, range(0, 2), range(6, 12)},
                                  {{}, range(0, 1), range(1, 8)},
                                  {{}, range(0, 4), range(4, 8)},
                                  {{}, range(0, 4), range(4, 16)},
                                  {{}, range(0, 8), range(8, 16)}};
  const topo::BandwidthModel bandwidth;
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  int plans = 0;
  for (const auto& shape : shapes) {
    const topo::Topology topology(shape.spec);
    ReplicationRequest req;
    int id = 0;
    for (auto g : shape.sources) req.existing.emplace(id++, g);
    for (auto g : shape.joiners) req.joining.emplace(id++, g);
    req.gpu_state_bytes = train::resnet50().gpu_state_bytes();
    req.cpu_state_bytes = 65_KiB;
    for (auto strategy :
         {ReplicationStrategy::kElan, ReplicationStrategy::kNearestSerial,
          ReplicationStrategy::kSingleSource, ReplicationStrategy::kBlindSources}) {
      const ReplicationPlanner planner(topology, bandwidth, strategy);
      for (const Bytes chunk_bytes : {req.gpu_state_bytes, Bytes{0}}) {
        for (const bool relay : {false, true}) {
          ChunkPlanOptions options;
          options.chunk_bytes = chunk_bytes;
          options.relay_sources = relay;
          const ChunkSchedule cold = planner.chunk_plan(req, options);
          digest = fold_schedule(digest, cold);
          // Resume: the first joiner holds half the stream, the last one chunk.
          options.verified[req.joining.begin()->first] = cold.num_chunks / 2;
          options.verified[req.joining.rbegin()->first] = 1;
          digest = fold_schedule(digest, planner.chunk_plan(req, options));
          plans += 2;
        }
      }
    }
  }
  EXPECT_EQ(plans, 160);
  EXPECT_EQ(digest, kScheduleDigest) << std::hex << "digest 0x" << digest;
}

}  // namespace
}  // namespace elan
