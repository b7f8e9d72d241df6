#include "elan/replication.h"

#include <algorithm>
#include <limits>
#include <tuple>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace elan {

const char* to_string(ReplicationStrategy strategy) {
  switch (strategy) {
    case ReplicationStrategy::kElan: return "Elan";
    case ReplicationStrategy::kNearestSerial: return "nearest-serial";
    case ReplicationStrategy::kSingleSource: return "single-source";
    case ReplicationStrategy::kBlindSources: return "blind-sources";
  }
  return "?";
}

ChunkSchedule ReplicationPlanner::chunk_plan(const ReplicationRequest& request,
                                             const ChunkPlanOptions& options) const {
  require(!request.existing.empty(), "replication: no source workers");
  static auto& chunk_plans_total = obs::MetricsRegistry::instance().counter(
      "elan_replication_chunk_plans_total", "Chunk-granular replication schedules computed");
  chunk_plans_total.add(1);
  ELAN_TRACE_SCOPE("replication", "chunk_plan");

  ChunkSchedule sched;
  sched.chunk_bytes =
      options.chunk_bytes > 0 ? options.chunk_bytes : kDefaultReplicationChunkBytes;
  if (request.joining.empty()) return sched;

  const Bytes gpu_bytes = request.gpu_state_bytes;
  sched.num_chunks =
      gpu_bytes == 0 ? 1
                     : static_cast<std::uint32_t>((gpu_bytes + sched.chunk_bytes - 1) /
                                                  sched.chunk_bytes);
  // CPU states go over the control network ("even we use web socket to
  // replicate them" — §IV-3), overlapped with the GPU chunks.
  sched.cpu_time = bandwidth_->control_transfer_time(request.cpu_state_bytes);
  auto chunk_size = [&](std::uint32_t chunk) -> Bytes {
    if (gpu_bytes == 0) return 0;
    return std::min(sched.chunk_bytes,
                    gpu_bytes - static_cast<Bytes>(chunk) * sched.chunk_bytes);
  };

  const bool serial = strategy_ == ReplicationStrategy::kNearestSerial ||
                      strategy_ == ReplicationStrategy::kSingleSource;
  const bool relay =
      options.relay_sources && strategy_ == ReplicationStrategy::kElan;

  // Endpoints are full duplex: one outgoing chunk and one incoming chunk at a
  // time, tracked separately so a relay can serve its prefix while its own
  // suffix streams in.
  struct Source {
    int worker = -1;
    topo::GpuId gpu = -1;
    Seconds busy_send = 0;
    int load = 0;  // chunks committed; tie-break spreads equally-near sources
  };
  std::vector<Source> sources;
  for (const auto& [worker, gpu] : request.existing) sources.push_back({worker, gpu});

  struct Dest {
    int worker = -1;
    topo::GpuId gpu = -1;
    std::uint32_t have = 0;  // next chunk needed == verified-prefix length
    bool resumed = false;    // pre-verified prefix: CPU state already delivered
    Seconds busy_send = 0;
    Seconds busy_recv = 0;   // finish of the last chunk received
    int load = 0;
    std::vector<Seconds> ready_at;  // per chunk: when the relay prefix holds it
    std::size_t blind_source = 0;   // kBlindSources: pinned round-robin source
  };
  std::vector<Dest> dests;
  for (const auto& [worker, gpu] : request.joining) {
    Dest d;
    d.worker = worker;
    d.gpu = gpu;
    d.ready_at.assign(sched.num_chunks, std::numeric_limits<Seconds>::infinity());
    if (auto it = options.verified.find(worker); it != options.verified.end()) {
      d.have = std::min(it->second, sched.num_chunks);
      d.resumed = d.have > 0;
      std::fill(d.ready_at.begin(), d.ready_at.begin() + d.have, 0.0);
    }
    d.blind_source = dests.size() % sources.size();  // dest-id order round robin
    dests.push_back(std::move(d));
  }

  // Sender slots: slot s < sources.size() is an existing worker and, with
  // relays on, slot sources.size() + p is destination p serving its verified
  // prefix. Each (slot, destination) pair's link level and shared resources
  // are resolved once, into one flat array: the greedy loop below re-ranks
  // every candidate on each commitment and reads only that.
  struct Link {
    topo::LinkLevel level = topo::LinkLevel::kSelf;
    topo::TransferResources resources;
  };
  const std::size_t num_dests = dests.size();
  const std::size_t num_slots = sources.size() + (relay ? num_dests : 0);
  auto slot_gpu = [&](std::size_t slot) {
    return slot < sources.size() ? sources[slot].gpu : dests[slot - sources.size()].gpu;
  };
  std::vector<Link> links(num_slots * num_dests);
  for (std::size_t slot = 0; slot < num_slots; ++slot) {
    for (std::size_t di = 0; di < num_dests; ++di) {
      Link& link = links[slot * num_dests + di];
      link.level = topology_->link_level(slot_gpu(slot), dests[di].gpu);
      link.resources = topology_->transfer_resources(slot_gpu(slot), dests[di].gpu);
    }
  }
  // When each shared resource frees up, by id; the serial strategies also
  // pass one token that every transfer holds.
  std::vector<Seconds> resource_free(static_cast<std::size_t>(topology_->resource_count()), 0);
  Seconds token_free = 0;

  std::size_t remaining = 0;
  for (const auto& d : dests) remaining += sched.num_chunks - d.have;

  // Greedy work-conserving list scheduler: each round ranks, for every
  // destination, the best source for its next needed chunk — link level,
  // then earliest start, then source load (the §IV selection order) — and
  // commits the globally earliest-starting candidate (ties to the lowest
  // destination id). Strictly one chunk ahead per destination keeps delivery
  // in stream order, which is what makes the received prefix relayable.
  while (remaining > 0) {
    struct Candidate {
      int level = 1 << 30;
      Seconds start = std::numeric_limits<Seconds>::infinity();
      int load = 1 << 30;
      bool relay = false;
      int worker = -1;
      std::size_t slot = 0;
      bool better_than(const Candidate& o) const {
        if (level != o.level) return level < o.level;
        if (start != o.start) return start < o.start;
        if (load != o.load) return load < o.load;
        if (relay != o.relay) return !relay;  // prefer replica over relay on ties
        return worker < o.worker;
      }
    };

    std::size_t best_dest = num_dests;
    Candidate best;
    for (std::size_t di = 0; di < num_dests; ++di) {
      Dest& d = dests[di];
      if (d.have >= sched.num_chunks) continue;
      const std::uint32_t chunk = d.have;

      Candidate dest_best;
      auto consider = [&](std::size_t slot, int worker, Seconds available, Seconds send_busy,
                          int load, bool is_relay) {
        const Link& link = links[slot * num_dests + di];
        Candidate c;
        c.level = static_cast<int>(link.level);
        c.start = std::max({available, send_busy, d.busy_recv});
        for (const int id : link.resources) {
          c.start = std::max(c.start, resource_free[static_cast<std::size_t>(id)]);
        }
        if (serial) c.start = std::max(c.start, token_free);
        c.load = load;
        c.relay = is_relay;
        c.worker = worker;
        c.slot = slot;
        if (c.better_than(dest_best)) dest_best = c;
      };

      switch (strategy_) {
        case ReplicationStrategy::kSingleSource:
          consider(0, sources[0].worker, 0, sources[0].busy_send, sources[0].load, false);
          break;
        case ReplicationStrategy::kBlindSources: {
          const Source& s = sources[d.blind_source];
          consider(d.blind_source, s.worker, 0, s.busy_send, s.load, false);
          break;
        }
        case ReplicationStrategy::kElan:
        case ReplicationStrategy::kNearestSerial:
          for (std::size_t si = 0; si < sources.size(); ++si) {
            const Source& s = sources[si];
            consider(si, s.worker, 0, s.busy_send, s.load, false);
          }
          break;
      }
      if (relay) {
        for (std::size_t pi = 0; pi < num_dests; ++pi) {
          if (pi == di) continue;
          const Dest& p = dests[pi];
          if (p.have <= chunk) continue;  // prefix does not reach this chunk yet
          consider(sources.size() + pi, p.worker, p.ready_at[chunk], p.busy_send, p.load,
                   true);
        }
      }

      ELAN_CHECK(dest_best.worker >= 0, "chunk replication: no source for destination");
      if (best_dest == num_dests || dest_best.start < best.start ||
          (dest_best.start == best.start && d.worker < dests[best_dest].worker)) {
        best_dest = di;
        best = dest_best;
      }
    }

    ELAN_CHECK(best_dest < num_dests, "chunk replication: scheduler stalled");
    Dest& d = dests[best_dest];
    const Link& link = links[best.slot * num_dests + best_dest];
    ChunkTransfer t;
    t.source_worker = best.worker;
    t.dest_worker = d.worker;
    t.source_gpu = slot_gpu(best.slot);
    t.dest_gpu = d.gpu;
    t.level = link.level;
    t.chunk = d.have;
    t.bytes = chunk_size(d.have);
    t.relay = best.relay;
    t.start = best.start;
    t.duration = bandwidth_->transfer_time(t.level, t.bytes);
    sched.transfers.push_back(t);
    sched.serial_time += t.duration;

    const Seconds finish = t.finish();
    for (const int id : link.resources) resource_free[static_cast<std::size_t>(id)] = finish;
    if (serial) token_free = finish;
    d.busy_recv = finish;
    d.ready_at[t.chunk] = finish;
    ++d.have;
    --remaining;
    if (best.relay) {
      Dest& p = dests[best.slot - sources.size()];
      p.busy_send = finish;
      ++p.load;
    } else {
      Source& s = sources[best.slot];
      s.busy_send = finish;
      ++s.load;
    }
  }

  // A destination's chunks arrive in order, so its last receive is its latest.
  for (const auto& d : dests) {
    const Seconds done = std::max(d.resumed ? 0 : sched.cpu_time, d.busy_recv);
    sched.completion[d.worker] = done;
    sched.total_time = std::max(sched.total_time, done);
  }
  std::sort(sched.transfers.begin(), sched.transfers.end(),
            [](const ChunkTransfer& a, const ChunkTransfer& b) {
              return std::tie(a.start, a.dest_worker, a.chunk) <
                     std::tie(b.start, b.dest_worker, b.chunk);
            });
  return sched;
}

}  // namespace elan
