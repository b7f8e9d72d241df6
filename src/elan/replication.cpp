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

  // Shared-resource keys are interned to dense indices once per GPU pair: the
  // greedy loop below re-ranks every candidate on each commitment and must
  // not rebuild strings each time.
  std::map<std::string, std::size_t> key_ids;
  std::vector<Seconds> resource_free;
  auto intern = [&](const std::string& key) {
    auto [it, fresh] = key_ids.emplace(key, resource_free.size());
    if (fresh) resource_free.push_back(0);
    return it->second;
  };
  const std::size_t serial_token = intern("global-serial-token");
  std::map<std::pair<topo::GpuId, topo::GpuId>, std::vector<std::size_t>> pair_keys;
  auto keys_for = [&](topo::GpuId src, topo::GpuId dst) -> const std::vector<std::size_t>& {
    auto [it, fresh] = pair_keys.try_emplace({src, dst});
    if (fresh) {
      for (const auto& key : topology_->transfer_resources(src, dst)) {
        it->second.push_back(intern(key));
      }
      if (serial) it->second.push_back(serial_token);
    }
    return it->second;
  };

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
    Seconds busy_recv = 0;
    int load = 0;
    std::vector<Seconds> ready_at;  // per chunk: when the relay prefix holds it
    int blind_source = -1;          // kBlindSources: pinned round-robin source
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
    d.blind_source =
        sources[dests.size() % sources.size()].worker;  // dest-id order round robin
    dests.push_back(std::move(d));
  }

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
      topo::GpuId gpu = -1;
      Seconds duration = 0;
      bool better_than(const Candidate& o) const {
        if (level != o.level) return level < o.level;
        if (start != o.start) return start < o.start;
        if (load != o.load) return load < o.load;
        if (relay != o.relay) return !relay;  // prefer replica over relay on ties
        return worker < o.worker;
      }
    };

    std::size_t best_dest = dests.size();
    Candidate best;
    for (std::size_t di = 0; di < dests.size(); ++di) {
      Dest& d = dests[di];
      if (d.have >= sched.num_chunks) continue;
      const std::uint32_t chunk = d.have;
      const auto bytes_time = [&](topo::LinkLevel level) {
        return bandwidth_->transfer_time(level, chunk_size(chunk));
      };

      Candidate dest_best;
      auto consider = [&](int worker, topo::GpuId gpu, Seconds available, Seconds send_busy,
                          int load, bool is_relay) {
        Candidate c;
        const topo::LinkLevel level = topology_->link_level(gpu, d.gpu);
        c.level = static_cast<int>(level);
        c.start = std::max({available, send_busy, d.busy_recv});
        for (std::size_t key : keys_for(gpu, d.gpu)) {
          c.start = std::max(c.start, resource_free[key]);
        }
        c.load = load;
        c.relay = is_relay;
        c.worker = worker;
        c.gpu = gpu;
        c.duration = bytes_time(level);
        if (c.better_than(dest_best)) dest_best = c;
      };

      switch (strategy_) {
        case ReplicationStrategy::kSingleSource:
          consider(sources[0].worker, sources[0].gpu, 0, sources[0].busy_send,
                   sources[0].load, false);
          break;
        case ReplicationStrategy::kBlindSources:
          for (auto& s : sources) {
            if (s.worker != d.blind_source) continue;
            consider(s.worker, s.gpu, 0, s.busy_send, s.load, false);
          }
          break;
        case ReplicationStrategy::kElan:
        case ReplicationStrategy::kNearestSerial:
          for (auto& s : sources) {
            consider(s.worker, s.gpu, 0, s.busy_send, s.load, false);
          }
          break;
      }
      if (relay) {
        for (std::size_t pi = 0; pi < dests.size(); ++pi) {
          if (pi == di) continue;
          Dest& p = dests[pi];
          if (p.have <= chunk) continue;  // prefix does not reach this chunk yet
          consider(p.worker, p.gpu, p.ready_at[chunk], p.busy_send, p.load, true);
        }
      }

      ELAN_CHECK(dest_best.worker >= 0, "chunk replication: no source for destination");
      if (best_dest == dests.size() || dest_best.start < best.start ||
          (dest_best.start == best.start && d.worker < dests[best_dest].worker)) {
        best_dest = di;
        best = dest_best;
      }
    }

    ELAN_CHECK(best_dest < dests.size(), "chunk replication: scheduler stalled");
    Dest& d = dests[best_dest];
    ChunkTransfer t;
    t.source_worker = best.worker;
    t.dest_worker = d.worker;
    t.source_gpu = best.gpu;
    t.dest_gpu = d.gpu;
    t.level = topology_->link_level(best.gpu, d.gpu);
    t.chunk = d.have;
    t.bytes = chunk_size(d.have);
    t.relay = best.relay;
    t.start = best.start;
    t.duration = best.duration;
    sched.transfers.push_back(t);
    sched.serial_time += t.duration;

    const Seconds finish = t.finish();
    for (std::size_t key : keys_for(best.gpu, d.gpu)) resource_free[key] = finish;
    d.busy_recv = finish;
    d.ready_at[t.chunk] = finish;
    ++d.have;
    --remaining;
    if (best.relay) {
      Dest& p = dests[static_cast<std::size_t>(
          std::find_if(dests.begin(), dests.end(),
                       [&](const Dest& x) { return x.worker == best.worker; }) -
          dests.begin())];
      p.busy_send = finish;
      ++p.load;
    } else {
      for (auto& s : sources) {
        if (s.worker != best.worker) continue;
        s.busy_send = finish;
        ++s.load;
      }
    }
  }

  for (const auto& d : dests) {
    Seconds done = d.resumed ? 0 : sched.cpu_time;
    for (const auto& t : sched.transfers) {
      if (t.dest_worker == d.worker) done = std::max(done, t.finish());
    }
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
