#include "comm/ring_allreduce.h"

#include <algorithm>
#include <memory>

#include "common/error.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "topology/bandwidth.h"

namespace elan::comm {

namespace {

struct RunState {
  std::vector<std::vector<double>*> data;
  std::size_t chunk_len = 0;
  int n = 0;
  Seconds step_time = 0;  // synchronous step duration (slowest ring edge)
  Seconds started_at = 0;
  /// Completion: records the run's duration, then calls the caller's done.
  std::function<void(Seconds duration)> done;
};

std::pair<std::size_t, std::size_t> chunk_range(const RunState& s, int chunk) {
  const std::size_t len = s.data.front()->size();
  const auto begin = std::min(len, static_cast<std::size_t>(chunk) * s.chunk_len);
  const auto end = std::min(len, begin + s.chunk_len);
  return {begin, end};
}

/// Runs `fn(rank)` for every rank, fanning out across the thread pool when
/// the per-rank chunks are big enough to pay for the dispatch. Within one
/// step every rank touches a distinct (dst, chunk) range, so the per-rank
/// work is independent and the reduction order per element is unchanged —
/// results stay bit-identical to the serial loop.
void for_each_rank(const RunState& s, const std::function<void(int)>& fn) {
  constexpr std::size_t kParallelChunkLen = 4096;
  if (s.chunk_len < kParallelChunkLen) {
    for (int r = 0; r < s.n; ++r) fn(r);
    return;
  }
  ThreadPool::global().parallel_for(0, s.n, 1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t r = b; r < e; ++r) fn(static_cast<int>(r));
  });
}

/// One reduce-scatter step: rank r adds its chunk (r - step) into neighbour
/// (r+1)'s copy.
void reduce_scatter_step(RunState& s, int step) {
  const int n = s.n;
  // Snapshot the outgoing chunks first (all sends happen "simultaneously").
  std::vector<std::vector<double>> outgoing(static_cast<std::size_t>(n));
  for_each_rank(s, [&](int r) {
    const int chunk = ((r - step) % n + n) % n;
    const auto [b, e] = chunk_range(s, chunk);
    outgoing[static_cast<std::size_t>(r)].assign(s.data[static_cast<std::size_t>(r)]->begin() +
                                                     static_cast<std::ptrdiff_t>(b),
                                                 s.data[static_cast<std::size_t>(r)]->begin() +
                                                     static_cast<std::ptrdiff_t>(e));
  });
  for_each_rank(s, [&](int r) {
    const int dst = (r + 1) % n;
    const int chunk = ((r - step) % n + n) % n;
    const auto [b, e] = chunk_range(s, chunk);
    auto& dv = *s.data[static_cast<std::size_t>(dst)];
    const auto& src = outgoing[static_cast<std::size_t>(r)];
    for (std::size_t i = b; i < e; ++i) dv[i] += src[i - b];
  });
}

/// One allgather step: rank r overwrites neighbour (r+1)'s chunk
/// (r + 1 - step) with its own (already complete) copy.
void allgather_step(RunState& s, int step) {
  const int n = s.n;
  std::vector<std::vector<double>> outgoing(static_cast<std::size_t>(n));
  for_each_rank(s, [&](int r) {
    const int chunk = ((r + 1 - step) % n + n) % n;
    const auto [b, e] = chunk_range(s, chunk);
    outgoing[static_cast<std::size_t>(r)].assign(s.data[static_cast<std::size_t>(r)]->begin() +
                                                     static_cast<std::ptrdiff_t>(b),
                                                 s.data[static_cast<std::size_t>(r)]->begin() +
                                                     static_cast<std::ptrdiff_t>(e));
  });
  for_each_rank(s, [&](int r) {
    const int dst = (r + 1) % n;
    const int chunk = ((r + 1 - step) % n + n) % n;
    const auto [b, e] = chunk_range(s, chunk);
    auto& dv = *s.data[static_cast<std::size_t>(dst)];
    const auto& src = outgoing[static_cast<std::size_t>(r)];
    for (std::size_t i = b; i < e; ++i) dv[i] = src[i - b];
  });
}

/// Runs step `step` of the ring at the end of its window, then schedules the
/// next one; the last step reports completion.
void run_step(sim::Simulator& sim, const std::shared_ptr<RunState>& state, int step) {
  const int n = state->n;
  if (step < n - 1) {
    reduce_scatter_step(*state, step);
  } else {
    allgather_step(*state, step - (n - 1));
  }
  if (obs::Tracer::enabled()) {
    // This callback runs at the *end* of the step, so the span covers the
    // preceding [now - step_time, now) virtual interval. Explicit sim-time
    // timestamps — the tracer clock is bypassed on purpose.
    obs::Tracer::instance().complete(
        "comm", step < n - 1 ? "reduce_scatter" : "allgather",
        (sim.now() - state->step_time) * 1e6, state->step_time * 1e6,
        "{\"step\":" + std::to_string(step) + "}");
  }
  if (step + 1 == 2 * (n - 1)) {
    // This callback runs at the end of the final step: all time charged.
    const Seconds duration = sim.now() - state->started_at;
    if (obs::Tracer::enabled()) {
      obs::Tracer::instance().complete("comm", "ring_allreduce", state->started_at * 1e6,
                                       duration * 1e6,
                                       "{\"ranks\":" + std::to_string(n) + "}");
    }
    static auto& runs_total = obs::MetricsRegistry::instance().counter(
        "elan_ring_allreduce_runs_total", "Completed simulated ring allreduces");
    static auto& duration_hist = obs::MetricsRegistry::instance().histogram(
        "elan_ring_allreduce_duration_seconds",
        obs::MetricsRegistry::latency_seconds_bounds(), "Simulated ring allreduce durations");
    runs_total.add(1);
    duration_hist.observe(duration);
    sim.schedule(0.0, [state, duration] { state->done(duration); });
    return;
  }
  sim.schedule(state->step_time, [&sim, state, step] { run_step(sim, state, step + 1); });
}

}  // namespace

void RingAllreduce::run(std::vector<std::vector<double>*> per_rank,
                        std::function<void()> done, Bytes bytes_per_element) {
  require(per_rank.size() == static_cast<std::size_t>(group_->size()),
          "ring allreduce: one vector per group member required");
  require(!per_rank.empty() && per_rank.front() != nullptr, "ring allreduce: null input");
  const std::size_t len = per_rank.front()->size();
  for (auto* v : per_rank) {
    require(v != nullptr && v->size() == len, "ring allreduce: length mismatch");
  }

  const int n = group_->size();
  if (n == 1 || len == 0) {
    last_duration_ = 0;
    transfers_ = 0;
    sim_->schedule(0.0, std::move(done));
    return;
  }

  auto state = std::make_shared<RunState>();
  state->data = std::move(per_rank);
  state->n = n;
  state->chunk_len = (len + static_cast<std::size_t>(n) - 1) / static_cast<std::size_t>(n);
  state->started_at = sim_->now();

  // Synchronous steps: every rank sends one chunk per step; the step lasts as
  // long as the slowest ring edge needs for one chunk.
  const Bytes chunk_bytes = state->chunk_len * bytes_per_element;
  const auto& ring = group_->ring();
  const auto* bandwidth = &group_->bandwidth();
  Seconds slowest = 0;
  for (int r = 0; r < n; ++r) {
    const auto level = group_->topology().link_level(
        ring[static_cast<std::size_t>(r)], ring[static_cast<std::size_t>((r + 1) % n)]);
    slowest = std::max(slowest, bandwidth->transfer_time(level, chunk_bytes));
  }
  state->step_time = slowest;
  transfers_ = static_cast<std::uint64_t>(n) * (2u * static_cast<std::uint64_t>(n) - 2u);

  state->done = [this, done = std::move(done)](Seconds duration) {
    last_duration_ = duration;
    done();
  };
  // Schedule the 2(N-1) steps back to back.
  sim_->schedule(state->step_time, [sim = sim_, state] { run_step(*sim, state, 0); });
}

}  // namespace elan::comm
