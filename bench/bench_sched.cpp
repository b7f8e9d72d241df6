// Scheduler hot-path benchmark: the indexed-heap simulator core and the
// ClusterSim replay at production scale (see DESIGN.md §5k).
// Prints an ASCII summary and writes BENCH_sched.json (machine-readable,
// gated in CI against bench/BENCH_sched_baseline.json).
//
//   ./bench_sched [--jobs N] [--events N] [--repeats R]
//                 [--out BENCH_sched.json]
//                 [--baseline bench/BENCH_sched_baseline.json]
//                 [--max-regression 0.20]
//
// Two measurements, both of production code:
//   1. Simulator event mix — sim::Simulator holding 10^6 pending
//      retransmit timers, re-armed in place and 50% cancelled before they
//      fire (the ReliableEndpoint retransmit-timer shape), in M ops/s.
//   2. ClusterSim 5k-job replay — E-BF on a production-scale trace
//      (production_trace_params) on a 1024-GPU placement-aware cluster, in
//      jobs/s.
//
// Gates (process exit status, used by CI perf-smoke):
//   * the event mix firing other than the unacked half of its timers -> fail
//   * the replay finishing fewer jobs than the trace holds           -> fail
//   * with --baseline: a throughput more than --max-regression below its
//     committed floor                                                 -> fail
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/flags.h"
#include "sched/cluster.h"
#include "sched/trace.h"
#include "sim/simulator.h"

namespace elan::bench {
namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Section 1: simulator event core.
// ---------------------------------------------------------------------------

struct EventMixResult {
  double ms = 0.0;
  std::uint64_t fired = 0;
  std::uint64_t ops = 0;  // schedules + re-arms + cancels + fired callbacks

  double mops() const { return ms > 0.0 ? static_cast<double>(ops) / (ms * 1000.0) : 0.0; }
};

/// The ReliableEndpoint retransmit-timer lifecycle at cluster scale:
///
///   1. `total_events` message sends each arm a retransmit timer, so the
///      simulator holds 10^6 pending events at peak.
///   2. A busy subset of flows keeps transmitting: every delivered segment
///      re-arms its flow's retransmit timer to a later deadline (the
///      standard per-ack timer reset), 24x`total_events` in-place
///      `reschedule`s in all.
///   3. Acks arrive for 50% of the messages and cancel their timers. The
///      other 50% go unacked: their retransmit timers fire in the final
///      run().
EventMixResult run_event_mix(int total_events) {
  sim::Simulator sim;
  std::uint64_t fired = 0;
  const auto fn = [&fired] { ++fired; };
  std::uint64_t lcg = 0x5deece66dULL;
  const auto n = static_cast<std::size_t>(total_events);
  // Prime > any realistic n, hence coprime with n: striding by it visits
  // every message exactly once per walk, in scattered order.
  const std::size_t kStride = 15485863;
  require(n < kStride, "event mix: --events too large for the walk stride");
  std::vector<sim::EventId> timers(n);

  const auto jitter = [&lcg] {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(lcg >> 40) / static_cast<double>(1 << 24);
  };

  EventMixResult result;
  const double t0 = now_ms();
  // Phase 1: every message send arms a retransmit timer.
  for (std::size_t i = 0; i < n; ++i) {
    timers[i] = sim.schedule(1.0e6 + jitter(), fn);
  }
  // Phase 2: a busy subset of flows keeps delivering segments, each
  // delivery re-arming that flow's timer to a later deadline.
  const std::size_t kFlows = std::min<std::size_t>(4096, n);
  std::vector<std::size_t> flow;
  flow.reserve(kFlows);
  for (std::size_t f = 0, idx = 0; f < kFlows; ++f) {
    flow.push_back(idx);
    idx = (idx + kStride) % n;
  }
  const std::size_t rounds = 24 * n / kFlows;
  double band = 2.0e6;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (const std::size_t f : flow) {
      require(sim.reschedule(timers[f], band + jitter()),
              "event mix: re-arm of a pending timer failed");
      ++result.ops;
    }
    band += 2.0;  // deadlines only ever move later, as backoff does
  }
  // Phase 3: acks arrive for half the messages, cancelling their timers.
  std::size_t idx = 0;
  for (std::size_t i = 0; i < n / 2; ++i) {
    sim.cancel(timers[idx]);
    idx = (idx + kStride) % n;
    ++result.ops;
  }
  // Phase 4: the unacked half genuinely retransmit.
  sim.run();
  result.ms = now_ms() - t0;
  result.fired = fired;
  result.ops += static_cast<std::uint64_t>(n) + fired;
  return result;
}

// ---------------------------------------------------------------------------
// Section 2: ClusterSim replay.
// ---------------------------------------------------------------------------

/// The production-scale cluster: 128 servers x 8 GPUs = 1024 GPUs.
struct BigSchedTestbed {
  topo::Topology topology{topo::TopologySpec{.nodes = 128}};
  topo::BandwidthModel bandwidth;
  storage::SimFilesystem fs;
  train::ThroughputModel throughput{topology, bandwidth};
  baselines::AdjustmentCostModel costs{topology, bandwidth, fs};
};

struct ReplayResult {
  double ms = 0.0;
  int finished = 0;
};

ReplayResult timed_replay(const BigSchedTestbed& bed,
                          const std::vector<sched::SchedJobSpec>& trace) {
  sched::ClusterParams params;
  params.total_gpus = bed.topology.total_gpus();
  params.placement_aware = true;
  sched::ClusterSim sim(bed.throughput, bed.costs, sched::PolicyKind::kElasticBackfill,
                        baselines::System::kElan, params);
  const double t0 = now_ms();
  const auto metrics = sim.run(trace);
  return {now_ms() - t0, metrics.jobs_finished};
}

int run_bench(int argc, char** argv) {
  Flags flags;
  flags.define("jobs", "5000", "production trace size for the replay gate");
  flags.define("events", "1000000", "simulator event-mix size");
  flags.define("repeats", "2", "timing repetitions; best-of is reported");
  flags.define("out", "BENCH_sched.json", "output JSON path");
  flags.define("baseline", "",
               "committed BENCH_sched_baseline.json to gate the throughputs against");
  flags.define("max-regression", "0.20",
               "allowed fractional throughput shortfall vs --baseline (throughputs "
               "are bigger-is-better)");
  define_log_level_flag(flags);
  try {
    flags.parse(argc, argv);
    if (flags.help_requested()) {
      std::printf("%s", flags.usage("bench_sched").c_str());
      return 0;
    }
    apply_log_level_flag(flags);
    print_header("bench_sched: indexed-heap simulator core + ClusterSim replay");
    const int jobs = static_cast<int>(flags.get_int("jobs"));
    const int events = static_cast<int>(flags.get_int("events"));
    const int repeats = static_cast<int>(flags.get_int("repeats"));
    require(jobs >= 1 && events >= 1 && repeats >= 1,
            "--jobs, --events, --repeats must be >= 1");
    int rc = 0;

    // ---- 1. Simulator event mix. -----------------------------------------
    EventMixResult mix;
    for (int r = 0; r < repeats; ++r) {
      const auto m = run_event_mix(events);
      if (r == 0 || m.ms < mix.ms) mix = m;
    }
    std::printf(
        "simulator event mix (%d pending retransmit timers, 24 hot-flow "
        "re-arms each, 50%% acked/cancelled):\n",
        events);
    std::printf("  indexed heap  %9.1f ms  %8.2f M ops/s  %llu fired\n", mix.ms, mix.mops(),
                static_cast<unsigned long long>(mix.fired));
    const auto unacked = static_cast<std::uint64_t>(events - events / 2);
    if (mix.fired != unacked) {
      std::fprintf(stderr, "FAIL: event mix fired %llu callbacks, expected %llu\n",
                   static_cast<unsigned long long>(mix.fired),
                   static_cast<unsigned long long>(unacked));
      rc = 1;
    }

    // ---- 2. Production-scale replay. -------------------------------------
    BigSchedTestbed big;
    const auto trace =
        sched::TraceGenerator(big.throughput, sched::production_trace_params(jobs))
            .generate();
    ReplayResult replay;
    for (int r = 0; r < repeats; ++r) {
      const auto m = timed_replay(big, trace);
      if (r == 0 || m.ms < replay.ms) replay = m;
    }
    const double jobs_per_s =
        replay.ms > 0.0 ? static_cast<double>(trace.size()) / (replay.ms / 1000.0) : 0.0;
    std::printf("\nE-BF replay, %zu jobs, %d GPUs, placement-aware:\n", trace.size(),
                big.topology.total_gpus());
    std::printf("  replay        %9.1f ms  %8.0f jobs/s  %d finished\n", replay.ms,
                jobs_per_s, replay.finished);
    if (replay.finished != static_cast<int>(trace.size())) {
      std::fprintf(stderr, "FAIL: replay finished %d of %zu jobs\n", replay.finished,
                   trace.size());
      rc = 1;
    }

    // ---- JSON sidecar + baseline gate. -----------------------------------
    std::ostringstream os;
    os << "{\n";
    os << "  \"events\": " << events << ",\n";
    os << "  \"jobs\": " << trace.size() << ",\n";
    os << "  \"event_mix_ms\": " << json_number(mix.ms) << ",\n";
    os << "  \"replay_ms\": " << json_number(replay.ms) << ",\n";
    os << "  \"gate\": {\n";
    os << "    \"event_mix_mops\": " << json_number(mix.mops()) << ",\n";
    os << "    \"replay_jobs_per_s\": " << json_number(jobs_per_s) << "\n";
    os << "  }\n}\n";
    write_json_file(flags.get("out"), os.str());

    const std::map<std::string, double> gate{{"event_mix_mops", mix.mops()},
                                             {"replay_jobs_per_s", jobs_per_s}};
    if (!flags.get("baseline").empty() &&
        !check_baseline_gate(gate, flags.get("baseline"),
                             flags.get_double("max-regression"), Better::kHigher)) {
      rc = 1;
    }
    return rc;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n%s", e.what(), flags.usage("bench_sched").c_str());
    return 1;
  }
}

}  // namespace
}  // namespace elan::bench

int main(int argc, char** argv) { return elan::bench::run_bench(argc, argv); }
