// Scheduler hot-path benchmark: the simulator's event queue under the
// retransmit-timer traffic it serves, and the ClusterSim replay at
// production scale (see DESIGN.md §5k).
// Prints an ASCII summary and writes BENCH_sched.json (machine-readable,
// gated in CI against bench/BENCH_sched_baseline.json).
//
//   ./bench_sched [--jobs N] [--events N] [--repeats R]
//                 [--out BENCH_sched.json]
//                 [--baseline bench/BENCH_sched_baseline.json]
//                 [--max-regression 0.20]
//
// Two measurements, both of production code:
//   1. Simulator event mix — sim::Simulator driving ReliableEndpoint's
//      timer lifecycle: every send arms a retransmit timer, its ack cancels
//      it, and a lost message's timer fires and re-sends. 8,192 flows keep
//      about 16k events pending. In M ops/s.
//   2. ClusterSim 5k-job replay — E-BF on a production-scale trace
//      (production_trace_params) on a 1024-GPU placement-aware cluster, in
//      jobs/s.
//
// Gates (process exit status, used by CI perf-smoke and the
// bench_sched_smoke ctest):
//   * an event-mix message neither acked nor timed out, or a timer firing
//     for a message that was delivered                               -> fail
//   * the simulator's queue depth differing from the mix's pending
//     events at a new peak or after a power-of-two ack (a tombstone) -> fail
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
  std::uint64_t sent = 0;     // messages sent, re-sends included
  std::uint64_t lost = 0;     // messages the loss model dropped
  std::uint64_t acked = 0;    // acks, each cancelling its message's timer
  std::uint64_t expired = 0;  // retransmit timers that fired
  std::uint64_t ops = 0;      // schedules + cancels + fired callbacks
  std::uint64_t peak_pending = 0;
  // Whether the simulator's queue always held exactly the events the mix
  // had pending, and if not, both counts at the first check that failed.
  bool depth_ok = true;
  std::uint64_t bad_depth = 0;
  std::uint64_t bad_pending = 0;

  double mops() const { return ms > 0.0 ? static_cast<double>(ops) / (ms * 1000.0) : 0.0; }
};

/// ReliableEndpoint's retransmit-timer lifecycle (paper §V-D), `messages`
/// sends in all over up to kFlows flows:
///   1. a send schedules its delivery and arms a retransmit timer;
///   2. the delivery schedules the ack; the ack cancels the timer and the
///      flow sends its next message;
///   3. about 1 % of messages are lost: their timers fire and re-send.
/// A busy flow keeps two events pending, so 8,192 flows hold about 16k:
/// more than any run of the repo's examples, benches or chaos sweeps queues
/// (at most 8,865). The runtime never re-arms a pending timer in place.
class EventMix {
 public:
  explicit EventMix(std::uint64_t messages) : budget_(messages) {}

  EventMixResult run() {
    const auto flows = static_cast<std::uint32_t>(std::min(kFlows, budget_));
    timers_.assign(flows, 0);
    const double t0 = now_ms();
    for (std::uint32_t flow = 0; flow < flows; ++flow) send(flow);
    sim_.run();
    result_.ms = now_ms() - t0;
    return result_;
  }

 private:
  static constexpr std::uint64_t kFlows = 8192;
  static constexpr Seconds kAckTimeout = 0.05;  // TransportOptions' default
  enum class Step : std::uint8_t { kDeliver, kAck, kExpire };

  std::uint64_t next() {
    lcg_ = lcg_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return lcg_ >> 33;
  }

  /// A control message's one-way latency: 20-40 µs.
  Seconds latency() { return 20e-6 * (1.0 + static_cast<double>(next() % 1024) / 1024.0); }

  sim::EventId schedule(Seconds delay, Step step, std::uint32_t flow) {
    ++result_.ops;
    // 16 bytes of capture, which std::function stores without allocating.
    const sim::EventId id = sim_.schedule(delay, [this, step, flow] { fire(step, flow); });
    if (++pending_ > result_.peak_pending) {
      result_.peak_pending = pending_;
      check_depth();
    }
    return id;
  }

  /// The queue must hold exactly the events the mix has pending: a cancel
  /// that left its timer behind as a tombstone shows up as extra depth.
  /// Checked at every new peak of the pending count, all of which fall in
  /// the opening burst of sends, and after the 1st, 2nd, 4th, ... ack, each
  /// of which has just cancelled a timer.
  void check_depth() {
    const std::uint64_t depth = sim_.queue_depth();
    if (depth != pending_ && result_.depth_ok) {
      result_.depth_ok = false;
      result_.bad_depth = depth;
      result_.bad_pending = pending_;
    }
  }

  void send(std::uint32_t flow) {
    if (result_.sent == budget_) return;
    ++result_.sent;
    if (next() % 100 == 0) {
      ++result_.lost;
    } else {
      schedule(latency(), Step::kDeliver, flow);
    }
    timers_[flow] = schedule(kAckTimeout, Step::kExpire, flow);
  }

  void fire(Step step, std::uint32_t flow) {
    ++result_.ops;
    --pending_;
    switch (step) {
      case Step::kDeliver:
        schedule(latency(), Step::kAck, flow);
        return;
      case Step::kAck:
        ++result_.ops;
        --pending_;
        require(sim_.cancel(timers_[flow]), "event mix: an ack found its timer gone");
        ++result_.acked;
        if ((result_.acked & (result_.acked - 1)) == 0) check_depth();
        send(flow);
        return;
      case Step::kExpire:
        ++result_.expired;
        send(flow);
        return;
    }
  }

  sim::Simulator sim_;
  std::uint64_t budget_;
  std::uint64_t lcg_ = 0x5deece66dULL;
  std::uint64_t pending_ = 0;
  std::vector<sim::EventId> timers_;  // each flow's retransmit timer
  EventMixResult result_;
};

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
  flags.define("events", "2000000", "messages the simulator event mix sends");
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
    print_header("bench_sched: simulator event queue + ClusterSim replay");
    const int jobs = static_cast<int>(flags.get_int("jobs"));
    const int events = static_cast<int>(flags.get_int("events"));
    const int repeats = static_cast<int>(flags.get_int("repeats"));
    require(jobs >= 1 && events >= 1 && repeats >= 1,
            "--jobs, --events, --repeats must be >= 1");
    int rc = 0;

    // ---- 1. Simulator event mix. -----------------------------------------
    EventMixResult mix;
    for (int r = 0; r < repeats; ++r) {
      const auto m = EventMix(static_cast<std::uint64_t>(events)).run();
      if (r == 0 || m.ms < mix.ms) mix = m;
    }
    std::printf(
        "simulator event mix (%d messages, each arming a retransmit timer its ack "
        "cancels; %llu lost):\n",
        events, static_cast<unsigned long long>(mix.lost));
    std::printf("  event queue   %9.1f ms  %8.2f M ops/s  %llu pending at peak\n", mix.ms,
                mix.mops(), static_cast<unsigned long long>(mix.peak_pending));
    if (mix.acked + mix.expired != mix.sent || mix.expired != mix.lost) {
      std::fprintf(stderr,
                   "FAIL: event mix sent %llu messages, lost %llu: %llu acked, %llu timed out\n",
                   static_cast<unsigned long long>(mix.sent),
                   static_cast<unsigned long long>(mix.lost),
                   static_cast<unsigned long long>(mix.acked),
                   static_cast<unsigned long long>(mix.expired));
      rc = 1;
    }
    if (!mix.depth_ok) {
      std::fprintf(stderr,
                   "FAIL: event mix queue held %llu events with %llu pending: a cancelled "
                   "timer stayed queued\n",
                   static_cast<unsigned long long>(mix.bad_depth),
                   static_cast<unsigned long long>(mix.bad_pending));
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
    os << "  \"peak_pending\": " << mix.peak_pending << ",\n";
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
