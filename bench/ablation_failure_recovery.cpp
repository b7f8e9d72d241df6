// Extension: recovery-time distribution under chaos (fault-injection sweep).
//
// Rebuilt on the deterministic fault-injection subsystem (src/fault): instead
// of one scripted fail-stop, a seeded sweep of random fault plans — worker
// kills, AM crash+recover (including mid-replication and phase-pinned),
// partitions, slow links, hung joiners — runs against the elastic runtime,
// and the *distribution* of recovery times is reported:
//
//   adjustment pause   training gap attributable to each completed
//                      adjustment (request -> training resumed);
//   iteration stall    the longest gap between consecutive iteration
//                      completions in a run — what a worker failure or AM
//                      outage actually costs the training loop.
//
// Percentiles go to stdout and BENCH_fault.json (machine-readable, same
// convention as BENCH_kernels.json). Every plan must pass its invariants —
// a failing seed fails the bench, so the JSON doubles as a chaos gate.
//
//   ./ablation_failure_recovery [--seed S] [--plans N] [--out BENCH_fault.json]
#include <algorithm>
#include <fstream>
#include <sstream>
#include <vector>

#include "bench_common.h"
#include "common/flags.h"
#include "fault/chaos.h"

namespace {

using namespace elan;

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1 - frac) + values[hi] * frac;
}

struct Distribution {
  std::string name;
  std::vector<double> samples;

  std::string row_json() const {
    std::ostringstream os;
    os << "    {\"name\": \"" << name << "\", \"count\": " << samples.size()
       << ", \"p50\": " << percentile(samples, 50) << ", \"p90\": " << percentile(samples, 90)
       << ", \"p99\": " << percentile(samples, 99) << ", \"max\": "
       << (samples.empty() ? 0.0 : *std::max_element(samples.begin(), samples.end())) << "}";
    return os.str();
  }
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define("seed", "1", "base seed for the chaos sweep");
  flags.define("plans", "200", "number of consecutive seeded plans");
  flags.define("out", "BENCH_fault.json", "output JSON path");
  define_log_level_flag(flags);
  try {
    flags.parse(argc, argv);
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n%s", e.what(), flags.usage(argv[0]).c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.usage(argv[0]).c_str());
    return 0;
  }
  // Chaos runs log expected warnings (injected failures, rejected
  // adjustments); keep the bench output readable unless overridden.
  if (flags.has("log-level")) {
    apply_log_level_flag(flags);
  } else {
    Logger::set_level(LogLevel::kError);
  }

  const std::uint64_t seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const int plans = static_cast<int>(flags.get_int("plans"));

  bench::print_header(
      "Extension — recovery time under chaos (seeded fault-injection sweep)",
      "Each plan is a random workload + fault script derived from one seed\n"
      "(src/fault). Pauses are per completed adjustment; stalls are the worst\n"
      "iteration gap per run. All invariants must hold for every plan.");

  Distribution pauses{"adjustment_pause_s", {}};
  Distribution stalls{"max_iteration_stall_s", {}};
  Distribution crash_stalls{"max_iteration_stall_s_am_crash_runs", {}};
  Distribution kill_stalls{"max_iteration_stall_s_worker_kill_runs", {}};
  int failed = 0;
  int adjustments = 0;
  std::uint64_t sweep_digest = 0xcbf29ce484222325ULL;
  for (int i = 0; i < plans; ++i) {
    const auto result = fault::ChaosRunner::run_seed(seed + static_cast<std::uint64_t>(i));
    if (!result.ok()) {
      ++failed;
      std::printf("FAILED seed %llu:\n%s\n", static_cast<unsigned long long>(result.seed),
                  result.describe().c_str());
      continue;
    }
    sweep_digest = (sweep_digest ^ result.fingerprint) * 0x100000001b3ULL;
    adjustments += result.adjustments_completed;
    for (Seconds pause : result.adjustment_pauses) pauses.samples.push_back(pause);
    stalls.samples.push_back(result.max_iteration_gap);
    if (result.master_crashes > 0) crash_stalls.samples.push_back(result.max_iteration_gap);
    if (result.kills > 0) kill_stalls.samples.push_back(result.max_iteration_gap);
  }

  Table t({"Metric", "n", "p50 (s)", "p90 (s)", "p99 (s)", "max (s)"});
  for (const Distribution* d : {&pauses, &stalls, &crash_stalls, &kill_stalls}) {
    char p50[32], p90[32], p99[32], mx[32];
    std::snprintf(p50, sizeof(p50), "%.3f", percentile(d->samples, 50));
    std::snprintf(p90, sizeof(p90), "%.3f", percentile(d->samples, 90));
    std::snprintf(p99, sizeof(p99), "%.3f", percentile(d->samples, 99));
    std::snprintf(mx, sizeof(mx), "%.3f",
                  d->samples.empty() ? 0.0
                                     : *std::max_element(d->samples.begin(), d->samples.end()));
    t.add(d->name, static_cast<int>(d->samples.size()), std::string(p50), std::string(p90),
          std::string(p99), std::string(mx));
  }
  bench::print_table(t);
  std::printf("%d/%d plans passed, %d adjustments completed, sweep digest %llu\n",
              plans - failed, plans, adjustments,
              static_cast<unsigned long long>(sweep_digest));

  const std::string path = flags.get("out");
  std::ofstream out(path);
  ELAN_REQUIRE(out.good(), "ablation_failure_recovery: cannot open " + path);
  out << "{\n  \"seed\": " << seed << ",\n  \"plans\": " << plans
      << ",\n  \"failed\": " << failed << ",\n  \"adjustments_completed\": " << adjustments
      << ",\n  \"sweep_digest\": " << sweep_digest << ",\n  \"distributions\": [\n";
  const Distribution* all[] = {&pauses, &stalls, &crash_stalls, &kill_stalls};
  for (std::size_t i = 0; i < 4; ++i) {
    out << all[i]->row_json() << (i + 1 < 4 ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n", path.c_str());

  return failed == 0 ? 0 : 1;
}
