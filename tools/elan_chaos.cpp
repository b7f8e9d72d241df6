// Chaos CLI: run seeded fault-injection sweeps against the elastic runtime.
//
//   elan_chaos --seed=1 --plans=200            fixed-seed sweep (PR smoke)
//   elan_chaos --seed=$(git rev-parse HEAD | cut -c1-8) --plans=500
//                                              rotating nightly sweep
//   elan_chaos --seed=0x2a --plans=1 --verbose reproduce one failure
//
// Exit code 0 iff every plan passed its invariants. On failure the plan and
// result are printed in full — the seed alone reproduces the run (see the
// README walkthrough). --check-determinism runs every plan twice and
// compares fingerprints.
//
// Plans run in batches through ChaosRunner::sweep, in parallel on the global
// thread pool; output stays in plan order and the results do not depend on
// the pool size. ELAN_THREADS=1 runs them one at a time (the serial
// reproduction of a failing seed).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/log.h"
#include "common/thread_pool.h"
#include "fault/chaos.h"
#include "obs/obs.h"

int main(int argc, char** argv) {
  using elan::fault::ChaosRunner;

  elan::Flags flags;
  flags.define("seed", "1",
               "base seed (decimal, 0x-hex, or any other string, which is hashed)");
  flags.define("plans", "20", "number of consecutive seeds to run (at least 1)");
  flags.define("budget-seconds", "0", "stop after this much wall time (0 = run all plans)");
  flags.define("check-determinism", "false", "run each plan twice and compare fingerprints");
  flags.define("verbose", "false", "print every plan and result, not just failures");
  flags.define("flight", "",
               "enable the flight recorder; a failing seed dumps <prefix>.seed<seed>.flt "
               "for elan_postmortem");
  flags.define("scripted-failure", "false",
               "run the deterministic scripted-failure plan instead of sampled seeds "
               "(exercises the flight-record pipeline; exit 0 iff it fails as scripted)");
  elan::define_log_level_flag(flags);

  std::uint64_t seed_base = 0;
  int plans = 0;
  double budget = 0;
  bool check_determinism = false;
  bool verbose = false;
  bool scripted_failure = false;
  int threads = 1;
  try {
    flags.parse(argc, argv);
    if (flags.help_requested()) {
      std::printf("%s", flags.usage(argv[0]).c_str());
      return 0;
    }
    elan::apply_log_level_flag(flags);
    seed_base = elan::parse_seed(flags.get("seed"), "--seed");
    plans = static_cast<int>(elan::parse_int(flags.get("plans"), 1,
                                             std::numeric_limits<int>::max(), "--plans"));
    budget = flags.get_double("budget-seconds");
    check_determinism = flags.get_bool("check-determinism");
    verbose = flags.get_bool("verbose");
    scripted_failure = flags.get_bool("scripted-failure");
    threads = elan::ThreadPool::global().size();  // sized from ELAN_THREADS
  } catch (const elan::Error& e) {
    std::fprintf(stderr, "%s\n%s", e.what(), flags.usage(argv[0]).c_str());
    return 2;
  }

  elan::obs::init_from_env();
  const std::string flight = flags.get("flight");
  if (!flight.empty()) {
    ChaosRunner::set_flight_prefix(flight);
    elan::obs::FlightRecorder::set_enabled(true);
    elan::obs::FlightRecorder::instance().arm_crash_dump(flight + ".crash.flt");
  }

  if (scripted_failure) {
    const auto plan = ChaosRunner::scripted_failure_plan();
    const auto result = ChaosRunner::run_plan(plan);
    std::printf("%s\n%s\n", plan.describe().c_str(), result.describe().c_str());
    if (!result.flight_record.empty()) {
      std::printf("postmortem: elan_postmortem %s\n", result.flight_record.c_str());
    }
    if (result.ok()) {
      std::fprintf(stderr, "scripted-failure plan unexpectedly passed\n");
      return 1;
    }
    std::printf("scripted failure reproduced as designed\n");
    return 0;
  }

  // A batch keeps every pool thread busy for many plans, so the wait for
  // the slowest plan at its end costs little; the wall-time budget is
  // checked between batches.
  const int batch = 32 * threads;
  const auto started = std::chrono::steady_clock::now();
  const auto elapsed = [&started] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
  };
  int failed = 0;
  int ran = 0;
  while (ran < plans) {
    if (budget > 0 && elapsed() > budget) {
      std::printf("budget of %.0fs reached after %d/%d plans\n", budget, ran, plans);
      break;
    }
    const std::uint64_t first = seed_base + static_cast<std::uint64_t>(ran);
    const int count = std::min(batch, plans - ran);
    std::vector<elan::fault::ChaosResult> results = ChaosRunner::sweep(first, count);
    if (check_determinism) {
      const auto replay = ChaosRunner::sweep(first, count);
      for (int i = 0; i < count; ++i) {
        auto& result = results[static_cast<std::size_t>(i)];
        const auto& again = replay[static_cast<std::size_t>(i)];
        if (again.fingerprint != result.fingerprint) {
          result.failures.push_back("nondeterministic: fingerprint " +
                                    std::to_string(result.fingerprint) + " vs replay " +
                                    std::to_string(again.fingerprint));
        }
      }
    }
    ran += count;
    for (const auto& result : results) {
      if (!result.ok()) {
        ++failed;
        std::printf("%s\n%s\n", ChaosRunner::sample_plan(result.seed).describe().c_str(),
                    result.describe().c_str());
        std::printf("reproduce: ELAN_THREADS=1 elan_chaos --seed=%llu --plans=1 --verbose\n",
                    static_cast<unsigned long long>(result.seed));
        if (!result.flight_record.empty()) {
          std::printf("postmortem: elan_postmortem %s\n", result.flight_record.c_str());
        }
      } else if (verbose) {
        std::printf("%s\n", result.describe().c_str());
      }
    }
  }
  const double seconds = elapsed();
  std::printf("chaos: %d/%d plans passed (base seed %llu)\n", ran - failed, ran,
              static_cast<unsigned long long>(seed_base));
  std::printf("chaos: %.1f plans/s (%d plans in %.1f s on %d threads)\n",
              seconds > 0 ? ran / seconds : 0.0, ran, seconds, threads);
  return failed == 0 ? 0 : 1;
}
