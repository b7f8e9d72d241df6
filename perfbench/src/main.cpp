// elan_perfbench: the repository benchmark (see perfbench/README.md).
//
//   elan_perfbench --workload <chaos_sweep|elastic_train|minidl_train|sched_replay>
//                  --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 runs the workload untraced for --seconds and reports the
// end-to-end metrics. --trace 1 runs the fixed-size traced pass of every
// workload (each layer is exercised by one of them) and reports the
// per-layer metrics and each workload's tracing overhead. The last line of
// stdout is the result object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {name: {"value", "unit"}}}
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"
#include "common/error.h"
#include "common/flags.h"
#include "minidl/isa.h"
#include "minidl/tensor.h"
#include "obs/trace.h"

namespace perfbench {
namespace {

struct Workload {
  const char* name;
  E2eRun (*e2e)(const Options&);
  void (*traced)(const Options&, LayerRun&);
  /// The workload-specific names of items_per_s and of the operation time
  /// (perfbench/README.md).
  const char* items_alias;
  const char* op_alias;
};

constexpr Workload kWorkloads[] = {
    {"chaos_sweep", chaos_e2e, chaos_traced, "chaos.plans_per_s", "chaos.sweep10_ms"},
    {"elastic_train", elastic_e2e, elastic_traced, "elastic.iters_per_s", "elastic.iter_ms"},
    {"minidl_train", minidl_e2e, minidl_traced, "minidl.samples_per_s", "minidl.step_ms"},
    {"sched_replay", sched_e2e, sched_traced, "sched.jobs_per_s", "sched.replay_ms"},
};

/// The global pool never gets more threads than the CPUs this process may
/// run on, and at most 4, so runs on larger machines stay comparable.
int pool_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

const char* kernel_mode_name(elan::minidl::KernelMode mode) {
  switch (mode) {
    case elan::minidl::KernelMode::kReference: return "reference";
    case elan::minidl::KernelMode::kTiled: return "tiled";
    case elan::minidl::KernelMode::kVector: return "vector";
  }
  return "?";
}

/// The run configuration. Results from runs whose configuration differs are
/// not comparable (perfbench/run.py refuses to compare them).
void print_config(int threads) {
  std::printf(
      "config {\"build_type\": \"%s\", \"lock_order_checks\": %s, \"isa\": \"%s\", "
      "\"kernel_mode\": \"%s\", \"pool_threads\": %d}\n",
      PERFBENCH_BUILD_TYPE, PERFBENCH_LOCK_ORDER_CHECKS ? "true" : "false",
      elan::minidl::isa::name(elan::minidl::isa::active()),
      kernel_mode_name(elan::minidl::kernel_mode()), threads);
}

/// Peak resident set of this process in MiB. Read from VmHWM, which starts
/// afresh at exec; getrusage's ru_maxrss keeps the peak of the parent's
/// image the process was forked from.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

std::vector<Metric> e2e_metrics(const E2eRun& run) {
  return {
      {"setup_s", quantile(run.setup_s, 0.5), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"items_per_s", run.items_per_s(), "1/s"},
  };
}

std::string json_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void print_result(const Checks& checks, const std::vector<Metric>& metrics) {
  bool finite = true;
  for (const auto& m : metrics) finite = finite && std::isfinite(m.value);
  for (const auto& f : checks.failures) std::printf("FAILED: %s\n", f.c_str());
  const std::uint64_t failed = std::min(checks.failed, checks.attempted);
  const bool correct = finite && checks.attempted > 0 && checks.failed == 0;
  std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(checks.attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& m = metrics[i];
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
           json_number(std::isfinite(m.value) ? m.value : 0.0) + ", \"unit\": \"" + m.unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int run(int argc, char** argv) {
  elan::Flags flags;
  flags.define("workload", "", "chaos_sweep | elastic_train | minidl_train | sched_replay");
  flags.define("seed", "2020", "workload seed (inputs are generated from it)");
  flags.define("seconds", "25", "measured time of an untraced run");
  flags.define("trace", "0", "0: end-to-end metrics; 1: per-layer metrics (traced run)");
  try {
    flags.parse(argc, argv);
    if (flags.help_requested()) {
      std::printf("%s", flags.usage("elan_perfbench").c_str());
      return 0;
    }
    const Workload* workload = nullptr;
    for (const auto& w : kWorkloads) {
      if (flags.get("workload") == w.name) workload = &w;
    }
    elan::require(workload != nullptr, "--workload: unknown workload '" +
                                           flags.get("workload") + "'");
    const std::int64_t trace = flags.get_int("trace");
    elan::require(trace == 0 || trace == 1, "--trace must be 0 or 1");
    Options options;
    options.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
    options.seconds = flags.get_double("seconds");
    options.threads = pool_threads();
    elan::require(options.seconds > 0, "--seconds must be positive");

    elan::obs::Tracer::instance().set_enabled(false);
    std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%lld\n", workload->name,
                static_cast<unsigned long long>(options.seed), options.seconds,
                static_cast<long long>(trace));
    print_config(options.threads);

    if (trace == 0) {
      const E2eRun result = workload->e2e(options);
      const auto metrics = e2e_metrics(result);
      for (const auto& m : metrics) {
        const char* alias = m.name == "items_per_s" ? workload->items_alias : "";
        std::printf("  %-12s %14.6g %-4s %s\n", m.name.c_str(), m.value, m.unit.c_str(), alias);
      }
      // The operation latency is logged, not reported: its tail moved with
      // the load other processes put on the machine (see README.md).
      std::printf("  %s_p50 %.6g ms, %s_p95 %.6g ms over %zu timed operations (%s)\n",
                  workload->op_alias, quantile(result.op_ms, 0.50), workload->op_alias,
                  quantile(result.op_ms, 0.95), result.op_ms.size(), result.op);
      std::printf("  %zu set-ups; %.0f items (%s); throughput windows of %s operations\n",
                  result.setup_s.size(), sum(result.op_items), result.item,
                  result.window >= result.op_ms.size() ? "all"
                                                       : std::to_string(result.window).c_str());
      print_result(result.checks, metrics);
      return 0;
    }

    // The traced run covers every workload, so every layer is measured.
    LayerRun layers;
    for (const auto& w : kWorkloads) {
      const auto start = Clock::now();
      w.traced(options, layers);
      std::printf("  traced %s in %.2f s\n", w.name, seconds_since(start));
    }
    for (const auto& m : layers.metrics) {
      std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    print_result(layers.checks, layers.metrics);
    return 0;
  } catch (const elan::Error& e) {
    std::fprintf(stderr, "error: %s\n%s", e.what(), flags.usage("elan_perfbench").c_str());
    return 2;
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
