// Micro-benchmark for the parallel execution runtime (see DESIGN.md,
// "Parallel runtime" and §5g): serial reference kernels vs the tiled/pooled
// kernels vs the vectorised SIMD kernels (KernelMode::kVector, runtime ISA
// dispatch) at several sizes and thread counts, across the layers the
// runtime touches — raw matmul, direct conv2d, a full 4-replica
// DataParallelTrainer::step, and the functional gradient allreduce. Prints
// an ASCII table and writes BENCH_kernels.json (machine-readable, seeds the
// bench trajectory).
//
//   ./bench_kernels [--threads N] [--repeats R] [--out BENCH_kernels.json]
//                   [--baseline bench/BENCH_kernels_baseline.json]
//                   [--max-regression 0.25]
//
// The serial baseline is KernelMode::kReference — the original naive
// triple-loop kernels over the bounds-checked accessor, stepping replicas
// one after another. The parallel runs use the tiled kernels with the global
// pool at 1/2/4/N threads; every tiled run is checked to be bit-identical
// to the serial baseline before its timing is reported. The vector runs are
// checked against the kVector contract instead: within the mixed
// ULP/absolute tolerance of the reference result, and bit-identical to each
// other across thread counts and re-runs.
//
// Gates (process exit status, used by CI perf-smoke):
//   * tiled kernels not bit-identical to reference  -> fail
//   * vector kernels outside tolerance or nondeterministic -> fail
//   * matmul-512 vector-vs-tiled 1T ratio below the ISA floor
//     (>= 1.5x on the AVX2 path, >= 1.0x on the portable path) -> fail
//   * with --baseline: any gate ratio that regressed more than
//     --max-regression below the committed baseline -> fail
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/flags.h"
#include "common/thread_pool.h"
#include "comm/group.h"
#include "minidl/dataset.h"
#include "minidl/isa.h"
#include "minidl/parallel.h"
#include "minidl/tensor.h"

namespace elan::bench {
namespace {

using minidl::KernelMode;
using minidl::ScopedKernelMode;
using minidl::Tensor;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-`repeats` wall time of `fn` in milliseconds.
template <typename Fn>
double time_ms(int repeats, Fn&& fn) {
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    const double t0 = now_ms();
    fn();
    const double t1 = now_ms();
    if (r == 0 || t1 - t0 < best) best = t1 - t0;
  }
  return best;
}

bool bit_equal(const Tensor& a, const Tensor& b) {
  if (!a.same_shape(b)) return false;
  const auto da = a.data();
  const auto db = b.data();
  for (std::size_t i = 0; i < da.size(); ++i) {
    if (da[i] != db[i]) return false;
  }
  return true;
}

bool within_tolerance(const Tensor& ref, const Tensor& got) {
  if (!ref.same_shape(got)) return false;
  const auto dr = ref.data();
  const auto dg = got.data();
  for (std::size_t i = 0; i < dr.size(); ++i) {
    if (!minidl::within_vector_tolerance(dr[i], dg[i])) return false;
  }
  return true;
}

struct Timing {
  std::string name;
  double serial_ms = 0.0;
  std::vector<std::pair<int, double>> parallel_ms;  // tiled (threads, ms)
  std::vector<std::pair<int, double>> vector_ms;    // kVector (threads, ms)
  bool identical = true;         // tiled == reference, bit for bit
  bool vector_ok = true;         // kVector within tolerance + deterministic

  double best_parallel() const {
    double best = parallel_ms.front().second;
    for (const auto& [t, ms] : parallel_ms) best = std::min(best, ms);
    return best;
  }
  double at_threads(const std::vector<std::pair<int, double>>& series,
                    int threads) const {
    for (const auto& [t, ms] : series) {
      if (t == threads) return ms;
    }
    return 0.0;
  }
  /// Kernel-vs-kernel speedup of the vector backend over the tiled backend,
  /// both single-threaded — isolates the micro-kernel win from pool scaling.
  double vector_vs_tiled_1t() const {
    const double tiled = at_threads(parallel_ms, 1);
    const double vec = at_threads(vector_ms, 1);
    return vec > 0.0 ? tiled / vec : 0.0;
  }
};

std::vector<int> thread_counts(int flag_threads) {
  std::vector<int> counts{1, 2, 4};
  bool have = false;
  for (int c : counts) have = have || c == flag_threads;
  if (!have) counts.push_back(flag_threads);
  return counts;
}

/// Times `run(mode)` under kTiled then kVector for every thread count,
/// appending to `t`, with the per-mode correctness checks described in the
/// file comment. `expected` is the serial kReference result.
template <typename RunFn>
void bench_modes(Timing& t, const Tensor& expected, int repeats,
                 const std::vector<int>& counts, RunFn&& run) {
  {
    ScopedKernelMode mode(KernelMode::kTiled);
    for (int threads : counts) {
      ThreadPool::set_global_threads(threads);
      Tensor got;
      const double ms = time_ms(repeats, [&] { got = run(); });
      t.parallel_ms.emplace_back(threads, ms);
      t.identical = t.identical && bit_equal(got, expected);
    }
  }
  ScopedKernelMode mode(KernelMode::kVector);
  Tensor first;
  for (int threads : counts) {
    ThreadPool::set_global_threads(threads);
    Tensor got;
    const double ms = time_ms(repeats, [&] { got = run(); });
    t.vector_ms.emplace_back(threads, ms);
    if (threads == counts.front()) {
      first = got;
      t.vector_ok = t.vector_ok && within_tolerance(expected, got) &&
                    bit_equal(got, run());  // re-run determinism
    } else {
      t.vector_ok = t.vector_ok && bit_equal(first, got);  // thread determinism
    }
  }
}

Timing bench_matmul(int size, int repeats, const std::vector<int>& counts) {
  Timing t;
  t.name = "matmul_" + std::to_string(size);
  Tensor a(size, size);
  Tensor b(size, size);
  a.init_glorot(11);
  b.init_glorot(13);

  Tensor expected;
  {
    ScopedKernelMode mode(KernelMode::kReference);
    ThreadPool::set_global_threads(1);
    t.serial_ms = time_ms(repeats, [&] { expected = minidl::matmul(a, b); });
  }
  bench_modes(t, expected, repeats, counts, [&] { return minidl::matmul(a, b); });
  return t;
}

Timing bench_conv(int size, int ksize, int repeats, const std::vector<int>& counts) {
  Timing t;
  t.name = "conv_" + std::to_string(size) + "_k" + std::to_string(ksize);
  Tensor img(size, size);
  Tensor kernel(ksize, ksize);
  img.init_glorot(29);
  kernel.init_glorot(31);

  Tensor expected;
  {
    ScopedKernelMode mode(KernelMode::kReference);
    ThreadPool::set_global_threads(1);
    t.serial_ms = time_ms(repeats, [&] { expected = minidl::conv2d(img, kernel); });
  }
  bench_modes(t, expected, repeats, counts,
              [&] { return minidl::conv2d(img, kernel); });
  return t;
}

/// A training problem heavy enough that the step time is kernel-dominated:
/// 4 replicas, 64-wide inputs, two 256-wide hidden layers, global batch 512.
struct StepProblem {
  minidl::LabeledData data;
  minidl::ParallelConfig config;

  StepProblem() {
    const int samples = 2048, dim = 64, classes = 10;
    data.features = Tensor(samples, dim);
    data.features.init_glorot(17);
    data.labels.resize(samples);
    for (int i = 0; i < samples; ++i) data.labels[static_cast<std::size_t>(i)] = i % classes;
    config.layer_sizes = {dim, 256, 256, classes};
    config.seed = 23;
    config.lr = 0.01f;
    config.momentum = 0.9f;
  }
};

Timing bench_step(int repeats, const std::vector<int>& counts) {
  Timing t;
  t.name = "step_4replicas";
  const StepProblem problem;
  const int batch = 512, iters = 4;

  auto run = [&](KernelMode mode_value) {
    ScopedKernelMode mode(mode_value);
    minidl::DataParallelTrainer trainer(problem.data, problem.config, 4);
    std::vector<float> losses;
    for (int i = 0; i < iters; ++i) losses.push_back(trainer.step(batch));
    return std::make_pair(losses, trainer.checksums().front());
  };

  std::vector<float> expected_losses;
  std::uint64_t expected_checksum = 0;
  {
    ThreadPool::set_global_threads(1);
    t.serial_ms = time_ms(repeats, [&] {
      auto [losses, checksum] = run(KernelMode::kReference);
      expected_losses = losses;
      expected_checksum = checksum;
    });
  }
  for (int threads : counts) {
    ThreadPool::set_global_threads(threads);
    std::vector<float> losses;
    std::uint64_t checksum = 0;
    const double ms = time_ms(repeats, [&] {
      auto [l, c] = run(KernelMode::kTiled);
      losses = l;
      checksum = c;
    });
    t.parallel_ms.emplace_back(threads, ms);
    t.identical = t.identical && losses == expected_losses && checksum == expected_checksum;
  }
  // The vector step is NOT bit-comparable to the reference step (FMA in the
  // GEMMs), but it must be deterministic: same losses and checksum at every
  // thread count and on every re-run.
  std::vector<float> vector_losses;
  std::uint64_t vector_checksum = 0;
  for (int threads : counts) {
    ThreadPool::set_global_threads(threads);
    std::vector<float> losses;
    std::uint64_t checksum = 0;
    const double ms = time_ms(repeats, [&] {
      auto [l, c] = run(KernelMode::kVector);
      losses = l;
      checksum = c;
    });
    t.vector_ms.emplace_back(threads, ms);
    if (threads == counts.front()) {
      vector_losses = losses;
      vector_checksum = checksum;
      for (float l : losses) t.vector_ok = t.vector_ok && std::isfinite(l);
    } else {
      t.vector_ok = t.vector_ok && losses == vector_losses &&
                    checksum == vector_checksum;
    }
  }
  return t;
}

Timing bench_allreduce(std::size_t len, int repeats, const std::vector<int>& counts) {
  Timing t;
  t.name = "allreduce_4x" + std::to_string(len);
  const int ranks = 4;
  std::vector<std::vector<double>> init(ranks, std::vector<double>(len));
  for (int r = 0; r < ranks; ++r) {
    for (std::size_t i = 0; i < len; ++i) {
      init[static_cast<std::size_t>(r)][i] = 0.001 * static_cast<double>(i % 997) + r;
    }
  }
  auto run = [&] {
    auto data = init;
    std::vector<std::vector<double>*> ptrs;
    for (auto& v : data) ptrs.push_back(&v);
    comm::allreduce_sum(ptrs);
    return data.front();
  };

  std::vector<double> expected;
  {
    ThreadPool::set_global_threads(1);
    t.serial_ms = time_ms(repeats, [&] { expected = run(); });
  }
  for (int threads : counts) {
    ThreadPool::set_global_threads(threads);
    std::vector<double> got;
    const double ms = time_ms(repeats, [&] { got = run(); });
    t.parallel_ms.emplace_back(threads, ms);
    t.identical = t.identical && got == expected;
  }
  return t;
}

void print_timing(const Timing& t) {
  std::printf("%-18s serial %9.2f ms |", t.name.c_str(), t.serial_ms);
  for (const auto& [threads, ms] : t.parallel_ms) {
    std::printf("  tiled %dT %8.2f ms (%4.2fx)", threads, ms, t.serial_ms / ms);
  }
  std::printf("  %s\n", t.identical ? "bit-identical" : "MISMATCH");
  if (!t.vector_ms.empty()) {
    std::printf("%-18s %19s|", "", "");
    for (const auto& [threads, ms] : t.vector_ms) {
      std::printf("  vec   %dT %8.2f ms (%4.2fx)", threads, ms, t.serial_ms / ms);
    }
    std::printf("  %s (vec/tiled 1T %.2fx)\n",
                t.vector_ok ? "deterministic+in-tol" : "VECTOR MISMATCH",
                t.vector_vs_tiled_1t());
  }
}

std::string timings_json(const std::vector<Timing>& results, int flag_threads,
                         const std::map<std::string, double>& gate) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"threads_flag\": " << flag_threads << ",\n";
  os << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency() << ",\n";
  os << "  \"isa\": \"" << minidl::isa::name(minidl::isa::active()) << "\",\n";
  os << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& t = results[i];
    os << "    {\"name\": \"" << t.name << "\", \"serial_ms\": " << t.serial_ms
       << ", \"bit_identical\": " << (t.identical ? "true" : "false")
       << ", \"vector_ok\": " << (t.vector_ok ? "true" : "false")
       << ", \"parallel_ms\": {";
    for (std::size_t j = 0; j < t.parallel_ms.size(); ++j) {
      os << "\"" << t.parallel_ms[j].first << "\": " << t.parallel_ms[j].second;
      if (j + 1 < t.parallel_ms.size()) os << ", ";
    }
    os << "}, \"vector_ms\": {";
    for (std::size_t j = 0; j < t.vector_ms.size(); ++j) {
      os << "\"" << t.vector_ms[j].first << "\": " << t.vector_ms[j].second;
      if (j + 1 < t.vector_ms.size()) os << ", ";
    }
    os << "}, \"best_speedup\": " << t.serial_ms / t.best_parallel() << "}";
    os << (i + 1 < results.size() ? ",\n" : "\n");
  }
  os << "  ],\n";
  os << "  \"gate\": {\n";
  std::size_t emitted = 0;
  for (const auto& [key, value] : gate) {
    os << "    \"" << key << "\": " << json_number(value);
    os << (++emitted < gate.size() ? ",\n" : "\n");
  }
  os << "  }\n}\n";
  return os.str();
}

int run_bench(int argc, char** argv) {
  Flags flags;
  flags.define("threads", std::to_string(ThreadPool::default_threads()),
               "max thread count to benchmark (also honours ELAN_THREADS)");
  flags.define("repeats", "3", "timing repetitions; best-of is reported");
  flags.define("out", "BENCH_kernels.json", "output JSON path");
  flags.define("baseline", "",
               "committed BENCH_kernels_baseline.json to gate the speedup "
               "ratios against");
  flags.define("max-regression", "0.25",
               "allowed fractional ratio shortfall vs --baseline (ratios are "
               "speedups: bigger is better)");
  define_log_level_flag(flags);
  try {
    flags.parse(argc, argv);
    if (flags.help_requested()) {
      std::printf("%s", flags.usage("bench_kernels").c_str());
      return 0;
    }
    apply_log_level_flag(flags);
    obs::init_from_env();
    const int threads = static_cast<int>(flags.get_int("threads"));
    const int repeats = static_cast<int>(flags.get_int("repeats"));
    require(threads >= 1, "--threads must be >= 1");
    require(repeats >= 1, "--repeats must be >= 1");
    const auto counts = thread_counts(threads);
    const minidl::isa::Level isa_level = minidl::isa::active();

    std::printf("bench_kernels: reference vs tiled vs vector kernels\n");
    std::printf("(hardware_concurrency=%u, isa=%s, thread counts:",
                std::thread::hardware_concurrency(), minidl::isa::name(isa_level));
    for (int c : counts) std::printf(" %d", c);
    std::printf(")\n\n");

    std::vector<Timing> results;
    for (int size : {128, 256, 512}) {
      results.push_back(bench_matmul(size, repeats, counts));
      print_timing(results.back());
    }
    results.push_back(bench_conv(256, 5, repeats, counts));
    print_timing(results.back());
    results.push_back(bench_step(repeats, counts));
    print_timing(results.back());
    results.push_back(bench_allreduce(1u << 20, repeats, counts));
    print_timing(results.back());

    std::map<std::string, double> gate;
    double matmul512_ratio = 0.0;
    for (const auto& t : results) {
      if (!t.vector_ms.empty()) {
        gate[t.name + "_vector_vs_tiled"] = t.vector_vs_tiled_1t();
      }
      if (t.name == "matmul_512") {
        matmul512_ratio = t.vector_vs_tiled_1t();
        gate["matmul_512_tiled_speedup"] = t.serial_ms / t.best_parallel();
      }
    }

    const std::string path = flags.get("out");
    write_json_file(path, timings_json(results, threads, gate));

    int rc = 0;
    for (const auto& t : results) {
      if (!t.identical) {
        std::fprintf(stderr,
                     "FAIL: %s tiled kernels are not bit-identical to the "
                     "reference\n",
                     t.name.c_str());
        rc = 1;
      }
      if (!t.vector_ok) {
        std::fprintf(stderr,
                     "FAIL: %s vector kernels out of tolerance or "
                     "nondeterministic\n",
                     t.name.c_str());
        rc = 1;
      }
    }

    // ---- ISA-dependent kernel-speed floor (§5g acceptance gate). ----------
    const double floor = isa_level == minidl::isa::Level::kAvx2 ? 1.5 : 1.0;
    if (matmul512_ratio < floor) {
      std::fprintf(stderr,
                   "FAIL: matmul_512 vector-vs-tiled 1T ratio %.2fx below the "
                   "%s floor %.1fx\n",
                   matmul512_ratio, minidl::isa::name(isa_level), floor);
      rc = 1;
    } else {
      std::printf("isa floor passed: matmul_512 vector/tiled %.2fx >= %.1fx (%s)\n",
                  matmul512_ratio, floor, minidl::isa::name(isa_level));
    }

    // ---- Baseline regression gate (CI perf-smoke). -------------------------
    // Gate values are speedup ratios — bigger is better.
    if (!flags.get("baseline").empty() &&
        !check_baseline_gate(gate, flags.get("baseline"),
                             flags.get_double("max-regression"), Better::kHigher)) {
      rc = 1;
    }
    return rc;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n%s", e.what(), flags.usage("bench_kernels").c_str());
    return 1;
  }
}

}  // namespace
}  // namespace elan::bench

int main(int argc, char** argv) {
  try {
    return elan::bench::run_bench(argc, argv);
  } catch (const elan::Error& e) {  // a bad ELAN_THREADS, read before the flags
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
