// minidl_train: minidl::DataParallelTrainer with 4 replicas, an MLP of
// 64-256-256-10 and global batch 512 over 2048 synthetic samples, with one
// scale_out to 8 replicas and one scale_in back to 4 per training run. It is
// the only workload doing real floating-point math (kernels,
// comm::allreduce_sum, ThreadPool) and has no simulator or transport work. It
// keeps the process default kernel mode. Its layers are measured by every
// traced run; its throughput moved too much with host load to be bounded, so
// BENCHMARK.json does not list it (perfbench/README.md).
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>

#include "bench.h"
#include "minidl/dataset.h"
#include "minidl/parallel.h"
#include "obs/trace.h"

namespace perfbench {
namespace {

constexpr int kSamples = 2048;
constexpr int kDim = 64;
constexpr int kClasses = 10;
constexpr int kReplicas = 4;
constexpr int kBatch = 512;
/// Steps per training run; the first one is the set-up's warm-up step.
constexpr int kSteps = 200;
constexpr int kScaleOutAt = 70;
constexpr int kScaleInAt = 140;
/// minidl.loss_end is the mean loss over this many final steps.
constexpr int kLossWindow = 20;
constexpr int kExtraSetups = 6;

struct Problem {
  elan::minidl::LabeledData data;
  elan::minidl::ParallelConfig config;
};

Problem make_problem(std::uint64_t seed) {
  Problem p;
  p.data.features = elan::minidl::Tensor(kSamples, kDim);
  p.data.features.init_glorot(seed);
  // Glorot scale for a 2048x64 matrix is about 0.05; inputs of order one
  // let the model learn within one training run.
  for (float& x : p.data.features.data()) x *= 20.0f;
  // Labels from a random linear teacher, so the MLP can learn them and the
  // loss is a real quality signal.
  elan::minidl::Tensor teacher(kDim, kClasses);
  teacher.init_glorot(seed + 1);
  p.data.labels.resize(kSamples);
  for (int i = 0; i < kSamples; ++i) {
    int best = 0;
    float best_score = 0;
    for (int c = 0; c < kClasses; ++c) {
      float score = 0;
      for (int d = 0; d < kDim; ++d) score += p.data.features(i, d) * teacher(d, c);
      if (c == 0 || score > best_score) {
        best = c;
        best_score = score;
      }
    }
    p.data.labels[static_cast<std::size_t>(i)] = best;
  }
  p.config.layer_sizes = {kDim, 256, 256, kClasses};
  p.config.seed = seed ^ 0x9e3779b97f4a7c15ULL;
  p.config.lr = 0.01f;
  p.config.momentum = 0.9f;
  return p;
}

struct TrainRun {
  double setup_s = 0;            // dataset + trainer + pool + warm-up step
  std::vector<double> step_ms;   // every later step, scale events included
  std::vector<float> losses;     // every step, warm-up included
  std::vector<std::uint64_t> checksums;  // final replica checksums
  double scale_out_ms = 0;
  std::vector<double> checksums_ms;
  Checks checks;

  double loss_end() const {
    std::vector<double> tail(losses.end() - kLossWindow, losses.end());
    return mean(tail);
  }
};

/// A set-up: pool, dataset, trainer and the warm-up step.
struct Session {
  Problem problem;
  std::unique_ptr<elan::minidl::DataParallelTrainer> trainer;
  float first_loss = 0;
  double setup_s = 0;
};

std::unique_ptr<Session> set_up(const Options& options) {
  const auto start = Clock::now();
  auto s = std::make_unique<Session>();
  spin_up_pool(options.threads);
  s->problem = make_problem(options.seed);
  s->trainer = std::make_unique<elan::minidl::DataParallelTrainer>(s->problem.data,
                                                                   s->problem.config, kReplicas);
  s->first_loss = s->trainer->step(kBatch);
  s->setup_s = seconds_since(start);
  return s;
}

TrainRun train(const Options& options) {
  TrainRun run;
  const auto session = set_up(options);
  auto& trainer = *session->trainer;
  run.losses.push_back(session->first_loss);
  run.setup_s = session->setup_s;

  const auto check_consistent = [&](const char* when) {
    const auto start = Clock::now();
    const auto sums = trainer.checksums();
    run.checksums_ms.push_back(ms_since(start));
    const bool same = std::adjacent_find(sums.begin(), sums.end(),
                                         std::not_equal_to<>()) == sums.end();
    run.checks.require(same, std::string("minidl replicas diverged after ") + when);
  };
  std::vector<int> added;
  auto last = Clock::now();
  for (int s = 1; s < kSteps; ++s) {
    if (s == kScaleOutAt) {
      const auto start = Clock::now();
      added = trainer.scale_out(kReplicas);
      run.scale_out_ms = ms_since(start);
      check_consistent("scale_out");
    } else if (s == kScaleInAt) {
      trainer.scale_in(added);
      check_consistent("scale_in");
    }
    run.losses.push_back(trainer.step(kBatch));
    const auto now = Clock::now();
    run.step_ms.push_back(std::chrono::duration<double, std::milli>(now - last).count());
    last = now;
  }
  check_consistent("the last step");
  run.checksums = trainer.checksums();
  for (float loss : run.losses) {
    run.checks.require(std::isfinite(loss), "minidl loss is not finite");
  }
  run.checks.require(trainer.num_replicas() == kReplicas, "minidl replica count changed");
  run.checks.require(run.loss_end() < 0.5 * run.losses.front(),
                     "minidl loss did not halve: " + std::to_string(run.losses.front()) +
                         " -> " + std::to_string(run.loss_end()));
  return run;
}

/// Counts a training run's timed steps as operations, all failed when any
/// check failed or `ok` is false.
void record_run(Checks& into, const TrainRun& run, bool ok, const std::string& what) {
  const bool run_ok = run.checks.failed == 0;
  into.record(run.step_ms.size(), run_ok && ok, run_ok ? what : run.checks.failures.front());
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

}  // namespace

E2eRun minidl_e2e(const Options& options) {
  E2eRun run;
  run.item = "sample";
  run.op = "step";
  run.window = 10;
  // Training runs are few per run; extra set-ups steady the set-up median.
  for (int i = 0; i < kExtraSetups; ++i) run.setup_s.push_back(set_up(options)->setup_s);
  std::vector<float> first_losses;
  const auto start = Clock::now();
  do {
    const TrainRun t = train(options);
    run.setup_s.push_back(t.setup_s);
    for (double ms : t.step_ms) run.add_op(ms, kBatch);
    if (first_losses.empty()) first_losses = t.losses;
    // Same seed, same losses: every training run must repeat the first.
    record_run(run.checks, t, same_bits(t.losses, first_losses),
               "minidl losses differ between two runs of one seed");
  } while (seconds_since(start) < options.seconds);
  return run;
}

void minidl_traced(const Options& options, LayerRun& out) {
  set_tracing(false);
  const TrainRun plain = train(options);
  record_run(out.checks, plain, true, "");

  set_tracing(true);
  auto& tracer = elan::obs::Tracer::instance();
  const TrainRun traced = train(options);
  // These spans come from the trainer, allreduce and pool, all on the
  // wall clock: no simulator clock is installed in this workload.
  const bool wall_clock = !tracer.has_custom_clock();
  const auto events = tracer.snapshot();
  set_tracing(false);
  record_run(out.checks, traced,
             wall_clock && same_bits(traced.losses, plain.losses) &&
                 traced.checksums == plain.checksums,
             "minidl traced run differs from the untraced run (or ran on a virtual clock)");

  double forward_backward_us = 0, apply_update_us = 0, allreduce_us = 0;
  std::vector<double> queue_wait_us, task_run_us;
  for (const auto& e : events) {
    if (e.phase != 'X') continue;
    const std::string category = e.category;
    if (category == "trainer" && e.name == "forward_backward") forward_backward_us += e.dur_us;
    if (category == "trainer" && e.name == "apply_update") apply_update_us += e.dur_us;
    if (category == "comm" && e.name == "allreduce_sum") allreduce_us += e.dur_us;
    if (category == "threadpool" && e.name == "queue_wait") queue_wait_us.push_back(e.dur_us);
    if (category == "threadpool" && e.name == "task_run") task_run_us.push_back(e.dur_us);
  }
  const double per_step_ms = 1e-3 / kSteps;
  out.add("minidl.forward_backward_ms", forward_backward_us * per_step_ms, "ms");
  out.add("minidl.apply_update_ms", apply_update_us * per_step_ms, "ms");
  out.add("minidl.scale_out_ms", traced.scale_out_ms, "ms");
  out.add("minidl.checksums_ms", mean(traced.checksums_ms), "ms");
  out.add("minidl.loss_end", traced.loss_end(), "loss");
  out.add("comm.allreduce_ms", allreduce_us * per_step_ms, "ms");
  out.add("pool.tasks", static_cast<double>(task_run_us.size()), "count");
  out.add("pool.queue_wait_us_p50", quantile(queue_wait_us, 0.5), "us");
  out.add("pool.task_run_us_p50", quantile(task_run_us, 0.5), "us");
  // Median step times, so the first run's cold start is not charged to tracing.
  out.add("obs.trace_overhead.minidl_train",
          quantile(traced.step_ms, 0.5) / quantile(plain.step_ms, 0.5), "ratio");
}

}  // namespace perfbench
