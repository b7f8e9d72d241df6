// Tests of the KernelMode::kVector backend: the runtime ISA dispatcher
// (minidl/isa.h), determinism of the vector kernels across runs and thread
// counts, the mixed ULP/absolute pin against the kReference golden kernels,
// the conv2d parity contract, and the 64-byte Tensor alignment guarantee.
//
// Every check here must hold on BOTH dispatch levels — CI runs this suite
// once with auto-detection and once with ELAN_ISA=scalar (the ctest entry
// kernels_scalar_isa) — so nothing below assumes which ISA is active.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/thread_pool.h"
#include "minidl/isa.h"
#include "minidl/parallel.h"
#include "minidl/tensor.h"

namespace elan::minidl {
namespace {

bool bit_equal(const Tensor& a, const Tensor& b) {
  if (!a.same_shape(b)) return false;
  const auto da = a.data();
  const auto db = b.data();
  for (std::size_t i = 0; i < da.size(); ++i) {
    if (da[i] != db[i]) return false;
  }
  return true;
}

void expect_within_vector_tolerance(const Tensor& ref, const Tensor& got,
                                    const char* what) {
  ASSERT_TRUE(ref.same_shape(got)) << what;
  const auto dr = ref.data();
  const auto dg = got.data();
  for (std::size_t i = 0; i < dr.size(); ++i) {
    ASSERT_TRUE(within_vector_tolerance(dr[i], dg[i]))
        << what << " element " << i << ": ref " << dr[i] << " vs " << dg[i]
        << " (" << ulp_distance(dr[i], dg[i]) << " ulp)";
  }
}

/// Saves and restores ELAN_ISA plus the cached dispatch choice, so tests can
/// flip the override without leaking it into the rest of the suite.
struct ScopedIsaOverride {
  explicit ScopedIsaOverride(const char* value) {
    const char* prev = std::getenv("ELAN_ISA");
    had_previous_ = prev != nullptr;
    if (had_previous_) previous_ = prev;
    if (value != nullptr) {
      ::setenv("ELAN_ISA", value, /*overwrite=*/1);
    } else {
      ::unsetenv("ELAN_ISA");
    }
    isa::reset_for_testing();
  }
  ~ScopedIsaOverride() {
    if (had_previous_) {
      ::setenv("ELAN_ISA", previous_.c_str(), 1);
    } else {
      ::unsetenv("ELAN_ISA");
    }
    isa::reset_for_testing();
  }
  bool had_previous_ = false;
  std::string previous_;
};

// ---------------------------------------------------------------------------
// ISA dispatch
// ---------------------------------------------------------------------------

TEST(IsaResolve, AutoFollowsHardware) {
  EXPECT_EQ(isa::resolve(nullptr, isa::Level::kAvx2), isa::Level::kAvx2);
  EXPECT_EQ(isa::resolve(nullptr, isa::Level::kScalar), isa::Level::kScalar);
  EXPECT_EQ(isa::resolve("", isa::Level::kAvx2), isa::Level::kAvx2);
}

TEST(IsaResolve, ScalarOverrideAlwaysWins) {
  EXPECT_EQ(isa::resolve("scalar", isa::Level::kAvx2), isa::Level::kScalar);
  EXPECT_EQ(isa::resolve("scalar", isa::Level::kScalar), isa::Level::kScalar);
}

TEST(IsaResolve, Avx2OverrideDegradesWhenUnsupported) {
  EXPECT_EQ(isa::resolve("avx2", isa::Level::kAvx2), isa::Level::kAvx2);
  // On a machine/build without AVX2 the request degrades (with a warning)
  // instead of dispatching into code the CPU would fault on.
  EXPECT_EQ(isa::resolve("avx2", isa::Level::kScalar), isa::Level::kScalar);
}

TEST(IsaResolve, UnknownValueFallsBackToDetection) {
  EXPECT_EQ(isa::resolve("sse9", isa::Level::kAvx2), isa::Level::kAvx2);
  EXPECT_EQ(isa::resolve("sse9", isa::Level::kScalar), isa::Level::kScalar);
}

TEST(IsaDispatch, EnvOverrideForcesPortablePath) {
  ScopedIsaOverride scoped("scalar");
  EXPECT_EQ(isa::active(), isa::Level::kScalar);
}

TEST(IsaDispatch, ChoiceIsLoggedExactlyOnce) {
  std::vector<std::string> lines;
  Logger::set_sink([&lines](LogLevel level, const std::string& message) {
    if (level == LogLevel::kInfo) lines.push_back(message);
  });
  const LogLevel previous_level = Logger::level();
  Logger::set_level(LogLevel::kInfo);
  {
    ScopedIsaOverride scoped("scalar");
    (void)isa::active();
    (void)isa::active();  // cached — must not log again
    int dispatch_lines = 0;
    for (const auto& l : lines) {
      if (l.find("ISA dispatch ->") != std::string::npos) ++dispatch_lines;
    }
    EXPECT_EQ(dispatch_lines, 1) << "dispatch must be logged exactly once";
  }
  Logger::set_level(previous_level);
  Logger::set_sink(nullptr);
}

// ---------------------------------------------------------------------------
// Tensor storage alignment
// ---------------------------------------------------------------------------

TEST(TensorAlignment, StorageIs64ByteAligned) {
  for (const auto& [r, c] : {std::pair{1, 1}, {3, 7}, {64, 256}, {13, 513}}) {
    Tensor t(r, c);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(t.data().data()) % kTensorAlignment, 0u)
        << r << "x" << c;
  }
}

// ---------------------------------------------------------------------------
// kVector vs kReference: the mixed ULP/absolute pin
// ---------------------------------------------------------------------------

/// The matmul shapes minidl actually runs (mlp.cpp forward/backward over the
/// bench problem and the spiral tests), plus deliberately awkward sizes that
/// exercise the panel/micro-tile edge paths (nr < 8, mr < 8, k tails).
struct GemmShape {
  int m, k, n;
};
const GemmShape kShapes[] = {
    {64, 64, 256}, {64, 256, 256}, {64, 256, 10},  // bench-problem layers
    {32, 2, 32},   {32, 32, 3},                    // spiral-test layers
    {1, 1, 1},     {7, 13, 5},     {9, 17, 8},     // edge tiles
    {8, 8, 8},     {33, 65, 129},
};

TEST(KernelVector, GemmsWithinToleranceOfReference) {
  for (const auto& s : kShapes) {
    Tensor a(s.m, s.k), b(s.k, s.n), at(s.k, s.m), bt(s.n, s.k);
    a.init_glorot(101 + s.m);
    b.init_glorot(202 + s.n);
    at.init_glorot(303 + s.k);
    bt.init_glorot(404 + s.m);

    Tensor ref_mm, ref_ta, ref_tb;
    {
      ScopedKernelMode mode(KernelMode::kReference);
      ref_mm = matmul(a, b);
      ref_ta = matmul_transpose_a(at, b);
      ref_tb = matmul_transpose_b(a, bt);
    }
    ScopedKernelMode mode(KernelMode::kVector);
    expect_within_vector_tolerance(ref_mm, matmul(a, b), "matmul");
    expect_within_vector_tolerance(ref_ta, matmul_transpose_a(at, b),
                                   "matmul_transpose_a");
    expect_within_vector_tolerance(ref_tb, matmul_transpose_b(a, bt),
                                   "matmul_transpose_b");
  }
}

TEST(KernelVector, BitIdenticalAcrossRunsAndThreadCounts) {
  Tensor a(128, 128), b(128, 128);  // square: valid for all three variants
  a.init_glorot(7);
  b.init_glorot(9);
  ScopedKernelMode mode(KernelMode::kVector);

  ThreadPool::set_global_threads(1);
  const Tensor first = matmul(a, b);
  const Tensor ta = matmul_transpose_a(a, b);
  const Tensor tb = matmul_transpose_b(a, b);
  EXPECT_TRUE(bit_equal(first, matmul(a, b))) << "re-run must be bit-identical";
  for (int threads : {2, 4}) {
    ThreadPool::set_global_threads(threads);
    EXPECT_TRUE(bit_equal(first, matmul(a, b))) << threads << " threads";
    EXPECT_TRUE(bit_equal(ta, matmul_transpose_a(a, b))) << threads << " threads";
    EXPECT_TRUE(bit_equal(tb, matmul_transpose_b(a, b))) << threads << " threads";
  }
  ThreadPool::set_global_threads(ThreadPool::default_threads());
}

TEST(KernelVector, ElementwiseOpsBitIdenticalToReference) {
  // These deliberately use unfused vector loops, so unlike the GEMMs they
  // are pinned bit-exactly, not just within tolerance.
  Tensor x(37, 53);
  x.init_glorot(31);
  Tensor bias(1, 53);
  bias.init_glorot(41);
  Tensor grad(37, 53);
  grad.init_glorot(43);

  Tensor ref_relu, ref_relu_bwd, ref_bias, ref_sums, ref_acc, ref_scaled;
  {
    ScopedKernelMode mode(KernelMode::kReference);
    ref_relu = relu(x);
    ref_relu_bwd = relu_backward(grad, x);
    ref_bias = x;
    add_row_bias(ref_bias, bias);
    ref_sums = column_sums(x);
    ref_acc = x;
    accumulate(ref_acc, grad);
    ref_scaled = x;
    scale(ref_scaled, 0.731f);
  }
  ScopedKernelMode mode(KernelMode::kVector);
  EXPECT_TRUE(bit_equal(ref_relu, relu(x)));
  EXPECT_TRUE(bit_equal(ref_relu_bwd, relu_backward(grad, x)));
  Tensor got_bias = x;
  add_row_bias(got_bias, bias);
  EXPECT_TRUE(bit_equal(ref_bias, got_bias));
  EXPECT_TRUE(bit_equal(ref_sums, column_sums(x)));
  Tensor got_acc = x;
  accumulate(got_acc, grad);
  EXPECT_TRUE(bit_equal(ref_acc, got_acc));
  Tensor got_scaled = x;
  scale(got_scaled, 0.731f);
  EXPECT_TRUE(bit_equal(ref_scaled, got_scaled));
}

TEST(KernelVector, SoftmaxCrossEntropyBitIdenticalToReference) {
  // Only the associative row-max scan is vectorised, so loss and gradient
  // stay bit-identical to the reference kernels.
  Tensor logits(19, 10);
  logits.init_glorot(59);
  std::vector<int> labels(19);
  for (int i = 0; i < 19; ++i) labels[static_cast<std::size_t>(i)] = i % 10;

  float ref_loss = 0.0f;
  Tensor ref_grad;
  {
    ScopedKernelMode mode(KernelMode::kReference);
    ref_loss = softmax_cross_entropy(logits, labels, &ref_grad);
  }
  ScopedKernelMode mode(KernelMode::kVector);
  Tensor got_grad;
  const float got_loss = softmax_cross_entropy(logits, labels, &got_grad);
  EXPECT_EQ(ref_loss, got_loss);
  EXPECT_TRUE(bit_equal(ref_grad, got_grad));
}

TEST(KernelVector, SgdMomentumUpdateBitIdenticalAcrossModes) {
  auto run = [](KernelMode mode_value) {
    ScopedKernelMode mode(mode_value);
    Tensor param(23, 29), velocity(23, 29), grad(23, 29);
    param.init_glorot(61);
    grad.init_glorot(67);
    for (int step = 0; step < 5; ++step) {
      sgd_momentum_update(param, velocity, grad, 0.01f, 0.9f);
    }
    return std::pair{param, velocity};
  };
  const auto [ref_p, ref_v] = run(KernelMode::kReference);
  const auto [vec_p, vec_v] = run(KernelMode::kVector);
  EXPECT_TRUE(bit_equal(ref_p, vec_p));
  EXPECT_TRUE(bit_equal(ref_v, vec_v));
}

// ---------------------------------------------------------------------------
// conv2d
// ---------------------------------------------------------------------------

TEST(Conv2d, MatchesHandComputed) {
  Tensor img(3, 3);
  float v = 1.0f;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) img.at(i, j) = v++;
  }
  Tensor k(2, 2);
  k.at(0, 0) = 1.0f;
  k.at(0, 1) = 0.0f;
  k.at(1, 0) = 0.0f;
  k.at(1, 1) = -1.0f;
  for (KernelMode mode_value :
       {KernelMode::kReference, KernelMode::kTiled, KernelMode::kVector}) {
    ScopedKernelMode mode(mode_value);
    const Tensor out = conv2d(img, k);
    ASSERT_EQ(out.rows(), 2);
    ASSERT_EQ(out.cols(), 2);
    // out(i,j) = img(i,j) - img(i+1,j+1) = -4 everywhere for this ramp.
    for (int i = 0; i < 2; ++i) {
      for (int j = 0; j < 2; ++j) EXPECT_EQ(out.at(i, j), -4.0f);
    }
  }
}

TEST(Conv2d, ParityWithReferenceAcrossModes) {
  Tensor img(24, 31), k(3, 5);
  img.init_glorot(71);
  k.init_glorot(73);
  Tensor ref;
  {
    ScopedKernelMode mode(KernelMode::kReference);
    ref = conv2d(img, k);
  }
  {
    // The tiled path keeps the reference accumulation order exactly.
    ScopedKernelMode mode(KernelMode::kTiled);
    EXPECT_TRUE(bit_equal(ref, conv2d(img, k)));
  }
  {
    // The vector path runs per-tap axpy kernels — fused on AVX2, so pinned
    // by the mixed tolerance rather than bit equality.
    ScopedKernelMode mode(KernelMode::kVector);
    const Tensor got = conv2d(img, k);
    expect_within_vector_tolerance(ref, got, "conv2d");
    // ... but still deterministic across thread counts.
    for (int threads : {2, 4}) {
      ThreadPool::set_global_threads(threads);
      EXPECT_TRUE(bit_equal(got, conv2d(img, k))) << threads << " threads";
    }
    ThreadPool::set_global_threads(ThreadPool::default_threads());
  }
}

// ---------------------------------------------------------------------------
// Data-parallel training under kVector
// ---------------------------------------------------------------------------

TEST(KernelVector, TrainerRepeatsBitIdenticallyAtAnyThreadCount) {
  LabeledData data = make_spirals(128, 3, 17);
  ParallelConfig config;
  config.layer_sizes = {2, 32, 32, 3};
  config.seed = 5;

  auto run = [&](int threads) {
    ThreadPool::set_global_threads(threads);
    ScopedKernelMode mode(KernelMode::kVector);
    DataParallelTrainer trainer(data, config, 3);
    std::vector<float> losses;
    for (int i = 0; i < 6; ++i) losses.push_back(trainer.step(96));
    EXPECT_TRUE(trainer.consistent());
    return std::pair{losses, trainer.checksums().front()};
  };
  const auto [losses1, sum1] = run(1);
  const auto [losses2, sum2] = run(2);
  const auto [losses4, sum4] = run(4);
  ThreadPool::set_global_threads(ThreadPool::default_threads());
  EXPECT_EQ(losses1, losses2);
  EXPECT_EQ(losses1, losses4);
  EXPECT_EQ(sum1, sum2);
  EXPECT_EQ(sum1, sum4);
  // Convergence itself is MiniDlTraining's job; here just guard against the
  // vector kernels silently producing garbage that still checksums equal.
  for (float l : losses1) EXPECT_TRUE(std::isfinite(l));
}

}  // namespace
}  // namespace elan::minidl
