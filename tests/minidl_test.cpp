// Tests of the minidl framework: tensor-op correctness, gradients verified
// against numerical differentiation, real training convergence, and the
// data-parallel + elastic properties (the §V-A generality demonstration).
#include <gtest/gtest.h>

#include <cmath>

#include "common/serialize.h"
#include "minidl/dataset.h"
#include "minidl/mlp.h"
#include "minidl/parallel.h"

namespace elan::minidl {
namespace {

// ---------------------------------------------------------------------------
// Tensor ops
// ---------------------------------------------------------------------------

TEST(MiniDlTensor, MatmulMatchesHandComputed) {
  Tensor a(2, 3);
  Tensor b(3, 2);
  // a = [[1,2,3],[4,5,6]], b = [[7,8],[9,10],[11,12]]
  float av[] = {1, 2, 3, 4, 5, 6};
  float bv[] = {7, 8, 9, 10, 11, 12};
  std::copy(std::begin(av), std::end(av), a.data().begin());
  std::copy(std::begin(bv), std::end(bv), b.data().begin());
  const Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154);
}

TEST(MiniDlTensor, TransposedMatmulsAgreeWithExplicitTranspose) {
  Tensor a(4, 3);
  Tensor b(5, 3);
  a.init_glorot(1);
  b.init_glorot(2);
  // a * b^T via matmul_transpose_b == manual.
  const Tensor c = matmul_transpose_b(a, b);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 5; ++j) {
      float acc = 0;
      for (int k = 0; k < 3; ++k) acc += a.at(i, k) * b.at(j, k);
      EXPECT_NEAR(c.at(i, j), acc, 1e-6);
    }
  }
}

TEST(MiniDlTensor, ReluForwardBackward) {
  Tensor x(1, 4);
  float xv[] = {-1, 0, 2, -3};
  std::copy(std::begin(xv), std::end(xv), x.data().begin());
  const Tensor y = relu(x);
  EXPECT_FLOAT_EQ(y.at(0, 0), 0);
  EXPECT_FLOAT_EQ(y.at(0, 2), 2);
  Tensor g(1, 4);
  g.fill(1.0f);
  const Tensor gx = relu_backward(g, x);
  EXPECT_FLOAT_EQ(gx.at(0, 0), 0);
  EXPECT_FLOAT_EQ(gx.at(0, 2), 1);
}

TEST(MiniDlTensor, SoftmaxCrossEntropyKnownCase) {
  Tensor logits(1, 3);
  logits.fill(0.0f);  // uniform -> loss = ln(3)
  const float l = softmax_cross_entropy(logits, {1}, nullptr);
  EXPECT_NEAR(l, std::log(3.0f), 1e-6);
}

TEST(MiniDlTensor, ShapeValidation) {
  Tensor a(2, 3);
  Tensor b(2, 3);
  EXPECT_THROW(matmul(a, b), InvalidArgument);
  EXPECT_THROW(Tensor(0, 3), InvalidArgument);
  EXPECT_THROW(a.at(2, 0), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Gradient check: analytic backward vs central finite differences.
// ---------------------------------------------------------------------------

TEST(MiniDlGradients, MatchNumericalDifferentiation) {
  Mlp mlp({3, 8, 4}, /*seed=*/11);
  Tensor x(5, 3);
  x.init_glorot(99);
  const std::vector<int> labels{0, 1, 2, 3, 1};

  // Analytic gradients.
  mlp.loss(x, labels, /*train=*/true);
  const auto analytic = mlp.flatten_gradients();

  // Numerical gradients over every parameter.
  const float eps = 1e-3f;
  std::size_t flat_index = 0;
  double worst = 0.0;
  for (auto& layer : mlp.mutable_layers()) {
    for (auto* tensor : {&layer.weights, &layer.bias}) {
      for (auto& p : tensor->data()) {
        const float saved = p;
        p = saved + eps;
        const float lp = mlp.loss(x, labels, false);
        p = saved - eps;
        const float lm = mlp.loss(x, labels, false);
        p = saved;
        const double numeric = (static_cast<double>(lp) - lm) / (2.0 * eps);
        const double diff = std::abs(numeric - analytic[flat_index]);
        const double scale = std::max({1e-4, std::abs(numeric),
                                       std::abs(analytic[flat_index])});
        worst = std::max(worst, diff / scale);
        ++flat_index;
      }
    }
  }
  EXPECT_EQ(flat_index, analytic.size());
  // fp32 forward passes limit the attainable agreement with eps=1e-3.
  EXPECT_LT(worst, 0.03) << "worst relative gradient error";
}

// ---------------------------------------------------------------------------
// Real training
// ---------------------------------------------------------------------------

TEST(MiniDlTraining, LossDecreasesAndSpiralsAreLearned) {
  const auto data = make_spirals(120, 3, /*seed=*/5);
  Mlp mlp({2, 32, 32, 3}, /*seed=*/7);
  const float initial = mlp.loss(data.features, data.labels, false);
  for (int iter = 0; iter < 900; ++iter) {
    mlp.loss(data.features, data.labels, true);
    mlp.sgd_step(0.2f);
  }
  const float trained = mlp.loss(data.features, data.labels, false);
  EXPECT_LT(trained, initial * 0.3f);
  // Spirals are not linearly separable; >90% accuracy means the hidden
  // layers genuinely learned the structure.
  EXPECT_GT(mlp.accuracy(data.features, data.labels), 0.90);
}

TEST(MiniDlTraining, StateRoundTripIsExact) {
  const auto data = make_spirals(60, 3, 5);
  Mlp a({2, 16, 3}, 7);
  for (int i = 0; i < 20; ++i) {
    a.loss(data.features, data.labels, true);
    a.sgd_step(0.1f);
  }
  const auto state = a.save_state();
  Mlp b({2, 16, 3}, 999);  // different init
  EXPECT_NE(a.state_checksum(), b.state_checksum());
  b.load_state(state);
  EXPECT_EQ(a.state_checksum(), b.state_checksum());
  // Identical state implies identical future behaviour.
  a.loss(data.features, data.labels, true);
  b.loss(data.features, data.labels, true);
  a.sgd_step(0.1f);
  b.sgd_step(0.1f);
  EXPECT_EQ(a.state_checksum(), b.state_checksum());
}

// ---------------------------------------------------------------------------
// Data parallelism + elasticity
// ---------------------------------------------------------------------------

TEST(MiniDlParallel, MatchesSingleProcessTraining) {
  // The defining property of synchronous data parallelism: N replicas on
  // shards of the global batch compute the same update as one process on
  // the whole batch.
  const auto data = make_spirals(100, 3, 5);
  ParallelConfig cfg;
  DataParallelTrainer parallel(data, cfg, 4);

  Mlp solo(cfg.layer_sizes, cfg.seed);
  std::uint64_t cursor = 0;
  const int total_batch = 60;
  for (int iter = 0; iter < 30; ++iter) {
    parallel.step(total_batch);
    // Replicate the serial shard draw (4 replicas x 15 samples each).
    Tensor batch(total_batch, 2);
    std::vector<int> labels;
    int row = 0;
    for (int r = 0; r < 4; ++r) {
      if (cursor + 15 > static_cast<std::uint64_t>(data.size())) cursor = 0;
      const auto shard = data.slice(static_cast<int>(cursor), static_cast<int>(cursor) + 15);
      for (int i = 0; i < 15; ++i, ++row) {
        batch.at(row, 0) = shard.features.at(i, 0);
        batch.at(row, 1) = shard.features.at(i, 1);
        labels.push_back(shard.labels[static_cast<std::size_t>(i)]);
      }
      cursor += 15;
    }
    solo.loss(batch, labels, true);
    solo.sgd_step(cfg.lr, cfg.momentum);
  }
  // Gradient averaging across equal shards == full-batch gradient, so the
  // parameters agree to float tolerance.
  const auto& rep = parallel.replica(0);
  double worst = 0;
  for (std::size_t l = 0; l < rep.layers().size(); ++l) {
    auto ra = rep.layers()[l].weights.data();
    auto rb = solo.layers()[l].weights.data();
    for (std::size_t i = 0; i < ra.size(); ++i) {
      worst = std::max(worst, static_cast<double>(std::abs(ra[i] - rb[i])));
    }
  }
  EXPECT_LT(worst, 1e-4);
}

TEST(MiniDlParallel, ReplicasStayBitIdentical) {
  const auto data = make_spirals(80, 3, 5);
  DataParallelTrainer trainer(data, ParallelConfig{}, 3);
  for (int i = 0; i < 25; ++i) {
    trainer.step(48);
    ASSERT_TRUE(trainer.consistent()) << "iteration " << i;
  }
}

TEST(MiniDlParallel, ScaleOutReplicatesRealState) {
  const auto data = make_spirals(80, 3, 5);
  DataParallelTrainer trainer(data, ParallelConfig{}, 2);
  for (int i = 0; i < 40; ++i) trainer.step(48);
  const double acc_before = trainer.accuracy();

  const auto ids = trainer.scale_out(2);
  EXPECT_EQ(ids.size(), 2u);
  EXPECT_EQ(trainer.num_replicas(), 4);
  // New replicas carry the trained weights, not a fresh init.
  EXPECT_TRUE(trainer.consistent());

  float last = 0;
  for (int i = 0; i < 40; ++i) last = trainer.step(48);
  EXPECT_TRUE(trainer.consistent());
  // Training kept improving (or at least did not regress) after scale-out.
  EXPECT_GE(trainer.accuracy() + 0.05, acc_before);
  EXPECT_GT(last, 0.0f);
}

TEST(MiniDlParallel, ScaleInKeepsTraining) {
  const auto data = make_spirals(80, 3, 5);
  DataParallelTrainer trainer(data, ParallelConfig{}, 4);
  for (int i = 0; i < 10; ++i) trainer.step(48);
  trainer.scale_in({1, 2});
  EXPECT_EQ(trainer.num_replicas(), 2);
  for (int i = 0; i < 10; ++i) trainer.step(48);
  EXPECT_TRUE(trainer.consistent());
  EXPECT_THROW(trainer.scale_in({0, 3}), InvalidArgument);  // cannot remove all
}

TEST(MiniDlParallel, HookSurfaceMatchesElanExpectations) {
  // The integration contract: state is exposed via named hooks with nominal
  // sizes, exactly like the simulated engines.
  const auto data = make_spirals(40, 3, 5);
  DataParallelTrainer trainer(data, ParallelConfig{}, 2);
  auto& hooks = trainer.hooks(0);
  EXPECT_TRUE(hooks.has_hook("minidl_model"));
  EXPECT_GT(hooks.nominal_bytes(StateLocation::kGpu), 0u);
  const auto snapshot = hooks.save_all();
  // Snapshot -> serialize -> deserialize -> load restores bit-identical state
  // (the checkpoint path of the S&R baseline).
  const auto bytes = wire::encode(snapshot);
  const auto restored = wire::decode<StateSnapshot>(bytes);
  trainer.step(16);
  trainer.hooks(0).load_all(restored);
  trainer.hooks(1).load_all(restored);
  EXPECT_TRUE(trainer.consistent());
}

TEST(MiniDlTraining, LinearModelSolvesBlobs) {
  // Sanity anchor: a zero-hidden-layer model (pure softmax regression) must
  // nail a linearly separable problem quickly.
  const auto data = make_blobs(60, 4, 11);
  Mlp linear({2, 4}, 3);
  for (int i = 0; i < 200; ++i) {
    linear.loss(data.features, data.labels, true);
    linear.sgd_step(0.3f);
  }
  EXPECT_GT(linear.accuracy(data.features, data.labels), 0.98);
}

TEST(MiniDlTraining, HiddenLayersBeatLinearOnSpirals) {
  // ...and the converse: spirals defeat the linear model but not the MLP,
  // proving the backward pass through the hidden layers carries signal.
  const auto data = make_spirals(100, 3, 5);
  Mlp linear({2, 3}, 7);
  Mlp deep({2, 32, 32, 3}, 7);
  for (int i = 0; i < 600; ++i) {
    linear.loss(data.features, data.labels, true);
    linear.sgd_step(0.2f);
    deep.loss(data.features, data.labels, true);
    deep.sgd_step(0.2f);
  }
  const double lin = linear.accuracy(data.features, data.labels);
  const double dp = deep.accuracy(data.features, data.labels);
  EXPECT_LT(lin, 0.75);
  EXPECT_GT(dp, lin + 0.1);
}

TEST(MiniDlDataset, BlobsAreBalanced) {
  const auto d = make_blobs(30, 5, 2);
  EXPECT_EQ(d.size(), 150);
  std::vector<int> counts(5, 0);
  for (int l : d.labels) ++counts[static_cast<std::size_t>(l)];
  for (int c : counts) EXPECT_EQ(c, 30);
}

TEST(MiniDlDataset, SpiralsAreBalancedAndDeterministic) {
  const auto a = make_spirals(50, 4, 9);
  const auto b = make_spirals(50, 4, 9);
  EXPECT_EQ(a.size(), 200);
  std::vector<int> counts(4, 0);
  for (int l : a.labels) ++counts[static_cast<std::size_t>(l)];
  for (int c : counts) EXPECT_EQ(c, 50);
  for (int i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.features.at(i, 0), b.features.at(i, 0));
  }
  // Any contiguous slice is roughly class-balanced (interleaved layout).
  const auto s = a.slice(0, 40);
  std::vector<int> sc(4, 0);
  for (int l : s.labels) ++sc[static_cast<std::size_t>(l)];
  for (int c : sc) EXPECT_EQ(c, 10);
}

}  // namespace
}  // namespace elan::minidl
