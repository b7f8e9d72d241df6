// Deterministic random number generation.
//
// Every stochastic component takes an explicit Rng (or a seed) so that whole
// simulations are reproducible; `fork` derives independent child streams.
#pragma once

#include <cstdint>
#include <random>

namespace elan {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 42) : engine_(seed) {}

  /// Uniform double in [0, 1).
  double uniform() { return std::uniform_real_distribution<double>(0.0, 1.0)(engine_); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Normal distribution.
  double normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Truncated normal: resamples until the value falls in [lo, hi].
  double truncated_normal(double mean, double stddev, double lo, double hi);

  /// Exponential distribution with the given rate (1/mean).
  double exponential(double rate) {
    return std::exponential_distribution<double>(rate)(engine_);
  }

  /// Bernoulli trial.
  bool chance(double p) { return uniform() < p; }

  /// Derives an independent child generator; advances this generator.
  Rng fork() { return Rng(engine_()); }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace elan
