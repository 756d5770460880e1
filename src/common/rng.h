#ifndef CAUSER_COMMON_RNG_H_
#define CAUSER_COMMON_RNG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/serial.h"

namespace causer {

/// Deterministic pseudo-random number generator used throughout the library.
///
/// Wraps a SplitMix64-seeded xoshiro256** core. Every component that needs
/// randomness takes a `Rng&` (or a seed) so that experiments are exactly
/// reproducible from a single integer seed.
class Rng {
 public:
  /// Creates a generator from a 64-bit seed. Two Rng instances created from
  /// the same seed produce identical streams.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  int UniformInt(int n);

  /// Standard normal variate (Box-Muller, cached second value).
  double Normal();

  /// Normal with mean/stddev.
  double Normal(double mean, double stddev);

  /// Bernoulli draw with success probability p.
  bool Bernoulli(double p);

  /// Samples an index in [0, weights.size()) proportionally to `weights`.
  /// Non-positive weights are treated as zero; if all weights are zero the
  /// result is uniform.
  int Categorical(const std::vector<double>& weights);

  /// Geometric-like draw: number of Bernoulli(p) failures before the first
  /// success, truncated at `max_value`.
  int TruncatedGeometric(double p, int max_value);

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (int i = static_cast<int>(v.size()) - 1; i > 0; --i) {
      int j = UniformInt(i + 1);
      std::swap(v[i], v[j]);
    }
  }

  /// Appends the complete generator state (the four xoshiro words plus the
  /// cached Box-Muller normal) to `out`. A generator restored with
  /// LoadState continues the exact stream — the checkpoint/resume
  /// bit-exactness contract depends on it.
  void SaveState(std::string* out) const;

  /// Restores state written by SaveState. Returns false (leaving the
  /// generator unchanged) when the reader runs short.
  bool LoadState(serial::Reader& in);

 private:
  uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace causer

#endif  // CAUSER_COMMON_RNG_H_
