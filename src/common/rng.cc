#include "common/rng.h"

#include <cassert>
#include <cmath>

namespace causer {
namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(sm);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::Uniform() {
  // 53 random mantissa bits -> [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

int Rng::UniformInt(int n) {
  assert(n > 0);
  return static_cast<int>(Next() % static_cast<uint64_t>(n));
}

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = Uniform();
  double u2 = Uniform();
  while (u1 <= 1e-300) u1 = Uniform();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

bool Rng::Bernoulli(double p) { return Uniform() < p; }

int Rng::Categorical(const std::vector<double>& weights) {
  assert(!weights.empty());
  double total = 0.0;
  for (double w : weights) total += w > 0.0 ? w : 0.0;
  if (total <= 0.0) return UniformInt(static_cast<int>(weights.size()));
  double target = Uniform() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i] > 0.0 ? weights[i] : 0.0;
    if (target < acc) return static_cast<int>(i);
  }
  return static_cast<int>(weights.size()) - 1;
}

int Rng::TruncatedGeometric(double p, int max_value) {
  int count = 0;
  while (count < max_value && !Bernoulli(p)) ++count;
  return count;
}

void Rng::SaveState(std::string* out) const {
  for (uint64_t s : state_) serial::AppendU64(out, s);
  serial::AppendU32(out, has_cached_normal_ ? 1 : 0);
  serial::AppendF64(out, cached_normal_);
}

bool Rng::LoadState(serial::Reader& in) {
  uint64_t state[4];
  uint32_t has_cached = 0;
  double cached = 0.0;
  for (auto& s : state) in.ReadU64(&s);
  in.ReadU32(&has_cached);
  in.ReadF64(&cached);
  if (!in.ok()) return false;
  for (int i = 0; i < 4; ++i) state_[i] = state[i];
  has_cached_normal_ = has_cached != 0;
  cached_normal_ = cached;
  return true;
}

}  // namespace causer
