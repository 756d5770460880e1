// Kernel equivalence suite: the packed/blocked production kernel must be
// bit-identical to the naive reference for every shape, transpose-flag
// combination, and thread count — the contract that keeps training loss
// trajectories and eval metrics independent of --threads.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "eval/metrics.h"
#include "tensor/autograd.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace causer::tensor {
namespace {

std::vector<float> RandomBuffer(size_t size, Rng& rng) {
  std::vector<float> out(size);
  // A mix of magnitudes plus exact zeros: zeros used to take a skip branch
  // in the old kernel, so keep them represented.
  for (auto& v : out) {
    v = static_cast<float>(rng.Uniform(-2.0, 2.0));
    if (rng.Uniform(0.0, 1.0) < 0.1) v = 0.0f;
  }
  return out;
}

void ExpectBitwiseEqual(const std::vector<float>& expected,
                        const std::vector<float>& actual, int n, int m, int p,
                        bool ta, bool tb, int threads) {
  ASSERT_EQ(expected.size(), actual.size());
  bool equal = std::memcmp(expected.data(), actual.data(),
                           expected.size() * sizeof(float)) == 0;
  EXPECT_TRUE(equal) << "kernel mismatch at n=" << n << " m=" << m
                     << " p=" << p << " ta=" << ta << " tb=" << tb
                     << " threads=" << threads;
}

TEST(KernelEquivalenceTest, MatchesNaiveAcrossShapesFlagsAndThreads) {
  const int ns[] = {1, 3, 8, 33, 64};
  const int ms[] = {1, 5, 17, 128};
  const int ps[] = {1, 5, 17, 128};
  Rng rng(20240801);
  for (int threads : {1, 2, 8}) {
    SetDefaultThreads(threads);
    for (int n : ns) {
      for (int m : ms) {
        for (int p : ps) {
          for (bool ta : {false, true}) {
            for (bool tb : {false, true}) {
              auto a = RandomBuffer(static_cast<size_t>(n) * m, rng);
              auto b = RandomBuffer(static_cast<size_t>(m) * p, rng);
              // Nonzero initial C: both entry points must *accumulate*.
              auto c0 = RandomBuffer(static_cast<size_t>(n) * p, rng);
              auto expected = c0;
              auto actual = c0;
              kernels::MatMulAddNaive(a.data(), b.data(), expected.data(), n,
                                      m, p, ta, tb);
              kernels::MatMulAdd(a.data(), b.data(), actual.data(), n, m, p,
                                 ta, tb);
              ExpectBitwiseEqual(expected, actual, n, m, p, ta, tb, threads);
            }
          }
        }
      }
    }
  }
  SetDefaultThreads(1);
}

TEST(KernelEquivalenceTest, MatMulTopKMatchesNaiveGemvPlusTopK) {
  // The fused serving kernel must reproduce "materialize the [n,p] score
  // matrix, then eval::TopK each row" bit-for-bit — same dot-product
  // rounding as MatMulAddNaive, same score-descending / index-ascending
  // total order — at every thread count, including p straddling the
  // column-tile size, k > p (short rows padded with index -1), and a
  // duplicate-heavy B whose exact score ties only the index-ascending
  // tie-break can order.
  const int ns[] = {1, 3, 17};
  const int ms[] = {1, 8, 33};
  const int ps[] = {1, 7, 100, 700};
  const int ks[] = {1, 5, 64, 1000};
  Rng rng(20260806);
  for (int threads : {1, 2, 8}) {
    SetDefaultThreads(threads);
    for (int n : ns) {
      for (int m : ms) {
        for (int p : ps) {
          for (int k : ks) {
            auto a = RandomBuffer(static_cast<size_t>(n) * m, rng);
            auto b = RandomBuffer(static_cast<size_t>(p) * m, rng);
            for (bool ties : {false, true}) {
              SCOPED_TRACE(ties ? "duplicate-heavy B" : "random B");
              if (ties) {
                // Keep only B's first 5 rows, cycled over p.
                const size_t distinct = static_cast<size_t>(5) * m;
                for (size_t e = distinct; e < b.size(); ++e) {
                  b[e] = b[e % distinct];
                }
              }
              std::vector<kernels::TopKEntry> fused(static_cast<size_t>(n) *
                                                    k);
              kernels::MatMulTopK(a.data(), b.data(), n, m, p, k,
                                  fused.data());
              for (int i = 0; i < n; ++i) {
                std::vector<float> scores(p, 0.0f);
                kernels::MatMulAddNaive(a.data() + static_cast<size_t>(i) * m,
                                        b.data(), scores.data(), 1, m, p,
                                        false, true);
                auto ranked = eval::TopK(scores, k);
                const kernels::TopKEntry* row =
                    fused.data() + static_cast<size_t>(i) * k;
                for (int j = 0; j < k; ++j) {
                  if (j < static_cast<int>(ranked.size())) {
                    ASSERT_EQ(row[j].index, ranked[j])
                        << "row " << i << " rank " << j << " n=" << n
                        << " m=" << m << " p=" << p << " k=" << k
                        << " threads=" << threads;
                    ASSERT_EQ(row[j].score, scores[ranked[j]]);
                  } else {
                    ASSERT_EQ(row[j].index, -1);
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  SetDefaultThreads(1);
}

TEST(KernelEquivalenceTest, GraphMatMulForwardAndBackwardBitExact) {
  // End-to-end through the op layer: forward values and both operand
  // gradients (which exercise the transpose_b and transpose_a kernel paths)
  // are identical across thread counts.
  Rng rng(7);
  auto run = [&](int threads) {
    SetDefaultThreads(threads);
    Rng local(42);
    Tensor a = Tensor::RandomNormal(33, 64, 1.0f, local, true);
    Tensor b = Tensor::RandomNormal(64, 128, 1.0f, local, true);
    Tensor c = tensor::MatMul(a, b);
    Tensor loss = tensor::Sum(c);
    tensor::Backward(loss);
    struct Out {
      std::vector<float> value, ga, gb;
    } out;
    out.value.assign(c.data().begin(), c.data().end());
    out.ga.assign(a.grad().begin(), a.grad().end());
    out.gb.assign(b.grad().begin(), b.grad().end());
    SetDefaultThreads(1);
    return out;
  };
  auto seq = run(1);
  for (int threads : {2, 8}) {
    auto par = run(threads);
    EXPECT_EQ(seq.value, par.value) << "forward, threads=" << threads;
    EXPECT_EQ(seq.ga, par.ga) << "dA, threads=" << threads;
    EXPECT_EQ(seq.gb, par.gb) << "dB, threads=" << threads;
  }
}

TEST(KernelEquivalenceTest, ZeroRowsNoLongerSkipNanPropagation) {
  // The old kernel skipped av == 0.0f, which (as a side effect) suppressed
  // NaN/Inf propagation from B rows multiplied by zero. IEEE semantics say
  // 0 * inf = nan; the branchless kernels propagate it. No production path
  // relies on skipping (weights and activations are finite), so the
  // kernels agree with each other — and with plain float math.
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> a = {0.0f, 1.0f};        // [1, 2]
  std::vector<float> b = {inf, 2.0f};          // [2, 1]
  std::vector<float> naive = {0.0f}, packed = {0.0f};
  kernels::MatMulAddNaive(a.data(), b.data(), naive.data(), 1, 2, 1, false,
                          false);
  kernels::MatMulAdd(a.data(), b.data(), packed.data(), 1, 2, 1, false,
                     false);
  EXPECT_TRUE(std::isnan(naive[0]));
  EXPECT_TRUE(std::isnan(packed[0]));
}

TEST(KernelEquivalenceTest, ZeroTimesFiniteKeepsExactZeroSums) {
  // First-step GRU/LSTM matmuls multiply an all-zero state row by finite
  // weights: the branchless kernel must still produce exact +0 results
  // (0*b = ±0 and +0 + -0 = +0 under round-to-nearest).
  Rng rng(3);
  const int m = 17, p = 33;
  std::vector<float> a(m, 0.0f);
  auto b = RandomBuffer(static_cast<size_t>(m) * p, rng);
  std::vector<float> c(p, 0.0f);
  kernels::MatMulAdd(a.data(), b.data(), c.data(), 1, m, p, false, false);
  for (int j = 0; j < p; ++j) {
    EXPECT_EQ(c[j], 0.0f);
    EXPECT_FALSE(std::signbit(c[j])) << "expected +0 at j=" << j;
  }
}

}  // namespace
}  // namespace causer::tensor
