#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "tensor/autograd.h"
#include "tensor/ops.h"

namespace causer::tensor {
namespace {

/// Verifies the analytic gradient of `loss_fn` w.r.t. every entry of every
/// leaf against central differences. `loss_fn` must rebuild the graph from
/// the current leaf values on each call.
void CheckGradients(std::vector<Tensor> leaves,
                    const std::function<Tensor()>& loss_fn,
                    double tol = 2e-2) {
  Tensor loss = loss_fn();
  for (auto& leaf : leaves) leaf.ZeroGrad();
  Backward(loss);
  auto value = [&]() { return static_cast<double>(loss_fn().Item()); };
  for (auto& leaf : leaves) {
    for (int r = 0; r < leaf.rows(); ++r) {
      for (int c = 0; c < leaf.cols(); ++c) {
        double numeric = NumericalGradient(value, leaf, r, c);
        double analytic = leaf.GradAt(r, c);
        double scale = std::max({1.0, std::fabs(numeric), std::fabs(analytic)});
        EXPECT_NEAR(analytic, numeric, tol * scale)
            << "leaf entry (" << r << "," << c << ")";
      }
    }
  }
}

Rng& TestRng() {
  static Rng rng(12345);
  return rng;
}

Tensor RandLeaf(int r, int c) {
  return Tensor::RandomUniform(r, c, -1.0f, 1.0f, TestRng(),
                               /*requires_grad=*/true);
}

TEST(GradCheck, Add) {
  Tensor a = RandLeaf(2, 3), b = RandLeaf(2, 3);
  CheckGradients({a, b}, [&] { return Sum(Mul(Add(a, b), Add(a, b))); });
}

TEST(GradCheck, AddBroadcastBias) {
  Tensor a = RandLeaf(3, 2), bias = RandLeaf(1, 2);
  CheckGradients({a, bias}, [&] { return SquaredNorm(Add(a, bias)); });
}

TEST(GradCheck, AddBroadcastColumn) {
  Tensor a = RandLeaf(3, 2), col = RandLeaf(3, 1);
  CheckGradients({a, col}, [&] { return SquaredNorm(Add(a, col)); });
}

TEST(GradCheck, SubAndScalarMul) {
  Tensor a = RandLeaf(2, 2), b = RandLeaf(2, 2);
  CheckGradients({a, b},
                 [&] { return SquaredNorm(ScalarMul(Sub(a, b), 2.5f)); });
}

TEST(GradCheck, MulElementwise) {
  Tensor a = RandLeaf(2, 3), b = RandLeaf(2, 3);
  CheckGradients({a, b}, [&] { return Sum(Mul(a, b)); });
}

TEST(GradCheck, MulBroadcastColumn) {
  Tensor h = RandLeaf(4, 3), w = RandLeaf(4, 1);
  CheckGradients({h, w}, [&] { return SquaredNorm(Mul(h, w)); });
}

TEST(GradCheck, Div) {
  Tensor a = RandLeaf(2, 2);
  Tensor b = Tensor::RandomUniform(2, 2, 1.0f, 2.0f, TestRng(), true);
  CheckGradients({a, b}, [&] { return Sum(Div(a, b)); });
}

TEST(GradCheck, MatMul) {
  Tensor a = RandLeaf(2, 3), b = RandLeaf(3, 4);
  CheckGradients({a, b}, [&] { return SquaredNorm(MatMul(a, b)); });
}

TEST(GradCheck, MatMulChain) {
  Tensor a = RandLeaf(2, 3), b = RandLeaf(3, 3), c = RandLeaf(3, 2);
  CheckGradients({a, b, c},
                 [&] { return Sum(MatMul(MatMul(a, b), c)); });
}

TEST(GradCheck, Transpose) {
  Tensor a = RandLeaf(2, 3);
  CheckGradients({a}, [&] { return SquaredNorm(MatMul(Transpose(a), a)); });
}

TEST(GradCheck, Sigmoid) {
  Tensor a = RandLeaf(2, 3);
  CheckGradients({a}, [&] { return Sum(Sigmoid(a)); });
}

TEST(GradCheck, Tanh) {
  Tensor a = RandLeaf(2, 3);
  CheckGradients({a}, [&] { return SquaredNorm(Tanh(a)); });
}

TEST(GradCheck, ReluAwayFromKink) {
  Tensor a = Tensor::FromData(1, 4, {0.5f, -0.5f, 1.2f, -1.2f}, true);
  CheckGradients({a}, [&] { return Sum(Relu(a)); });
}

TEST(GradCheck, Sqrt) {
  Tensor a = Tensor::RandomUniform(2, 3, 0.5f, 2.0f, TestRng(), true);
  CheckGradients({a}, [&] { return Sum(Sqrt(a)); });
}

TEST(GradCheck, SoftmaxRows) {
  Tensor a = RandLeaf(2, 4);
  Tensor target = Tensor::RandomUniform(2, 4, 0.0f, 1.0f, TestRng());
  CheckGradients({a},
                 [&] { return SquaredNorm(Sub(SoftmaxRows(a), target)); });
}

TEST(GradCheck, SoftmaxWithTemperature) {
  Tensor a = RandLeaf(1, 5);
  CheckGradients(
      {a}, [&] { return Sum(Mul(SoftmaxRows(a, 0.7f), SoftmaxRows(a, 0.7f))); });
}

TEST(GradCheck, SumRowsAndCols) {
  Tensor a = RandLeaf(3, 2);
  CheckGradients({a}, [&] { return SquaredNorm(SumRows(a)); });
  CheckGradients({a}, [&] { return SquaredNorm(SumCols(a)); });
}

TEST(GradCheck, SquaredNorm) {
  Tensor a = RandLeaf(3, 3);
  CheckGradients({a}, [&] { return SquaredNorm(a); });
}

TEST(GradCheck, ConcatColsAndRows) {
  Tensor a = RandLeaf(2, 2), b = RandLeaf(2, 3);
  CheckGradients({a, b}, [&] { return SquaredNorm(ConcatCols(a, b)); });
  Tensor c = RandLeaf(1, 2), d = RandLeaf(2, 2);
  CheckGradients({c, d}, [&] { return SquaredNorm(ConcatRows({c, d})); });
}

TEST(GradCheck, SliceRows) {
  Tensor a = RandLeaf(4, 2);
  CheckGradients({a}, [&] { return SquaredNorm(SliceRows(a, 1, 2)); });
}

TEST(GradCheck, GatherRowsAccumulatesRepeats) {
  Tensor a = RandLeaf(3, 2);
  CheckGradients({a},
                 [&] { return SquaredNorm(GatherRows(a, {0, 2, 0})); });
}

TEST(GradCheck, BceWithLogits) {
  Tensor x = RandLeaf(3, 1);
  Tensor t = Tensor::FromData(3, 1, {1.0f, 0.0f, 1.0f});
  CheckGradients({x}, [&] { return BceWithLogits(x, t); });
}

TEST(GradCheck, MseLoss) {
  Tensor a = RandLeaf(2, 3), b = RandLeaf(2, 3);
  CheckGradients({a, b}, [&] { return MseLoss(a, b); });
}

TEST(GradCheck, CompositeMiniNetwork) {
  // A little MLP-like composite: sigmoid(x W1 + b) W2 -> BCE.
  Tensor x = RandLeaf(2, 3);
  Tensor w1 = RandLeaf(3, 4);
  Tensor b1 = RandLeaf(1, 4);
  Tensor w2 = RandLeaf(4, 1);
  Tensor t = Tensor::FromData(2, 1, {1.0f, 0.0f});
  CheckGradients({x, w1, b1, w2}, [&] {
    Tensor h = Sigmoid(Add(MatMul(x, w1), b1));
    return BceWithLogits(MatMul(h, w2), t);
  });
}

TEST(GradCheck, DiamondGraphReuse) {
  // a feeds two branches that are recombined: gradient must accumulate.
  Tensor a = RandLeaf(2, 2);
  CheckGradients({a}, [&] {
    Tensor s = Sigmoid(a);
    Tensor t = Tanh(a);
    return Sum(Mul(s, t));
  });
}

TEST(AutogradTest, BackwardAccumulatesAcrossCalls) {
  Tensor a = Tensor::Full(1, 1, 2.0f, true);
  Tensor loss1 = SquaredNorm(a);  // d/da = 4
  Backward(loss1);
  EXPECT_FLOAT_EQ(a.GradAt(0, 0), 4.0f);
  Tensor loss2 = SquaredNorm(a);
  Backward(loss2);
  EXPECT_FLOAT_EQ(a.GradAt(0, 0), 8.0f);  // accumulated
  a.ZeroGrad();
  EXPECT_FLOAT_EQ(a.GradAt(0, 0), 0.0f);
}

TEST(AutogradTest, NoGradLeafUntouched) {
  Tensor a = Tensor::Full(1, 1, 2.0f, true);
  Tensor constant = Tensor::Full(1, 1, 3.0f, false);
  Tensor loss = Sum(Mul(a, constant));
  Backward(loss);
  EXPECT_FLOAT_EQ(a.GradAt(0, 0), 3.0f);
  EXPECT_TRUE(constant.grad().empty());
}

TEST(AutogradTest, BackwardOnDetachedLossIsNoOp) {
  Tensor a = Tensor::Full(1, 1, 2.0f, false);
  Tensor loss = SquaredNorm(a);
  Backward(loss);  // must not crash
  EXPECT_TRUE(a.grad().empty());
}

TEST(AutogradTest, SharedSubgraphGradientCorrect) {
  // loss = sum(b) + sum(b) where b = 2a  =>  dloss/da = 4 per entry.
  Tensor a = Tensor::Full(2, 2, 1.0f, true);
  Tensor b = ScalarMul(a, 2.0f);
  Tensor loss = Add(Sum(b), Sum(b));
  Backward(loss);
  EXPECT_FLOAT_EQ(a.GradAt(0, 0), 4.0f);
  EXPECT_FLOAT_EQ(a.GradAt(1, 1), 4.0f);
}

TEST(AutogradTest, DeepChainGradient) {
  Tensor a = Tensor::Full(1, 1, 1.0f, true);
  Tensor x = a;
  for (int i = 0; i < 50; ++i) x = ScalarMul(x, 1.01f);
  Backward(Sum(x));
  EXPECT_NEAR(a.GradAt(0, 0), std::pow(1.01f, 50), 1e-3);
}

}  // namespace
}  // namespace causer::tensor
