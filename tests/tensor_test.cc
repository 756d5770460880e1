#include <gtest/gtest.h>

#include <cmath>

#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace causer::tensor {
namespace {

TEST(TensorTest, ZerosShapeAndValues) {
  Tensor t = Tensor::Zeros(2, 3);
  EXPECT_EQ(t.rows(), 2);
  EXPECT_EQ(t.cols(), 3);
  EXPECT_EQ(t.size(), 6);
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < 3; ++c) EXPECT_EQ(t.At(r, c), 0.0f);
}

TEST(TensorTest, FullAndScalar) {
  Tensor t = Tensor::Full(2, 2, 3.5f);
  EXPECT_EQ(t.At(1, 1), 3.5f);
  Tensor s = Tensor::Scalar(-2.0f);
  EXPECT_EQ(s.Item(), -2.0f);
}

TEST(TensorTest, FromDataRowMajor) {
  Tensor t = Tensor::FromData(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(t.At(0, 2), 3.0f);
  EXPECT_EQ(t.At(1, 0), 4.0f);
}

TEST(TensorTest, RandomUniformRange) {
  Rng rng(5);
  Tensor t = Tensor::RandomUniform(10, 10, -1.0f, 1.0f, rng);
  for (float v : t.data()) {
    EXPECT_GE(v, -1.0f);
    EXPECT_LT(v, 1.0f);
  }
}

TEST(TensorTest, CloneIndependent) {
  Tensor a = Tensor::Full(1, 2, 1.0f);
  Tensor b = a.Clone();
  b.At(0, 0) = 9.0f;
  EXPECT_EQ(a.At(0, 0), 1.0f);
}

TEST(TensorTest, CopyAliasesNode) {
  Tensor a = Tensor::Full(1, 2, 1.0f);
  Tensor b = a;
  b.At(0, 0) = 9.0f;
  EXPECT_EQ(a.At(0, 0), 9.0f);
}

TEST(OpsTest, AddSameShape) {
  Tensor a = Tensor::FromData(2, 2, {1, 2, 3, 4});
  Tensor b = Tensor::FromData(2, 2, {10, 20, 30, 40});
  Tensor c = Add(a, b);
  EXPECT_EQ(c.At(0, 0), 11.0f);
  EXPECT_EQ(c.At(1, 1), 44.0f);
}

TEST(OpsTest, AddBroadcastRow) {
  Tensor a = Tensor::FromData(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor bias = Tensor::FromData(1, 3, {10, 20, 30});
  Tensor c = Add(a, bias);
  EXPECT_EQ(c.At(0, 0), 11.0f);
  EXPECT_EQ(c.At(1, 2), 36.0f);
}

TEST(OpsTest, AddBroadcastColumn) {
  Tensor a = Tensor::FromData(2, 2, {1, 2, 3, 4});
  Tensor col = Tensor::FromData(2, 1, {10, 100});
  Tensor c = Add(a, col);
  EXPECT_EQ(c.At(0, 1), 12.0f);
  EXPECT_EQ(c.At(1, 0), 103.0f);
}

TEST(OpsTest, AddBroadcastScalar) {
  Tensor a = Tensor::FromData(2, 2, {1, 2, 3, 4});
  Tensor c = Add(a, Tensor::Scalar(5.0f));
  EXPECT_EQ(c.At(1, 1), 9.0f);
}

TEST(OpsTest, Sub) {
  Tensor a = Tensor::FromData(1, 2, {5, 7});
  Tensor b = Tensor::FromData(1, 2, {2, 3});
  EXPECT_EQ(Sub(a, b).At(0, 1), 4.0f);
}

TEST(OpsTest, MulBroadcastColumnScalesRows) {
  Tensor h = Tensor::FromData(2, 2, {1, 2, 3, 4});
  Tensor w = Tensor::FromData(2, 1, {2, 10});
  Tensor c = Mul(h, w);
  EXPECT_EQ(c.At(0, 1), 4.0f);
  EXPECT_EQ(c.At(1, 0), 30.0f);
}

TEST(OpsTest, DivElementwise) {
  Tensor a = Tensor::FromData(1, 2, {6, 9});
  Tensor b = Tensor::FromData(1, 2, {2, 3});
  Tensor c = Div(a, b);
  EXPECT_FLOAT_EQ(c.At(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(c.At(0, 1), 3.0f);
}

TEST(OpsTest, ScalarOps) {
  Tensor a = Tensor::FromData(1, 2, {1, -2});
  EXPECT_EQ(ScalarMul(a, 3.0f).At(0, 1), -6.0f);
  EXPECT_EQ(AddScalar(a, 1.5f).At(0, 0), 2.5f);
}

TEST(OpsTest, MatMulKnownValues) {
  Tensor a = Tensor::FromData(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromData(3, 2, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.rows(), 2);
  EXPECT_EQ(c.cols(), 2);
  EXPECT_FLOAT_EQ(c.At(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.At(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.At(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.At(1, 1), 154.0f);
}

TEST(OpsTest, MatMulIdentity) {
  Tensor a = Tensor::FromData(2, 2, {1, 2, 3, 4});
  Tensor eye = Tensor::FromData(2, 2, {1, 0, 0, 1});
  Tensor c = MatMul(a, eye);
  for (int i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(c.data()[i], a.data()[i]);
}

TEST(OpsTest, TransposeValues) {
  Tensor a = Tensor::FromData(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor t = Transpose(a);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 2);
  EXPECT_EQ(t.At(2, 0), 3.0f);
  EXPECT_EQ(t.At(0, 1), 4.0f);
}

TEST(OpsTest, SigmoidValues) {
  Tensor a = Tensor::FromData(1, 3, {0.0f, 100.0f, -100.0f});
  Tensor s = Sigmoid(a);
  EXPECT_FLOAT_EQ(s.At(0, 0), 0.5f);
  EXPECT_NEAR(s.At(0, 1), 1.0f, 1e-6);
  EXPECT_NEAR(s.At(0, 2), 0.0f, 1e-6);
}

TEST(OpsTest, TanhAndRelu) {
  Tensor a = Tensor::FromData(1, 2, {0.0f, -3.0f});
  EXPECT_FLOAT_EQ(Tanh(a).At(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(Relu(a).At(0, 1), 0.0f);
  Tensor b = Tensor::FromData(1, 1, {2.0f});
  EXPECT_FLOAT_EQ(Relu(b).At(0, 0), 2.0f);
}

TEST(OpsTest, SoftmaxRowsSumToOne) {
  Tensor a = Tensor::FromData(2, 3, {1, 2, 3, -5, 0, 5});
  Tensor s = SoftmaxRows(a);
  for (int r = 0; r < 2; ++r) {
    float sum = 0;
    for (int c = 0; c < 3; ++c) {
      sum += s.At(r, c);
      EXPECT_GT(s.At(r, c), 0.0f);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
  EXPECT_GT(s.At(0, 2), s.At(0, 0));
}

TEST(OpsTest, SoftmaxTemperatureSharpens) {
  Tensor a = Tensor::FromData(1, 2, {1.0f, 2.0f});
  float soft = SoftmaxRows(a, 10.0f).At(0, 1);
  float sharp = SoftmaxRows(a, 0.1f).At(0, 1);
  EXPECT_LT(soft, sharp);
  EXPECT_GT(sharp, 0.99f);
}

TEST(OpsTest, SoftmaxStableForLargeLogits) {
  Tensor a = Tensor::FromData(1, 2, {1000.0f, 1001.0f});
  Tensor s = SoftmaxRows(a);
  EXPECT_TRUE(std::isfinite(s.At(0, 0)));
  EXPECT_NEAR(s.At(0, 0) + s.At(0, 1), 1.0f, 1e-5);
}

TEST(OpsTest, Reductions) {
  Tensor a = Tensor::FromData(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_FLOAT_EQ(Sum(a).Item(), 21.0f);
  Tensor rows = SumRows(a);
  EXPECT_FLOAT_EQ(rows.At(0, 0), 6.0f);
  EXPECT_FLOAT_EQ(rows.At(1, 0), 15.0f);
  Tensor cols = SumCols(a);
  EXPECT_FLOAT_EQ(cols.At(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(cols.At(0, 2), 9.0f);
}

TEST(OpsTest, SquaredNorm) {
  Tensor a = Tensor::FromData(1, 3, {3.0f, -4.0f, 0.0f});
  EXPECT_FLOAT_EQ(SquaredNorm(a).Item(), 25.0f);
}

TEST(OpsTest, ConcatCols) {
  Tensor a = Tensor::FromData(2, 1, {1, 2});
  Tensor b = Tensor::FromData(2, 2, {3, 4, 5, 6});
  Tensor c = ConcatCols(a, b);
  EXPECT_EQ(c.cols(), 3);
  EXPECT_FLOAT_EQ(c.At(1, 0), 2.0f);
  EXPECT_FLOAT_EQ(c.At(1, 2), 6.0f);
}

TEST(OpsTest, ConcatRows) {
  Tensor a = Tensor::FromData(1, 2, {1, 2});
  Tensor b = Tensor::FromData(2, 2, {3, 4, 5, 6});
  Tensor c = ConcatRows({a, b});
  EXPECT_EQ(c.rows(), 3);
  EXPECT_FLOAT_EQ(c.At(0, 1), 2.0f);
  EXPECT_FLOAT_EQ(c.At(2, 0), 5.0f);
}

TEST(OpsTest, SliceRows) {
  Tensor a = Tensor::FromData(3, 2, {1, 2, 3, 4, 5, 6});
  Tensor s = SliceRows(a, 1, 2);
  EXPECT_EQ(s.rows(), 2);
  EXPECT_FLOAT_EQ(s.At(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(s.At(1, 1), 6.0f);
}

TEST(OpsTest, GatherRowsWithRepeats) {
  Tensor a = Tensor::FromData(3, 2, {1, 2, 3, 4, 5, 6});
  Tensor g = GatherRows(a, {2, 0, 2});
  EXPECT_EQ(g.rows(), 3);
  EXPECT_FLOAT_EQ(g.At(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(g.At(1, 1), 2.0f);
  EXPECT_FLOAT_EQ(g.At(2, 1), 6.0f);
}

TEST(OpsTest, BceWithLogitsKnownValue) {
  // x = 0, t = 1: loss = log(2).
  Tensor x = Tensor::FromData(1, 1, {0.0f});
  Tensor t = Tensor::FromData(1, 1, {1.0f});
  EXPECT_NEAR(BceWithLogits(x, t).Item(), std::log(2.0f), 1e-5);
}

TEST(OpsTest, BceWithLogitsStableForExtremeLogits) {
  Tensor x = Tensor::FromData(1, 2, {80.0f, -80.0f});
  Tensor t = Tensor::FromData(1, 2, {1.0f, 0.0f});
  float loss = BceWithLogits(x, t).Item();
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_NEAR(loss, 0.0f, 1e-4);
}

TEST(OpsTest, MseLossValues) {
  Tensor a = Tensor::FromData(1, 2, {1.0f, 2.0f});
  Tensor b = Tensor::FromData(1, 2, {3.0f, 2.0f});
  EXPECT_FLOAT_EQ(MseLoss(a, b).Item(), 4.0f);
}

TEST(NoGradTest, GuardDisablesGraph) {
  Tensor a = Tensor::Full(1, 1, 2.0f, /*requires_grad=*/true);
  {
    NoGradGuard guard;
    EXPECT_FALSE(GradEnabled());
    Tensor b = ScalarMul(a, 3.0f);
    EXPECT_FALSE(b.requires_grad());
  }
  EXPECT_TRUE(GradEnabled());
  Tensor c = ScalarMul(a, 3.0f);
  EXPECT_TRUE(c.requires_grad());
}

}  // namespace
}  // namespace causer::tensor
