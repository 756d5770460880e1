#include <gtest/gtest.h>

#include <cmath>

#include "causal/acyclicity.h"
#include "causal/dense.h"
#include "causal/matrix_exp.h"

namespace causer::causal {
namespace {

TEST(DenseTest, MultiplyKnownValues) {
  Dense a(2, 2), b(2, 2);
  a(0, 0) = 1; a(0, 1) = 2; a(1, 0) = 3; a(1, 1) = 4;
  b(0, 0) = 5; b(0, 1) = 6; b(1, 0) = 7; b(1, 1) = 8;
  Dense c = a.Multiply(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19);
  EXPECT_DOUBLE_EQ(c(0, 1), 22);
  EXPECT_DOUBLE_EQ(c(1, 0), 43);
  EXPECT_DOUBLE_EQ(c(1, 1), 50);
}

TEST(DenseTest, TransposeTraceNormHadamard) {
  Dense a(2, 3);
  a(0, 2) = 5;
  Dense t = a.Transposed();
  EXPECT_DOUBLE_EQ(t(2, 0), 5);

  Dense sq(2, 2);
  sq(0, 0) = 1; sq(1, 1) = 4;
  EXPECT_DOUBLE_EQ(sq.Trace(), 5);
  EXPECT_DOUBLE_EQ(sq.MaxAbs(), 4);
  EXPECT_DOUBLE_EQ(sq.FrobeniusNorm(), std::sqrt(17.0));

  Dense h = sq.Hadamard(sq);
  EXPECT_DOUBLE_EQ(h(1, 1), 16);
  EXPECT_DOUBLE_EQ(h(0, 1), 0);
}

TEST(DenseTest, IdentityAndScale) {
  Dense eye = Dense::Identity(3);
  EXPECT_DOUBLE_EQ(eye.Trace(), 3);
  eye.Scale(2.0);
  EXPECT_DOUBLE_EQ(eye(1, 1), 2.0);
  EXPECT_DOUBLE_EQ(eye(0, 1), 0.0);
}

TEST(MatrixExpTest, ZeroMatrixGivesIdentity) {
  Dense a(4, 4);
  Dense e = MatrixExponential(a);
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j)
      EXPECT_NEAR(e(i, j), i == j ? 1.0 : 0.0, 1e-12);
}

TEST(MatrixExpTest, DiagonalMatrix) {
  Dense a(2, 2);
  a(0, 0) = 1.0;
  a(1, 1) = -2.0;
  Dense e = MatrixExponential(a);
  EXPECT_NEAR(e(0, 0), std::exp(1.0), 1e-10);
  EXPECT_NEAR(e(1, 1), std::exp(-2.0), 1e-10);
  EXPECT_NEAR(e(0, 1), 0.0, 1e-12);
}

TEST(MatrixExpTest, NilpotentMatrixExact) {
  // [[0, a], [0, 0]] has exp = I + A exactly.
  Dense a(2, 2);
  a(0, 1) = 3.0;
  Dense e = MatrixExponential(a);
  EXPECT_NEAR(e(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(e(0, 1), 3.0, 1e-12);
  EXPECT_NEAR(e(1, 0), 0.0, 1e-12);
  EXPECT_NEAR(e(1, 1), 1.0, 1e-12);
}

TEST(MatrixExpTest, KnownRotationLikeMatrix) {
  // A = [[0, -t], [t, 0]] -> exp(A) = [[cos t, -sin t], [sin t, cos t]].
  const double t = 0.8;
  Dense a(2, 2);
  a(0, 1) = -t;
  a(1, 0) = t;
  Dense e = MatrixExponential(a);
  EXPECT_NEAR(e(0, 0), std::cos(t), 1e-10);
  EXPECT_NEAR(e(0, 1), -std::sin(t), 1e-10);
  EXPECT_NEAR(e(1, 0), std::sin(t), 1e-10);
  EXPECT_NEAR(e(1, 1), std::cos(t), 1e-10);
}

TEST(MatrixExpTest, LargeNormUsesScalingSquaring) {
  Dense a(1, 1);
  a(0, 0) = 10.0;
  EXPECT_NEAR(MatrixExponential(a)(0, 0), std::exp(10.0),
              std::exp(10.0) * 1e-10);
}

TEST(AcyclicityTest, DagHasZeroResidual) {
  // Chain 0 -> 1 -> 2.
  Dense w(3, 3);
  w(0, 1) = 0.9;
  w(1, 2) = -0.7;
  EXPECT_NEAR(AcyclicityValue(w), 0.0, 1e-10);
}

TEST(AcyclicityTest, EmptyGraphZero) {
  Dense w(5, 5);
  EXPECT_NEAR(AcyclicityValue(w), 0.0, 1e-12);
}

TEST(AcyclicityTest, TwoCyclePositive) {
  Dense w(2, 2);
  w(0, 1) = 1.0;
  w(1, 0) = 1.0;
  // trace(e^{S}) with S = [[0,1],[1,0]] = 2 cosh(1); h = 2cosh(1) - 2.
  EXPECT_NEAR(AcyclicityValue(w), 2.0 * std::cosh(1.0) - 2.0, 1e-10);
}

TEST(AcyclicityTest, SelfLoopPositive) {
  Dense w(2, 2);
  w(0, 0) = 0.5;
  EXPECT_GT(AcyclicityValue(w), 0.0);
}

TEST(AcyclicityTest, GradientMatchesFiniteDifference) {
  Dense w(3, 3);
  w(0, 1) = 0.6;
  w(1, 2) = 0.4;
  w(2, 0) = 0.5;  // cycle
  Dense grad = AcyclicityGradient(w);
  const double eps = 1e-6;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      Dense up = w, down = w;
      up(i, j) += eps;
      down(i, j) -= eps;
      double numeric =
          (AcyclicityValue(up) - AcyclicityValue(down)) / (2 * eps);
      EXPECT_NEAR(grad(i, j), numeric, 1e-5) << i << "," << j;
    }
  }
}

TEST(AcyclicityTest, GradientZeroOnZeroMatrix) {
  Dense w(4, 4);
  Dense grad = AcyclicityGradient(w);
  EXPECT_NEAR(grad.MaxAbs(), 0.0, 1e-14);
}

}  // namespace
}  // namespace causer::causal
