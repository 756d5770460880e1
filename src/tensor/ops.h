#ifndef CAUSER_TENSOR_OPS_H_
#define CAUSER_TENSOR_OPS_H_

#include <cmath>
#include <vector>

#include "tensor/tensor.h"

namespace causer::tensor {

/// Differentiable operations. All binary elementwise ops support NumPy-style
/// broadcasting along either dimension when that dimension is 1 in one of
/// the operands (e.g. [n,m]+[1,m] bias add, [T,d]*[T,1] row scaling).

/// Elementwise a + b (broadcasting).
Tensor Add(const Tensor& a, const Tensor& b);

/// Elementwise a - b (broadcasting).
Tensor Sub(const Tensor& a, const Tensor& b);

/// Elementwise a * b (broadcasting).
Tensor Mul(const Tensor& a, const Tensor& b);

/// Elementwise a / b (broadcasting). Caller must ensure b != 0.
Tensor Div(const Tensor& a, const Tensor& b);

/// a * c for a compile-time constant scalar.
Tensor ScalarMul(const Tensor& a, float c);

/// a + c elementwise.
Tensor AddScalar(const Tensor& a, float c);

/// Matrix product [n,m] x [m,p] -> [n,p].
Tensor MatMul(const Tensor& a, const Tensor& b);

/// Transpose [n,m] -> [m,n].
Tensor Transpose(const Tensor& a);

/// The one scalar logistic sigmoid: the Sigmoid op, BceWithLogits'
/// gradient and the raw recurrent cell steps (nn/rnn_cells.h) all evaluate
/// this expression, so their values carry the same bits. Branching on the
/// sign keeps exp from overflowing; the negative branch evaluates exp(x)
/// once and uses it twice.
inline float SigmoidValue(float x) {
  if (x >= 0.0f) return 1.0f / (1.0f + std::exp(-x));
  const float e = std::exp(x);
  return e / (1.0f + e);
}

/// Logistic sigmoid, elementwise (SigmoidValue per entry).
Tensor Sigmoid(const Tensor& a);

/// Hyperbolic tangent, elementwise.
Tensor Tanh(const Tensor& a);

/// Rectified linear unit, elementwise.
Tensor Relu(const Tensor& a);

/// Elementwise square root of max(a, 0).
Tensor Sqrt(const Tensor& a);

/// Row-wise softmax: each row of the result sums to 1.
/// `temperature` divides the logits before exponentiation (paper's eta).
Tensor SoftmaxRows(const Tensor& a, float temperature = 1.0f);

/// Sum of all entries -> [1,1].
Tensor Sum(const Tensor& a);

/// Per-row sum across columns: [n,m] -> [n,1].
Tensor SumRows(const Tensor& a);

/// Per-column sum across rows: [n,m] -> [1,m].
Tensor SumCols(const Tensor& a);

/// Sum of squares -> [1,1].
Tensor SquaredNorm(const Tensor& a);

/// Horizontal concatenation [n,m1],[n,m2] -> [n,m1+m2].
Tensor ConcatCols(const Tensor& a, const Tensor& b);

/// Vertical concatenation of equally wide tensors -> [sum rows, m].
Tensor ConcatRows(const std::vector<Tensor>& parts);

/// Row slice [start, start+len) -> [len, m] (differentiable view copy).
Tensor SliceRows(const Tensor& a, int start, int len);

/// Gathers rows by index: out[i] = a[indices[i]]. Backward scatter-adds,
/// so repeated indices accumulate gradient (embedding lookup semantics).
Tensor GatherRows(const Tensor& a, const std::vector<int>& indices);

/// Numerically stable binary cross-entropy on logits, summed over entries:
///   loss_i = max(x,0) - x*t + log(1 + exp(-|x|)).
/// `logits` and `targets` must have identical shapes; targets in [0,1].
Tensor BceWithLogits(const Tensor& logits, const Tensor& targets);

/// Sum of squared differences.
Tensor MseLoss(const Tensor& a, const Tensor& b);

}  // namespace causer::tensor

#endif  // CAUSER_TENSOR_OPS_H_
