#ifndef CAUSER_NN_ATTENTION_H_
#define CAUSER_NN_ATTENTION_H_

#include <memory>

#include "nn/linear.h"
#include "nn/module.h"

namespace causer::nn {

/// Bilinear attention sim(h_t, q) = h_t^T A q (the paper's Eq. 10 alpha).
/// Produces softmax-normalized weights over the rows of H.
class BilinearAttention : public Module {
 public:
  BilinearAttention(int dim, causer::Rng& rng);

  /// H: [T, dim] history states, q: [1, dim] query -> weights [T, 1].
  Tensor Weights(const Tensor& history, const Tensor& query) const;

  /// Weighted sum of history rows: weights^T H -> [1, dim].
  Tensor Pool(const Tensor& history, const Tensor& query) const;

  /// Raw (pre-softmax) scores, for inspection: [T, 1].
  Tensor Scores(const Tensor& history, const Tensor& query) const;

  /// The bilinear matrix A: [dim, dim].
  const Tensor& matrix() const { return a_; }

 private:
  Tensor a_;  // [dim, dim]
};

/// Single-head scaled dot-product self-attention with causal masking, the
/// building block of the SASRec baseline.
class CausalSelfAttention : public Module {
 public:
  CausalSelfAttention(int dim, causer::Rng& rng);

  /// X: [T, dim] -> [T, dim]; position t attends to positions <= t.
  Tensor Forward(const Tensor& x) const;

 private:
  std::unique_ptr<Linear> wq_;
  std::unique_ptr<Linear> wk_;
  std::unique_ptr<Linear> wv_;
  int dim_;
};

}  // namespace causer::nn

#endif  // CAUSER_NN_ATTENTION_H_
