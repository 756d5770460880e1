#ifndef CAUSER_NN_LINEAR_H_
#define CAUSER_NN_LINEAR_H_

#include <memory>
#include <vector>

#include "nn/module.h"

namespace causer::nn {

/// Affine map y = x W + b with W: [in, out], b: [1, out].
class Linear : public Module {
 public:
  Linear(int in_features, int out_features, causer::Rng& rng,
         bool with_bias = true);

  /// x: [n, in] -> [n, out].
  Tensor Forward(const Tensor& x) const;

  /// Tape-free Forward of one row on raw buffers: x [in] -> y [out], the
  /// floats Forward computes for that row. y must not alias x.
  void ForwardRow(const float* x, float* y) const;

  const Tensor& weight() const { return weight_; }
  const Tensor& bias() const { return bias_; }
  int in_features() const { return in_features_; }
  int out_features() const { return out_features_; }

 private:
  int in_features_;
  int out_features_;
  Tensor weight_;
  Tensor bias_;  // undefined when with_bias == false
};

/// Multi-layer perceptron with ReLU between layers (NCF's MLP tower).
class Mlp : public Module {
 public:
  /// dims = {in, hidden..., out}; ReLU applied between layers but not
  /// after the final one.
  Mlp(const std::vector<int>& dims, causer::Rng& rng);

  Tensor Forward(const Tensor& x) const;

 private:
  std::vector<std::unique_ptr<Linear>> layers_;
};

}  // namespace causer::nn

#endif  // CAUSER_NN_LINEAR_H_
