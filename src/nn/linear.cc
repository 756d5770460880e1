#include "nn/linear.h"

#include <algorithm>

#include "nn/init.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace causer::nn {

Linear::Linear(int in_features, int out_features, causer::Rng& rng,
               bool with_bias)
    : in_features_(in_features), out_features_(out_features) {
  weight_ = RegisterParameter(XavierUniform(in_features, out_features, rng));
  if (with_bias) bias_ = RegisterParameter(ZeroParam(1, out_features));
}

Tensor Linear::Forward(const Tensor& x) const {
  Tensor y = tensor::MatMul(x, weight_);
  if (bias_.defined()) y = tensor::Add(y, bias_);
  return y;
}

void Linear::ForwardRow(const float* x, float* y) const {
  std::fill(y, y + out_features_, 0.0f);
  tensor::kernels::MatMulAdd(x, weight_.data().data(), y, 1, in_features_,
                             out_features_, false, false);
  if (!bias_.defined()) return;
  const float* b = bias_.data().data();
  for (int j = 0; j < out_features_; ++j) y[j] = y[j] + b[j];
}

Mlp::Mlp(const std::vector<int>& dims, causer::Rng& rng) {
  CAUSER_CHECK(dims.size() >= 2);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.push_back(std::make_unique<Linear>(dims[i], dims[i + 1], rng));
    RegisterModule(layers_.back().get());
  }
}

Tensor Mlp::Forward(const Tensor& x) const {
  Tensor h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i]->Forward(h);
    if (i + 1 < layers_.size()) h = tensor::Relu(h);
  }
  return h;
}

}  // namespace causer::nn
