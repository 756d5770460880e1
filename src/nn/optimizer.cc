#include "nn/optimizer.h"

#include <cmath>
#include <limits>

#include "common/fault.h"
#include "tensor/primitives/primitives.h"

namespace causer::nn {

Optimizer::Optimizer(std::vector<Tensor> params) : params_(std::move(params)) {
  for (const auto& p : params_) CAUSER_CHECK(p.defined() && p.requires_grad());
}

void Optimizer::ZeroGrad() {
  for (auto& p : params_) p.ZeroGrad();
}

double Optimizer::ClipGradNorm(double max_norm) {
  // Injection point `optimizer.nan_grad`: poisons one gradient value the
  // way a numerically exploded backward pass would, so the trainer's
  // sentinel + checkpoint-rollback path is testable end to end.
  if (fault::ShouldFail("optimizer.nan_grad")) {
    for (auto& p : params_) {
      auto& node = *p.node();
      if (!node.grad.empty()) {
        node.grad[0] = std::numeric_limits<float>::quiet_NaN();
        break;
      }
    }
  }
  double total = 0.0;
  for (const auto& p : params_) {
    for (float g : p.grad()) total += static_cast<double>(g) * g;
  }
  double norm = std::sqrt(total);
  if (norm > max_norm && norm > 0.0) {
    float scale = static_cast<float>(max_norm / norm);
    for (auto& p : params_) {
      auto& node = *p.node();
      for (auto& g : node.grad) g *= scale;
    }
  }
  return norm;
}

Adam::Adam(std::vector<Tensor> params, float lr, float beta1, float beta2,
           float eps)
    : Optimizer(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      m_(params_.size()),
      v_(params_.size()) {}

void Adam::Step() {
  ++step_count_;
  // Bias corrections in double: float pow both loses the low bits of
  // beta^t at moderate t and truncates step_count_ itself once it exceeds
  // 2^24, which can snap the corrections to exactly 0/1 too early.
  const double bc1 =
      1.0 - std::pow(static_cast<double>(beta1_),
                     static_cast<double>(step_count_));
  const double bc2 =
      1.0 - std::pow(static_cast<double>(beta2_),
                     static_cast<double>(step_count_));
  // Fused single pass per parameter through the active ISA's adam_step
  // primitive (tensor/primitives/): moment updates and the write-back in
  // one sweep, with the (1-beta) factors precomputed. The primitive is
  // term-for-term the classic three-statement update (same operand order
  // and rounding in every variant), so trajectories are bit-identical —
  // enforced by nn_test's AdamFusedStepMatchesReferenceTrajectory and by
  // primitives_test across ISAs.
  const float one_minus_b1 = 1.0f - beta1_;
  const float one_minus_b2 = 1.0f - beta2_;
  const auto& ops = tensor::primitives::Active();
  for (size_t i = 0; i < params_.size(); ++i) {
    auto& node = *params_[i].node();
    if (node.grad.empty()) continue;
    if (m_[i].empty()) {  // first update: allocate the zero moments
      m_[i].assign(node.value.size(), 0.0f);
      v_[i].assign(node.value.size(), 0.0f);
    }
    ops.adam_step(node.value.size(), lr_, beta1_, beta2_, one_minus_b1,
                  one_minus_b2, bc1, bc2, eps_, node.value.data(),
                  node.grad.data(), m_[i].data(), v_[i].data());
  }
}

void Adam::SaveState(std::string* out) const {
  serial::AppendF32(out, lr_);
  serial::AppendF32(out, beta1_);
  serial::AppendF32(out, beta2_);
  serial::AppendF32(out, eps_);
  serial::AppendI32(out, step_count_);
  serial::AppendU64(out, m_.size());
  // A moment never allocated is all zeros; write it as such, so the bytes
  // match an eagerly zeroed optimizer.
  std::vector<float> zeros;
  for (size_t i = 0; i < m_.size(); ++i) {
    if (m_[i].empty()) {
      zeros.assign(params_[i].size(), 0.0f);
      serial::AppendFloats(out, zeros);
      serial::AppendFloats(out, zeros);
    } else {
      serial::AppendFloats(out, m_[i]);
      serial::AppendFloats(out, v_[i]);
    }
  }
}

bool Adam::LoadState(serial::Reader& in) {
  float lr = 0.0f, beta1 = 0.0f, beta2 = 0.0f, eps = 0.0f;
  int32_t step_count = 0;
  uint64_t count = 0;
  in.ReadF32(&lr);
  in.ReadF32(&beta1);
  in.ReadF32(&beta2);
  in.ReadF32(&eps);
  in.ReadI32(&step_count);
  in.ReadU64(&count);
  if (!in.ok() || count != m_.size() || step_count < 0) return false;
  std::vector<std::vector<float>> m(m_.size()), v(v_.size());
  for (size_t i = 0; i < m_.size(); ++i) {
    const size_t size = static_cast<size_t>(params_[i].size());
    if (!in.ReadFloats(&m[i]) || m[i].size() != size ||
        !in.ReadFloats(&v[i]) || v[i].size() != size) {
      return false;
    }
  }
  lr_ = lr;
  beta1_ = beta1;
  beta2_ = beta2;
  eps_ = eps;
  step_count_ = step_count;
  m_ = std::move(m);
  v_ = std::move(v);
  return true;
}

}  // namespace causer::nn
