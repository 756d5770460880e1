#include "core/cluster_graph.h"

#include <cmath>
#include <limits>

#include "causal/acyclicity.h"
#include "nn/init.h"
#include "tensor/ops.h"
#include "tensor/primitives/primitives.h"

namespace causer::core {

ClusterCausalGraph::ClusterCausalGraph(int num_clusters, causer::Rng& rng) {
  // Positive-leaning initialization so some edges pass the filter threshold
  // before the graph has been learned (the DAG + L1 penalties prune from
  // there). The diagonal starts at zero and is never favored by h(W).
  wc_ = RegisterParameter(
      Tensor::RandomUniform(num_clusters, num_clusters, 0.2f, 0.6f, rng,
                            /*requires_grad=*/true));
  for (int i = 0; i < num_clusters; ++i) wc_.At(i, i) = 0.0f;
}

double ClusterCausalGraph::AcyclicityResidual() const {
  return causal::AcyclicityValue(AsDense());
}

std::vector<float> ClusterCausalGraph::ItemLevelMatrix(
    const Tensor& assignments) const {
  tensor::NoGradGuard guard;
  // W = A Wc A^T computed as (A Wc) A^T.
  Tensor awc = tensor::MatMul(assignments, wc_);                 // [V, K]
  Tensor w = tensor::MatMul(awc, tensor::Transpose(assignments));  // [V, V]
  return {w.data().begin(), w.data().end()};
}

causal::Dense ClusterCausalGraph::AsDense() const {
  const int k = wc_.rows();
  causal::Dense d(k, k);
  for (int i = 0; i < k; ++i)
    for (int j = 0; j < k; ++j) d(i, j) = wc_.At(i, j);
  return d;
}

causal::Graph ClusterCausalGraph::ThresholdedGraph(double threshold) const {
  const int k = wc_.rows();
  causal::Graph g(k);
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < k; ++j) {
      // Paper filter semantics: W > epsilon (signed, not |W|).
      if (i != j && wc_.At(i, j) > threshold) g.SetEdge(i, j);
    }
  }
  return g;
}

void ClusterCausalGraph::ClampNonNegative() {
  auto& node = *wc_.node();
  const int k = wc_.rows();
  // max(0, w) through the active ISA's clamp (identical -0/NaN selects in
  // every variant), then re-zero the diagonal it may not touch.
  tensor::primitives::Active().clamp(
      static_cast<std::size_t>(k) * k, 0.0f,
      std::numeric_limits<float>::infinity(), node.value.data());
  for (int i = 0; i < k; ++i) {
    node.value[static_cast<std::size_t>(i) * k + i] = 0.0f;
  }
}

AugmentedLagrangian::AugmentedLagrangian(double beta1_init, double beta2_init,
                                         double kappa1, double kappa2,
                                         double beta2_max)
    : beta1_(beta1_init),
      beta2_(beta2_init),
      kappa1_(kappa1),
      kappa2_(kappa2),
      beta2_max_(beta2_max),
      h_prev_(std::numeric_limits<double>::infinity()) {}

bool AugmentedLagrangian::Update(double h) {
  if (!std::isfinite(h)) return false;
  beta1_ += beta2_ * h;
  bool capped = false;
  if (std::isfinite(h_prev_) && std::fabs(h) >= kappa2_ * std::fabs(h_prev_)) {
    double grown = beta2_ * kappa1_;
    capped = grown > beta2_max_;
    beta2_ = capped ? beta2_max_ : grown;
  }
  h_prev_ = h;
  return capped;
}

void AugmentedLagrangian::SaveState(std::string* out) const {
  serial::AppendF64(out, beta1_);
  serial::AppendF64(out, beta2_);
  serial::AppendF64(out, h_prev_);
}

bool AugmentedLagrangian::LoadState(serial::Reader& in) {
  double beta1 = 0.0, beta2 = 0.0, h_prev = 0.0;
  in.ReadF64(&beta1);
  in.ReadF64(&beta2);
  in.ReadF64(&h_prev);
  if (!in.ok()) return false;
  beta1_ = beta1;
  beta2_ = beta2;
  h_prev_ = h_prev;
  return true;
}

}  // namespace causer::core
