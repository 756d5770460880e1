#include "core/clustering.h"

#include "common/log.h"
#include "nn/init.h"
#include "tensor/ops.h"

namespace causer::core {

ItemClusterer::ItemClusterer(const std::vector<std::vector<float>>& features,
                             int num_clusters, int encoder_hidden,
                             int cluster_dim, float eta, causer::Rng& rng)
    : num_clusters_(num_clusters), cluster_dim_(cluster_dim), eta_(eta) {
  CAUSER_CHECK(!features.empty());
  CAUSER_CHECK(eta > 0.0f);
  const int v = static_cast<int>(features.size());
  const int d = static_cast<int>(features[0].size());
  std::vector<float> flat;
  flat.reserve(static_cast<size_t>(v) * d);
  for (const auto& row : features) {
    CAUSER_CHECK(static_cast<int>(row.size()) == d);
    flat.insert(flat.end(), row.begin(), row.end());
  }
  features_ = Tensor::FromData(v, d, std::move(flat));

  enc1_ = std::make_unique<nn::Linear>(d, encoder_hidden, rng);
  enc2_ = std::make_unique<nn::Linear>(encoder_hidden, cluster_dim, rng);
  dec1_ = std::make_unique<nn::Linear>(cluster_dim, encoder_hidden, rng);
  dec2_ = std::make_unique<nn::Linear>(encoder_hidden, d, rng);
  RegisterModule(enc1_.get());
  RegisterModule(enc2_.get());
  RegisterModule(dec1_.get());
  RegisterModule(dec2_.get());
  centers_ = RegisterParameter(nn::XavierUniform(num_clusters, cluster_dim, rng));
  assignment_logits_ =
      RegisterParameter(nn::UniformParam(v, num_clusters, 0.5f, rng));
}

Tensor ItemClusterer::EncodeItems(const std::vector<int>& items) const {
  Tensor x = tensor::GatherRows(features_, items);
  return enc2_->Forward(tensor::Sigmoid(enc1_->Forward(x)));
}

Tensor ItemClusterer::EncodeAll() const {
  return enc2_->Forward(tensor::Sigmoid(enc1_->Forward(features_)));
}

Tensor ItemClusterer::AssignmentsAll() const {
  return tensor::SoftmaxRows(assignment_logits_, eta_);
}

Tensor ItemClusterer::ClusteringLoss() const {
  Tensor embedded = EncodeAll();                              // [V, d2]
  Tensor mixture = tensor::MatMul(AssignmentsAll(), centers_);  // [V, d2]
  return tensor::MseLoss(embedded, mixture);
}

Tensor ItemClusterer::ReconstructionLoss() const {
  Tensor embedded = EncodeAll();
  Tensor decoded = dec2_->Forward(tensor::Sigmoid(dec1_->Forward(embedded)));
  return tensor::MseLoss(decoded, features_);
}

std::vector<int> ItemClusterer::HardAssignments() const {
  tensor::NoGradGuard guard;
  Tensor a = AssignmentsAll();
  std::vector<int> out(a.rows());
  for (int i = 0; i < a.rows(); ++i) {
    int best = 0;
    for (int k = 1; k < a.cols(); ++k) {
      if (a.At(i, k) > a.At(i, best)) best = k;
    }
    out[i] = best;
  }
  return out;
}

}  // namespace causer::core
