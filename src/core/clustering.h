#ifndef CAUSER_CORE_CLUSTERING_H_
#define CAUSER_CORE_CLUSTERING_H_

#include <memory>
#include <vector>

#include "nn/linear.h"
#include "nn/module.h"

namespace causer::core {

using nn::Tensor;

/// Differentiable item clustering (paper Eqs. 6-8).
///
/// Each item's raw feature vector is encoded to an embedding
///   v* = V2 sigmoid(V1 v~ + b1) + b2,
/// constrained to lie near a convex combination of K learned cluster
/// centers (clustering loss, Eq. 7) whose mixture weights come from free
/// per-item logits through a temperature softmax, and decoded back to the
/// raw features (reconstruction loss, Eq. 8).
class ItemClusterer : public nn::Module {
 public:
  /// `features`: raw item features, one row per item (the paper's averaged
  /// GloVe vectors). `eta` is the assignment softmax temperature.
  ItemClusterer(const std::vector<std::vector<float>>& features,
                int num_clusters, int encoder_hidden, int cluster_dim,
                float eta, causer::Rng& rng);

  /// Encoder output v* for the given items: [n, cluster_dim].
  Tensor EncodeItems(const std::vector<int>& items) const;

  /// Encoder output for all items: [num_items, cluster_dim].
  Tensor EncodeAll() const;

  /// Soft cluster assignments for all items: [num_items, K].
  Tensor AssignmentsAll() const;

  /// Clustering loss (Eq. 7): sum_v ||v* - sum_k a_vk m_k||^2.
  Tensor ClusteringLoss() const;

  /// Reconstruction loss (Eq. 8): sum_v ||decode(v*) - v~||^2.
  Tensor ReconstructionLoss() const;

  /// Hard assignment (argmax of the soft assignment) per item.
  std::vector<int> HardAssignments() const;

  int num_items() const { return features_.rows(); }
  int num_clusters() const { return num_clusters_; }
  int cluster_dim() const { return cluster_dim_; }
  float eta() const { return eta_; }

 private:
  Tensor features_;  // constant [V, d]
  int num_clusters_;
  int cluster_dim_;
  float eta_;
  std::unique_ptr<nn::Linear> enc1_, enc2_;  // V1/b1, V2/b2
  std::unique_ptr<nn::Linear> dec1_, dec2_;  // V3/b3, V4/b4
  Tensor centers_;            // [K, cluster_dim]
  Tensor assignment_logits_;  // [V, K] (the paper's free parameters a)
};

}  // namespace causer::core

#endif  // CAUSER_CORE_CLUSTERING_H_
