#ifndef CAUSER_CORE_CLUSTER_GRAPH_H_
#define CAUSER_CORE_CLUSTER_GRAPH_H_

#include <string>
#include <vector>

#include "causal/dense.h"
#include "causal/graph.h"
#include "common/serial.h"
#include "nn/module.h"

namespace causer::core {

using nn::Tensor;

/// The learnable cluster-level causal relation matrix W^c (paper Section
/// III-A), regularized toward a DAG by the NOTEARS acyclicity penalty
/// inside the augmented Lagrangian (Eq. 11 / Algorithm 1).
class ClusterCausalGraph : public nn::Module {
 public:
  ClusterCausalGraph(int num_clusters, causer::Rng& rng);

  /// The raw parameter matrix W^c: [K, K].
  const Tensor& weights() const { return wc_; }
  Tensor& mutable_weights() { return wc_; }

  /// Current acyclicity residual h(W^c) = trace(e^{Wc o Wc}) - K.
  double AcyclicityResidual() const;

  /// Item-level causal matrix W = A W^c A^T (Eq. 9), given soft cluster
  /// assignments [V, K]. Plain numeric output (row-major V x V), used for
  /// the per-epoch filter cache (Algorithm 1 line 7).
  std::vector<float> ItemLevelMatrix(const Tensor& assignments) const;

  /// W^c as a double matrix (for analysis).
  causal::Dense AsDense() const;

  /// Binarized learned cluster graph: edge i->j iff Wc(i,j) > threshold.
  causal::Graph ThresholdedGraph(double threshold) const;

  /// Projects W^c onto the non-negative orthant (diagonal forced to 0).
  /// Causal relation strengths are non-negative by construction (the 0/1
  /// adjacency relaxed); projecting after each optimizer step also breaks
  /// the (What, alignment) -> (-What, -alignment) sign symmetry of Eq. 10.
  void ClampNonNegative();

  int num_clusters() const { return wc_.rows(); }

 private:
  Tensor wc_;
};

/// Augmented Lagrangian multiplier schedule (Algorithm 1 lines 14-15):
///   beta1 <- beta1 + beta2 * h
///   beta2 <- kappa1 * beta2   if |h| >= kappa2 * |h_prev|.
/// beta2 (NOTEARS rho) is capped at beta2_max: the geometric escalation is
/// exactly the loop that can run to inf when the residual stalls, and a
/// capped-but-finite penalty keeps the W^c subproblem solvable.
class AugmentedLagrangian {
 public:
  AugmentedLagrangian(double beta1_init, double beta2_init, double kappa1,
                      double kappa2, double beta2_max = 1e8);

  /// Updates multipliers with the epoch-end residual. A non-finite `h` is
  /// ignored entirely (the caller's sentinel handles the blow-up; feeding
  /// it into beta1 would make the schedule itself non-finite). Returns
  /// true when the beta2_max cap bound this update — the trip signal
  /// behind the causer.notears.rho_capped_total counter.
  bool Update(double h);

  double beta1() const { return beta1_; }
  double beta2() const { return beta2_; }
  double previous_residual() const { return h_prev_; }

  /// Appends the schedule state (beta1/beta2/h_prev) to `out` so a resumed
  /// run continues the escalation exactly where it stopped.
  void SaveState(std::string* out) const;

  /// Restores state written by SaveState. Returns false on a short blob,
  /// leaving the schedule unchanged. The constants (kappa1/kappa2/
  /// beta2_max) stay as constructed: they are configuration, not state.
  bool LoadState(serial::Reader& in);

 private:
  double beta1_;
  double beta2_;
  double kappa1_;
  double kappa2_;
  double beta2_max_;
  double h_prev_;
};

}  // namespace causer::core

#endif  // CAUSER_CORE_CLUSTER_GRAPH_H_
