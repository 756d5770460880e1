#ifndef CAUSER_EVAL_ANALYSIS_H_
#define CAUSER_EVAL_ANALYSIS_H_

#include <vector>

#include "causal/graph.h"

namespace causer::eval {

/// Clustering purity of `predicted` against `truth`: each predicted
/// cluster is credited with its majority true label; returns the credited
/// fraction in [0, 1]. Labels may use arbitrary (even non-contiguous) ids.
double ClusterPurity(const std::vector<int>& predicted,
                     const std::vector<int>& truth);

/// Majority-vote mapping from predicted cluster id to true cluster id.
/// Predicted clusters with no members are absent from the result (which is
/// indexed by predicted id, -1 where undefined).
std::vector<int> MajorityMapping(const std::vector<int>& predicted,
                                 const std::vector<int>& truth,
                                 int num_predicted, int num_truth);

/// Precision/recall/F1 of a learned edge set against a reference graph.
struct EdgeRecovery {
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
  int true_positives = 0;
  int learned_edges = 0;
  int true_edges = 0;
};

/// Compares a learned cluster graph against the truth after remapping the
/// learned cluster ids through the majority assignment mapping (learned
/// and true clusterings use different, permuted ids). Edges whose
/// endpoints map to the same true cluster are dropped (they have no
/// counterpart in the reference); edges that map onto the same true pair
/// count once.
EdgeRecovery CompareEdgesMapped(const causal::Graph& learned,
                                const causal::Graph& truth,
                                const std::vector<int>& predicted_clusters,
                                const std::vector<int>& true_clusters);

}  // namespace causer::eval

#endif  // CAUSER_EVAL_ANALYSIS_H_
