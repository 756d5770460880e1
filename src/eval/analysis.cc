#include "eval/analysis.h"

#include <algorithm>
#include <map>

#include "common/log.h"

namespace causer::eval {

double ClusterPurity(const std::vector<int>& predicted,
                     const std::vector<int>& truth) {
  CAUSER_CHECK(predicted.size() == truth.size());
  if (predicted.empty()) return 0.0;
  std::map<int, std::map<int, int>> table;
  for (size_t i = 0; i < predicted.size(); ++i) {
    table[predicted[i]][truth[i]]++;
  }
  int credited = 0;
  for (const auto& [cluster, counts] : table) {
    int best = 0;
    for (const auto& [label, n] : counts) best = std::max(best, n);
    credited += best;
  }
  return static_cast<double>(credited) / predicted.size();
}

std::vector<int> MajorityMapping(const std::vector<int>& predicted,
                                 const std::vector<int>& truth,
                                 int num_predicted, int num_truth) {
  CAUSER_CHECK(predicted.size() == truth.size());
  std::vector<std::vector<int>> counts(num_predicted,
                                       std::vector<int>(num_truth, 0));
  for (size_t i = 0; i < predicted.size(); ++i) {
    CAUSER_CHECK(predicted[i] >= 0 && predicted[i] < num_predicted);
    CAUSER_CHECK(truth[i] >= 0 && truth[i] < num_truth);
    counts[predicted[i]][truth[i]]++;
  }
  std::vector<int> mapping(num_predicted, -1);
  for (int p = 0; p < num_predicted; ++p) {
    int best = -1, best_count = 0;
    for (int t = 0; t < num_truth; ++t) {
      if (counts[p][t] > best_count) {
        best_count = counts[p][t];
        best = t;
      }
    }
    mapping[p] = best;
  }
  return mapping;
}

EdgeRecovery CompareEdgesMapped(const causal::Graph& learned,
                                const causal::Graph& truth,
                                const std::vector<int>& predicted_clusters,
                                const std::vector<int>& true_clusters) {
  auto mapping = MajorityMapping(predicted_clusters, true_clusters,
                                 learned.n(), truth.n());
  // The learned graph in the truth's node space: learned edges that map
  // onto the same true pair count once, so recall cannot exceed 1 when
  // several learned clusters share a true one.
  causal::Graph mapped(truth.n());
  for (int i = 0; i < learned.n(); ++i) {
    for (int j = 0; j < learned.n(); ++j) {
      if (!learned.Edge(i, j)) continue;
      int mi = mapping[i], mj = mapping[j];
      if (mi < 0 || mj < 0 || mi == mj) continue;  // unmatchable edge
      mapped.SetEdge(mi, mj);
    }
  }
  EdgeRecovery r;
  r.learned_edges = mapped.NumEdges();
  r.true_edges = truth.NumEdges();
  for (int i = 0; i < truth.n(); ++i) {
    for (int j = 0; j < truth.n(); ++j) {
      if (mapped.Edge(i, j) && truth.Edge(i, j)) ++r.true_positives;
    }
  }
  r.precision = r.learned_edges > 0
                    ? static_cast<double>(r.true_positives) / r.learned_edges
                    : 0.0;
  r.recall = r.true_edges > 0
                 ? static_cast<double>(r.true_positives) / r.true_edges
                 : 0.0;
  r.f1 = r.precision + r.recall > 0
             ? 2 * r.precision * r.recall / (r.precision + r.recall)
             : 0.0;
  return r;
}

}  // namespace causer::eval
