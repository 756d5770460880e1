#include <gtest/gtest.h>

#include "eval/analysis.h"

namespace causer::eval {
namespace {

TEST(PurityTest, PerfectClusteringIsOne) {
  std::vector<int> pred = {0, 0, 1, 1, 2};
  EXPECT_DOUBLE_EQ(ClusterPurity(pred, pred), 1.0);
}

TEST(PurityTest, PermutedLabelsStillPerfect) {
  std::vector<int> pred = {2, 2, 0, 0, 1};
  std::vector<int> truth = {0, 0, 1, 1, 2};
  EXPECT_DOUBLE_EQ(ClusterPurity(pred, truth), 1.0);
}

TEST(PurityTest, MixedClusterPenalized) {
  std::vector<int> pred = {0, 0, 0, 0};
  std::vector<int> truth = {0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(ClusterPurity(pred, truth), 0.5);
}

TEST(PurityTest, SingletonClustersTriviallyPure) {
  std::vector<int> pred = {0, 1, 2, 3};
  std::vector<int> truth = {0, 0, 0, 0};
  EXPECT_DOUBLE_EQ(ClusterPurity(pred, truth), 1.0);
}

TEST(MajorityMappingTest, MapsToMostFrequentLabel) {
  std::vector<int> pred = {0, 0, 0, 1, 1};
  std::vector<int> truth = {2, 2, 1, 0, 0};
  auto m = MajorityMapping(pred, truth, 2, 3);
  EXPECT_EQ(m[0], 2);
  EXPECT_EQ(m[1], 0);
}

TEST(MajorityMappingTest, EmptyPredictedClusterUnmapped) {
  std::vector<int> pred = {0, 0};
  std::vector<int> truth = {1, 1};
  auto m = MajorityMapping(pred, truth, 3, 2);
  EXPECT_EQ(m[0], 1);
  EXPECT_EQ(m[1], -1);
  EXPECT_EQ(m[2], -1);
}

/// Every item is its own cluster on both sides: the mapping is the
/// identity, so the learned edges are scored as they are.
EdgeRecovery CompareIdentityMapped(const causal::Graph& learned,
                                   const causal::Graph& truth) {
  std::vector<int> ids(truth.n());
  for (int i = 0; i < truth.n(); ++i) ids[i] = i;
  return CompareEdgesMapped(learned, truth, ids, ids);
}

TEST(CompareEdgesMappedTest, PerfectRecovery) {
  causal::Graph g(3);
  g.SetEdge(0, 1);
  g.SetEdge(1, 2);
  auto r = CompareIdentityMapped(g, g);
  EXPECT_DOUBLE_EQ(r.precision, 1.0);
  EXPECT_DOUBLE_EQ(r.recall, 1.0);
  EXPECT_DOUBLE_EQ(r.f1, 1.0);
  EXPECT_EQ(r.true_positives, 2);
}

TEST(CompareEdgesMappedTest, PartialRecovery) {
  causal::Graph truth(3);
  truth.SetEdge(0, 1);
  truth.SetEdge(1, 2);
  causal::Graph learned(3);
  learned.SetEdge(0, 1);
  learned.SetEdge(0, 2);  // false positive
  auto r = CompareIdentityMapped(learned, truth);
  EXPECT_DOUBLE_EQ(r.precision, 0.5);
  EXPECT_DOUBLE_EQ(r.recall, 0.5);
}

TEST(CompareEdgesMappedTest, EmptyLearnedGraph) {
  causal::Graph truth(2);
  truth.SetEdge(0, 1);
  auto r = CompareIdentityMapped(causal::Graph(2), truth);
  EXPECT_DOUBLE_EQ(r.precision, 0.0);
  EXPECT_DOUBLE_EQ(r.recall, 0.0);
  EXPECT_DOUBLE_EQ(r.f1, 0.0);
}

TEST(CompareEdgesMappedTest, PermutedClusterIdsRecovered) {
  // True graph over 2 clusters: 0 -> 1. Learned graph uses swapped ids:
  // learned cluster 1 is true 0, learned 0 is true 1; learned edge 1 -> 0.
  causal::Graph truth(2);
  truth.SetEdge(0, 1);
  causal::Graph learned(2);
  learned.SetEdge(1, 0);
  std::vector<int> pred = {1, 1, 0, 0};
  std::vector<int> tru = {0, 0, 1, 1};
  auto r = CompareEdgesMapped(learned, truth, pred, tru);
  EXPECT_DOUBLE_EQ(r.precision, 1.0);
  EXPECT_DOUBLE_EQ(r.recall, 1.0);
}

TEST(CompareEdgesMappedTest, EdgesOntoOneTruePairCountOnce) {
  // Learned clusters 0 and 1 both map to true cluster 0 and learned 2 to
  // true 1, so the learned edges 0 -> 2 and 1 -> 2 are one true edge.
  causal::Graph truth(2);
  truth.SetEdge(0, 1);
  causal::Graph learned(3);
  learned.SetEdge(0, 2);
  learned.SetEdge(1, 2);
  std::vector<int> pred = {0, 1, 2};
  std::vector<int> tru = {0, 0, 1};
  auto r = CompareEdgesMapped(learned, truth, pred, tru);
  EXPECT_EQ(r.learned_edges, 1);
  EXPECT_EQ(r.true_positives, 1);
  EXPECT_DOUBLE_EQ(r.precision, 1.0);
  EXPECT_DOUBLE_EQ(r.recall, 1.0);
}

TEST(CompareEdgesMappedTest, CollapsedClustersDropEdges) {
  causal::Graph truth(2);
  truth.SetEdge(0, 1);
  causal::Graph learned(2);
  learned.SetEdge(0, 1);
  // Both learned clusters map to true cluster 0 -> edge unmatchable.
  std::vector<int> pred = {0, 1};
  std::vector<int> tru = {0, 0};
  auto r = CompareEdgesMapped(learned, truth, pred, tru);
  EXPECT_EQ(r.learned_edges, 0);
  EXPECT_DOUBLE_EQ(r.recall, 0.0);
}

}  // namespace
}  // namespace causer::eval
