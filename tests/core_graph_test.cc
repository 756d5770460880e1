#include <gtest/gtest.h>

#include "causal/acyclicity.h"
#include "core/cluster_graph.h"

namespace causer::core {
namespace {

TEST(ClusterGraphTest, InitializationProperties) {
  Rng rng(5);
  ClusterCausalGraph g(6, rng);
  EXPECT_EQ(g.num_clusters(), 6);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(g.weights().At(i, i), 0.0f);  // zero diagonal
    for (int j = 0; j < 6; ++j) {
      if (i != j) {
        EXPECT_GE(g.weights().At(i, j), 0.2f);
        EXPECT_LE(g.weights().At(i, j), 0.6f);
      }
    }
  }
}

TEST(ClusterGraphTest, ResidualMatchesAcyclicityDefinition) {
  Rng rng(6);
  ClusterCausalGraph g(4, rng);
  double h = g.AcyclicityResidual();
  EXPECT_GT(h, 0.0);  // dense positive init is cyclic
  EXPECT_NEAR(h, causal::AcyclicityValue(g.AsDense()), 1e-9);
}

TEST(ClusterGraphTest, ItemLevelMatrixMatchesFormula) {
  Rng rng(10);
  ClusterCausalGraph g(2, rng);
  // Two items with hand-built assignments.
  nn::Tensor a = nn::Tensor::FromData(2, 2, {0.8f, 0.2f, 0.3f, 0.7f});
  std::vector<float> w = g.ItemLevelMatrix(a);
  ASSERT_EQ(w.size(), 4u);
  auto wc = [&](int i, int j) { return g.weights().At(i, j); };
  for (int x = 0; x < 2; ++x) {
    for (int y = 0; y < 2; ++y) {
      double expected = 0.0;
      for (int i = 0; i < 2; ++i)
        for (int j = 0; j < 2; ++j)
          expected += a.At(x, i) * wc(i, j) * a.At(y, j);
      EXPECT_NEAR(w[x * 2 + y], expected, 1e-5);
    }
  }
}

TEST(ClusterGraphTest, ThresholdedGraphUsesSignedComparison) {
  Rng rng(11);
  ClusterCausalGraph g(3, rng);
  auto& wc = g.mutable_weights();
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) wc.At(i, j) = 0.0f;
  wc.At(0, 1) = 0.5f;
  wc.At(1, 2) = -0.9f;  // negative: not a causal edge under paper semantics
  causal::Graph thresholded = g.ThresholdedGraph(0.3);
  EXPECT_TRUE(thresholded.Edge(0, 1));
  EXPECT_FALSE(thresholded.Edge(1, 2));
  EXPECT_EQ(thresholded.NumEdges(), 1);
}

TEST(AugmentedLagrangianTest, Beta1AccumulatesResidual) {
  AugmentedLagrangian al(0.0, 0.5, 2.0, 0.9);
  al.Update(1.0);
  EXPECT_NEAR(al.beta1(), 0.5, 1e-12);
  al.Update(0.5);
  EXPECT_NEAR(al.beta1(), 0.5 + al.beta2() / 2.0 * 0.0 + 0.25, 1e-1);
}

TEST(AugmentedLagrangianTest, Beta2GrowsOnlyWithoutProgress) {
  AugmentedLagrangian al(0.0, 1.0, 2.0, 0.5);
  al.Update(1.0);  // first update: h_prev was inf, no growth
  EXPECT_NEAR(al.beta2(), 1.0, 1e-12);
  al.Update(0.9);  // 0.9 >= 0.5 * 1.0: grow
  EXPECT_NEAR(al.beta2(), 2.0, 1e-12);
  al.Update(0.1);  // 0.1 < 0.5 * 0.9: no growth
  EXPECT_NEAR(al.beta2(), 2.0, 1e-12);
}

TEST(AugmentedLagrangianTest, Beta2Capped) {
  AugmentedLagrangian al(0.0, 1.0, 10.0, 0.0, /*beta2_max=*/50.0);
  for (int i = 0; i < 10; ++i) al.Update(1.0);
  EXPECT_LE(al.beta2(), 50.0);
}

}  // namespace
}  // namespace causer::core
