#include <gtest/gtest.h>

#include <algorithm>

#include "causal/graph.h"

namespace causer::causal {
namespace {

Graph Chain3() {
  Graph g(3);
  g.SetEdge(0, 1);
  g.SetEdge(1, 2);
  return g;
}

TEST(GraphTest, EdgeSetAndClear) {
  Graph g(3);
  EXPECT_FALSE(g.Edge(0, 1));
  g.SetEdge(0, 1);
  EXPECT_TRUE(g.Edge(0, 1));
  EXPECT_FALSE(g.Edge(1, 0));
  g.SetEdge(0, 1, false);
  EXPECT_FALSE(g.Edge(0, 1));
}

TEST(GraphTest, NumEdgesAndAdjacency) {
  Graph g = Chain3();
  EXPECT_EQ(g.NumEdges(), 2);
  EXPECT_EQ(g.Parents(1), (std::vector<int>{0}));
  EXPECT_EQ(g.Children(1), (std::vector<int>{2}));
  EXPECT_TRUE(g.Parents(0).empty());
  EXPECT_TRUE(g.Children(2).empty());
}

TEST(GraphTest, IsDagOnChain) { EXPECT_TRUE(Chain3().IsDag()); }

TEST(GraphTest, CycleDetected) {
  Graph g = Chain3();
  g.SetEdge(2, 0);
  EXPECT_FALSE(g.IsDag());
}

TEST(GraphTest, TwoCycleDetected) {
  Graph g(2);
  g.SetEdge(0, 1);
  g.SetEdge(1, 0);
  EXPECT_FALSE(g.IsDag());
}

TEST(GraphTest, TopologicalOrderRespectsEdges) {
  Graph g(4);
  g.SetEdge(3, 1);
  g.SetEdge(1, 0);
  g.SetEdge(3, 2);
  g.SetEdge(2, 0);
  auto order = g.TopologicalOrder();
  ASSERT_EQ(order.size(), 4u);
  auto pos = [&](int v) {
    return std::find(order.begin(), order.end(), v) - order.begin();
  };
  EXPECT_LT(pos(3), pos(1));
  EXPECT_LT(pos(1), pos(0));
  EXPECT_LT(pos(3), pos(2));
  EXPECT_LT(pos(2), pos(0));
}

TEST(GraphTest, Descendants) {
  Graph g(5);
  g.SetEdge(0, 1);
  g.SetEdge(1, 2);
  g.SetEdge(1, 3);
  auto desc = g.Descendants(0);
  std::sort(desc.begin(), desc.end());
  EXPECT_EQ(desc, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(g.Descendants(4).empty());
}

TEST(GraphTest, EqualityOperator) {
  Graph a = Chain3(), b = Chain3();
  EXPECT_TRUE(a == b);
  b.SetEdge(0, 2);
  EXPECT_FALSE(a == b);
}

TEST(RandomDagTest, AlwaysAcyclicAcrossSeeds) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    Graph g = RandomDag(12, 0.4, rng);
    EXPECT_TRUE(g.IsDag()) << "seed " << seed;
  }
}

TEST(RandomDagTest, EdgeProbabilityExtremes) {
  Rng rng(1);
  Graph empty = RandomDag(8, 0.0, rng);
  EXPECT_EQ(empty.NumEdges(), 0);
  Graph full = RandomDag(8, 1.0, rng);
  EXPECT_EQ(full.NumEdges(), 8 * 7 / 2);  // complete DAG
  EXPECT_TRUE(full.IsDag());
}

TEST(RandomDagTest, DeterministicGivenSeed) {
  Rng r1(77), r2(77);
  EXPECT_TRUE(RandomDag(10, 0.3, r1) == RandomDag(10, 0.3, r2));
}

TEST(ThresholdTest, BinarizesAndDropsDiagonal) {
  Dense w(3, 3);
  w(0, 1) = 0.5;
  w(1, 2) = -0.6;  // |.| > threshold counts
  w(2, 2) = 5.0;   // diagonal dropped
  w(1, 0) = 0.1;
  Graph g = Threshold(w, 0.3);
  EXPECT_TRUE(g.Edge(0, 1));
  EXPECT_TRUE(g.Edge(1, 2));
  EXPECT_FALSE(g.Edge(1, 0));
  EXPECT_EQ(g.NumEdges(), 2);
}

TEST(ToDenseTest, RoundTrip) {
  Graph g = Chain3();
  Dense d = ToDense(g);
  EXPECT_DOUBLE_EQ(d(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(d(1, 0), 0.0);
  Graph back = Threshold(d, 0.5);
  EXPECT_TRUE(back == g);
}

}  // namespace
}  // namespace causer::causal
