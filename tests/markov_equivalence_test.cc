#include <gtest/gtest.h>

#include "causal/markov_equivalence.h"

namespace causer::causal {
namespace {

TEST(SkeletonTest, Symmetrizes) {
  Graph g(3);
  g.SetEdge(0, 1);
  Graph s = Skeleton(g);
  EXPECT_TRUE(s.Edge(0, 1));
  EXPECT_TRUE(s.Edge(1, 0));
  EXPECT_FALSE(s.Edge(0, 2));
}

TEST(VStructuresTest, ColliderDetected) {
  // 0 -> 2 <- 1, 0 and 1 non-adjacent.
  Graph g(3);
  g.SetEdge(0, 2);
  g.SetEdge(1, 2);
  auto v = VStructures(g);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], std::make_tuple(0, 2, 1));
}

TEST(VStructuresTest, ShieldedColliderNotCounted) {
  // 0 -> 2 <- 1 with 0 -> 1: shielded, no v-structure.
  Graph g(3);
  g.SetEdge(0, 2);
  g.SetEdge(1, 2);
  g.SetEdge(0, 1);
  EXPECT_TRUE(VStructures(g).empty());
}

TEST(VStructuresTest, ChainAndForkHaveNone) {
  Graph chain(3);
  chain.SetEdge(0, 1);
  chain.SetEdge(1, 2);
  EXPECT_TRUE(VStructures(chain).empty());
  Graph fork(3);
  fork.SetEdge(1, 0);
  fork.SetEdge(1, 2);
  EXPECT_TRUE(VStructures(fork).empty());
}

TEST(MecTest, ChainForkEquivalent) {
  // 0 -> 1 -> 2, 0 <- 1 -> 2 and 0 <- 1 <- 2 are all Markov equivalent.
  Graph chain(3);
  chain.SetEdge(0, 1);
  chain.SetEdge(1, 2);
  Graph fork(3);
  fork.SetEdge(1, 0);
  fork.SetEdge(1, 2);
  Graph reversed(3);
  reversed.SetEdge(2, 1);
  reversed.SetEdge(1, 0);
  EXPECT_TRUE(SameMarkovEquivalenceClass(chain, fork));
  EXPECT_TRUE(SameMarkovEquivalenceClass(chain, reversed));
}

TEST(MecTest, ColliderNotEquivalentToChain) {
  Graph chain(3);
  chain.SetEdge(0, 1);
  chain.SetEdge(1, 2);
  Graph collider(3);
  collider.SetEdge(0, 1);
  collider.SetEdge(2, 1);
  EXPECT_FALSE(SameMarkovEquivalenceClass(chain, collider));
}

TEST(MecTest, DifferentSkeletonsNotEquivalent) {
  Graph a(3);
  a.SetEdge(0, 1);
  Graph b(3);
  b.SetEdge(0, 2);
  EXPECT_FALSE(SameMarkovEquivalenceClass(a, b));
}

TEST(MecTest, IdenticalGraphsEquivalent) {
  Rng rng(5);
  Graph g = RandomDag(8, 0.3, rng);
  EXPECT_TRUE(SameMarkovEquivalenceClass(g, g));
}

TEST(MecTest, SizeMismatchNotEquivalent) {
  EXPECT_FALSE(SameMarkovEquivalenceClass(Graph(2), Graph(3)));
}

TEST(ShdTest, IdenticalZero) {
  Rng rng(6);
  Graph g = RandomDag(6, 0.4, rng);
  EXPECT_EQ(StructuralHammingDistance(g, g), 0);
}

TEST(ShdTest, MissingEdgeCountsOne) {
  Graph a(3), b(3);
  a.SetEdge(0, 1);
  EXPECT_EQ(StructuralHammingDistance(a, b), 1);
}

TEST(ShdTest, ReversedEdgeCountsOne) {
  Graph a(2), b(2);
  a.SetEdge(0, 1);
  b.SetEdge(1, 0);
  EXPECT_EQ(StructuralHammingDistance(a, b), 1);
}

TEST(ShdTest, Additive) {
  Graph a(4), b(4);
  a.SetEdge(0, 1);   // missing in b
  a.SetEdge(2, 3);   // reversed in b
  b.SetEdge(3, 2);
  b.SetEdge(0, 2);   // extra in b
  EXPECT_EQ(StructuralHammingDistance(a, b), 3);
}

TEST(CpdagTest, ChainFullyUndirected) {
  Graph chain(3);
  chain.SetEdge(0, 1);
  chain.SetEdge(1, 2);
  Pdag p = Cpdag(chain);
  EXPECT_TRUE(p.HasUndirected(0, 1));
  EXPECT_TRUE(p.HasUndirected(1, 2));
  EXPECT_FALSE(p.HasDirected(0, 1));
}

TEST(CpdagTest, ColliderEdgesDirected) {
  Graph collider(3);
  collider.SetEdge(0, 2);
  collider.SetEdge(1, 2);
  Pdag p = Cpdag(collider);
  EXPECT_TRUE(p.HasDirected(0, 2));
  EXPECT_TRUE(p.HasDirected(1, 2));
  EXPECT_FALSE(p.HasUndirected(0, 2));
}

TEST(CpdagTest, MeekRuleOneOrientsDownstream) {
  // 0 -> 2 <- 1 plus 2 - 3: R1 orients 2 -> 3 (else a new v-structure).
  Graph g(4);
  g.SetEdge(0, 2);
  g.SetEdge(1, 2);
  g.SetEdge(2, 3);
  Pdag p = Cpdag(g);
  EXPECT_TRUE(p.HasDirected(2, 3));
}

TEST(CpdagTest, EquivalentDagsShareCpdag) {
  Graph chain(3);
  chain.SetEdge(0, 1);
  chain.SetEdge(1, 2);
  Graph fork(3);
  fork.SetEdge(1, 0);
  fork.SetEdge(1, 2);
  EXPECT_TRUE(Cpdag(chain) == Cpdag(fork));
}

TEST(CpdagTest, NonEquivalentDagsDifferentCpdag) {
  Graph chain(3);
  chain.SetEdge(0, 1);
  chain.SetEdge(1, 2);
  Graph collider(3);
  collider.SetEdge(0, 1);
  collider.SetEdge(2, 1);
  EXPECT_FALSE(Cpdag(chain) == Cpdag(collider));
}

TEST(PdagTest, StateTransitions) {
  Pdag p(3);
  EXPECT_FALSE(p.Adjacent(0, 1));
  p.SetUndirected(0, 1);
  EXPECT_TRUE(p.Adjacent(0, 1));
  EXPECT_TRUE(p.HasUndirected(1, 0));
  p.SetDirected(0, 1);
  EXPECT_TRUE(p.HasDirected(0, 1));
  EXPECT_FALSE(p.HasUndirected(0, 1));
  EXPECT_TRUE(p.Adjacent(1, 0));
}

}  // namespace
}  // namespace causer::causal
