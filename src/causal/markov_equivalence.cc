#include "causal/markov_equivalence.h"

#include <algorithm>

namespace causer::causal {

Graph Skeleton(const Graph& g) {
  Graph s(g.n());
  for (int i = 0; i < g.n(); ++i) {
    for (int j = 0; j < g.n(); ++j) {
      if (g.Edge(i, j)) {
        s.SetEdge(i, j);
        s.SetEdge(j, i);
      }
    }
  }
  return s;
}

std::vector<std::tuple<int, int, int>> VStructures(const Graph& g) {
  std::vector<std::tuple<int, int, int>> out;
  auto adjacent = [&](int a, int b) { return g.Edge(a, b) || g.Edge(b, a); };
  for (int k = 0; k < g.n(); ++k) {
    auto parents = g.Parents(k);
    for (size_t a = 0; a < parents.size(); ++a) {
      for (size_t b = a + 1; b < parents.size(); ++b) {
        int i = std::min(parents[a], parents[b]);
        int j = std::max(parents[a], parents[b]);
        if (!adjacent(i, j)) out.emplace_back(i, k, j);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool SameMarkovEquivalenceClass(const Graph& g1, const Graph& g2) {
  if (g1.n() != g2.n()) return false;
  if (!(Skeleton(g1) == Skeleton(g2))) return false;
  return VStructures(g1) == VStructures(g2);
}

int StructuralHammingDistance(const Graph& g1, const Graph& g2) {
  CAUSER_CHECK(g1.n() == g2.n());
  int shd = 0;
  for (int i = 0; i < g1.n(); ++i) {
    for (int j = i + 1; j < g1.n(); ++j) {
      // Per unordered pair: 0 = none, 1 = i->j, 2 = j->i, 3 = both.
      int s1 = (g1.Edge(i, j) ? 1 : 0) | (g1.Edge(j, i) ? 2 : 0);
      int s2 = (g2.Edge(i, j) ? 1 : 0) | (g2.Edge(j, i) ? 2 : 0);
      if (s1 != s2) ++shd;
    }
  }
  return shd;
}

Pdag::Pdag(int n) : n_(n), state_(static_cast<size_t>(n) * n, 0) {}

bool Pdag::HasDirected(int i, int j) const {
  return state_[static_cast<size_t>(i) * n_ + j] == 1;
}

bool Pdag::HasUndirected(int i, int j) const {
  return state_[static_cast<size_t>(i) * n_ + j] == 2;
}

bool Pdag::Adjacent(int i, int j) const {
  return state_[static_cast<size_t>(i) * n_ + j] != 0 ||
         state_[static_cast<size_t>(j) * n_ + i] != 0;
}

void Pdag::SetDirected(int i, int j) {
  state_[static_cast<size_t>(i) * n_ + j] = 1;
  state_[static_cast<size_t>(j) * n_ + i] = 0;
}

void Pdag::SetUndirected(int i, int j) {
  state_[static_cast<size_t>(i) * n_ + j] = 2;
  state_[static_cast<size_t>(j) * n_ + i] = 2;
}

Pdag Cpdag(const Graph& g) {
  const int n = g.n();
  Pdag p(n);
  // Start with all edges undirected.
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      if (g.Edge(i, j)) p.SetUndirected(i, j);
  // Orient v-structure edges.
  for (const auto& [i, k, j] : VStructures(g)) {
    p.SetDirected(i, k);
    p.SetDirected(j, k);
  }
  // Meek rules to a fixpoint. R1-R3 are complete for CPDAGs obtained from a
  // DAG without background knowledge.
  bool changed = true;
  while (changed) {
    changed = false;
    for (int a = 0; a < n; ++a) {
      for (int b = 0; b < n; ++b) {
        if (!p.HasUndirected(a, b)) continue;
        // R1: c -> a, a - b, c and b non-adjacent  =>  a -> b.
        for (int c = 0; c < n; ++c) {
          if (p.HasDirected(c, a) && !p.Adjacent(c, b)) {
            p.SetDirected(a, b);
            changed = true;
            break;
          }
        }
        if (!p.HasUndirected(a, b)) continue;
        // R2: a -> c -> b and a - b  =>  a -> b.
        for (int c = 0; c < n; ++c) {
          if (p.HasDirected(a, c) && p.HasDirected(c, b)) {
            p.SetDirected(a, b);
            changed = true;
            break;
          }
        }
        if (!p.HasUndirected(a, b)) continue;
        // R3: a - c, a - d, c -> b, d -> b, c and d non-adjacent => a -> b.
        bool oriented = false;
        for (int c = 0; c < n && !oriented; ++c) {
          if (!p.HasUndirected(a, c) || !p.HasDirected(c, b)) continue;
          for (int d = c + 1; d < n; ++d) {
            if (p.HasUndirected(a, d) && p.HasDirected(d, b) &&
                !p.Adjacent(c, d)) {
              p.SetDirected(a, b);
              changed = true;
              oriented = true;
              break;
            }
          }
        }
      }
    }
  }
  return p;
}

}  // namespace causer::causal
