#ifndef CAUSER_CAUSAL_MARKOV_EQUIVALENCE_H_
#define CAUSER_CAUSAL_MARKOV_EQUIVALENCE_H_

#include <tuple>
#include <vector>

#include "causal/graph.h"

namespace causer::causal {

/// Undirected skeleton: Edge(i,j) set for both directions of every edge.
Graph Skeleton(const Graph& g);

/// All v-structures (i -> k <- j with i, j non-adjacent), as (i, k, j)
/// tuples with i < j for canonical ordering.
std::vector<std::tuple<int, int, int>> VStructures(const Graph& g);

/// True when g1 and g2 are in the same Markov equivalence class:
/// identical skeletons and identical v-structure sets (paper Definition 1,
/// Verma & Pearl 1990).
bool SameMarkovEquivalenceClass(const Graph& g1, const Graph& g2);

/// Structural Hamming distance between directed graphs: +1 for each edge
/// present in exactly one graph; a reversed edge counts once (not twice).
int StructuralHammingDistance(const Graph& g1, const Graph& g2);

/// Partially directed graph: per ordered pair, an edge is absent, directed,
/// or undirected. Undirected edges are stored symmetrically.
class Pdag {
 public:
  explicit Pdag(int n);

  int n() const { return n_; }
  bool HasDirected(int i, int j) const;    // i -> j
  bool HasUndirected(int i, int j) const;  // i - j
  bool Adjacent(int i, int j) const;
  void SetDirected(int i, int j);
  void SetUndirected(int i, int j);

  bool operator==(const Pdag& other) const {
    return n_ == other.n_ && state_ == other.state_;
  }

 private:
  int n_;
  // 0 = none, 1 = directed i->j, 2 = undirected (mirrored).
  std::vector<uint8_t> state_;
};

/// Completed PDAG (essential graph) of a DAG: v-structure edges stay
/// directed, all others start undirected, then Meek rules R1-R3 orient the
/// compelled edges. Two DAGs are Markov equivalent iff their CPDAGs are
/// identical.
Pdag Cpdag(const Graph& g);

}  // namespace causer::causal

#endif  // CAUSER_CAUSAL_MARKOV_EQUIVALENCE_H_
