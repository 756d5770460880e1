#ifndef CAUSER_CAUSAL_GRAPH_H_
#define CAUSER_CAUSAL_GRAPH_H_

#include <cstdint>
#include <vector>

#include "causal/dense.h"
#include "common/rng.h"

namespace causer::causal {

/// Directed graph over n nodes as a dense 0/1 adjacency matrix.
/// Edge(i, j) == true means i -> j ("i causes j").
class Graph {
 public:
  Graph() : n_(0) {}
  explicit Graph(int n) : n_(n), adj_(static_cast<size_t>(n) * n, 0) {}

  int n() const { return n_; }

  bool Edge(int i, int j) const {
    return adj_[static_cast<size_t>(i) * n_ + j] != 0;
  }
  void SetEdge(int i, int j, bool present = true) {
    CAUSER_CHECK(i != j || !present);
    adj_[static_cast<size_t>(i) * n_ + j] = present ? 1 : 0;
  }

  /// Number of directed edges.
  int NumEdges() const;

  /// Parent set of node j (all i with i -> j).
  std::vector<int> Parents(int j) const;

  /// Child set of node i (all j with i -> j).
  std::vector<int> Children(int i) const;

  /// True if the graph has no directed cycle (Kahn's algorithm).
  bool IsDag() const;

  /// A topological order (only valid when IsDag()). Ties broken by index.
  std::vector<int> TopologicalOrder() const;

  /// Nodes reachable from `start` by directed edges (excluding start).
  std::vector<int> Descendants(int start) const;

  bool operator==(const Graph& other) const {
    return n_ == other.n_ && adj_ == other.adj_;
  }

 private:
  int n_;
  std::vector<uint8_t> adj_;
};

/// Samples a random DAG: a random permutation defines a node order; each
/// forward pair (u before v) gets an edge with probability `edge_prob`.
Graph RandomDag(int n, double edge_prob, Rng& rng);

/// Binarizes a weighted matrix: edge i->j iff |w(i,j)| > threshold.
/// Diagonal is always dropped.
Graph Threshold(const Dense& w, double threshold);

/// Converts a 0/1 graph to a Dense weight matrix (1.0 on edges).
Dense ToDense(const Graph& g);

}  // namespace causer::causal

#endif  // CAUSER_CAUSAL_GRAPH_H_
