#include "causal/graph.h"

#include <deque>

namespace causer::causal {

int Graph::NumEdges() const {
  int count = 0;
  for (uint8_t v : adj_) count += v;
  return count;
}

std::vector<int> Graph::Parents(int j) const {
  std::vector<int> out;
  for (int i = 0; i < n_; ++i)
    if (Edge(i, j)) out.push_back(i);
  return out;
}

std::vector<int> Graph::Children(int i) const {
  std::vector<int> out;
  for (int j = 0; j < n_; ++j)
    if (Edge(i, j)) out.push_back(j);
  return out;
}

bool Graph::IsDag() const {
  return static_cast<int>(TopologicalOrder().size()) == n_;
}

std::vector<int> Graph::TopologicalOrder() const {
  std::vector<int> indegree(n_, 0);
  for (int i = 0; i < n_; ++i)
    for (int j = 0; j < n_; ++j)
      if (Edge(i, j)) ++indegree[j];
  std::deque<int> ready;
  for (int i = 0; i < n_; ++i)
    if (indegree[i] == 0) ready.push_back(i);
  std::vector<int> order;
  while (!ready.empty()) {
    int u = ready.front();
    ready.pop_front();
    order.push_back(u);
    for (int v = 0; v < n_; ++v) {
      if (Edge(u, v) && --indegree[v] == 0) ready.push_back(v);
    }
  }
  return order;  // shorter than n_ iff there is a cycle
}

std::vector<int> Graph::Descendants(int start) const {
  std::vector<uint8_t> seen(n_, 0);
  std::deque<int> queue{start};
  seen[start] = 1;
  std::vector<int> out;
  while (!queue.empty()) {
    int u = queue.front();
    queue.pop_front();
    for (int v = 0; v < n_; ++v) {
      if (Edge(u, v) && !seen[v]) {
        seen[v] = 1;
        out.push_back(v);
        queue.push_back(v);
      }
    }
  }
  return out;
}

Graph RandomDag(int n, double edge_prob, Rng& rng) {
  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;
  rng.Shuffle(order);
  Graph g(n);
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      if (rng.Bernoulli(edge_prob)) g.SetEdge(order[a], order[b]);
    }
  }
  return g;
}

Graph Threshold(const Dense& w, double threshold) {
  CAUSER_CHECK(w.rows() == w.cols());
  Graph g(w.rows());
  for (int i = 0; i < w.rows(); ++i) {
    for (int j = 0; j < w.cols(); ++j) {
      if (i != j && std::fabs(w(i, j)) > threshold) g.SetEdge(i, j);
    }
  }
  return g;
}

Dense ToDense(const Graph& g) {
  Dense w(g.n(), g.n());
  for (int i = 0; i < g.n(); ++i)
    for (int j = 0; j < g.n(); ++j)
      if (g.Edge(i, j)) w(i, j) = 1.0;
  return w;
}

}  // namespace causer::causal
