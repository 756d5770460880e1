#include "causal/ges.h"

#include <cmath>
#include <vector>

#include "common/log.h"

namespace causer::causal {
namespace {

/// Residual variance of regressing column y on the columns in `parents`
/// (with intercept), via the normal equations solved by Gauss-Jordan.
double ResidualVariance(const Dense& data, int y,
                        const std::vector<int>& parents) {
  const int n = data.rows();
  const int k = static_cast<int>(parents.size());
  // Design matrix columns: intercept + parents.
  const int p = k + 1;
  // Normal equations A beta = b with A = X^T X, b = X^T y.
  std::vector<double> a(static_cast<size_t>(p) * p, 0.0), b(p, 0.0);
  for (int i = 0; i < n; ++i) {
    std::vector<double> x(p, 1.0);
    for (int j = 0; j < k; ++j) x[j + 1] = data(i, parents[j]);
    double yi = data(i, y);
    for (int r = 0; r < p; ++r) {
      b[r] += x[r] * yi;
      for (int c = 0; c < p; ++c) a[static_cast<size_t>(r) * p + c] += x[r] * x[c];
    }
  }
  // Solve by Gauss-Jordan with a ridge nudge for stability.
  for (int i = 0; i < p; ++i) a[static_cast<size_t>(i) * p + i] += 1e-8;
  std::vector<double> beta = b;
  // Forward elimination.
  std::vector<double> m = a;
  for (int col = 0; col < p; ++col) {
    int pivot = col;
    for (int r = col + 1; r < p; ++r) {
      if (std::fabs(m[static_cast<size_t>(r) * p + col]) >
          std::fabs(m[static_cast<size_t>(pivot) * p + col])) {
        pivot = r;
      }
    }
    if (pivot != col) {
      for (int c = 0; c < p; ++c)
        std::swap(m[static_cast<size_t>(col) * p + c],
                  m[static_cast<size_t>(pivot) * p + c]);
      std::swap(beta[col], beta[pivot]);
    }
    double d = m[static_cast<size_t>(col) * p + col];
    for (int c = 0; c < p; ++c) m[static_cast<size_t>(col) * p + c] /= d;
    beta[col] /= d;
    for (int r = 0; r < p; ++r) {
      if (r == col) continue;
      double f = m[static_cast<size_t>(r) * p + col];
      if (f == 0.0) continue;
      for (int c = 0; c < p; ++c)
        m[static_cast<size_t>(r) * p + c] -= f * m[static_cast<size_t>(col) * p + c];
      beta[r] -= f * beta[col];
    }
  }
  // Residual sum of squares.
  double rss = 0.0;
  for (int i = 0; i < n; ++i) {
    double pred = beta[0];
    for (int j = 0; j < k; ++j) pred += beta[j + 1] * data(i, parents[j]);
    double r = data(i, y) - pred;
    rss += r * r;
  }
  return std::max(rss / n, 1e-12);
}

/// Local BIC contribution of node y with the given parent set.
double LocalScore(const Dense& data, int y, const std::vector<int>& parents,
                  double penalty) {
  const int n = data.rows();
  double var = ResidualVariance(data, y, parents);
  double loglik = -0.5 * n * (std::log(2.0 * M_PI * var) + 1.0);
  double complexity =
      0.5 * penalty * std::log(static_cast<double>(n)) *
      (static_cast<double>(parents.size()) + 2.0);  // params: betas + var
  return loglik - complexity;
}

}  // namespace

GesResult GreedyEquivalenceSearch(const Dense& data,
                                  const GesOptions& options) {
  const int d = data.cols();
  GesResult result;
  result.graph = Graph(d);

  // Cache per-node local scores.
  std::vector<double> local(d);
  for (int y = 0; y < d; ++y)
    local[y] = LocalScore(data, y, {}, options.penalty);

  // Greedy hill climbing over single-edge operations: insertion,
  // deletion, and reversal (reversal is what lets a mis-oriented early
  // edge be corrected once colliders make the true direction score
  // better).
  enum class Op { kInsert, kDelete, kReverse };
  auto parents_without = [&](int j, int i) {
    std::vector<int> reduced;
    for (int p : result.graph.Parents(j))
      if (p != i) reduced.push_back(p);
    return reduced;
  };
  bool improved = true;
  int safety = 0;
  while (improved && safety++ < 10 * d * d) {
    improved = false;
    Op best_op = Op::kInsert;
    int best_i = -1, best_j = -1;
    double best_gain = 1e-9;

    for (int i = 0; i < d; ++i) {
      for (int j = 0; j < d; ++j) {
        if (i == j) continue;
        if (result.graph.Edge(i, j)) {
          // Deletion.
          double del_gain =
              LocalScore(data, j, parents_without(j, i), options.penalty) -
              local[j];
          if (del_gain > best_gain) {
            best_gain = del_gain;
            best_op = Op::kDelete;
            best_i = i;
            best_j = j;
          }
          // Reversal i->j  =>  j->i: acyclic iff no other path i ~> j.
          Graph probe = result.graph;
          probe.SetEdge(i, j, false);
          bool path = false;
          for (int v : probe.Descendants(i)) path = path || v == j;
          if (!path &&
              static_cast<int>(probe.Parents(i).size()) <
                  options.max_parents) {
            auto new_pi = probe.Parents(i);
            new_pi.push_back(j);
            double rev_gain =
                (LocalScore(data, j, parents_without(j, i),
                            options.penalty) -
                 local[j]) +
                (LocalScore(data, i, new_pi, options.penalty) - local[i]);
            if (rev_gain > best_gain) {
              best_gain = rev_gain;
              best_op = Op::kReverse;
              best_i = i;
              best_j = j;
            }
          }
        } else if (!result.graph.Edge(j, i)) {
          // Insertion i -> j.
          auto parents = result.graph.Parents(j);
          if (static_cast<int>(parents.size()) >= options.max_parents)
            continue;
          bool reaches = false;
          for (int v : result.graph.Descendants(j)) reaches = reaches || v == i;
          if (reaches) continue;
          parents.push_back(i);
          double gain =
              LocalScore(data, j, parents, options.penalty) - local[j];
          if (gain > best_gain) {
            best_gain = gain;
            best_op = Op::kInsert;
            best_i = i;
            best_j = j;
          }
        }
      }
    }

    if (best_i < 0) break;
    switch (best_op) {
      case Op::kInsert:
        result.graph.SetEdge(best_i, best_j);
        ++result.insertions;
        break;
      case Op::kDelete:
        result.graph.SetEdge(best_i, best_j, false);
        ++result.deletions;
        break;
      case Op::kReverse:
        result.graph.SetEdge(best_i, best_j, false);
        result.graph.SetEdge(best_j, best_i);
        local[best_i] = LocalScore(data, best_i, result.graph.Parents(best_i),
                                   options.penalty);
        break;
    }
    local[best_j] = LocalScore(data, best_j, result.graph.Parents(best_j),
                               options.penalty);
    improved = true;
  }

  result.score = 0.0;
  for (int y = 0; y < d; ++y) result.score += local[y];
  CAUSER_CHECK(result.graph.IsDag());
  return result;
}

}  // namespace causer::causal
