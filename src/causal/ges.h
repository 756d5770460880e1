#ifndef CAUSER_CAUSAL_GES_H_
#define CAUSER_CAUSAL_GES_H_

#include "causal/dense.h"
#include "causal/graph.h"

namespace causer::causal {

/// Options for greedy equivalence search.
struct GesOptions {
  /// BIC penalty multiplier (1.0 = standard BIC; larger = sparser graphs).
  double penalty = 1.0;
  /// Maximum parents per node (caps the local regression size).
  int max_parents = 6;
};

/// Result of a GES run.
struct GesResult {
  Graph graph;           ///< a DAG in the estimated equivalence class
  /// Final Gaussian BIC score (higher is better). Comparable across runs
  /// on the same data only — the likelihood term scales with n and d.
  double score = 0.0;
  int insertions = 0;    ///< edges added in the forward phase
  int deletions = 0;     ///< edges removed in the backward phase
};

/// Greedy equivalence search (Chickering 2002), simplified to DAG-space
/// greedy hill climbing with the Gaussian BIC score over single-edge
/// insertions, deletions and reversals. Cited by the paper as the
/// canonical score-based discovery family its NOTEARS-style training
/// continuizes. Caveat of the simplification: single-move search can stop
/// in a denser I-map of the true distribution (e.g. a reversed collider
/// plus one compensating edge) where true equivalence-class GES would not.
GesResult GreedyEquivalenceSearch(const Dense& data,
                                  const GesOptions& options = {});

}  // namespace causer::causal

#endif  // CAUSER_CAUSAL_GES_H_
