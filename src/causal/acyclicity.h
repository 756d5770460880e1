#ifndef CAUSER_CAUSAL_ACYCLICITY_H_
#define CAUSER_CAUSAL_ACYCLICITY_H_

#include <vector>

#include "causal/dense.h"

namespace causer::causal {

/// NOTEARS acyclicity function h(W) = trace(e^{W∘W}) - d (Zheng et al.,
/// 2018). h(W) == 0 iff the weighted graph W is acyclic; h is smooth and
/// non-negative.
double AcyclicityValue(const Dense& w);

/// Gradient of h: ∇h(W) = (e^{W∘W})^T ∘ 2W.
Dense AcyclicityGradient(const Dense& w);

}  // namespace causer::causal

#endif  // CAUSER_CAUSAL_ACYCLICITY_H_
