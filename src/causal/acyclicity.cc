#include "causal/acyclicity.h"

#include "causal/matrix_exp.h"

namespace causer::causal {

double AcyclicityValue(const Dense& w) {
  CAUSER_CHECK(w.rows() == w.cols());
  Dense squared = w.Hadamard(w);
  return MatrixExponential(squared).Trace() - w.rows();
}

Dense AcyclicityGradient(const Dense& w) {
  CAUSER_CHECK(w.rows() == w.cols());
  Dense squared = w.Hadamard(w);
  Dense e = MatrixExponential(squared).Transposed();
  Dense grad(w.rows(), w.cols());
  for (int i = 0; i < w.rows(); ++i)
    for (int j = 0; j < w.cols(); ++j) grad(i, j) = e(i, j) * 2.0 * w(i, j);
  return grad;
}

}  // namespace causer::causal
