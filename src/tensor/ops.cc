#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <type_traits>
#include <utility>

#include "tensor/kernels.h"
#include "tensor/primitives/primitives.h"

namespace causer::tensor {
namespace {

using internal::Node;
using NodePtr = std::shared_ptr<Node>;

/// Every op input resolves through the thread's active
/// ParamSubstitutionScope, so worker threads transparently build their
/// graphs against private parameter copies.
NodePtr Res(const Tensor& t) { return internal::Resolve(t.node()); }

/// Creates the result node of an op with a zeroed [rows, cols] value.
/// Parents and the backward closure are only recorded when gradients are
/// globally enabled and at least one parent requires them; otherwise the
/// result is a detached leaf, and neither the parents vector nor the
/// std::function is built (a no-grad forward pays for the value only).
/// `parents` is a braced list of nodes or any range of them. `backward_fn`
/// is the closure, or a callable taking no arguments that returns it: an
/// op whose closure copies a container passes the latter, so the copy is
/// made only when the closure is kept.
template <typename Parents = std::initializer_list<NodePtr>, typename Backward>
Tensor MakeResult(int rows, int cols, const Parents& parents,
                  Backward&& backward_fn) {
  auto node = internal::NewNode();
  node->rows = rows;
  node->cols = cols;
  node->value.assign(static_cast<size_t>(rows) * cols, 0.0f);
  const bool needs_grad =
      GradEnabled() &&
      std::any_of(parents.begin(), parents.end(),
                  [](const NodePtr& p) { return p->requires_grad; });
  if (needs_grad) {
    node->requires_grad = true;
    node->parents.assign(parents.begin(), parents.end());
    if constexpr (std::is_invocable_v<Backward&>) {
      node->backward_fn = backward_fn();
    } else {
      node->backward_fn = std::forward<Backward>(backward_fn);
    }
  }
  return Tensor(std::move(node));
}

bool BroadcastCompatible(int da, int db) { return da == db || da == 1 || db == 1; }

/// Generic broadcasting binary elementwise op.
/// fwd(x, y) computes the value; dfa/dfb give dL/dx and dL/dy contributions
/// as functions of (x, y, gout).
template <typename Fwd, typename Dfa, typename Dfb>
Tensor BroadcastBinary(const Tensor& a, const Tensor& b, Fwd fwd, Dfa dfa,
                       Dfb dfb) {
  CAUSER_CHECK(a.defined() && b.defined());
  CAUSER_CHECK(BroadcastCompatible(a.rows(), b.rows()));
  CAUSER_CHECK(BroadcastCompatible(a.cols(), b.cols()));
  const int rows = std::max(a.rows(), b.rows());
  const int cols = std::max(a.cols(), b.cols());
  NodePtr an = Res(a);
  NodePtr bn = Res(b);

  auto index = [](const NodePtr& n, int r, int c) {
    int rr = n->rows == 1 ? 0 : r;
    int cc = n->cols == 1 ? 0 : c;
    return static_cast<size_t>(rr) * n->cols + cc;
  };

  Tensor out = MakeResult(
      rows, cols, {an, bn}, [an, bn, rows, cols, dfa, dfb, index](Node& self) {
        if (an->requires_grad) an->EnsureGrad();
        if (bn->requires_grad) bn->EnsureGrad();
        for (int r = 0; r < rows; ++r) {
          for (int c = 0; c < cols; ++c) {
            size_t oi = static_cast<size_t>(r) * cols + c;
            float g = self.grad[oi];
            float x = an->value[index(an, r, c)];
            float y = bn->value[index(bn, r, c)];
            if (an->requires_grad) an->grad[index(an, r, c)] += dfa(x, y, g);
            if (bn->requires_grad) bn->grad[index(bn, r, c)] += dfb(x, y, g);
          }
        }
      });
  float* o = out.data().data();
  if (an->rows == bn->rows && an->cols == bn->cols) {
    // Equal shapes broadcast nothing: one flat pass.
    const float* x = an->value.data();
    const float* y = bn->value.data();
    for (size_t i = 0; i < out.data().size(); ++i) o[i] = fwd(x[i], y[i]);
    return out;
  }
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      o[static_cast<size_t>(r) * cols + c] =
          fwd(an->value[index(an, r, c)], bn->value[index(bn, r, c)]);
    }
  }
  return out;
}

/// Generic elementwise unary op; dfn(x, y, gout) returns dL/dx where y is
/// the forward output (lets sigmoid/tanh reuse the output).
template <typename Fwd, typename Dfn>
Tensor UnaryOp(const Tensor& a, Fwd fwd, Dfn dfn) {
  CAUSER_CHECK(a.defined());
  NodePtr an = Res(a);
  Tensor out = MakeResult(a.rows(), a.cols(), {an}, [an, dfn](Node& self) {
    if (!an->requires_grad) return;
    an->EnsureGrad();
    for (size_t i = 0; i < self.value.size(); ++i) {
      an->grad[i] += dfn(an->value[i], self.value[i], self.grad[i]);
    }
  });
  for (size_t i = 0; i < out.data().size(); ++i) {
    out.data()[i] = fwd(an->value[i]);
  }
  return out;
}

/// c[n,p] += op(a) * op(b) on raw buffers: the packed/blocked kernel module
/// (tensor/kernels.h) handles operand packing, vectorization, and the
/// row-sharded pool dispatch, and is bit-identical to the sequential
/// reference for every thread count.
void RawMatMulAdd(const float* a, const float* b, float* c, int n, int m,
                  int p, bool transpose_a, bool transpose_b) {
  kernels::MatMulAdd(a, b, c, n, m, p, transpose_a, transpose_b);
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  return BroadcastBinary(
      a, b, [](float x, float y) { return x + y; },
      [](float, float, float g) { return g; },
      [](float, float, float g) { return g; });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return BroadcastBinary(
      a, b, [](float x, float y) { return x - y; },
      [](float, float, float g) { return g; },
      [](float, float, float g) { return -g; });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return BroadcastBinary(
      a, b, [](float x, float y) { return x * y; },
      [](float, float y, float g) { return g * y; },
      [](float x, float, float g) { return g * x; });
}

Tensor Div(const Tensor& a, const Tensor& b) {
  return BroadcastBinary(
      a, b, [](float x, float y) { return x / y; },
      [](float, float y, float g) { return g / y; },
      [](float x, float y, float g) { return -g * x / (y * y); });
}

Tensor ScalarMul(const Tensor& a, float c) {
  NodePtr an = Res(a);
  Tensor out = MakeResult(a.rows(), a.cols(), {an}, [an, c](Node& self) {
    if (!an->requires_grad) return;
    an->EnsureGrad();
    for (size_t i = 0; i < self.value.size(); ++i)
      an->grad[i] += c * self.grad[i];
  });
  for (size_t i = 0; i < out.data().size(); ++i) out.data()[i] = c * an->value[i];
  return out;
}

Tensor AddScalar(const Tensor& a, float c) {
  NodePtr an = Res(a);
  Tensor out = MakeResult(a.rows(), a.cols(), {an}, [an](Node& self) {
    if (!an->requires_grad) return;
    an->EnsureGrad();
    for (size_t i = 0; i < self.value.size(); ++i) an->grad[i] += self.grad[i];
  });
  for (size_t i = 0; i < out.data().size(); ++i) out.data()[i] = an->value[i] + c;
  return out;
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  CAUSER_CHECK(a.cols() == b.rows());
  const int n = a.rows(), m = a.cols(), p = b.cols();
  NodePtr an = Res(a);
  NodePtr bn = Res(b);
  Tensor out = MakeResult(n, p, {an, bn}, [an, bn, n, m, p](Node& self) {
    if (an->requires_grad) {
      an->EnsureGrad();
      // dA = dC * B^T : [n,p] x [p,m]
      RawMatMulAdd(self.grad.data(), bn->value.data(), an->grad.data(), n, p,
                   m, /*transpose_a=*/false, /*transpose_b=*/true);
    }
    if (bn->requires_grad) {
      bn->EnsureGrad();
      // dB = A^T * dC : [m,n] x [n,p]
      RawMatMulAdd(an->value.data(), self.grad.data(), bn->grad.data(), m, n,
                   p, /*transpose_a=*/true, /*transpose_b=*/false);
    }
  });
  RawMatMulAdd(an->value.data(), bn->value.data(), out.data().data(), n, m, p,
               false, false);
  return out;
}

Tensor Transpose(const Tensor& a) {
  const int n = a.rows(), m = a.cols();
  NodePtr an = Res(a);
  Tensor out = MakeResult(m, n, {an}, [an, n, m](Node& self) {
    if (!an->requires_grad) return;
    an->EnsureGrad();
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < m; ++j)
        an->grad[static_cast<size_t>(i) * m + j] +=
            self.grad[static_cast<size_t>(j) * n + i];
  });
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < m; ++j)
      out.data()[static_cast<size_t>(j) * n + i] =
          an->value[static_cast<size_t>(i) * m + j];
  return out;
}

Tensor Sigmoid(const Tensor& a) {
  return UnaryOp(a, [](float x) { return SigmoidValue(x); },
                 [](float, float y, float g) { return g * y * (1.0f - y); });
}

Tensor Tanh(const Tensor& a) {
  return UnaryOp(a, [](float x) { return std::tanh(x); },
                 [](float, float y, float g) { return g * (1.0f - y * y); });
}

Tensor Relu(const Tensor& a) {
  return UnaryOp(a, [](float x) { return x > 0.0f ? x : 0.0f; },
                 [](float x, float, float g) { return x > 0.0f ? g : 0.0f; });
}

Tensor Sqrt(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return std::sqrt(std::max(x, 0.0f)); },
      [](float x, float y, float g) {
        return x > 0.0f ? g / (2.0f * y) : 0.0f;
      });
}

Tensor SoftmaxRows(const Tensor& a, float temperature) {
  CAUSER_CHECK(temperature > 0.0f);
  const int n = a.rows(), m = a.cols();
  NodePtr an = Res(a);
  Tensor out =
      MakeResult(n, m, {an}, [an, n, m, temperature](Node& self) {
        if (!an->requires_grad) return;
        an->EnsureGrad();
        for (int r = 0; r < n; ++r) {
          const float* y = self.value.data() + static_cast<size_t>(r) * m;
          const float* gy = self.grad.data() + static_cast<size_t>(r) * m;
          float dot = 0.0f;
          for (int c = 0; c < m; ++c) dot += gy[c] * y[c];
          float* ga = an->grad.data() + static_cast<size_t>(r) * m;
          for (int c = 0; c < m; ++c)
            ga[c] += y[c] * (gy[c] - dot) / temperature;
        }
      });
  const auto& ops = primitives::Active();
  for (int r = 0; r < n; ++r) {
    const float* x = an->value.data() + static_cast<size_t>(r) * m;
    float* y = out.data().data() + static_cast<size_t>(r) * m;
    // reduce_max is value-exact across ISAs; a +0/-0 tie can flip the
    // sign of mx, but exp((x - ±0)/t) lands on the same value either way.
    const float mx = ops.reduce_max(static_cast<std::size_t>(m), x);
    for (int c = 0; c < m; ++c) y[c] = (x[c] - mx) / temperature;
    ops.exp_apply(static_cast<std::size_t>(m), y);
    float total = 0.0f;
    for (int c = 0; c < m; ++c) total += y[c];
    for (int c = 0; c < m; ++c) y[c] /= total;
  }
  return out;
}

Tensor Sum(const Tensor& a) {
  NodePtr an = Res(a);
  Tensor out = MakeResult(1, 1, {an}, [an](Node& self) {
    if (!an->requires_grad) return;
    an->EnsureGrad();
    for (auto& g : an->grad) g += self.grad[0];
  });
  float total = 0.0f;
  for (float v : an->value) total += v;
  out.data()[0] = total;
  return out;
}

Tensor SumRows(const Tensor& a) {
  const int n = a.rows(), m = a.cols();
  NodePtr an = Res(a);
  Tensor out = MakeResult(n, 1, {an}, [an, n, m](Node& self) {
    if (!an->requires_grad) return;
    an->EnsureGrad();
    for (int r = 0; r < n; ++r)
      for (int c = 0; c < m; ++c)
        an->grad[static_cast<size_t>(r) * m + c] += self.grad[r];
  });
  for (int r = 0; r < n; ++r) {
    float total = 0.0f;
    for (int c = 0; c < m; ++c) total += an->value[static_cast<size_t>(r) * m + c];
    out.data()[r] = total;
  }
  return out;
}

Tensor SumCols(const Tensor& a) {
  const int n = a.rows(), m = a.cols();
  NodePtr an = Res(a);
  Tensor out = MakeResult(1, m, {an}, [an, n, m](Node& self) {
    if (!an->requires_grad) return;
    an->EnsureGrad();
    for (int r = 0; r < n; ++r)
      for (int c = 0; c < m; ++c)
        an->grad[static_cast<size_t>(r) * m + c] += self.grad[c];
  });
  for (int c = 0; c < m; ++c) {
    float total = 0.0f;
    for (int r = 0; r < n; ++r) total += an->value[static_cast<size_t>(r) * m + c];
    out.data()[c] = total;
  }
  return out;
}

Tensor SquaredNorm(const Tensor& a) {
  NodePtr an = Res(a);
  Tensor out = MakeResult(1, 1, {an}, [an](Node& self) {
    if (!an->requires_grad) return;
    an->EnsureGrad();
    for (size_t i = 0; i < an->value.size(); ++i)
      an->grad[i] += self.grad[0] * 2.0f * an->value[i];
  });
  float total = 0.0f;
  for (float v : an->value) total += v * v;
  out.data()[0] = total;
  return out;
}

Tensor ConcatCols(const Tensor& a, const Tensor& b) {
  CAUSER_CHECK(a.rows() == b.rows());
  const int n = a.rows(), ma = a.cols(), mb = b.cols();
  NodePtr an = Res(a);
  NodePtr bn = Res(b);
  Tensor out = MakeResult(n, ma + mb, {an, bn}, [an, bn, n, ma, mb](Node& self) {
    if (an->requires_grad) an->EnsureGrad();
    if (bn->requires_grad) bn->EnsureGrad();
    for (int r = 0; r < n; ++r) {
      const float* g = self.grad.data() + static_cast<size_t>(r) * (ma + mb);
      if (an->requires_grad)
        for (int c = 0; c < ma; ++c)
          an->grad[static_cast<size_t>(r) * ma + c] += g[c];
      if (bn->requires_grad)
        for (int c = 0; c < mb; ++c)
          bn->grad[static_cast<size_t>(r) * mb + c] += g[ma + c];
    }
  });
  for (int r = 0; r < n; ++r) {
    float* o = out.data().data() + static_cast<size_t>(r) * (ma + mb);
    for (int c = 0; c < ma; ++c) o[c] = an->value[static_cast<size_t>(r) * ma + c];
    for (int c = 0; c < mb; ++c) o[ma + c] = bn->value[static_cast<size_t>(r) * mb + c];
  }
  return out;
}

Tensor ConcatRows(const std::vector<Tensor>& parts) {
  CAUSER_CHECK(!parts.empty());
  const int m = parts[0].cols();
  int total_rows = 0;
  std::vector<NodePtr> nodes;
  nodes.reserve(parts.size());
  for (const auto& p : parts) {
    CAUSER_CHECK(p.cols() == m);
    total_rows += p.rows();
    nodes.push_back(Res(p));
  }
  Tensor out = MakeResult(total_rows, m, nodes, [&nodes, m] {
    return [nodes, m](Node& self) {
      int row = 0;
      for (const auto& p : nodes) {
        if (p->requires_grad) {
          p->EnsureGrad();
          for (int r = 0; r < p->rows; ++r)
            for (int c = 0; c < m; ++c)
              p->grad[static_cast<size_t>(r) * m + c] +=
                  self.grad[static_cast<size_t>(row + r) * m + c];
        }
        row += p->rows;
      }
    };
  });
  int row = 0;
  for (const auto& p : nodes) {
    std::copy(p->value.begin(), p->value.end(),
              out.data().begin() + static_cast<size_t>(row) * m);
    row += p->rows;
  }
  return out;
}

Tensor SliceRows(const Tensor& a, int start, int len) {
  CAUSER_CHECK(start >= 0 && len > 0 && start + len <= a.rows());
  const int m = a.cols();
  NodePtr an = Res(a);
  Tensor out = MakeResult(len, m, {an}, [an, start, len, m](Node& self) {
    if (!an->requires_grad) return;
    an->EnsureGrad();
    for (int r = 0; r < len; ++r)
      for (int c = 0; c < m; ++c)
        an->grad[static_cast<size_t>(start + r) * m + c] +=
            self.grad[static_cast<size_t>(r) * m + c];
  });
  std::copy(an->value.begin() + static_cast<size_t>(start) * m,
            an->value.begin() + static_cast<size_t>(start + len) * m,
            out.data().begin());
  return out;
}

Tensor GatherRows(const Tensor& a, const std::vector<int>& indices) {
  CAUSER_CHECK(!indices.empty());
  const int m = a.cols();
  const int k = static_cast<int>(indices.size());
  NodePtr an = Res(a);
  for (int idx : indices) CAUSER_CHECK(idx >= 0 && idx < a.rows());
  Tensor out = MakeResult(k, m, {an}, [&an, &indices, k, m] {
    return [an, indices, k, m](Node& self) {
      if (!an->requires_grad) return;
      an->EnsureGrad();
      for (int r = 0; r < k; ++r)
        for (int c = 0; c < m; ++c)
          an->grad[static_cast<size_t>(indices[r]) * m + c] +=
              self.grad[static_cast<size_t>(r) * m + c];
    };
  });
  for (int r = 0; r < k; ++r)
    std::copy(an->value.begin() + static_cast<size_t>(indices[r]) * m,
              an->value.begin() + static_cast<size_t>(indices[r] + 1) * m,
              out.data().begin() + static_cast<size_t>(r) * m);
  return out;
}

Tensor BceWithLogits(const Tensor& logits, const Tensor& targets) {
  CAUSER_CHECK(logits.rows() == targets.rows() &&
               logits.cols() == targets.cols());
  NodePtr xn = Res(logits);
  NodePtr tn = Res(targets);
  Tensor out = MakeResult(1, 1, {xn, tn}, [xn, tn](Node& self) {
    // d/dx = sigmoid(x) - t. Targets are treated as constants.
    if (!xn->requires_grad) return;
    xn->EnsureGrad();
    for (size_t i = 0; i < xn->value.size(); ++i) {
      const float s = SigmoidValue(xn->value[i]);
      xn->grad[i] += self.grad[0] * (s - tn->value[i]);
    }
  });
  float total = 0.0f;
  for (size_t i = 0; i < xn->value.size(); ++i) {
    float x = xn->value[i];
    float t = tn->value[i];
    total += std::max(x, 0.0f) - x * t + std::log1p(std::exp(-std::fabs(x)));
  }
  out.data()[0] = total;
  return out;
}

Tensor MseLoss(const Tensor& a, const Tensor& b) {
  return SquaredNorm(Sub(a, b));
}

}  // namespace causer::tensor
