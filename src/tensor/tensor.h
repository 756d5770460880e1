#ifndef CAUSER_TENSOR_TENSOR_H_
#define CAUSER_TENSOR_TENSOR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/rng.h"
#include "tensor/arena.h"

namespace causer::tensor {

/// All tensors in this library are dense, row-major, 2-D float matrices.
/// Scalars are represented as [1,1] and row vectors as [1,n]. This keeps the
/// autograd engine small while covering everything the recommender models
/// need (per-step RNN math is [batch, dim] matmuls).
class Tensor;

namespace internal {

struct Node;

/// Resolves `node` through the thread's active ParamSubstitutionScope (if
/// any): returns the registered shadow node, or `node` itself. Ops resolve
/// every input through this, so a scope transparently redirects graph
/// construction onto private parameter copies.
std::shared_ptr<Node> Resolve(const std::shared_ptr<Node>& node);

/// Allocates a fresh Node. When the calling thread has an ArenaScope open,
/// the node (and, via FloatBuffer's captured allocator, its value/grad
/// buffers) is carved from the arena and reclaimed wholesale at scope exit;
/// otherwise it lives on the heap as before.
std::shared_ptr<Node> NewNode();

/// Graph node holding the value, the gradient accumulator, and the backward
/// closure that scatters this node's gradient into its parents.
///
/// value/grad use FloatBuffer, whose allocator captures the arena active
/// when the node was constructed: tape nodes built inside an ArenaScope
/// bump-allocate, while parameters (constructed outside any scope) keep
/// heap storage even when EnsureGrad() later runs inside a scope.
struct Node {
  int rows = 0;
  int cols = 0;
  FloatBuffer value;
  FloatBuffer grad;  // allocated lazily, same layout as value
  bool requires_grad = false;
  std::vector<std::shared_ptr<Node>> parents;
  // Propagates `grad` of this node into parents' grads. Null for leaves.
  std::function<void(Node&)> backward_fn;
  // Scratch marker used by the topological sort in Backward().
  int visit_mark = 0;

  int size() const { return rows * cols; }
  void EnsureGrad() {
    if (grad.empty()) grad.assign(value.size(), 0.0f);
  }
};

}  // namespace internal

/// Value-semantics handle to a shared autograd graph node.
///
/// Copying a Tensor aliases the same node (like a Python reference); use
/// Clone() for a deep copy of the value.
class Tensor {
 public:
  /// Empty (null) tensor; most operations on it are invalid.
  Tensor() = default;

  /// Wraps an existing node (library-internal).
  explicit Tensor(std::shared_ptr<internal::Node> node)
      : node_(std::move(node)) {}

  // -- Factory functions ----------------------------------------------------

  /// [rows, cols] tensor of zeros.
  static Tensor Zeros(int rows, int cols, bool requires_grad = false);

  /// [rows, cols] tensor filled with `value`.
  static Tensor Full(int rows, int cols, float value,
                     bool requires_grad = false);

  /// [1,1] scalar.
  static Tensor Scalar(float value, bool requires_grad = false);

  /// Tensor from explicit row-major data; `data.size()` must equal
  /// rows*cols.
  static Tensor FromData(int rows, int cols, std::vector<float> data,
                         bool requires_grad = false);

  /// Tensor with entries drawn i.i.d. uniform in [lo, hi).
  static Tensor RandomUniform(int rows, int cols, float lo, float hi, Rng& rng,
                              bool requires_grad = false);

  /// Tensor with entries drawn i.i.d. N(0, stddev^2).
  static Tensor RandomNormal(int rows, int cols, float stddev, Rng& rng,
                             bool requires_grad = false);

  // -- Introspection --------------------------------------------------------

  bool defined() const { return node_ != nullptr; }
  int rows() const { return node_->rows; }
  int cols() const { return node_->cols; }
  int size() const { return node_->size(); }
  bool requires_grad() const { return node_->requires_grad; }

  /// Mutable element access (modifying values of graph interior nodes after
  /// building a graph is undefined; intended for leaves and results).
  float& At(int r, int c) {
    CAUSER_CHECK(r >= 0 && r < rows() && c >= 0 && c < cols());
    return node_->value[static_cast<size_t>(r) * cols() + c];
  }
  float At(int r, int c) const {
    CAUSER_CHECK(r >= 0 && r < rows() && c >= 0 && c < cols());
    return node_->value[static_cast<size_t>(r) * cols() + c];
  }

  /// Scalar extraction; requires a [1,1] tensor.
  float Item() const {
    CAUSER_CHECK(size() == 1);
    return node_->value[0];
  }

  /// Raw row-major value buffer (arena-backed inside an ArenaScope).
  FloatBuffer& data() { return node_->value; }
  const FloatBuffer& data() const { return node_->value; }

  /// Gradient buffer (empty until Backward() touched this node).
  const FloatBuffer& grad() const { return node_->grad; }

  /// Gradient element access; zero if no gradient was accumulated.
  float GradAt(int r, int c) const {
    if (node_->grad.empty()) return 0.0f;
    return node_->grad[static_cast<size_t>(r) * cols() + c];
  }

  /// Clears accumulated gradients on this node.
  void ZeroGrad() {
    if (!node_->grad.empty())
      std::fill(node_->grad.begin(), node_->grad.end(), 0.0f);
  }

  /// Deep copy of the value as a fresh leaf (no graph history).
  Tensor Clone(bool requires_grad = false) const;

  /// Leaf view of the same value buffer contents (copies data, drops graph).
  Tensor Detach() const { return Clone(false); }

  /// Internal node accessor for the ops/autograd implementation.
  const std::shared_ptr<internal::Node>& node() const { return node_; }

 private:
  std::shared_ptr<internal::Node> node_;
};

/// Thread-local substitution of parameter tensors for the duration of the
/// scope: while active, every op building a graph node on this thread
/// resolves inputs whose node appears in `from` to the corresponding node
/// in `to`. The batched trainer uses this to give each worker thread a
/// private copy of the parameters (same values, separate gradient buffers),
/// so concurrent Backward() calls never touch shared state. Scopes do not
/// nest; `from[i]` and `to[i]` must have identical shapes.
class ParamSubstitutionScope {
 public:
  ParamSubstitutionScope(const std::vector<Tensor>& from,
                         const std::vector<Tensor>& to);
  ~ParamSubstitutionScope();
  ParamSubstitutionScope(const ParamSubstitutionScope&) = delete;
  ParamSubstitutionScope& operator=(const ParamSubstitutionScope&) = delete;
};

/// RAII guard disabling graph construction (inference mode). While any guard
/// is alive, newly created op results do not record parents/backward
/// closures, which speeds up evaluation loops.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;
};

/// True when gradient recording is currently enabled.
bool GradEnabled();

}  // namespace causer::tensor

#endif  // CAUSER_TENSOR_TENSOR_H_
