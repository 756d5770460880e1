#include "tensor/tensor.h"

#include <unordered_map>

namespace causer::tensor {
namespace {

thread_local int g_no_grad_depth = 0;

using SubstitutionMap =
    std::unordered_map<const internal::Node*, std::shared_ptr<internal::Node>>;

/// Active substitution table of the current thread (ParamSubstitutionScope),
/// or null. Thread-local so worker threads redirect independently.
thread_local SubstitutionMap* g_substitutions = nullptr;

std::shared_ptr<internal::Node> MakeLeaf(int rows, int cols,
                                         bool requires_grad) {
  CAUSER_CHECK(rows > 0 && cols > 0);
  auto node = internal::NewNode();
  node->rows = rows;
  node->cols = cols;
  node->value.assign(static_cast<size_t>(rows) * cols, 0.0f);
  node->requires_grad = requires_grad;
  return node;
}

}  // namespace

namespace internal {

std::shared_ptr<Node> NewNode() {
  if (Arena* arena = ActiveArena()) {
    // allocate_shared puts the control block and the Node in one arena
    // allocation; both are reclaimed by the scope-exit Reset() (by then
    // every shared_ptr into the tape is gone).
    return std::allocate_shared<Node>(ArenaAllocator<Node>(arena));
  }
  return std::make_shared<Node>();
}

std::shared_ptr<Node> Resolve(const std::shared_ptr<Node>& node) {
  if (g_substitutions != nullptr) {
    auto it = g_substitutions->find(node.get());
    if (it != g_substitutions->end()) return it->second;
  }
  return node;
}

}  // namespace internal

ParamSubstitutionScope::ParamSubstitutionScope(const std::vector<Tensor>& from,
                                               const std::vector<Tensor>& to) {
  CAUSER_CHECK(from.size() == to.size());
  CAUSER_CHECK(g_substitutions == nullptr);  // scopes do not nest
  auto* map = new SubstitutionMap();
  map->reserve(from.size());
  for (size_t i = 0; i < from.size(); ++i) {
    CAUSER_CHECK(from[i].rows() == to[i].rows() &&
                 from[i].cols() == to[i].cols());
    map->emplace(from[i].node().get(), to[i].node());
  }
  g_substitutions = map;
}

ParamSubstitutionScope::~ParamSubstitutionScope() {
  delete g_substitutions;
  g_substitutions = nullptr;
}

NoGradGuard::NoGradGuard() { ++g_no_grad_depth; }
NoGradGuard::~NoGradGuard() { --g_no_grad_depth; }

bool GradEnabled() { return g_no_grad_depth == 0; }

Tensor Tensor::Zeros(int rows, int cols, bool requires_grad) {
  return Tensor(MakeLeaf(rows, cols, requires_grad));
}

Tensor Tensor::Full(int rows, int cols, float value, bool requires_grad) {
  auto node = MakeLeaf(rows, cols, requires_grad);
  std::fill(node->value.begin(), node->value.end(), value);
  return Tensor(node);
}

Tensor Tensor::Scalar(float value, bool requires_grad) {
  return Full(1, 1, value, requires_grad);
}

Tensor Tensor::FromData(int rows, int cols, std::vector<float> data,
                        bool requires_grad) {
  CAUSER_CHECK(static_cast<int>(data.size()) == rows * cols);
  auto node = MakeLeaf(rows, cols, requires_grad);
  // Copy (not move): `data` is a plain heap vector while node->value is
  // arena-aware; the copy lands in whichever arena owns the node.
  node->value.assign(data.begin(), data.end());
  return Tensor(node);
}

Tensor Tensor::RandomUniform(int rows, int cols, float lo, float hi, Rng& rng,
                             bool requires_grad) {
  auto node = MakeLeaf(rows, cols, requires_grad);
  for (auto& v : node->value) v = static_cast<float>(rng.Uniform(lo, hi));
  return Tensor(node);
}

Tensor Tensor::RandomNormal(int rows, int cols, float stddev, Rng& rng,
                            bool requires_grad) {
  auto node = MakeLeaf(rows, cols, requires_grad);
  for (auto& v : node->value) v = static_cast<float>(rng.Normal(0.0, stddev));
  return Tensor(node);
}

Tensor Tensor::Clone(bool requires_grad) const {
  CAUSER_CHECK(defined());
  auto node = internal::NewNode();
  node->rows = rows();
  node->cols = cols();
  node->value = node_->value;
  node->requires_grad = requires_grad;
  return Tensor(node);
}

}  // namespace causer::tensor
