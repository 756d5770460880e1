#ifndef CAUSER_NN_OPTIMIZER_H_
#define CAUSER_NN_OPTIMIZER_H_

#include <string>
#include <vector>

#include "common/serial.h"
#include "tensor/tensor.h"

namespace causer::nn {

using tensor::Tensor;

/// Base optimizer over a fixed flat parameter list.
class Optimizer {
 public:
  explicit Optimizer(std::vector<Tensor> params);
  virtual ~Optimizer() = default;
  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

  /// Applies one update using the gradients currently stored on the params.
  virtual void Step() = 0;

  /// Clears all parameter gradients.
  void ZeroGrad();

  /// Rescales all gradients so their global L2 norm is at most `max_norm`.
  /// Returns the pre-clip norm (non-finite when any gradient is — the
  /// trainers use that as their per-step numeric-health signal).
  double ClipGradNorm(double max_norm);

  /// Appends the optimizer's mutable state — schedule position and moment
  /// buffers — to `out`, so a checkpoint can resume the exact update
  /// trajectory (parameters alone restart the moments from zero).
  virtual void SaveState(std::string* out) const = 0;

  /// Restores state written by SaveState for an optimizer over the same
  /// parameter list. All-or-nothing: returns false on a short or
  /// wrong-shape blob with the optimizer unchanged.
  virtual bool LoadState(serial::Reader& in) = 0;

  const std::vector<Tensor>& params() const { return params_; }

 protected:
  std::vector<Tensor> params_;
};

/// Adam (Kingma & Ba, 2015) with bias correction.
///
/// The moment buffers are allocated lazily: parameter i's m/v are zero-
/// filled the first time Step updates it (or LoadState restores them), so
/// a model built only to serve never pays for them. SaveState writes a
/// never-allocated moment as zeros of the parameter's size, so checkpoint
/// bytes and training trajectories match eager zero-initialization.
class Adam : public Optimizer {
 public:
  Adam(std::vector<Tensor> params, float lr, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f);

  void Step() override;
  void SaveState(std::string* out) const override;
  bool LoadState(serial::Reader& in) override;

  void set_lr(float lr) { lr_ = lr; }
  float lr() const { return lr_; }

 private:
  float lr_, beta1_, beta2_, eps_;
  int step_count_ = 0;
  /// Per-parameter moments; empty until the parameter's first update.
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
};

}  // namespace causer::nn

#endif  // CAUSER_NN_OPTIMIZER_H_
