#ifndef CAUSER_MODELS_GRU4REC_H_
#define CAUSER_MODELS_GRU4REC_H_

#include <memory>

#include "models/recommender.h"
#include "nn/linear.h"
#include "nn/rnn_cells.h"

namespace causer::models {

/// GRU4Rec (Hidasi et al., 2016): a GRU consumes the step embeddings; the
/// final hidden state, projected to the embedding space, scores items.
class Gru4Rec : public RepresentationModel {
 public:
  explicit Gru4Rec(const ModelConfig& config);

  std::string name() const override { return "GRU4Rec"; }

  // Serving (docs/PERFORMANCE.md): StateRep folds the session's window
  // with GruCell::Step on raw buffers and builds no tape; its
  // representation scores bit-identically to the tape ScoreAll over the
  // window.
  bool StateRep(const SessionState& state, float* out) override;
  const nn::Tensor* OutputItemTable() const override;

 protected:
  nn::Tensor Represent(int user,
                       const std::vector<data::Step>& history) override;

  std::unique_ptr<nn::Embedding> in_items_;
  std::unique_ptr<nn::GruCell> cell_;
  std::unique_ptr<nn::Linear> out_proj_;  // hidden -> embedding space
};

}  // namespace causer::models

#endif  // CAUSER_MODELS_GRU4REC_H_
