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

  // Incremental serving (docs/PERFORMANCE.md): the session caches the GRU
  // hidden state over its window, so scoring after an append costs one
  // cell step per new step instead of a full backbone replay (a slid
  // window re-folds all of it). The fold runs GruCell::Step on raw buffers
  // and builds no tape; ScoreFromState stays bit-identical to the tape
  // ScoreAll over the appended history.
  std::unique_ptr<SessionState> NewSessionState(int user) override;
  std::vector<float> ScoreFromState(SessionState& state) override;
  bool StateRep(SessionState& state, float* out) override;
  const nn::Tensor* OutputItemTable() const override;

 protected:
  nn::Tensor Represent(int user,
                       const std::vector<data::Step>& history) override;

  std::unique_ptr<nn::Embedding> in_items_;
  std::unique_ptr<nn::GruCell> cell_;
  std::unique_ptr<nn::Linear> out_proj_;  // hidden -> embedding space

 private:
  class State;
  /// Folds the window steps the state's hidden state has not consumed yet
  /// (all of them after a slide) and writes its [embedding_dim] scoring
  /// representation to `out`.
  void RepFromState(SessionState& state, float* out);
};

}  // namespace causer::models

#endif  // CAUSER_MODELS_GRU4REC_H_
