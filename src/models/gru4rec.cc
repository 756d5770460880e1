#include "models/gru4rec.h"

namespace causer::models {

using nn::Tensor;

Gru4Rec::Gru4Rec(const ModelConfig& config) : RepresentationModel(config) {
  in_items_ = std::make_unique<nn::Embedding>(config.num_items,
                                              config.embedding_dim, rng_);
  cell_ = std::make_unique<nn::GruCell>(config.embedding_dim,
                                        config.hidden_dim, rng_);
  out_proj_ =
      std::make_unique<nn::Linear>(config.hidden_dim, config.embedding_dim,
                                   rng_);
  RegisterModule(in_items_.get());
  RegisterModule(cell_.get());
  RegisterModule(out_proj_.get());
  FinalizeOptimizer();
}

Tensor Gru4Rec::Represent(int user, const std::vector<data::Step>& history) {
  (void)user;  // session-based: no user embedding
  Tensor h = cell_->InitialState();
  for (const auto& step : history) {
    if (step.items.empty()) continue;
    h = cell_->Forward(StepEmbedding(*in_items_, step), h);
  }
  return out_proj_->Forward(h);
}

bool Gru4Rec::StateRep(const SessionState& state, float* out) {
  if (state.window.empty()) return false;  // ScoreAll's all-zeros special case
  // The cell applications Represent chains (empty steps skipped), each the
  // raw twin of its tape op, so the folded floats are Represent's. h stays
  // zeros, Represent's InitialState, until the first non-empty step.
  const int dim = in_items_->dim();
  std::vector<float> buf(dim + cell_->hidden_dim(), 0.0f);
  float* x = buf.data();
  float* h = x + dim;
  bool started = false;
  for (const data::Step& step : state.window) {
    if (step.items.empty()) continue;
    StepEmbeddingRow(*in_items_, step, x);
    cell_->Step(x, started ? h : nullptr, h);
    started = true;
  }
  out_proj_->ForwardRow(h, out);
  return true;
}

const Tensor* Gru4Rec::OutputItemTable() const {
  return &out_items_->weight();
}

}  // namespace causer::models
