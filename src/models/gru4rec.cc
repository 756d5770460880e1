#include "models/gru4rec.h"

#include "common/log.h"
#include "tensor/arena.h"
#include "tensor/ops.h"

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

/// Incremental session: the window plus the GRU hidden state after
/// consuming its first `folded` steps. The hidden floats are copied out of
/// each step's arena, so the state owns plain heap storage.
class Gru4Rec::State : public SessionState {
 public:
  using SessionState::SessionState;
  std::vector<float> h;  // [hidden_dim]; empty = no non-empty step yet
};

std::unique_ptr<SessionState> Gru4Rec::NewSessionState(int user) {
  return std::make_unique<State>(user);
}

Tensor Gru4Rec::RepFromState(SessionState& state) {
  auto* s = dynamic_cast<State*>(&state);
  CAUSER_CHECK(s != nullptr);
  if (s->folded == 0) s->h.clear();
  Tensor h = s->h.empty() ? cell_->InitialState()
                          : Tensor::FromData(1, cell_->hidden_dim(), s->h);
  // Same cell applications Represent chains (empty steps skipped), so
  // resuming from the copied-out floats yields bit-identical values.
  bool stepped = false;
  for (size_t t = s->folded; t < s->window.size(); ++t) {
    if (s->window[t].items.empty()) continue;
    h = cell_->Forward(StepEmbedding(*in_items_, s->window[t]), h);
    stepped = true;
  }
  if (stepped) s->h.assign(h.data().begin(), h.data().end());
  s->folded = s->window.size();
  return out_proj_->Forward(h);
}

std::vector<float> Gru4Rec::ScoreFromState(SessionState& state) {
  tensor::NoGradGuard guard;
  // ScoreAll returns zeros for an empty history without running the
  // backbone; match it exactly.
  if (state.window.empty()) return std::vector<float>(config_.num_items, 0.0f);
  tensor::ArenaScope arena_scope;
  Tensor rep = RepFromState(state);
  Tensor logits = tensor::MatMul(out_items_->weight(), tensor::Transpose(rep));
  std::vector<float> out(config_.num_items);
  for (int i = 0; i < config_.num_items; ++i) out[i] = logits.At(i, 0);
  return out;
}

bool Gru4Rec::StateRep(SessionState& state, float* out) {
  if (state.window.empty()) return false;  // ScoreAll's all-zeros special case
  tensor::NoGradGuard guard;
  tensor::ArenaScope arena_scope;
  Tensor rep = RepFromState(state);
  for (int j = 0; j < rep.cols(); ++j) out[j] = rep.At(0, j);
  return true;
}

const Tensor* Gru4Rec::OutputItemTable() const {
  return &out_items_->weight();
}

}  // namespace causer::models
