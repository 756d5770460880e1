#include "models/gru4rec.h"

#include "common/log.h"
#include "tensor/kernels.h"

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
/// consuming its first `folded` steps, in plain heap storage.
class Gru4Rec::State : public SessionState {
 public:
  using SessionState::SessionState;
  std::vector<float> h;  // [hidden_dim]; empty = no non-empty step yet
};

std::unique_ptr<SessionState> Gru4Rec::NewSessionState(int user) {
  return std::make_unique<State>(user);
}

void Gru4Rec::RepFromState(SessionState& state, float* out) {
  auto* s = dynamic_cast<State*>(&state);
  CAUSER_CHECK(s != nullptr);
  if (s->folded == 0) s->h.clear();
  // The cell applications Represent chains (empty steps skipped), each the
  // raw twin of its tape op, so the folded floats are Represent's.
  std::vector<float> x(in_items_->dim());
  for (size_t t = s->folded; t < s->window.size(); ++t) {
    if (s->window[t].items.empty()) continue;
    StepEmbeddingRow(*in_items_, s->window[t], x.data());
    const float* prev = s->h.empty() ? nullptr : s->h.data();
    s->h.resize(cell_->hidden_dim());
    cell_->Step(x.data(), prev, s->h.data());
  }
  s->folded = s->window.size();
  if (s->h.empty()) {  // only empty steps: Represent projects InitialState
    const std::vector<float> zeros(cell_->hidden_dim(), 0.0f);
    out_proj_->ForwardRow(zeros.data(), out);
  } else {
    out_proj_->ForwardRow(s->h.data(), out);
  }
}

std::vector<float> Gru4Rec::ScoreFromState(SessionState& state) {
  std::vector<float> out(config_.num_items, 0.0f);
  // ScoreAll returns zeros for an empty history without running the
  // backbone; match it exactly.
  if (state.window.empty()) return out;
  std::vector<float> rep(config_.embedding_dim);
  RepFromState(state, rep.data());
  // ScoreAll's MatMul(items, rep^T): the same zero-seeded kernel call.
  tensor::kernels::MatMulAdd(out_items_->weight().data().data(), rep.data(),
                             out.data(), config_.num_items,
                             config_.embedding_dim, 1, false, false);
  return out;
}

bool Gru4Rec::StateRep(SessionState& state, float* out) {
  if (state.window.empty()) return false;  // ScoreAll's all-zeros special case
  RepFromState(state, out);
  return true;
}

const Tensor* Gru4Rec::OutputItemTable() const {
  return &out_items_->weight();
}

}  // namespace causer::models
