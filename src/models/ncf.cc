#include "models/ncf.h"

#include <limits>

#include "data/sampler.h"
#include "tensor/autograd.h"
#include "tensor/ops.h"

namespace causer::models {

using nn::Tensor;

Ncf::Ncf(const ModelConfig& config) : SequentialRecommender(config) {
  const int d = config.embedding_dim;
  users_gmf_ = std::make_unique<nn::Embedding>(config.num_users, d, rng_);
  items_gmf_ = std::make_unique<nn::Embedding>(config.num_items, d, rng_);
  users_mlp_ = std::make_unique<nn::Embedding>(config.num_users, d, rng_);
  items_mlp_ = std::make_unique<nn::Embedding>(config.num_items, d, rng_);
  mlp_ = std::make_unique<nn::Mlp>(std::vector<int>{2 * d, d, d / 2}, rng_);
  fusion_ = std::make_unique<nn::Linear>(d + d / 2, 1, rng_);
  RegisterModule(users_gmf_.get());
  RegisterModule(items_gmf_.get());
  RegisterModule(users_mlp_.get());
  RegisterModule(items_mlp_.get());
  RegisterModule(mlp_.get());
  RegisterModule(fusion_.get());
  optimizer_ = std::make_unique<nn::Adam>(Parameters(), config.learning_rate);
}

Tensor Ncf::Logits(int user, const std::vector<int>& item_ids) {
  const int n = static_cast<int>(item_ids.size());
  Tensor ones = Tensor::Full(n, 1, 1.0f);
  Tensor pu_gmf = tensor::MatMul(ones, users_gmf_->Row(user));  // [n, d]
  Tensor pu_mlp = tensor::MatMul(ones, users_mlp_->Row(user));  // [n, d]
  Tensor qi_gmf = items_gmf_->Forward(item_ids);                // [n, d]
  Tensor qi_mlp = items_mlp_->Forward(item_ids);                // [n, d]

  Tensor gmf = tensor::Mul(pu_gmf, qi_gmf);                          // [n, d]
  Tensor hidden = mlp_->Forward(tensor::ConcatCols(pu_mlp, qi_mlp));  // [n, d/2]
  return fusion_->Forward(tensor::ConcatCols(gmf, hidden));          // [n, 1]
}

std::vector<float> Ncf::ScoreAll(int user,
                                 const std::vector<data::Step>& history) {
  (void)history;
  tensor::NoGradGuard guard;
  std::vector<int> all(config_.num_items);
  for (int i = 0; i < config_.num_items; ++i) all[i] = i;
  Tensor logits = Logits(user, all);
  std::vector<float> out(config_.num_items);
  for (int i = 0; i < config_.num_items; ++i) out[i] = logits.At(i, 0);
  return out;
}

double Ncf::TrainEpoch(const std::vector<data::Sequence>& train) {
  std::vector<std::pair<int, int>> pairs;
  for (const auto& seq : train) {
    for (const auto& step : seq.steps) {
      for (int item : step.items) pairs.emplace_back(seq.user, item);
    }
  }
  rng_.Shuffle(pairs);

  double total = 0.0;
  for (const auto& [user, pos] : pairs) {
    std::vector<int> ids{pos};
    auto negs =
        data::SampleNegatives(config_.num_items, ids, config_.num_negatives,
                              rng_);
    ids.insert(ids.end(), negs.begin(), negs.end());
    std::vector<float> labels(ids.size(), 0.0f);
    labels[0] = 1.0f;

    Tensor logits = Logits(user, ids);
    Tensor targets =
        Tensor::FromData(static_cast<int>(ids.size()), 1, labels);
    Tensor loss = tensor::BceWithLogits(logits, targets);
    optimizer_->ZeroGrad();
    tensor::Backward(loss);
    if (!GuardedStep(*optimizer_)) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    total += loss.Item();
  }
  return pairs.empty() ? 0.0 : total / pairs.size();
}

}  // namespace causer::models
