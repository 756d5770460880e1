#include "models/recommender.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "common/fault.h"
#include "common/log.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "data/sampler.h"
#include "tensor/autograd.h"
#include "tensor/ops.h"

namespace causer::models {

using nn::Tensor;

TrainerMetricsT& TrainerMetrics() {
  static TrainerMetricsT m{
      metrics::GetCounter("trainer.epochs_total", "epochs",
                          "Training epochs completed (across all models)."),
      metrics::GetCounter(
          "trainer.optimizer_steps_total", "steps",
          "Optimizer steps taken (one per example at batch_size 1, one "
          "per batch otherwise)."),
      metrics::GetGauge("trainer.epoch_loss", "loss",
                        "Mean training loss of the latest epoch."),
      metrics::GetGauge(
          "trainer.best_validation_ndcg", "ndcg",
          "Best validation NDCG@Z seen by the current Fit() run."),
      metrics::GetHistogram("trainer.epoch_seconds", "seconds",
                            "Wall time of each training epoch.",
                            metrics::ExponentialBuckets(1e-3, 10.0, 8)),
      metrics::GetHistogram(
          "trainer.step_seconds", "seconds",
          "Wall time of each optimizer step, including its forward and "
          "backward passes.",
          metrics::ExponentialBuckets(1e-6, 10.0, 8)),
      metrics::GetHistogram(
          "trainer.grad_norm", "l2-norm",
          "Pre-clip global gradient L2 norm at each optimizer step.",
          {0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0}),
  };
  return m;
}

HealthMetricsT& HealthMetrics() {
  static HealthMetricsT m{
      metrics::GetCounter(
          "trainer.health.nonfinite_total", "trips",
          "Epochs whose loss or parameters went non-finite (NaN/Inf)."),
      metrics::GetCounter(
          "trainer.health.rollbacks_total", "rollbacks",
          "Checkpoint rollbacks performed by the numeric-health sentinel."),
      metrics::GetGauge(
          "trainer.health.lr_scale", "factor",
          "Cumulative learning-rate scale applied by sentinel rollbacks "
          "(1.0 = untouched, halved per rollback)."),
      metrics::GetCounter("trainer.checkpoint.writes_total", "checkpoints",
                          "Training checkpoints written successfully."),
      metrics::GetCounter(
          "trainer.checkpoint.resumes_total", "resumes",
          "Checkpoints restored (startup --resume and sentinel rollbacks)."),
  };
  return m;
}

void SequentialRecommender::SaveTrainingState(std::string* out) const {
  rng_.SaveState(out);
}

bool SequentialRecommender::LoadTrainingState(serial::Reader& in) {
  return rng_.LoadState(in);
}

void SequentialRecommender::ScaleLearningRate(float /*factor*/) {}

std::vector<data::Step> SequentialRecommender::Truncate(
    const std::vector<data::Step>& history) const {
  return std::vector<data::Step>(history.begin() + WindowStart(history),
                                 history.end());
}

SequentialRecommender::Candidates SequentialRecommender::SampleCandidates(
    const std::vector<int>& positives) {
  const int available = config_.num_items - static_cast<int>(positives.size());
  const int num_neg = std::min(config_.num_negatives, std::max(0, available));
  Candidates c;
  c.ids = positives;
  std::vector<int> negatives =
      data::SampleNegatives(config_.num_items, positives, num_neg, rng_);
  c.ids.insert(c.ids.end(), negatives.begin(), negatives.end());
  c.labels.assign(c.ids.size(), 0.0f);
  std::fill(c.labels.begin(), c.labels.begin() + positives.size(), 1.0f);
  return c;
}

bool SequentialRecommender::GuardedStep(nn::Optimizer& opt, double* norm) {
  const double n = opt.ClipGradNorm(config_.grad_clip);
  if (norm != nullptr) *norm = n;
  if (!std::isfinite(n)) return false;
  opt.Step();
  return true;
}

void SequentialRecommender::AdvanceState(SessionState& state,
                                         const data::Step& step) const {
  state.window.push_back(step);
  if (static_cast<int>(state.window.size()) > config_.max_history) {
    state.window.erase(state.window.begin());
  }
}

bool SequentialRecommender::StateRep(const SessionState& /*state*/,
                                     float* /*out*/) {
  return false;
}

const Tensor* SequentialRecommender::OutputItemTable() const {
  return nullptr;
}

const tensor::QuantizedMatrix* SequentialRecommender::QuantizedItemTable() {
  if (!quant_table_built_) {
    quant_table_built_ = true;
    const Tensor* table = OutputItemTable();
    if (table != nullptr && table->rows() > 0) {
      auto q = std::make_unique<tensor::QuantizedMatrix>();
      if (tensor::QuantizeRows(table->data().data(), table->rows(),
                               table->cols(), q.get())) {
        quant_table_ = std::move(q);
      }
      // On failure (non-finite weights) quant_table_ stays null: the
      // serving engine keeps scoring in fp32 and counts the fallback.
    }
  }
  return quant_table_.get();
}

void SequentialRecommender::InvalidateQuantizedItemTable() {
  quant_table_.reset();
  quant_table_built_ = false;
}

RepresentationModel::RepresentationModel(const ModelConfig& config)
    : SequentialRecommender(config) {
  out_items_ = std::make_unique<nn::Embedding>(config.num_items,
                                               config.embedding_dim, rng_);
  RegisterModule(out_items_.get());
}

void RepresentationModel::FinalizeOptimizer() {
  optimizer_ = std::make_unique<nn::Adam>(Parameters(), config_.learning_rate);
}

void RepresentationModel::SaveTrainingState(std::string* out) const {
  CAUSER_CHECK(optimizer_ != nullptr);
  SequentialRecommender::SaveTrainingState(out);
  optimizer_->SaveState(out);
}

bool RepresentationModel::LoadTrainingState(serial::Reader& in) {
  CAUSER_CHECK(optimizer_ != nullptr);
  return SequentialRecommender::LoadTrainingState(in) &&
         optimizer_->LoadState(in);
}

void RepresentationModel::ScaleLearningRate(float factor) {
  CAUSER_CHECK(optimizer_ != nullptr);
  optimizer_->set_lr(optimizer_->lr() * factor);
}

Tensor RepresentationModel::StepEmbedding(const nn::Embedding& emb,
                                          const data::Step& step) const {
  CAUSER_CHECK(!step.items.empty());
  Tensor rows = emb.Forward(step.items);  // [k, dim]
  if (rows.rows() == 1) return rows;
  return tensor::ScalarMul(tensor::SumCols(rows),
                           1.0f / static_cast<float>(rows.rows()));
}

void RepresentationModel::StepEmbeddingRow(const nn::Embedding& emb,
                                           const data::Step& step,
                                           float* out) const {
  const size_t k = step.items.size();
  CAUSER_CHECK(k > 0);
  const int d = emb.dim();
  const float* table = emb.weight().data().data();
  auto row = [&](int item) {
    CAUSER_CHECK(item >= 0 && item < emb.num_embeddings());
    return table + static_cast<size_t>(item) * d;
  };
  if (k == 1) {
    std::copy(row(step.items[0]), row(step.items[0]) + d, out);
    return;
  }
  std::fill(out, out + d, 0.0f);
  for (int item : step.items) {
    const float* r = row(item);
    for (int j = 0; j < d; ++j) out[j] += r[j];
  }
  const float scale = 1.0f / static_cast<float>(k);
  for (int j = 0; j < d; ++j) out[j] = scale * out[j];
}

std::vector<float> RepresentationModel::ScoreAll(
    int user, const std::vector<data::Step>& history) {
  tensor::NoGradGuard guard;
  if (history.empty()) {
    return std::vector<float>(config_.num_items, 0.0f);
  }
  Tensor rep = Represent(user, Truncate(history));        // [1, d]
  Tensor logits = tensor::MatMul(out_items_->weight(), tensor::Transpose(rep));
  std::vector<float> out(config_.num_items);
  for (int i = 0; i < config_.num_items; ++i) out[i] = logits.At(i, 0);
  return out;
}

double RepresentationModel::TrainEpoch(
    const std::vector<data::Sequence>& train) {
  CAUSER_CHECK(optimizer_ != nullptr);
  auto examples = data::EnumerateExamples(train);
  rng_.Shuffle(examples);

  struct Prepared {
    int user = 0;
    std::vector<data::Step> history;
    Candidates cand;
  };

  auto params = Parameters();
  ThreadPool& pool = DefaultPool();
  const int max_shards = pool.num_threads();
  // Shard 0 backpropagates into the live parameters on the calling thread.
  // Shards 1.. each get a private parameter copy (the per-worker gradient
  // buffers), cloned on first use and refreshed (values + zeroed grads)
  // before every batch, since Step() changes the parameters in between.
  std::vector<std::vector<Tensor>> shadows(max_shards);
  std::vector<double> shard_loss(max_shards, 0.0);

  double total_loss = 0.0;
  int count = 0;
  std::vector<Prepared> batch;
  batch.reserve(config_.batch_size);
  size_t next = 0;
  while (next < examples.size()) {
    // Preparation (history truncation + negative sampling) stays on the
    // calling thread, consuming rng_ in example order: the random stream is
    // independent of the worker count.
    batch.clear();
    while (static_cast<int>(batch.size()) < config_.batch_size &&
           next < examples.size()) {
      const auto& ex = examples[next++];
      const auto& steps = ex.sequence->steps;
      std::vector<data::Step> history(steps.begin(),
                                      steps.begin() + ex.target_step);
      history = Truncate(history);
      if (history.empty()) continue;
      batch.push_back({ex.sequence->user, std::move(history),
                       SampleCandidates(steps[ex.target_step].items)});
    }
    if (batch.empty()) continue;
    const int bsz = static_cast<int>(batch.size());
    const int shards = std::min(max_shards, bsz);

    const bool measure = metrics::Enabled();
    Stopwatch step_sw;
    optimizer_->ZeroGrad();
    pool.ParallelFor(0, shards, [&](int shard_begin, int shard_end) {
      for (int s = shard_begin; s < shard_end; ++s) {
        const int lo = bsz * s / shards;
        const int hi = bsz * (s + 1) / shards;
        std::optional<tensor::ParamSubstitutionScope> scope;
        if (s > 0) {
          auto& shadow = shadows[s];
          if (shadow.empty()) {
            shadow.reserve(params.size());
            for (const auto& p : params)
              shadow.push_back(p.Clone(/*requires_grad=*/true));
          } else {
            for (size_t i = 0; i < params.size(); ++i) {
              shadow[i].data() = params[i].data();
              shadow[i].ZeroGrad();
            }
          }
          scope.emplace(params, shadow);
        }
        double loss_sum = 0.0;
        for (int e = lo; e < hi; ++e) {
          // Per-example tape on this thread's arena. Parameters and shadows
          // were created outside any scope, so their grad buffers (the
          // cross-example accumulators) stay heap.
          tensor::ArenaScope arena_scope;
          const Prepared& p = batch[e];
          Tensor rep = Represent(p.user, p.history);            // [1, d]
          Tensor cand = out_items_->Forward(p.cand.ids);        // [n, d]
          Tensor logits =
              tensor::MatMul(cand, tensor::Transpose(rep));     // [n, 1]
          Tensor targets = Tensor::FromData(
              static_cast<int>(p.cand.ids.size()), 1, p.cand.labels);
          Tensor loss = tensor::BceWithLogits(logits, targets);
          tensor::Backward(loss);
          loss_sum += loss.Item();
        }
        shard_loss[s] = loss_sum;
      }
    });

    // The batch's mean gradient: scale shard 0's live gradients by 1/B,
    // then add each shadow's in shard order (deterministic for a fixed
    // thread count). Scaling by 1/1 is the identity, so a batch of one
    // skips that pass.
    const float inv_batch = 1.0f / static_cast<float>(bsz);
    for (size_t i = 0; i < params.size(); ++i) {
      auto& node = *params[i].node();
      if (bsz > 1) {
        for (auto& g : node.grad) g *= inv_batch;
      }
      for (int s = 1; s < shards; ++s) {
        const auto& g = shadows[s][i].grad();
        if (g.empty()) continue;
        node.EnsureGrad();
        for (size_t j = 0; j < g.size(); ++j) node.grad[j] += g[j] * inv_batch;
      }
    }
    double norm = 0.0;
    if (!GuardedStep(*optimizer_, &norm)) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    if (measure) {
      auto& tm = TrainerMetrics();
      tm.optimizer_steps.Add();
      tm.grad_norm.Observe(norm);
      tm.step_seconds.Observe(step_sw.ElapsedSeconds());
    }
    for (int s = 0; s < shards; ++s) total_loss += shard_loss[s];
    count += bsz;
  }
  return count > 0 ? total_loss / count : 0.0;
}

namespace {

std::vector<std::vector<float>> SnapshotParams(
    const std::vector<Tensor>& params) {
  std::vector<std::vector<float>> snap;
  snap.reserve(params.size());
  for (const auto& p : params)
    snap.emplace_back(p.data().begin(), p.data().end());
  return snap;
}

void RestoreParams(std::vector<Tensor>& params,
                   const std::vector<std::vector<float>>& snap) {
  CAUSER_CHECK(params.size() == snap.size());
  for (size_t i = 0; i < params.size(); ++i)
    params[i].data().assign(snap[i].begin(), snap[i].end());
}

}  // namespace

namespace {

bool AllFinite(const std::vector<Tensor>& params) {
  for (const auto& p : params) {
    for (float v : p.data()) {
      if (!std::isfinite(v)) return false;
    }
  }
  return true;
}

}  // namespace

FitResult Fit(SequentialRecommender& model, const data::Split& split,
              const TrainConfig& config) {
  FitResult result;
  auto& hm = HealthMetrics();  // registers the group even when disabled
  auto scorer = MakeScorer(model);
  auto params = model.Parameters();
  FitResumeState st;
  trace::TraceSpan fit_span("train.fit", "trainer");

  if (config.resume && config.checkpoint_restore &&
      config.checkpoint_restore(&st)) {
    model.OnParametersRestored();
    CAUSER_LOG(Info) << model.name() << " resumed at epoch "
                     << st.next_epoch;
  }
  if (metrics::Enabled()) hm.lr_scale.Set(st.lr_scale);

  int epoch = st.next_epoch;
  bool stop = false;
  while (epoch < config.max_epochs && !stop) {
    trace::TraceSpan epoch_span("train.epoch", "trainer");
    epoch_span.AddArg("epoch", epoch);
    const bool measure = metrics::Enabled();
    Stopwatch epoch_sw;
    double loss = model.TrainEpoch(split.train);
    if (measure) {
      auto& tm = TrainerMetrics();
      tm.epochs.Add();
      tm.epoch_loss.Set(loss);
      tm.epoch_seconds.Observe(epoch_sw.ElapsedSeconds());
    }
    epoch_span.AddArg("loss", loss);

    // Numeric-health sentinel: a non-finite loss (the trainers bail out
    // with NaN on an exploded gradient) or non-finite parameters void the
    // epoch. Roll back to the last good checkpoint at half the learning
    // rate; give up after health_max_retries rollbacks (or with no
    // checkpoint to return to).
    if (config.health_check && (!std::isfinite(loss) || !AllFinite(params))) {
      if (measure) hm.nonfinite.Add();
      if (config.checkpoint_restore &&
          result.health_rollbacks < config.health_max_retries) {
        FitResumeState recovered;
        if (config.checkpoint_restore(&recovered)) {
          // Halve relative to the attempt that just failed, not to the
          // restored checkpoint (whose optimizer state carries its own
          // baked-in scale): consecutive rollbacks keep compounding.
          const double target = st.lr_scale * 0.5;
          model.OnParametersRestored();
          model.ScaleLearningRate(
              static_cast<float>(target / recovered.lr_scale));
          recovered.lr_scale = target;
          st = std::move(recovered);
          ++result.health_rollbacks;
          if (measure) {
            hm.rollbacks.Add();
            hm.lr_scale.Set(st.lr_scale);
          }
          CAUSER_LOG(Warning)
              << model.name() << " non-finite state at epoch " << epoch
              << "; rolled back to epoch " << st.next_epoch
              << " at lr scale " << st.lr_scale;
          epoch = st.next_epoch;
          continue;
        }
      }
      CAUSER_LOG(Error) << model.name() << " non-finite state at epoch "
                        << epoch << " and no checkpoint to roll back to "
                        << "(or retries exhausted); stopping";
      result.stopped_unhealthy = true;
      break;
    }

    st.epoch_losses.push_back(loss);
    const auto& val =
        split.validation.empty() ? split.test : split.validation;
    eval::EvalResult ev = eval::Evaluate(scorer, val, config.eval_z);
    if (config.verbose) {
      CAUSER_LOG(Info) << model.name() << " epoch " << epoch << " loss "
                       << loss << " val NDCG@" << config.eval_z << " "
                       << ev.ndcg;
    }
    if (epoch + 1 >= config.min_epochs) {
      if (ev.ndcg > st.best_ndcg) {
        st.best_ndcg = ev.ndcg;
        st.best_snapshot = SnapshotParams(params);
        st.stale = 0;
        if (measure) TrainerMetrics().best_validation_ndcg.Set(st.best_ndcg);
      } else if (++st.stale > config.patience) {
        stop = true;
      }
    }
    ++epoch;
    st.next_epoch = epoch;
    if (config.checkpoint_save && epoch % config.checkpoint_every == 0) {
      if (!config.checkpoint_save(st)) {
        CAUSER_LOG(Warning) << "checkpoint save failed at epoch " << epoch
                            << "; training continues";
      } else if (fault::ShouldFail("trainer.crash_after_checkpoint")) {
        // Simulated hard kill for the crash-resume tests: abandon the run
        // right after the checkpoint hits disk, without restoring the
        // best snapshot — exactly what SIGKILL would leave behind.
        CAUSER_LOG(Warning) << "fault injection: simulated crash after "
                            << "checkpoint at epoch " << epoch;
        result.epochs_run = static_cast<int>(st.epoch_losses.size());
        result.epoch_losses = std::move(st.epoch_losses);
        result.best_validation_ndcg = std::max(st.best_ndcg, 0.0);
        return result;
      }
    }
  }
  result.epochs_run = static_cast<int>(st.epoch_losses.size());
  result.epoch_losses = std::move(st.epoch_losses);
  fit_span.AddArg("epochs", result.epochs_run);
  if (!st.best_snapshot.empty()) {
    RestoreParams(params, st.best_snapshot);
    model.OnParametersRestored();
  }
  result.best_validation_ndcg = std::max(st.best_ndcg, 0.0);
  return result;
}

eval::Scorer MakeScorer(SequentialRecommender& model) {
  return [&model](const data::EvalInstance& inst) {
    return model.ScoreAll(inst.user, inst.history);
  };
}

}  // namespace causer::models
