#ifndef CAUSER_MODELS_RECOMMENDER_H_
#define CAUSER_MODELS_RECOMMENDER_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/serial.h"
#include "data/dataset.h"
#include "data/sampler.h"
#include "data/split.h"
#include "eval/evaluator.h"
#include "nn/embedding.h"
#include "nn/module.h"
#include "nn/optimizer.h"
#include "tensor/quant.h"

namespace causer::models {

/// Training-loop instruments (see docs/OBSERVABILITY.md), shared by the
/// baseline training loops here and core::CauserModel's epoch loop.
/// Registered together on first touch.
struct TrainerMetricsT {
  metrics::Counter& epochs;            ///< trainer.epochs_total
  metrics::Counter& optimizer_steps;   ///< trainer.optimizer_steps_total
  metrics::Gauge& epoch_loss;          ///< trainer.epoch_loss
  metrics::Gauge& best_validation_ndcg;  ///< trainer.best_validation_ndcg
  metrics::Histogram& epoch_seconds;   ///< trainer.epoch_seconds
  metrics::Histogram& step_seconds;    ///< trainer.step_seconds
  metrics::Histogram& grad_norm;       ///< trainer.grad_norm
};

/// The shared instrument group (function-local static registration).
TrainerMetricsT& TrainerMetrics();

/// Fault-tolerance instruments (see docs/ROBUSTNESS.md): the numeric-health
/// sentinel and the checkpoint/resume machinery. Registered together when
/// Fit() first runs.
struct HealthMetricsT {
  metrics::Counter& nonfinite;    ///< trainer.health.nonfinite_total
  metrics::Counter& rollbacks;    ///< trainer.health.rollbacks_total
  metrics::Gauge& lr_scale;       ///< trainer.health.lr_scale
  metrics::Counter& checkpoint_writes;   ///< trainer.checkpoint.writes_total
  metrics::Counter& checkpoint_resumes;  ///< trainer.checkpoint.resumes_total
};

/// The shared fault-tolerance instrument group.
HealthMetricsT& HealthMetrics();

/// Hyper-parameters shared by all models in the comparison suite. Sized for
/// single-core CPU training on the scaled-down datasets.
struct ModelConfig {
  int num_users = 0;
  int num_items = 0;
  int embedding_dim = 16;
  int hidden_dim = 16;
  /// Negative samples per training example (sigmoid + negative sampling,
  /// the paper's Section II-A training scheme).
  int num_negatives = 5;
  /// History is truncated to the most recent `max_history` steps.
  int max_history = 12;
  float learning_rate = 0.01f;
  float grad_clip = 5.0f;
  /// Examples per optimizer step: RepresentationModel training accumulates
  /// the mean gradient of up to `batch_size` examples before one guarded
  /// clip + Step. The batch is scored in shards on the shared pool when
  /// DefaultThreads() > 1: shard 0 backpropagates into the parameters
  /// themselves, every further shard into a private parameter copy. 1 (the
  /// default) is one step per example, on the calling thread, with no copy.
  int batch_size = 1;
  uint64_t seed = 7;
  /// Item raw features (needed by VTRNN / MMSARec / Causer); may be null.
  const std::vector<std::vector<float>>* item_features = nullptr;
};

/// One user's serving session (see docs/PERFORMANCE.md, "A session is its
/// window"): the user and the last <= max_history appended steps, which is
/// all of the history ScoreAll can see (it truncates). Plain data, so it
/// outlives any model: every score folds the window from its first step,
/// and no model keeps an encoding of it. serve::SessionStore keeps one per
/// active user.
struct SessionState {
  int user = 0;
  std::vector<data::Step> window;
};

/// Interface of every recommender in the comparison suite (Table IV).
/// Inherits the nn::Module parameter registry so the trainer can snapshot
/// and restore weights for early stopping.
class SequentialRecommender : public nn::Module {
 public:
  explicit SequentialRecommender(const ModelConfig& config)
      : config_(config), rng_(config.seed) {}

  /// Display name, e.g. "GRU4Rec".
  virtual std::string name() const = 0;

  /// Scores every item given the user's history (inference; higher =
  /// more likely to be the next interaction).
  virtual std::vector<float> ScoreAll(
      int user, const std::vector<data::Step>& history) = 0;

  /// One shuffled pass over the training sequences; returns mean loss.
  virtual double TrainEpoch(const std::vector<data::Sequence>& train) = 0;

  /// Hook invoked by Fit() after restoring the best parameter snapshot;
  /// models with derived caches (Causer's item-level W) invalidate them.
  /// The base drops the cached quantized item table — overrides should
  /// call it (or InvalidateQuantizedItemTable) on top of their own work.
  virtual void OnParametersRestored() { InvalidateQuantizedItemTable(); }

  /// Appends the model's training-resume state to `out`: everything beyond
  /// the parameters that the next epoch depends on. The base class covers
  /// the RNG stream (shuffle + negative sampling); overrides append their
  /// optimizer moments and schedule counters on top. Together with the
  /// parameters this makes a checkpointed resume bit-identical to an
  /// uninterrupted run (core/checkpoint.h).
  virtual void SaveTrainingState(std::string* out) const;

  /// Restores state written by SaveTrainingState. Overrides call the base
  /// first (same order as SaveTrainingState) and must leave derived caches
  /// invalidated. Returns false on a short or wrong-architecture blob;
  /// callers treat the model as invalid in that case.
  virtual bool LoadTrainingState(serial::Reader& in);

  /// Multiplies every optimizer learning rate by `factor` — the numeric-
  /// health sentinel's post-rollback halving. Base: no-op (models without
  /// an optimizer handle simply retry at the same rate).
  virtual void ScaleLearningRate(float factor);

  // -- Session serving API (docs/PERFORMANCE.md, "Online serving") ------
  // A session is its window: AdvanceState appends, and every score is a
  // fold of the window from its first step, with the model's ScoreAll
  // floats at every thread count. Gru4Rec's ScoreAll encodes on the tape
  // and its StateRep folds raw cell steps; CauserModel's ScoreAll is the
  // grouped serve fold, with CauserModel::ScoreCandidate, the
  // per-candidate forward training runs, as its independent reference.

  /// Appends one interaction to the state's window, dropping the oldest
  /// step once the window holds more than config_.max_history. No model
  /// work.
  void AdvanceState(SessionState& state, const data::Step& step) const;

  /// Scores every item from the session: ScoreAll over its window.
  std::vector<float> ScoreFromState(const SessionState& state) {
    return ScoreAll(state.user, state.window);
  }

  /// Batched-GEMM hook: writes the state's scoring representation (the
  /// [1, d] vector whose inner products with OutputItemTable() rows are the
  /// ScoreFromState outputs) into `out` and returns true. Models whose
  /// scoring is not a single inner product — or states with nothing to
  /// represent yet (empty history) — return false, and the serving engine
  /// falls back to ScoreFromState for that request. Base: false.
  virtual bool StateRep(const SessionState& state, float* out);

  /// The [num_items, d] output embedding table StateRep representations are
  /// scored against, or nullptr when the model has no single-GEMM scoring
  /// form. Base: nullptr.
  virtual const nn::Tensor* OutputItemTable() const;

  /// Symmetric per-row int8 quantization of OutputItemTable() for the
  /// serving engine's `--quantize=int8` path (tensor/quant.h), built with
  /// one absmax calibration pass on first call and cached on the model so
  /// every engine over the same model shares it. Returns nullptr when the
  /// model has no single-GEMM form or the table holds non-finite values
  /// (the engine then stays on fp32). The cache snapshots the weights at
  /// build time and training never consults it; after any parameter
  /// change (Fit's best-snapshot restore, checkpoint load), the next
  /// OnParametersRestored() — or an explicit InvalidateQuantizedItemTable()
  /// — drops it so the next call recalibrates.
  const tensor::QuantizedMatrix* QuantizedItemTable();

  /// Drops the cached quantized table (see QuantizedItemTable()).
  void InvalidateQuantizedItemTable();

  const ModelConfig& config() const { return config_; }

  /// Index of the first step of `history` inside the model's window, the
  /// most recent config_.max_history steps: the one truncation rule.
  size_t WindowStart(const std::vector<data::Step>& history) const {
    const size_t cap = static_cast<size_t>(config_.max_history);
    return history.size() > cap ? history.size() - cap : 0;
  }

 protected:
  /// Truncates history to the most recent config_.max_history steps.
  std::vector<data::Step> Truncate(
      const std::vector<data::Step>& history) const;

  /// A training example's scored candidates and their BCE targets.
  struct Candidates {
    std::vector<int> ids;
    std::vector<float> labels;
  };

  /// The positives (label 1), then min(num_negatives, items left)
  /// negatives drawn from rng_ (label 0): the paper's sigmoid loss over
  /// positives and sampled negatives (Section II-A).
  Candidates SampleCandidates(const std::vector<int>& positives);

  /// The one guarded optimizer step: clips `opt`'s gradients to
  /// config_.grad_clip, then steps unless the pre-clip norm is non-finite,
  /// so an exploded gradient never reaches the parameters. Returns false
  /// (no step taken) on a non-finite norm; training loops then end the
  /// epoch with a NaN loss, which sends Fit() to its checkpoint rollback.
  /// `norm`, when given, receives the pre-clip norm.
  bool GuardedStep(nn::Optimizer& opt, double* norm = nullptr);

  ModelConfig config_;
  Rng rng_;

 private:
  /// Lazily built by QuantizedItemTable(); null and not-yet-built states
  /// are distinguished so a failed quantization is not retried per batch.
  std::unique_ptr<tensor::QuantizedMatrix> quant_table_;
  bool quant_table_built_ = false;
};

/// Base for models that reduce a history to a single representation vector
/// and score items by inner product with an output item embedding. Supplies
/// the BCE + negative-sampling training loop and full-catalog scoring; the
/// derived model only provides Represent().
class RepresentationModel : public SequentialRecommender {
 public:
  explicit RepresentationModel(const ModelConfig& config);

  std::vector<float> ScoreAll(int user,
                              const std::vector<data::Step>& history) override;
  /// Mini-batches of config_.batch_size examples, one guarded step each.
  /// Reproducible for a fixed thread count (the shard count sets the
  /// gradient reduce order); at batch_size 1 every thread count gives the
  /// same bits.
  double TrainEpoch(const std::vector<data::Sequence>& train) override;
  void SaveTrainingState(std::string* out) const override;
  bool LoadTrainingState(serial::Reader& in) override;
  void ScaleLearningRate(float factor) override;

 protected:
  /// Maps (user, truncated history) to a [1, embedding_dim] representation.
  /// `history` is non-empty.
  virtual nn::Tensor Represent(int user,
                               const std::vector<data::Step>& history) = 0;

  /// Mean of the item embeddings of one step (the paper's multi-hot input
  /// handling): [1, dim].
  nn::Tensor StepEmbedding(const nn::Embedding& emb,
                           const data::Step& step) const;

  /// Tape-free StepEmbedding into out [emb.dim()], with its floats: the
  /// row itself for one item, else the zero-seeded sum of the rows in item
  /// order scaled by 1/k.
  void StepEmbeddingRow(const nn::Embedding& emb, const data::Step& step,
                        float* out) const;

  /// Must be called at the end of the derived constructor, after all
  /// parameters are registered.
  void FinalizeOptimizer();

  /// Output (scoring) item embeddings e_b.
  std::unique_ptr<nn::Embedding> out_items_;

 private:
  std::unique_ptr<nn::Adam> optimizer_;
};

/// The Fit() loop's complete resume state: the epoch cursor plus the
/// early-stopping bookkeeping. Checkpoints bundle this next to the model
/// parameters and training state so a resumed run makes the same stop/
/// snapshot decisions an uninterrupted one would.
struct FitResumeState {
  /// First epoch the loop has not completed yet.
  int next_epoch = 0;
  double best_ndcg = -1.0;
  /// Epochs since the last validation improvement.
  int stale = 0;
  std::vector<double> epoch_losses;
  /// Parameter snapshot behind best_ndcg (empty before min_epochs).
  std::vector<std::vector<float>> best_snapshot;
  /// Cumulative sentinel learning-rate scale baked into the optimizer
  /// state at checkpoint time (1.0 until a rollback halves it). Persisted
  /// so rollback halvings compound correctly across restores.
  double lr_scale = 1.0;
};

/// Training configuration for Fit().
struct TrainConfig {
  int max_epochs = 8;
  /// Early stopping: epochs without validation NDCG improvement.
  int patience = 2;
  /// Epochs before early-stopping bookkeeping begins (no snapshots, no
  /// patience countdown). Used by models with staged training (Causer's
  /// graph warm-up) whose early epochs would otherwise win the snapshot.
  int min_epochs = 0;
  int eval_z = 5;
  bool verbose = false;

  // -- Fault tolerance (docs/ROBUSTNESS.md) -------------------------------
  /// Persists the model + FitResumeState after an epoch; installed by
  /// core::InstallCheckpointHooks. Null disables checkpointing. A failed
  /// save is logged and training continues (availability over durability).
  std::function<bool(const FitResumeState&)> checkpoint_save;
  /// Restores the newest loadable checkpoint into the model and `*state`;
  /// used at startup when `resume` is set and by the health sentinel's
  /// rollback. Returns false when nothing loadable exists.
  std::function<bool(FitResumeState*)> checkpoint_restore;
  /// Epochs between checkpoint_save calls.
  int checkpoint_every = 1;
  /// Call checkpoint_restore before the first epoch.
  bool resume = false;
  /// Per-epoch numeric-health sentinel: scan the epoch loss and every
  /// parameter for non-finite values; on a trip, roll back to the last
  /// good checkpoint and halve the learning rate.
  bool health_check = true;
  /// Rollbacks allowed before the sentinel gives up and stops training.
  int health_max_retries = 3;
};

/// Outcome of Fit().
struct FitResult {
  /// Total epochs of the logical run — including epochs replayed from a
  /// resumed checkpoint's history, excluding epochs voided by a rollback.
  int epochs_run = 0;
  double best_validation_ndcg = 0.0;
  std::vector<double> epoch_losses;
  /// Health-sentinel rollbacks performed (each halved the LR).
  int health_rollbacks = 0;
  /// True when training stopped because the sentinel ran out of retries
  /// (or had no checkpoint to roll back to).
  bool stopped_unhealthy = false;
};

/// Trains `model` on split.train with early stopping on split.validation
/// NDCG@eval_z, restoring the best parameters before returning.
FitResult Fit(SequentialRecommender& model, const data::Split& split,
              const TrainConfig& config = {});

/// Adapts a model to the evaluator's Scorer interface.
eval::Scorer MakeScorer(SequentialRecommender& model);

}  // namespace causer::models

#endif  // CAUSER_MODELS_RECOMMENDER_H_
