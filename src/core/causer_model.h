#ifndef CAUSER_CORE_CAUSER_MODEL_H_
#define CAUSER_CORE_CAUSER_MODEL_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/cluster_graph.h"
#include "core/clustering.h"
#include "models/recommender.h"
#include "nn/attention.h"
#include "nn/linear.h"
#include "nn/rnn_cells.h"

namespace causer::core {

/// Recurrent backbone choice for g in Eq. 10.
enum class Backbone { kGru, kLstm };

/// Which relevance signal an explanation uses (Section V-E). In the
/// paper's notation the per-step relevance of history step t for target
/// item b is the product Ŵ_tb · α_t — the global total causal effect
/// times the local bilinear attention:
///   kFull      — α_t · Ŵ_tb (the complete Causer explanation)
///   kCausal    — Ŵ_tb only (the -att variant's explanation)
///   kAttention — α_t only (the -causal variant's explanation)
enum class ExplainMode { kFull, kCausal, kAttention };

/// All Causer hyper-parameters (Table III ranges; defaults tuned for the
/// scaled-down synthetic datasets).
struct CauserConfig {
  models::ModelConfig base;

  /// Number of latent clusters K.
  int num_clusters = 8;
  /// Assignment softmax temperature eta.
  float eta = 0.5f;
  /// Causal filter threshold epsilon in Eq. 10.
  float epsilon = 0.25f;
  /// L1 sparsity coefficient lambda on W^c.
  float lambda = 0.002f;
  /// Encoder hidden width d1 (Eq. 6).
  int encoder_hidden = 16;
  /// Cluster/embedding dimension d2 (encoder output; also the RNN input).
  int cluster_dim = 16;

  Backbone backbone = Backbone::kGru;

  /// Adds a learned per-user affinity term u_k . e_b to every score (the
  /// explicit u_k conditioning of Eq. 10). Off by default: on the scaled
  /// datasets the memorized affinity shortcut starves the sequential path
  /// of gradient and hurts generalization (see DESIGN.md).
  bool use_user_embedding = false;

  /// Adds a free per-item input embedding to the encoder output of Eq. 6,
  /// giving the backbone collaborative capacity beyond the raw features
  /// (part of the paper's Theta_e item-embedding parameters). Off by
  /// default; see DESIGN.md "Known improvement directions".
  bool use_free_input_embedding = false;

  // Ablation switches (Table V variants).
  bool use_clustering_loss = true;     ///< false = Causer(-clus)
  bool use_reconstruction_loss = true; ///< false = Causer(-rec)
  bool use_attention = true;           ///< false = Causer(-att)
  bool use_causal = true;              ///< false = Causer(-causal)

  // Augmented Lagrangian schedule (Algorithm 1) on the acyclicity
  // residual h(W^c) = tr(e^{W∘W}) − K. Paper-symbol correspondence (the
  // paper's β₁/β₂ are the standard NOTEARS α/ρ, see causal/notears.h):
  //   β₁ — Lagrange multiplier      (NOTEARS α; exported as notears.alpha)
  //   β₂ — quadratic penalty coeff. (NOTEARS ρ; exported as notears.rho)
  //   κ₁ — multiplicative growth of β₂ while h stalls
  //   κ₂ — residual shrink factor h must beat to avoid β₂ growth
  float beta1_init = 0.0f;   ///< initial multiplier β₁
  float beta2_init = 0.25f;  ///< initial penalty coefficient β₂
  float kappa1 = 1.5f;       ///< penalty growth κ₁ (> 1)
  float beta2_max = 4.0f;    ///< cap on β₂ (bounds the penalty stiffness)
  float kappa2 = 0.9f;       ///< required residual shrink κ₂ (< 1)

  /// Epochs to train the backbone before W^c starts updating. Until the
  /// representations align (positive items score positively), the BCE
  /// gradient on the multiplicative What factor is biased downward and
  /// would collapse the graph to the trivial empty DAG.
  int graph_warmup_epochs = 1;
  /// Auxiliary (clustering + reconstruction) optimization steps per epoch.
  int aux_steps_per_epoch = 15;
  /// Graph/cluster parameters are updated only every `w_update_every`
  /// epochs (Section III-C efficiency mode; 1 = always).
  int w_update_every = 1;
  /// Direct gradient steps of the per-epoch W^c subproblem.
  int graph_inner_steps = 60;
  /// Learning rate for W^c (higher than the main rate: the graph receives
  /// few, heavily averaged updates per epoch).
  float graph_learning_rate = 0.05f;
  /// Weight of the cluster-level next-step likelihood that anchors W^c to
  /// the data (the sequence analog of NOTEARS' regression term): predict
  /// the observed item's cluster from the history's cluster activations
  /// through W^c. The DAG and L1 penalties then orient and prune it.
  float graph_data_weight = 1.0f;
};

/// Causer: causality-enhanced sequential recommendation (the paper's core
/// contribution). For each candidate item b, causally irrelevant history
/// items (item-level W[v][b] <= epsilon, W = A W^c A^T) are filtered out
/// before the recurrent encoder; surviving hidden states are combined with
/// weights alpha_t (local bilinear attention) * What_tb (global total
/// causal effect), adapted by V and scored against the independent item
/// embedding e_b (Eq. 10). W^c is learned jointly under the NOTEARS
/// acyclicity constraint via the augmented Lagrangian (Eq. 11/Algorithm 1).
class CauserModel : public models::SequentialRecommender {
 public:
  explicit CauserModel(const CauserConfig& config);

  std::string name() const override;

  /// The serve fold: the truncated history folded from its first step into
  /// groups of candidates whose causal filters keep the same items, each
  /// group encoded once by raw backbone cell steps and scored together on
  /// raw buffers (docs/PERFORMANCE.md, "Online serving"). Builds no tape
  /// node once the caches are fresh. ScoreCandidate is its reference.
  std::vector<float> ScoreAll(int user,
                              const std::vector<data::Step>& history) override;

  /// Eq. 10 for the one candidate `item`, on its own: the truncated history
  /// filtered by the item's causal filter and encoded by the backbone on
  /// the tape. This is the forward TrainEpoch trains, and the reference
  /// that ScoreAll's grouped fold reproduces bit for bit.
  float ScoreCandidate(int user, const std::vector<data::Step>& history,
                       int item);

  double TrainEpoch(const std::vector<data::Sequence>& train) override;
  void OnParametersRestored() override;

  /// Causer's resume state on top of the base RNG stream: the two Adam
  /// optimizers, the augmented-Lagrangian multipliers, the epoch counter
  /// (which gates warm-up and slow-update scheduling) and the frozen-graph
  /// flag. With the parameters this makes a resume bit-identical.
  void SaveTrainingState(std::string* out) const override;
  bool LoadTrainingState(serial::Reader& in) override;
  void ScaleLearningRate(float factor) override;

  /// Per-history-step explanation scores for recommending `item` after
  /// `instance.history` (higher = more causal). Length = history size.
  std::vector<double> ExplainScores(const data::EvalInstance& instance,
                                    int item, ExplainMode mode);

  /// Section III-C "prior knowledge" mode: pre-fits the clustering (from
  /// the item features) and the cluster graph (from the training
  /// sequences' cluster transitions under the DAG constraint), then
  /// freezes both so TrainEpoch only updates the sequential parameters.
  /// `rounds` controls how many clustering/graph alternations run.
  void PretrainAndFreezeGraph(const std::vector<data::Sequence>& train,
                              int rounds = 8);

  /// True after PretrainAndFreezeGraph.
  bool graph_frozen() const { return graph_frozen_; }

  /// The learned cluster graph, binarized at the filter threshold.
  causal::Graph LearnedClusterGraph() const;

  /// Current acyclicity residual of W^c.
  double AcyclicityResidual() const;

  /// Item-level causal weight W[a][b] under the current parameters.
  float ItemCausalWeight(int a, int b);

  const ItemClusterer& clusterer() const { return *clusterer_; }
  const ClusterCausalGraph& cluster_graph() const { return *graph_; }
  const CauserConfig& causer_config() const { return causer_config_; }

 private:
  /// One candidate's Eq. 10 forward (ForwardCandidate).
  struct CandidateForward {
    nn::Tensor logit;             // [1, 1]; 0 when the history has no items
    nn::Tensor alpha;             // [T, 1] attention alpha_t
    nn::Tensor what;              // [T, 1] total causal effects What_tb
    std::vector<int> step_index;  // history index per state row
  };

  struct ServeState;

  /// Recomputes the per-epoch caches (assignments, item-level W and the
  /// per-item step inputs).
  void RefreshCaches();
  void EnsureCaches();

  /// Eq. 10 for one candidate on the tape: filters the (truncated)
  /// `history` by b's causal filter, falling back to the unfiltered history
  /// with What = 1 when it keeps nothing, runs the backbone over the kept
  /// steps, pools the states by alpha_t * What_tb and scores the adapted
  /// representation plus the user embedding against e_b. TrainEpoch,
  /// ScoreCandidate and ExplainScores all run this forward.
  CandidateForward ForwardCandidate(const std::vector<data::Step>& history,
                                    int user, int candidate);

  /// Runs the backbone over explicit per-step item lists.
  nn::Tensor RunBackbone(const std::vector<std::vector<int>>& step_items);

  /// One backbone input row for a step's item list (encoder output, plus
  /// the optional free input embedding, mean-pooled over the items), on
  /// the tape: ForwardCandidate's input. The serve fold reads the same
  /// rows from step_input_cache_.
  nn::Tensor StepInput(const std::vector<int>& items);

  /// Appends one row to the serve fold's tree: a raw backbone cell step
  /// over the items state.kept[kept_begin, end) from row `parent`'s state
  /// (-1: the initial state), and returns the new row. Its input is the
  /// step_input_cache_ row of a one-item step, or the mean of the items'
  /// rows computed as StepInput's SumCols and ScalarMul do, so the state
  /// matches the corresponding chained RunBackbone step float for float.
  int BackboneStep(ServeState& state, int parent, int kept_begin);

  /// Scores the g_size candidates `members` of one group, encoded by the
  /// chain of rows ending at `last`: ForwardCandidate's StepWeights,
  /// pooling and scoring for every member at once, on raw buffers, with
  /// `user`'s embedding added to the adapted reps. `weighted` sums What
  /// from each row's kept items; false means What = 1 (the fallback
  /// group, and every candidate with use_causal off). Writes out[b].
  void ScoreGroup(ServeState& state, int last, bool weighted,
                  const int* members, int g_size, int user, float* out);

  /// Folds one non-empty window step's `items` into ScoreAll's fold:
  /// advances the unfiltered encoding, then splits every group by the
  /// keep-mask of the step's items under its candidates' filters: those
  /// that keep nothing stay, the others move to one child group per mask,
  /// each one cell step longer. The only code that assigns candidates to
  /// groups; with use_causal off all of them stay in the fallback group.
  void AdvanceGroups(ServeState& state, const std::vector<int>& items);

  /// Attention weights over the encoded states: [T, 1]. ForwardCandidate
  /// only; ScoreGroup computes the same weights off the tape.
  nn::Tensor StepWeights(const nn::Tensor& states);

  CauserConfig causer_config_;
  std::unique_ptr<ItemClusterer> clusterer_;
  std::unique_ptr<ClusterCausalGraph> graph_;
  std::unique_ptr<nn::GruCell> gru_;
  std::unique_ptr<nn::LstmCell> lstm_;
  std::unique_ptr<nn::BilinearAttention> attention_;
  std::unique_ptr<nn::Linear> adapt_;  // the paper's V matrix
  std::unique_ptr<nn::Embedding> out_items_;  // e_b
  std::unique_ptr<nn::Embedding> users_;      // u_k conditioning (Eq. 10)
  std::unique_ptr<nn::Embedding> input_items_;  // optional free inputs

  std::unique_ptr<nn::Adam> opt_main_;
  std::unique_ptr<nn::Adam> opt_aux_;

  AugmentedLagrangian lagrangian_;
  int epoch_ = 0;

  /// Records one (history cluster-activation, next-item cluster) pair for
  /// this epoch's W^c subproblem.
  void RecordTransition(const std::vector<data::Step>& history,
                        int positive_item);

  /// Solves the per-epoch W^c subproblem: cluster-level next-step
  /// cross-entropy (the sequence analog of NOTEARS' regression term) plus
  /// L1 and the augmented-Lagrangian DAG penalty, by direct projected
  /// gradient steps with proximal L1. Updates the multipliers afterwards.
  void FitClusterGraph();

  bool graph_frozen_ = false;
  /// Guards the cache refresh when ScoreAll runs concurrently on the
  /// parallel evaluator's workers (training itself stays single-threaded
  /// at the example level for Causer).
  std::mutex cache_mu_;
  bool caches_stale_ = true;
  std::vector<float> w_cache_;       // item-level W, row-major [V * V]
  std::vector<float> assign_cache_;  // soft assignments, row-major [V * K]
  /// StepInput({b}) per item, row-major [V * cluster_dim].
  std::vector<float> step_input_cache_;
  std::vector<float> epoch_sources_;  // per-transition history activations
  std::vector<float> epoch_targets_;  // per-transition target assignments
};

}  // namespace causer::core

#endif  // CAUSER_CORE_CAUSER_MODEL_H_
