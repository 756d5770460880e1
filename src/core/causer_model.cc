#include "core/causer_model.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "causal/acyclicity.h"
#include "causal/notears.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "data/sampler.h"
#include "tensor/autograd.h"
#include "tensor/ops.h"

namespace causer::core {

using nn::Tensor;

namespace {

/// Causer graph instruments (see docs/OBSERVABILITY.md), registered
/// together on first touch. The NOTEARS-shared gauges (rho/alpha/h) live in
/// causal::NotearsMetrics() since the W^c subproblem reuses that machinery.
struct CauserMetricsT {
  metrics::Counter& graph_updates;  ///< causer.graph_updates_total
  metrics::Gauge& graph_edges;      ///< causer.graph_edges
  metrics::Counter& rho_capped;     ///< causer.notears.rho_capped_total
};

CauserMetricsT& CauserMetrics() {
  static CauserMetricsT m{
      metrics::GetCounter(
          "causer.graph_updates_total", "updates",
          "FitClusterGraph solves (per-epoch W^c subproblems)."),
      metrics::GetGauge(
          "causer.graph_edges", "edges",
          "Edges of the learned cluster graph above the epsilon threshold."),
      metrics::GetCounter(
          "causer.notears.rho_capped_total", "updates",
          "Multiplier updates where the beta2_max cap bound the NOTEARS "
          "rho escalation."),
  };
  return m;
}

/// Eq. 9's total effect What_{t,b} of one history step on candidate b: the
/// zero-seeded sum of W[a][b] over the step's kept items a, in kept order.
/// `w` is the row-major [v * v] item-level matrix.
float WhatSum(const std::vector<float>& w, int v, const std::vector<int>& kept,
              int b) {
  float what = 0.0f;
  for (int a : kept) what += w[static_cast<size_t>(a) * v + b];
  return what;
}

}  // namespace

CauserModel::CauserModel(const CauserConfig& config)
    : models::SequentialRecommender(config.base),
      causer_config_(config),
      lagrangian_(config.beta1_init, config.beta2_init, config.kappa1,
                  config.kappa2, config.beta2_max) {
  CAUSER_CHECK(config.base.item_features != nullptr &&
               !config.base.item_features->empty());
  CAUSER_CHECK(config.num_clusters >= 2);

  clusterer_ = std::make_unique<ItemClusterer>(
      *config.base.item_features, config.num_clusters, config.encoder_hidden,
      config.cluster_dim, config.eta, rng_);
  graph_ = std::make_unique<ClusterCausalGraph>(config.num_clusters, rng_);
  if (config.backbone == Backbone::kGru) {
    gru_ = std::make_unique<nn::GruCell>(config.cluster_dim,
                                         config.base.hidden_dim, rng_);
  } else {
    lstm_ = std::make_unique<nn::LstmCell>(config.cluster_dim,
                                           config.base.hidden_dim, rng_);
  }
  attention_ =
      std::make_unique<nn::BilinearAttention>(config.base.hidden_dim, rng_);
  adapt_ = std::make_unique<nn::Linear>(config.base.hidden_dim,
                                        config.base.embedding_dim, rng_,
                                        /*with_bias=*/false);
  out_items_ = std::make_unique<nn::Embedding>(config.base.num_items,
                                               config.base.embedding_dim,
                                               rng_);
  // Zero-initialized so the untrained model matches the session-only
  // formulation; the affinity term grows only where the data supports it.
  users_ = std::make_unique<nn::Embedding>(config.base.num_users,
                                           config.base.embedding_dim, rng_,
                                           /*scale=*/0.0f);
  // Zero scale when disabled keeps both the behaviour and the random
  // stream identical to the feature-only formulation.
  input_items_ = std::make_unique<nn::Embedding>(
      config.base.num_items, config.cluster_dim, rng_,
      config.use_free_input_embedding ? 0.1f : 0.0f);

  RegisterModule(clusterer_.get());
  RegisterModule(graph_.get());
  if (gru_) RegisterModule(gru_.get());
  if (lstm_) RegisterModule(lstm_.get());
  RegisterModule(attention_.get());
  RegisterModule(adapt_.get());
  RegisterModule(out_items_.get());
  RegisterModule(users_.get());
  RegisterModule(input_items_.get());

  // Two parameter groups with independent Adam optimizers (Algorithm 1's
  // alternating updates + the Section III-C slow-update efficiency mode):
  // main = Theta_g, Theta_e, V, A; aux = Theta_a. W^c takes no tape
  // gradient: FitClusterGraph fits it by direct proximal steps.
  std::vector<Tensor> main_params;
  auto append = [&main_params](const nn::Module& m) {
    auto p = m.Parameters();
    main_params.insert(main_params.end(), p.begin(), p.end());
  };
  if (gru_) append(*gru_);
  if (lstm_) append(*lstm_);
  append(*attention_);
  append(*adapt_);
  append(*out_items_);
  append(*users_);
  if (config.use_free_input_embedding) append(*input_items_);
  opt_main_ =
      std::make_unique<nn::Adam>(main_params, config.base.learning_rate);
  opt_aux_ = std::make_unique<nn::Adam>(clusterer_->Parameters(),
                                        config.base.learning_rate);
}

std::string CauserModel::name() const {
  std::string n = causer_config_.backbone == Backbone::kGru ? "Causer (GRU)"
                                                            : "Causer (LSTM)";
  std::string ablations;
  if (!causer_config_.use_clustering_loss) ablations += "-clus,";
  if (!causer_config_.use_reconstruction_loss) ablations += "-rec,";
  if (!causer_config_.use_attention) ablations += "-att,";
  if (!causer_config_.use_causal) ablations += "-causal,";
  if (!ablations.empty()) {
    ablations.pop_back();
    n += " [" + ablations + "]";
  }
  return n;
}

void CauserModel::OnParametersRestored() {
  SequentialRecommender::OnParametersRestored();
  caches_stale_ = true;
}

void CauserModel::RefreshCaches() {
  tensor::NoGradGuard guard;
  // The assignment/item-level tensors ([V,K] and [V,V]) are pure scratch:
  // build them on the arena and keep only the flat heap copies below.
  tensor::ArenaScope arena_scope;
  Tensor assignments = clusterer_->AssignmentsAll();
  w_cache_ = graph_->ItemLevelMatrix(assignments);
  // Explicit element copy: the caches are plain heap vectors that outlive
  // any ArenaScope the refresh might run under.
  assign_cache_.assign(assignments.data().begin(), assignments.data().end());
  caches_stale_ = false;
}

void CauserModel::RecordTransition(const std::vector<data::Step>& history,
                                   int positive_item) {
  const int k = causer_config_.num_clusters;
  std::vector<float> s(k, 0.0f);
  float total = 0.0f;
  for (const auto& step : history) {
    for (int item : step.items) {
      const float* row = assign_cache_.data() + static_cast<size_t>(item) * k;
      for (int i = 0; i < k; ++i) {
        s[i] += row[i];
        total += row[i];
      }
    }
  }
  if (total <= 0.0f) return;
  for (auto& v : s) v /= total;
  const float* target =
      assign_cache_.data() + static_cast<size_t>(positive_item) * k;
  epoch_sources_.insert(epoch_sources_.end(), s.begin(), s.end());
  epoch_targets_.insert(epoch_targets_.end(), target, target + k);
}

void CauserModel::FitClusterGraph() {
  const int k = causer_config_.num_clusters;
  const int n = static_cast<int>(epoch_sources_.size()) / k;
  if (n == 0) return;
  trace::TraceSpan span("causer.fit_cluster_graph", "causal");
  span.AddArg("transitions", n);
  auto& node = *graph_->mutable_weights().node();
  const double lr = causer_config_.graph_learning_rate;
  const double shrink = lr * causer_config_.lambda;

  for (int step = 0; step < causer_config_.graph_inner_steps; ++step) {
    // Cross-entropy gradient of predicting the next cluster from the
    // history's cluster activations through W^c, averaged over the epoch's
    // transitions (the sequence analog of NOTEARS' regression term).
    std::vector<double> grad(static_cast<size_t>(k) * k, 0.0);
    std::vector<double> score(k), p(k);
    for (int t = 0; t < n; ++t) {
      const float* s = epoch_sources_.data() + static_cast<size_t>(t) * k;
      const float* target = epoch_targets_.data() + static_cast<size_t>(t) * k;
      std::fill(score.begin(), score.end(), 0.0);
      for (int i = 0; i < k; ++i) {
        if (s[i] == 0.0f) continue;
        const float* row = node.value.data() + static_cast<size_t>(i) * k;
        for (int j = 0; j < k; ++j) score[j] += s[i] * row[j];
      }
      double mx = score[0];
      for (int j = 1; j < k; ++j) mx = std::max(mx, score[j]);
      double z = 0.0;
      for (int j = 0; j < k; ++j) {
        p[j] = std::exp(score[j] - mx);
        z += p[j];
      }
      for (int j = 0; j < k; ++j) {
        double coef = p[j] / z - target[j];
        if (coef == 0.0) continue;
        for (int i = 0; i < k; ++i) {
          if (s[i] != 0.0f) grad[static_cast<size_t>(i) * k + j] += s[i] * coef;
        }
      }
    }
    const double data_scale = causer_config_.graph_data_weight / n;

    // Augmented-Lagrangian DAG penalty at the current multipliers.
    causal::Dense w = graph_->AsDense();
    double h = causal::AcyclicityValue(w);
    // Numeric-health guard: a non-finite residual means W^c already blew
    // up; more penalty steps only spread the damage. Leave the matrix for
    // the trainer's sentinel to roll back.
    if (!std::isfinite(h)) break;
    causal::Dense hg = causal::AcyclicityGradient(w);
    const double coeff = lagrangian_.beta1() + lagrangian_.beta2() * h;

    for (int i = 0; i < k; ++i) {
      for (int j = 0; j < k; ++j) {
        float& v = node.value[static_cast<size_t>(i) * k + j];
        v -= static_cast<float>(
            lr * (data_scale * grad[static_cast<size_t>(i) * k + j] +
                  coeff * hg(i, j)));
        // Proximal L1 keeps inactive entries at exactly zero.
        if (v > shrink) {
          v -= static_cast<float>(shrink);
        } else if (v < -shrink) {
          v += static_cast<float>(shrink);
        } else {
          v = 0.0f;
        }
      }
    }
    graph_->ClampNonNegative();
  }
  const bool rho_capped = lagrangian_.Update(graph_->AcyclicityResidual());
  if (metrics::Enabled()) {
    if (rho_capped) CauserMetrics().rho_capped.Add();
    // One FitClusterGraph call is one outer iteration (fixed multipliers,
    // then one multiplier update) over a single inner subproblem.
    auto& nm = causal::NotearsMetrics();
    nm.subproblems.Add();
    nm.inner_steps.Add(
        static_cast<uint64_t>(causer_config_.graph_inner_steps));
    nm.outer_iterations.Add();
    const double h = graph_->AcyclicityResidual();
    nm.h.Set(h);
    nm.alpha.Set(lagrangian_.beta1());
    nm.rho.Set(lagrangian_.beta2());
    CauserMetrics().graph_updates.Add();
    causal::Graph g = graph_->ThresholdedGraph(causer_config_.epsilon);
    int edges = 0;
    for (int i = 0; i < g.n(); ++i)
      for (int j = 0; j < g.n(); ++j) edges += g.Edge(i, j) ? 1 : 0;
    CauserMetrics().graph_edges.Set(edges);
    span.AddArg("h", h);
  }
  epoch_sources_.clear();
  epoch_targets_.clear();
}

void CauserModel::EnsureCaches() {
  // Serialized so the parallel evaluator's concurrent first ScoreAll calls
  // cannot refresh the caches twice; once fresh, callers only read them.
  std::lock_guard<std::mutex> lock(cache_mu_);
  if (caches_stale_ || w_cache_.empty()) RefreshCaches();
}

float CauserModel::ItemCausalWeight(int a, int b) {
  EnsureCaches();
  return w_cache_[static_cast<size_t>(a) * config_.num_items + b];
}

Tensor CauserModel::StepInput(const std::vector<int>& items) {
  Tensor rows = clusterer_->EncodeItems(items);  // [k, d2]
  if (causer_config_.use_free_input_embedding) {
    rows = tensor::Add(rows, input_items_->Forward(items));
  }
  return rows.rows() == 1 ? rows
                          : tensor::ScalarMul(tensor::SumCols(rows),
                                              1.0f / rows.rows());
}

Tensor CauserModel::RunBackbone(
    const std::vector<std::vector<int>>& step_items) {
  CAUSER_CHECK(!step_items.empty());
  std::vector<Tensor> states;
  states.reserve(step_items.size());
  if (gru_) {
    Tensor h = gru_->InitialState();
    for (const auto& items : step_items) {
      h = gru_->Forward(StepInput(items), h);
      states.push_back(h);
    }
  } else {
    nn::LstmState s = lstm_->InitialState();
    for (const auto& items : step_items) {
      s = lstm_->Forward(StepInput(items), s);
      states.push_back(s.h);
    }
  }
  return tensor::ConcatRows(states);
}

void CauserModel::BackboneStep(const std::vector<int>& items,
                               std::vector<float>* h, std::vector<float>* c) {
  // The step input stays on the tape; the cell steps on raw buffers from
  // and into the group's vectors (empty: the zero initial state), with the
  // floats the chained RunBackbone recurrence computes.
  tensor::NoGradGuard guard;
  tensor::ArenaScope arena_scope;
  Tensor input = StepInput(items);
  const float* x = input.data().data();
  const float* prev_h = h->empty() ? nullptr : h->data();
  h->resize(config_.hidden_dim);
  if (gru_) {
    gru_->Step(x, prev_h, h->data());
    return;
  }
  const float* prev_c = c->empty() ? nullptr : c->data();
  c->resize(config_.hidden_dim);
  lstm_->Step(x, prev_h, prev_c, h->data(), c->data());
}

CauserModel::CandidateForward CauserModel::ForwardCandidate(
    const std::vector<data::Step>& history, int user, int candidate) {
  EnsureCaches();
  const int v = config_.num_items;
  CandidateForward out;
  std::vector<std::vector<int>> steps;
  for (size_t t = 0; t < history.size(); ++t) {
    if (history[t].items.empty()) continue;
    std::vector<int> kept;
    if (causer_config_.use_causal) {
      for (int item : history[t].items) {
        if (w_cache_[static_cast<size_t>(item) * v + candidate] >
            causer_config_.epsilon) {
          kept.push_back(item);
        }
      }
    } else {
      kept = history[t].items;
    }
    if (kept.empty()) continue;  // Eq. 10: skip cause-free steps
    steps.push_back(std::move(kept));
    out.step_index.push_back(static_cast<int>(t));
  }
  // Everything was filtered out: fall back to the unfiltered history with
  // What = 1, so the model still produces (and learns from) a
  // representation.
  const bool weighted = causer_config_.use_causal && !steps.empty();
  if (steps.empty()) {
    for (size_t t = 0; t < history.size(); ++t) {
      if (history[t].items.empty()) continue;
      steps.push_back(history[t].items);
      out.step_index.push_back(static_cast<int>(t));
    }
  }
  if (steps.empty()) {  // degenerate: no items in the history
    out.logit = Tensor::Scalar(0.0f);
    return out;
  }
  Tensor states = RunBackbone(steps);  // [T,h]
  const int rows = states.rows();
  out.alpha = StepWeights(states);     // [T,1]
  std::vector<float> what(rows, 1.0f);
  if (weighted) {
    for (int r = 0; r < rows; ++r) {
      what[r] = WhatSum(w_cache_, v, steps[r], candidate);
    }
  }
  // A constant [T,1] column: W^c takes no tape gradient.
  out.what = Tensor::FromData(rows, 1, std::move(what));
  Tensor coeff = tensor::Mul(out.alpha, out.what);                   // [T,1]
  Tensor pooled = tensor::MatMul(tensor::Transpose(coeff), states);  // [1,h]
  Tensor rep = adapt_->Forward(pooled);
  if (causer_config_.use_user_embedding) {
    rep = tensor::Add(rep, users_->Row(user));
  }
  out.logit = tensor::SumRows(tensor::Mul(rep, out_items_->Row(candidate)));
  return out;
}

float CauserModel::ScoreCandidate(int user,
                                  const std::vector<data::Step>& history,
                                  int item) {
  tensor::NoGradGuard guard;
  tensor::ArenaScope arena_scope;
  return ForwardCandidate(Truncate(history), user, item).logit.Item();
}

Tensor CauserModel::StepWeights(const Tensor& states) {
  const int t = states.rows();
  if (!causer_config_.use_attention) {
    return Tensor::Full(t, 1, 1.0f / static_cast<float>(t));
  }
  Tensor query = tensor::SliceRows(states, t - 1, 1);
  return attention_->Weights(states, query);
}

void CauserModel::ScoreGroup(const Tensor& states, const Tensor& alpha,
                             const std::vector<std::vector<int>>* kept_steps,
                             const std::vector<int>& members, int user,
                             std::vector<float>* out) {
  const int v = config_.num_items;
  const int t = states.rows();
  const int g_size = static_cast<int>(members.size());
  // Coefficient matrix C[t][g] = alpha_t * What_{t, b_g}.
  std::vector<float> coeff(static_cast<size_t>(t) * g_size, 0.0f);
  for (int g = 0; g < g_size; ++g) {
    int b = members[g];
    for (int r = 0; r < t; ++r) {
      const float what = kept_steps == nullptr
                             ? 1.0f
                             : WhatSum(w_cache_, v, (*kept_steps)[r], b);
      coeff[static_cast<size_t>(r) * g_size + g] = alpha.At(r, 0) * what;
    }
  }
  Tensor c = Tensor::FromData(t, g_size, std::move(coeff));
  Tensor pooled = tensor::MatMul(tensor::Transpose(c), states);  // [G, h]
  Tensor reps = adapt_->Forward(pooled);                    // [G, de]
  if (causer_config_.use_user_embedding) {
    reps = tensor::Add(reps, users_->Row(user));
  }
  Tensor emb = out_items_->Forward(members);                // [G, de]
  Tensor logits = tensor::SumRows(tensor::Mul(reps, emb));  // [G, 1]
  for (int g = 0; g < g_size; ++g) (*out)[members[g]] = logits.At(g, 0);
}

/// The scratch of one ScoreAll fold: per filtered-history group, the
/// backbone state over that group's kept steps of the window. With
/// near-hard assignments there are at most ~K groups, so folding one
/// window step costs ~K cell steps. All storage is plain heap vectors
/// (states are copied out of each step's arena).
struct CauserModel::ServeState {
  /// One filtered-history group: the candidates whose causal filter keeps
  /// exactly `kept_steps` of the window, and the backbone run over them.
  struct GroupState {
    std::vector<std::vector<int>> kept_steps;  // filtered items per row
    std::vector<float> states;                 // [rows * hidden_dim]
    std::vector<float> h;  // last hidden state ([hidden_dim])
    std::vector<float> c;  // LSTM cell memory (unused under GRU)

    /// True for the group of candidates whose filter kept nothing — they
    /// score against the shared unfiltered fallback encoding.
    bool empty() const { return kept_steps.empty(); }
  };

  /// Every candidate starts in the one fallback group.
  explicit ServeState(int num_items) : groups(1), group_of(num_items, 0) {}

  /// Backbone over every non-empty window step unfiltered: Eq. 10's
  /// fallback encoding.
  GroupState unfiltered;
  /// groups[group_of[b]] is candidate b's group. The group with empty
  /// kept_steps is the fallback group; with use_causal off it holds every
  /// candidate.
  std::vector<GroupState> groups;
  std::vector<int> group_of;
};

void CauserModel::AdvanceGroups(ServeState& state,
                                const std::vector<int>& items) {
  auto extend = [&](ServeState::GroupState& g, const std::vector<int>& kept) {
    g.kept_steps.push_back(kept);
    BackboneStep(kept, &g.h, &g.c);
    g.states.insert(g.states.end(), g.h.begin(), g.h.end());
  };
  extend(state.unfiltered, items);
  if (!causer_config_.use_causal) return;

  // A candidate's child group is its parent group plus the items of this
  // step its filter keeps, so groups split but never merge, and each child
  // is told apart from its few siblings by that kept list alone.
  // children[p] lists parent p's children; kept_of[c] is child c's list
  // (empty: the parent carries over unchanged).
  const int v = config_.num_items;
  const float eps = causer_config_.epsilon;
  std::vector<std::vector<int>> children(state.groups.size());
  std::vector<std::vector<int>> kept_of;
  std::vector<int> kept;
  for (int b = 0; b < v; ++b) {
    kept.clear();
    for (int item : items) {
      if (w_cache_[static_cast<size_t>(item) * v + b] > eps) {
        kept.push_back(item);
      }
    }
    std::vector<int>& siblings = children[state.group_of[b]];
    auto it = std::find_if(siblings.begin(), siblings.end(),
                           [&](int c) { return kept_of[c] == kept; });
    if (it == siblings.end()) {
      it = siblings.insert(it, static_cast<int>(kept_of.size()));
      kept_of.push_back(kept);
    }
    state.group_of[b] = *it;
  }
  std::vector<ServeState::GroupState> next(kept_of.size());
  for (size_t p = 0; p < children.size(); ++p) {
    for (size_t i = 0; i < children[p].size(); ++i) {
      const int c = children[p][i];
      // Every child starts from its parent's rows and recurrent state; the
      // last one takes them over instead of copying.
      if (i + 1 < children[p].size()) {
        next[c] = state.groups[p];
      } else {
        next[c] = std::move(state.groups[p]);
      }
      if (!kept_of[c].empty()) extend(next[c], kept_of[c]);
    }
  }
  state.groups = std::move(next);
}

std::vector<float> CauserModel::ScoreAll(
    int user, const std::vector<data::Step>& history) {
  tensor::NoGradGuard guard;
  EnsureCaches();
  const int v = config_.num_items;
  std::vector<float> out(v, 0.0f);
  // Fold the truncated history's non-empty steps from the first.
  ServeState s(v);
  for (size_t t = WindowStart(history); t < history.size(); ++t) {
    if (!history[t].items.empty()) AdvanceGroups(s, history[t].items);
  }
  // Scratch (reconstructed states, attention, pooling) lives on the arena;
  // only the plain `out` floats leave the scope.
  tensor::ArenaScope arena_scope;
  std::vector<std::vector<int>> members(s.groups.size());
  for (int b = 0; b < v; ++b) members[s.group_of[b]].push_back(b);
  for (size_t gi = 0; gi < s.groups.size(); ++gi) {
    const ServeState::GroupState& g = s.groups[gi];
    // Fallback semantics at inference: a group whose filter kept nothing
    // scores against the unfiltered states with What = 1.
    const ServeState::GroupState& encoded = g.empty() ? s.unfiltered : g;
    if (encoded.empty()) continue;  // only empty steps: the scores stay 0
    // The copied-out rows carry the exact floats RunBackbone's chained
    // recurrence produces, so everything downstream matches ScoreCandidate.
    Tensor states =
        Tensor::FromData(static_cast<int>(encoded.kept_steps.size()),
                         config_.hidden_dim, encoded.states);
    ScoreGroup(states, StepWeights(states),
               g.empty() ? nullptr : &g.kept_steps, members[gi], user, &out);
  }
  return out;
}

void CauserModel::PretrainAndFreezeGraph(
    const std::vector<data::Sequence>& train, int rounds) {
  CAUSER_CHECK(rounds > 0);
  auto examples = data::EnumerateExamples(train);
  for (int round = 0; round < rounds; ++round) {
    // Clustering phase (Eqs. 7-8) so the assignments stabilize first.
    for (int s = 0; s < causer_config_.aux_steps_per_epoch; ++s) {
      tensor::ArenaScope arena_scope;
      Tensor loss = tensor::Add(clusterer_->ClusteringLoss(),
                                clusterer_->ReconstructionLoss());
      opt_aux_->ZeroGrad();
      tensor::Backward(loss);
      if (!GuardedStep(*opt_aux_)) {
        CAUSER_LOG(Warning) << "non-finite clustering gradient in graph "
                            << "pre-training round " << round
                            << "; step refused";
        break;
      }
    }
    RefreshCaches();
    // Graph phase: fit W^c to the observed cluster transitions.
    for (const auto& ex : examples) {
      std::vector<data::Step> history(
          ex.sequence->steps.begin(),
          ex.sequence->steps.begin() + ex.target_step);
      history = Truncate(history);
      for (int pos : ex.sequence->steps[ex.target_step].items) {
        RecordTransition(history, pos);
      }
    }
    FitClusterGraph();
  }
  RefreshCaches();
  graph_frozen_ = true;
}

double CauserModel::TrainEpoch(const std::vector<data::Sequence>& train) {
  const bool update_slow =
      !graph_frozen_ &&
      (epoch_ % std::max(1, causer_config_.w_update_every)) == 0;
  const bool update_graph = update_slow && causer_config_.use_causal &&
                            epoch_ >= causer_config_.graph_warmup_epochs;

  RefreshCaches();  // Algorithm 1 line 7-8
  // A refused step ends the epoch with a NaN loss. The parameters may have
  // moved since the refresh above, so the caches are stale either way.
  const auto refuse = [this] {
    caches_stale_ = true;
    return std::numeric_limits<double>::quiet_NaN();
  };

  // Auxiliary phase: clustering + reconstruction objectives (Eqs. 7-8).
  if (update_slow && (causer_config_.use_clustering_loss ||
                      causer_config_.use_reconstruction_loss)) {
    for (int s = 0; s < causer_config_.aux_steps_per_epoch; ++s) {
      tensor::ArenaScope arena_scope;
      Tensor loss;
      if (causer_config_.use_clustering_loss) {
        loss = clusterer_->ClusteringLoss();
      }
      if (causer_config_.use_reconstruction_loss) {
        Tensor rec = clusterer_->ReconstructionLoss();
        loss = loss.defined() ? tensor::Add(loss, rec) : rec;
      }
      opt_aux_->ZeroGrad();
      tensor::Backward(loss);
      if (!GuardedStep(*opt_aux_)) return refuse();
    }
    RefreshCaches();  // assignments moved
  }

  auto examples = data::EnumerateExamples(train);
  rng_.Shuffle(examples);

  const bool measure = metrics::Enabled();
  double total = 0.0;
  int count = 0;
  for (const auto& ex : examples) {
    const auto& steps = ex.sequence->steps;
    std::vector<data::Step> history(steps.begin(),
                                    steps.begin() + ex.target_step);
    history = Truncate(history);
    bool any = false;
    for (const auto& s : history) any = any || !s.items.empty();
    if (!any) continue;

    const auto& positives = steps[ex.target_step].items;
    const Candidates cand = SampleCandidates(positives);

    Stopwatch step_sw;
    // Per-example tape arena: every candidate's filtered encoding, the
    // attention/pooling graph and the loss die together at scope exit
    // (after loss.Item() below). Parameters and caches stay heap.
    tensor::ArenaScope arena_scope;
    std::vector<Tensor> logit_rows;
    logit_rows.reserve(cand.ids.size());
    for (int b : cand.ids) {
      logit_rows.push_back(
          ForwardCandidate(history, ex.sequence->user, b).logit);
    }
    if (update_graph) {
      for (int pos : positives) RecordTransition(history, pos);
    }
    Tensor logits = tensor::ConcatRows(logit_rows);
    Tensor targets =
        Tensor::FromData(static_cast<int>(cand.ids.size()), 1, cand.labels);
    Tensor loss = tensor::BceWithLogits(logits, targets);

    opt_main_->ZeroGrad();
    opt_aux_->ZeroGrad();
    tensor::Backward(loss);
    double norm = 0.0;
    if (!GuardedStep(*opt_main_, &norm)) return refuse();
    // Theta_a also receives recommendation-loss gradients on slow-update
    // epochs (Algorithm 1 line 11 updates the full parameter set).
    if (update_slow && !GuardedStep(*opt_aux_)) return refuse();
    if (measure) {
      auto& tm = models::TrainerMetrics();
      tm.optimizer_steps.Add();
      tm.grad_norm.Observe(norm);
      tm.step_seconds.Observe(step_sw.ElapsedSeconds());
    }
    total += loss.Item();
    ++count;
  }
  // Per-epoch W^c subproblem (Algorithm 1 lines 10-15): fit the epoch's
  // cluster transitions under the augmented-Lagrangian DAG constraint.
  if (update_graph) FitClusterGraph();
  ++epoch_;
  caches_stale_ = true;
  return count > 0 ? total / count : 0.0;
}

std::vector<double> CauserModel::ExplainScores(
    const data::EvalInstance& instance, int item, ExplainMode mode) {
  tensor::NoGradGuard guard;
  tensor::ArenaScope arena_scope;
  std::vector<double> out(instance.history.size(), 0.0);
  std::vector<data::Step> truncated = Truncate(instance.history);
  const size_t offset = instance.history.size() - truncated.size();
  const CandidateForward fwd =
      ForwardCandidate(truncated, instance.user, item);
  const int rows = static_cast<int>(fwd.step_index.size());
  for (int r = 0; r < rows; ++r) {
    double a = fwd.alpha.At(r, 0);
    double w = fwd.what.At(r, 0);
    double score = 0.0;
    switch (mode) {
      case ExplainMode::kFull:
        score = a * w;
        break;
      case ExplainMode::kCausal:
        score = w;
        break;
      case ExplainMode::kAttention:
        score = a;
        break;
    }
    out[offset + fwd.step_index[r]] = score;
  }
  return out;
}

void CauserModel::SaveTrainingState(std::string* out) const {
  models::SequentialRecommender::SaveTrainingState(out);  // rng stream
  opt_main_->SaveState(out);
  opt_aux_->SaveState(out);
  lagrangian_.SaveState(out);
  serial::AppendI32(out, epoch_);
  serial::AppendU32(out, graph_frozen_ ? 1 : 0);
  // Mutable via ScaleLearningRate, so it is state rather than config.
  serial::AppendF32(out, causer_config_.graph_learning_rate);
}

bool CauserModel::LoadTrainingState(serial::Reader& in) {
  if (!models::SequentialRecommender::LoadTrainingState(in)) return false;
  if (!opt_main_->LoadState(in)) return false;
  if (!opt_aux_->LoadState(in)) return false;
  if (!lagrangian_.LoadState(in)) return false;
  int32_t epoch = 0;
  uint32_t frozen = 0;
  float graph_lr = 0.0f;
  in.ReadI32(&epoch);
  in.ReadU32(&frozen);
  in.ReadF32(&graph_lr);
  if (!in.ok()) return false;
  epoch_ = epoch;
  graph_frozen_ = frozen != 0;
  causer_config_.graph_learning_rate = graph_lr;
  // The W/assignment caches and any recorded transitions belong to the
  // interrupted epoch; TrainEpoch rebuilds both from the restored
  // parameters.
  caches_stale_ = true;
  epoch_sources_.clear();
  epoch_targets_.clear();
  return true;
}

void CauserModel::ScaleLearningRate(float factor) {
  opt_main_->set_lr(opt_main_->lr() * factor);
  opt_aux_->set_lr(opt_aux_->lr() * factor);
  // The W^c subproblem takes direct (non-Adam) steps at this rate.
  causer_config_.graph_learning_rate *= factor;
}

causal::Graph CauserModel::LearnedClusterGraph() const {
  return graph_->ThresholdedGraph(causer_config_.epsilon);
}

double CauserModel::AcyclicityResidual() const {
  return graph_->AcyclicityResidual();
}

}  // namespace causer::core
