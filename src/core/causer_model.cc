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
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/primitives/primitives.h"

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
/// zero-seeded sum of W[a][b] over the step's kept items [kept, kept_end),
/// in kept order. `w` is the row-major [v * v] item-level matrix.
float WhatSum(const std::vector<float>& w, int v, const int* kept,
              const int* kept_end, int b) {
  float what = 0.0f;
  for (; kept != kept_end; ++kept) {
    what += w[static_cast<size_t>(*kept) * v + b];
  }
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
  // Explicit element copies: the caches are plain heap vectors that outlive
  // any ArenaScope the refresh might run under.
  assign_cache_.assign(assignments.data().begin(), assignments.data().end());
  // StepInput({b}) for every item at once: the kernels keep each row's
  // ascending-k chains whatever the row count, so row b carries the bits of
  // the one-row EncodeItems({b}), and the free embedding adds elementwise.
  Tensor inputs = clusterer_->EncodeAll();
  if (causer_config_.use_free_input_embedding) {
    inputs = tensor::Add(inputs, input_items_->weight());
  }
  step_input_cache_.assign(inputs.data().begin(), inputs.data().end());
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

/// The scratch of one ScoreAll fold, kept per thread so that a fold reuses
/// the buffers of the last one instead of allocating its own. The fold
/// encodes a tree of rows: a row is one raw backbone cell step over the
/// items a step's filter kept, taken from its parent row's state. A group
/// of candidates whose filters keep the same items of every step is the
/// chain of rows that ends at its last row. At each step the candidates
/// that keep nothing of it stay in their group, and the others move to a
/// child group whose chain is the parent's plus one row, so nothing is
/// copied from group to group.
struct CauserModel::ServeState {
  struct Row {
    int parent;      // previous row of the chain; -1 at the chain's start
    int depth;       // rows in the chain up to and including this one
    int kept_begin;  // this row's kept items: kept[kept_begin, kept_end)
    int kept_end;
  };

  std::vector<Row> rows;
  std::vector<float> h;   // [rows * hidden_dim] hidden state after each row
  std::vector<float> c;   // [rows * hidden_dim] LSTM cell memory (LSTM only)
  std::vector<int> kept;  // every row's kept items, concatenated
  /// Last row of the backbone over every non-empty window step unfiltered:
  /// Eq. 10's fallback encoding. -1 until the first non-empty step.
  int unfiltered = -1;
  /// Per group, its chain's last row; -1 for the fallback group 0, whose
  /// filters kept nothing so far (every candidate with use_causal off).
  /// Groups split but never merge, so no other group has -1.
  std::vector<int> group_last;
  std::vector<int> group_of;  // candidate b's group

  // Per-step scratch of AdvanceGroups.
  std::vector<uint64_t> masks;  // [words * V] keep-mask words, word-major
  std::vector<int> movers;      // candidates whose masks keep an item
  std::vector<int> child_head;  // per parent group: its newest child
  std::vector<int> child_next;  // per child: its parent's next-older child
  std::vector<int> child_rep;   // per child: the candidate that made it
  std::vector<float> x;         // a multi-item step's averaged input

  // Scoring scratch of ScoreGroup.
  std::vector<int> member_begin, members;  // candidates by group, ascending
  std::vector<int> cursor;                 // per group: next member slot
  std::vector<int> chain;                  // a group's rows in fold order
  std::vector<float> states, att, alpha, coeff, pooled, reps;

  /// Every candidate starts in the one fallback group.
  void Reset(int num_items) {
    rows.clear();
    h.clear();
    c.clear();
    kept.clear();
    unfiltered = -1;
    group_last.assign(1, -1);
    group_of.assign(num_items, 0);
  }
};

int CauserModel::BackboneStep(ServeState& state, int parent, int kept_begin) {
  // StepInput from the per-item table: the row itself for one item, else
  // SumCols then ScalarMul(1/k) off the tape (each column summed from zero
  // in item order, then scaled).
  const int d = causer_config_.cluster_dim;
  const int hd = config_.hidden_dim;
  const int kept_end = static_cast<int>(state.kept.size());
  const int k = kept_end - kept_begin;
  auto input_row = [&](int item) {
    return step_input_cache_.data() + static_cast<size_t>(item) * d;
  };
  const float* x = input_row(state.kept[kept_begin]);
  if (k > 1) {
    state.x.assign(d, 0.0f);
    for (int i = kept_begin; i < kept_end; ++i) {
      const float* r = input_row(state.kept[i]);
      for (int j = 0; j < d; ++j) state.x[j] += r[j];
    }
    const float scale = 1.0f / static_cast<float>(k);
    for (int j = 0; j < d; ++j) state.x[j] = scale * state.x[j];
    x = state.x.data();
  }
  const int row = static_cast<int>(state.rows.size());
  state.rows.push_back({parent, parent < 0 ? 1 : state.rows[parent].depth + 1,
                        kept_begin, kept_end});
  const size_t at = static_cast<size_t>(row) * hd;
  const size_t from = static_cast<size_t>(parent) * hd;
  state.h.resize(at + hd);
  const float* prev_h = parent < 0 ? nullptr : state.h.data() + from;
  if (gru_) {
    gru_->Step(x, prev_h, state.h.data() + at);
    return row;
  }
  state.c.resize(at + hd);
  const float* prev_c = parent < 0 ? nullptr : state.c.data() + from;
  lstm_->Step(x, prev_h, prev_c, state.h.data() + at, state.c.data() + at);
  return row;
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
      what[r] = WhatSum(w_cache_, v, steps[r].data(),
                        steps[r].data() + steps[r].size(), candidate);
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

void CauserModel::ScoreGroup(ServeState& s, int last, bool weighted,
                             const int* members, int g_size, int user,
                             float* out) {
  // ForwardCandidate's StepWeights, pooling and scoring for g_size
  // candidates at once, on raw buffers through the kernels the tape ops
  // call, with the tape ops' shapes and order of operations.
  const int v = config_.num_items;
  const int hd = config_.hidden_dim;
  const int de = config_.embedding_dim;
  const int t = s.rows[last].depth;
  s.chain.resize(t);
  for (int r = t - 1, row = last; r >= 0; --r, row = s.rows[row].parent) {
    s.chain[r] = row;
  }
  s.states.resize(static_cast<size_t>(t) * hd);
  for (int r = 0; r < t; ++r) {
    const float* h = s.h.data() + static_cast<size_t>(s.chain[r]) * hd;
    std::copy(h, h + hd, s.states.data() + static_cast<size_t>(r) * hd);
  }
  const float* states = s.states.data();
  const auto& ops = tensor::primitives::Active();
  // alpha [T]: uniform 1/T under -att, else the bilinear attention of every
  // state against the last, (S A) q^T, softmaxed as SoftmaxRows does.
  s.alpha.assign(t, 0.0f);
  float* alpha = s.alpha.data();
  if (!causer_config_.use_attention) {
    std::fill(alpha, alpha + t, 1.0f / static_cast<float>(t));
  } else {
    s.att.assign(static_cast<size_t>(t) * hd, 0.0f);
    tensor::kernels::MatMulAdd(states, attention_->matrix().data().data(),
                               s.att.data(), t, hd, hd, false, false);
    tensor::kernels::MatMulAdd(s.att.data(),
                               states + static_cast<size_t>(t - 1) * hd, alpha,
                               t, hd, 1, false, false);
    const float mx = ops.reduce_max(static_cast<size_t>(t), alpha);
    for (int r = 0; r < t; ++r) alpha[r] = alpha[r] - mx;  // temperature 1
    ops.exp_apply(static_cast<size_t>(t), alpha);
    float total = 0.0f;
    for (int r = 0; r < t; ++r) total += alpha[r];
    for (int r = 0; r < t; ++r) alpha[r] /= total;
  }
  // Cᵀ[g][t] = alpha_t * What_{t, b_g} (What = 1 for the fallback), then
  // pooled = Cᵀ·states [G, h], reps = pooled·V [G, de] (+ u_k).
  s.coeff.resize(static_cast<size_t>(g_size) * t);
  for (int g = 0; g < g_size; ++g) {
    float* c = s.coeff.data() + static_cast<size_t>(g) * t;
    for (int r = 0; r < t; ++r) {
      const ServeState::Row& row = s.rows[s.chain[r]];
      const float what =
          weighted ? WhatSum(w_cache_, v, s.kept.data() + row.kept_begin,
                             s.kept.data() + row.kept_end, members[g])
                   : 1.0f;
      c[r] = alpha[r] * what;
    }
  }
  s.pooled.assign(static_cast<size_t>(g_size) * hd, 0.0f);
  tensor::kernels::MatMulAdd(s.coeff.data(), states, s.pooled.data(), g_size,
                             t, hd, false, false);
  s.reps.assign(static_cast<size_t>(g_size) * de, 0.0f);
  tensor::kernels::MatMulAdd(s.pooled.data(), adapt_->weight().data().data(),
                             s.reps.data(), g_size, hd, de, false, false);
  if (causer_config_.use_user_embedding) {
    const float* u =
        users_->weight().data().data() + static_cast<size_t>(user) * de;
    for (int g = 0; g < g_size; ++g) {
      float* rep = s.reps.data() + static_cast<size_t>(g) * de;
      for (int j = 0; j < de; ++j) rep[j] = rep[j] + u[j];
    }
  }
  // logit_b = Σ_j rep[j] * e_b[j], zero-seeded in j order (SumRows of Mul).
  const float* emb = out_items_->weight().data().data();
  for (int g = 0; g < g_size; ++g) {
    out[members[g]] = ops.dot(de, s.reps.data() + static_cast<size_t>(g) * de,
                              emb + static_cast<size_t>(members[g]) * de);
  }
}

void CauserModel::AdvanceGroups(ServeState& s, const std::vector<int>& items) {
  const int n = static_cast<int>(items.size());
  int begin = static_cast<int>(s.kept.size());
  s.kept.insert(s.kept.end(), items.begin(), items.end());
  s.unfiltered = BackboneStep(s, s.unfiltered, begin);
  if (!causer_config_.use_causal) return;

  // Bit i % 64 of word i / 64 of candidate b's keep-mask is set when b's
  // filter keeps the step's i-th item; word w of every candidate's mask is
  // the contiguous masks[w * V, (w + 1) * V), so each item's contiguous
  // w_cache_ row is scanned once. The mask fixes b's kept list, so a child
  // group is its parent group plus one mask, and groups split but never
  // merge. The child that keeps nothing of the step continues its parent,
  // id and chain; only the candidates whose masks keep an item move.
  const int v = config_.num_items;
  const float eps = causer_config_.epsilon;
  const int words = (n + 63) / 64;
  s.masks.assign(static_cast<size_t>(words) * v, 0);
  for (int i = 0; i < n; ++i) {
    const float* w = w_cache_.data() + static_cast<size_t>(items[i]) * v;
    uint64_t* m = s.masks.data() + static_cast<size_t>(i / 64) * v;
    const int shift = i % 64;
    for (int b = 0; b < v; ++b) m[b] |= uint64_t{w[b] > eps} << shift;
  }
  auto word = [&](int b, int w) {
    return s.masks[static_cast<size_t>(w) * v + b];
  };
  s.movers.resize(v);
  int movers = 0;
  for (int b = 0; b < v; ++b) {
    uint64_t any = 0;
    for (int w = 0; w < words; ++w) any |= word(b, w);
    s.movers[movers] = b;
    movers += any != 0;
  }
  // Per parent group, its list of children: child_head[p], then
  // child_next; each child is told apart from its few siblings by the mask
  // of child_rep, the candidate that made it. Child k is the new group
  // first + k.
  const int first = static_cast<int>(s.group_last.size());
  s.child_head.assign(first, -1);
  s.child_next.clear();
  s.child_rep.clear();
  auto same = [&](int b, int c) {
    for (int w = 0; w < words; ++w) {
      if (word(b, w) != word(c, w)) return false;
    }
    return true;
  };
  for (int j = 0; j < movers; ++j) {
    const int b = s.movers[j];
    const int parent = s.group_of[b];
    int child = s.child_head[parent];
    while (child >= 0 && !same(b, s.child_rep[child])) {
      child = s.child_next[child];
    }
    if (child < 0) {
      child = static_cast<int>(s.child_rep.size());
      s.child_rep.push_back(b);
      s.child_next.push_back(s.child_head[parent]);
      s.child_head[parent] = child;
      // The new group's kept list, built once: its row extends the
      // parent's chain.
      begin = static_cast<int>(s.kept.size());
      for (int i = 0; i < n; ++i) {
        if ((word(b, i / 64) >> (i % 64)) & 1) s.kept.push_back(items[i]);
      }
      s.group_last.push_back(BackboneStep(s, s.group_last[parent], begin));
    }
    s.group_of[b] = first + child;
  }
}

std::vector<float> CauserModel::ScoreAll(
    int user, const std::vector<data::Step>& history) {
  EnsureCaches();
  const int v = config_.num_items;
  std::vector<float> out(v, 0.0f);
  thread_local ServeState s;
  s.Reset(v);
  // Fold the truncated history's non-empty steps from the first.
  for (size_t t = WindowStart(history); t < history.size(); ++t) {
    if (!history[t].items.empty()) AdvanceGroups(s, history[t].items);
  }
  // Candidates by group, ascending within each group.
  const int groups = static_cast<int>(s.group_last.size());
  s.member_begin.assign(groups + 1, 0);
  for (int b = 0; b < v; ++b) ++s.member_begin[s.group_of[b] + 1];
  for (int g = 0; g < groups; ++g) s.member_begin[g + 1] += s.member_begin[g];
  s.members.resize(v);
  s.cursor.assign(s.member_begin.begin(), s.member_begin.end() - 1);
  for (int b = 0; b < v; ++b) s.members[s.cursor[s.group_of[b]]++] = b;
  for (int g = 0; g < groups; ++g) {
    const int g_size = s.member_begin[g + 1] - s.member_begin[g];
    // Fallback semantics at inference: the group whose filter kept nothing
    // scores against the unfiltered states with What = 1.
    const bool weighted = s.group_last[g] >= 0;
    const int last = weighted ? s.group_last[g] : s.unfiltered;
    // A group all of whose candidates moved on to children has none left;
    // with only empty steps there is no state, and the scores stay 0.
    if (g_size == 0 || last < 0) continue;
    ScoreGroup(s, last, weighted, s.members.data() + s.member_begin[g],
               g_size, user, out.data());
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
