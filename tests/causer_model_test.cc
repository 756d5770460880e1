#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "core/explainer.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "data/split.h"
#include "eval/evaluator.h"
#include "tensor/arena.h"

namespace causer::core {
namespace {

const data::Dataset& TinyData() {
  static data::Dataset d = data::MakeDataset(data::TinySpec());
  return d;
}

const data::Split& TinySplit() {
  static data::Split s = data::LeaveLastOut(TinyData());
  return s;
}

CauserConfig TinyConfig(Backbone backbone = Backbone::kGru) {
  CauserConfig c = DefaultCauserConfig(TinyData(), backbone);
  c.base.embedding_dim = 8;
  c.base.hidden_dim = 8;
  c.encoder_hidden = 8;
  c.cluster_dim = 8;
  c.aux_steps_per_epoch = 5;
  return c;
}

TEST(CauserModelTest, NameReflectsBackboneAndAblations) {
  EXPECT_EQ(CauserModel(TinyConfig(Backbone::kGru)).name(), "Causer (GRU)");
  EXPECT_EQ(CauserModel(TinyConfig(Backbone::kLstm)).name(), "Causer (LSTM)");
  CauserConfig c = TinyConfig();
  c.use_attention = false;
  EXPECT_EQ(CauserModel(c).name(), "Causer (GRU) [-att]");
  c = TinyConfig();
  c.use_causal = false;
  c.use_clustering_loss = false;
  EXPECT_EQ(CauserModel(c).name(), "Causer (GRU) [-clus,-causal]");
}

TEST(CauserModelTest, ScoreAllShapeAndFinite) {
  CauserModel model(TinyConfig());
  const auto& inst = TinySplit().test[0];
  auto scores = model.ScoreAll(inst.user, inst.history);
  EXPECT_EQ(static_cast<int>(scores.size()), TinyData().num_items);
  for (float s : scores) EXPECT_TRUE(std::isfinite(s));
}

TEST(CauserModelTest, EmptyHistoryGivesZeroScores) {
  CauserModel model(TinyConfig());
  auto scores = model.ScoreAll(0, {});
  for (float s : scores) EXPECT_EQ(s, 0.0f);
}

TEST(CauserModelTest, FilterCacheRefreshedAfterParameterRestore) {
  // ScoreAll filters through the cached item-level W (and assignments)
  // built from the parameters; restoring parameters must mark that cache
  // stale, or post-restore scores filter through the old graph.
  CauserModel model(TinyConfig());
  const auto& inst = TinySplit().test[0];
  auto before = model.ScoreAll(inst.user, inst.history);  // warms the cache
  for (auto& p : model.Parameters())
    for (auto& v : p.data()) v += 0.25f;
  model.OnParametersRestored();
  auto after = model.ScoreAll(inst.user, inst.history);
  // Reference: a fresh model given the same perturbed parameters before its
  // first ScoreAll never had a cache to go stale.
  CauserModel fresh(TinyConfig());
  auto fresh_params = fresh.Parameters();
  auto params = model.Parameters();
  ASSERT_EQ(fresh_params.size(), params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    fresh_params[i].data().assign(params[i].data().begin(),
                                  params[i].data().end());
  }
  auto expected = fresh.ScoreAll(inst.user, inst.history);
  EXPECT_EQ(after, expected);
  EXPECT_NE(before, after);
}

/// Every ScoreAll entry equals ScoreCandidate, which encodes its step
/// inputs on the tape from the live parameters.
void ExpectScoreAllMatchesCandidates(CauserModel& model,
                                     const data::EvalInstance& inst,
                                     const std::vector<float>& scores) {
  ASSERT_EQ(static_cast<int>(scores.size()), TinyData().num_items);
  for (int b = 0; b < TinyData().num_items; ++b) {
    ASSERT_EQ(scores[b], model.ScoreCandidate(inst.user, inst.history, b))
        << "item " << b;
  }
}

TEST(CauserModelTest, StepInputTableRefreshedAfterParameterRestore) {
  // ScoreAll reads its step inputs from a per-item table built with the
  // filter caches: an encoder weight (which leaves the assignments and so
  // the filter as they are) or, with the free input embedding on, that
  // embedding must reach the table once OnParametersRestored runs.
  for (bool free_input : {false, true}) {
    CauserConfig config = TinyConfig();
    config.use_free_input_embedding = free_input;
    CauserModel model(config);
    const auto& inst = TinySplit().test[0];
    const auto before = model.ScoreAll(inst.user, inst.history);
    // Own parameters come first: [centers, assignment logits, V1, b1, ...].
    nn::Tensor encoder = model.clusterer().Parameters()[2];
    ASSERT_EQ(encoder.cols(), config.encoder_hidden);
    for (auto& v : encoder.data()) v += 0.25f;
    if (free_input) {
      for (auto& v : model.Parameters().back().data()) v += 0.25f;
    }
    model.OnParametersRestored();
    const auto after = model.ScoreAll(inst.user, inst.history);
    EXPECT_NE(before, after) << "free_input " << free_input;
    ExpectScoreAllMatchesCandidates(model, inst, after);
  }
}

TEST(CauserModelTest, ConcurrentFirstScoresSeeRefreshedCaches) {
  // Two threads race the first ScoreAll on stale caches, before any score
  // and again after a parameter restore; both see the refreshed caches.
  CauserModel model(TinyConfig());
  const auto& inst = TinySplit().test[0];
  for (int round = 0; round < 2; ++round) {
    if (round == 1) {
      for (auto& p : model.Parameters())
        for (auto& v : p.data()) v += 0.25f;
      model.OnParametersRestored();
    }
    std::vector<float> first, second;
    std::thread a([&] { first = model.ScoreAll(inst.user, inst.history); });
    std::thread b([&] { second = model.ScoreAll(inst.user, inst.history); });
    a.join();
    b.join();
    EXPECT_EQ(first, second) << "round " << round;
    ExpectScoreAllMatchesCandidates(model, inst, first);
  }
}

TEST(CauserModelTest, ScoreAllBuildsNoTapeNode) {
  // Once the caches are fresh, the serve fold runs on raw buffers: a
  // ScoreAll under an open arena scope takes no byte from the arena, which
  // every tape node and value would come from.
  for (Backbone backbone : {Backbone::kGru, Backbone::kLstm}) {
    CauserModel model(TinyConfig(backbone));
    const auto& inst = TinySplit().test[0];
    const auto scores = model.ScoreAll(inst.user, inst.history);
    tensor::Arena arena;
    tensor::ArenaScope scope(&arena);
    ASSERT_TRUE(scope.active());
    EXPECT_EQ(model.ScoreAll(inst.user, inst.history), scores);
    EXPECT_EQ(arena.bytes_in_use(), 0u);
  }
}

TEST(CauserModelTest, ItemCausalWeightMatchesEquationNine) {
  CauserModel model(TinyConfig());
  // W[a][b] = assignment_a^T Wc assignment_b.
  tensor::NoGradGuard guard;
  auto assignments = model.clusterer().AssignmentsAll();
  const auto& wc = model.cluster_graph().weights();
  int a = 3, b = 11;
  double expected = 0.0;
  for (int i = 0; i < wc.rows(); ++i)
    for (int j = 0; j < wc.cols(); ++j)
      expected += assignments.At(a, i) * wc.At(i, j) * assignments.At(b, j);
  EXPECT_NEAR(model.ItemCausalWeight(a, b), expected, 1e-4);
}

TEST(CauserModelTest, TrainingReducesLoss) {
  CauserModel model(TinyConfig());
  double first = model.TrainEpoch(TinySplit().train);
  double last = first;
  for (int e = 0; e < 4; ++e) last = model.TrainEpoch(TinySplit().train);
  EXPECT_LT(last, first);
}

TEST(CauserModelTest, TrainedModelBeatsUntrained) {
  CauserModel untrained(TinyConfig());
  double before =
      eval::Evaluate(models::MakeScorer(untrained), TinySplit().test, 5).ndcg;
  CauserModel model(TinyConfig());
  TrainCauser(model, TinySplit(), {.max_epochs = 6, .patience = 2});
  double after =
      eval::Evaluate(models::MakeScorer(model), TinySplit().test, 5).ndcg;
  EXPECT_GT(after, before);
}

TEST(CauserModelTest, AcyclicityResidualShrinksDuringTraining) {
  CauserModel model(TinyConfig());
  double h0 = model.AcyclicityResidual();
  for (int e = 0; e < 6; ++e) model.TrainEpoch(TinySplit().train);
  EXPECT_LT(model.AcyclicityResidual(), h0);
}

TEST(CauserModelTest, LstmBackboneTrains) {
  CauserModel model(TinyConfig(Backbone::kLstm));
  double first = model.TrainEpoch(TinySplit().train);
  double second = model.TrainEpoch(TinySplit().train);
  EXPECT_TRUE(std::isfinite(first));
  EXPECT_TRUE(std::isfinite(second));
  const auto& inst = TinySplit().test[0];
  for (float s : model.ScoreAll(inst.user, inst.history))
    EXPECT_TRUE(std::isfinite(s));
}

TEST(CauserModelTest, ExplainScoresHaveHistoryLength) {
  CauserModel model(TinyConfig());
  model.TrainEpoch(TinySplit().train);
  const auto& inst = TinySplit().test[0];
  for (ExplainMode mode :
       {ExplainMode::kFull, ExplainMode::kCausal, ExplainMode::kAttention}) {
    auto scores = model.ExplainScores(inst, inst.target_items[0], mode);
    EXPECT_EQ(scores.size(), inst.history.size());
    for (double s : scores) EXPECT_TRUE(std::isfinite(s));
  }
}

TEST(CauserModelTest, FullExplanationIsProductOfParts) {
  CauserModel model(TinyConfig());
  model.TrainEpoch(TinySplit().train);
  const auto& inst = TinySplit().test[0];
  int item = inst.target_items[0];
  auto full = model.ExplainScores(inst, item, ExplainMode::kFull);
  auto causal_part = model.ExplainScores(inst, item, ExplainMode::kCausal);
  auto att = model.ExplainScores(inst, item, ExplainMode::kAttention);
  for (size_t t = 0; t < full.size(); ++t) {
    EXPECT_NEAR(full[t], causal_part[t] * att[t], 1e-5);
  }
}

TEST(CauserModelTest, DisablingCausalIgnoresGraph) {
  CauserConfig cfg = TinyConfig();
  cfg.use_causal = false;
  CauserModel model(cfg);
  model.TrainEpoch(TinySplit().train);
  const auto& inst = TinySplit().test[0];
  auto causal_scores =
      model.ExplainScores(inst, inst.target_items[0], ExplainMode::kCausal);
  // Without the causal module every kept step has What == 1.
  for (size_t t = 0; t < causal_scores.size(); ++t) {
    if (!inst.history[t].items.empty()) EXPECT_NEAR(causal_scores[t], 1.0, 1e-5);
  }
}

TEST(CauserModelTest, DisablingAttentionGivesUniformWeights) {
  CauserConfig cfg = TinyConfig();
  cfg.use_attention = false;
  cfg.use_causal = false;  // so all steps are kept
  CauserModel model(cfg);
  const auto& inst = TinySplit().test[0];
  auto att = model.ExplainScores(inst, inst.target_items[0],
                                 ExplainMode::kAttention);
  int kept = 0;
  for (const auto& s : inst.history) kept += !s.items.empty();
  for (size_t t = 0; t < att.size(); ++t) {
    if (!inst.history[t].items.empty())
      EXPECT_NEAR(att[t], 1.0 / kept, 1e-5);
  }
}

TEST(CauserModelTest, LearnedGraphIsBinarizedWc) {
  CauserModel model(TinyConfig());
  causal::Graph g = model.LearnedClusterGraph();
  const auto& wc = model.cluster_graph().weights();
  float eps = model.causer_config().epsilon;
  for (int i = 0; i < g.n(); ++i)
    for (int j = 0; j < g.n(); ++j)
      if (i != j) EXPECT_EQ(g.Edge(i, j), wc.At(i, j) > eps);
}

TEST(CauserModelTest, CacheInvalidationOnRestore) {
  CauserModel model(TinyConfig());
  int a = 1, b = 2;
  float w_before = model.ItemCausalWeight(a, b);
  // Mutate Wc directly and signal a restore; the cached item-level W must
  // be recomputed.
  auto params = model.Parameters();
  model.cluster_graph();  // no-op, documents intent
  for (auto& p : params) {
    if (p.rows() == model.causer_config().num_clusters &&
        p.cols() == model.causer_config().num_clusters) {
      for (auto& v : p.data()) v += 1.0f;
    }
  }
  model.OnParametersRestored();
  EXPECT_NE(model.ItemCausalWeight(a, b), w_before);
}

TEST(CauserModelTest, SlowUpdateModeTrains) {
  CauserConfig cfg = TinyConfig();
  cfg.w_update_every = 3;
  CauserModel model(cfg);
  for (int e = 0; e < 4; ++e) {
    EXPECT_TRUE(std::isfinite(model.TrainEpoch(TinySplit().train)));
  }
}

TEST(CauserModelTest, PretrainAndFreezeGraphFixesWc) {
  CauserModel model(TinyConfig());
  model.PretrainAndFreezeGraph(TinySplit().train, /*rounds=*/3);
  EXPECT_TRUE(model.graph_frozen());
  auto wc_before = model.cluster_graph().weights().data();
  model.TrainEpoch(TinySplit().train);
  model.TrainEpoch(TinySplit().train);
  EXPECT_EQ(model.cluster_graph().weights().data(), wc_before)
      << "frozen W^c must not move during TrainEpoch";
}

TEST(CauserModelTest, PretrainedGraphIsUsable) {
  CauserModel model(TinyConfig());
  model.PretrainAndFreezeGraph(TinySplit().train, /*rounds=*/3);
  for (int e = 0; e < 4; ++e) model.TrainEpoch(TinySplit().train);
  double ndcg =
      eval::Evaluate(models::MakeScorer(model), TinySplit().test, 5).ndcg;
  EXPECT_GT(ndcg, 0.0);
  EXPECT_TRUE(std::isfinite(model.AcyclicityResidual()));
}

TEST(TrainerTest, DefaultConfigWiresDataset) {
  CauserConfig cfg = DefaultCauserConfig(TinyData(), Backbone::kGru, 99);
  EXPECT_EQ(cfg.base.num_items, TinyData().num_items);
  EXPECT_EQ(cfg.base.num_users, TinyData().num_users);
  EXPECT_EQ(cfg.base.item_features, &TinyData().item_features);
  EXPECT_EQ(cfg.num_clusters, TinyData().true_cluster_graph.n());
  EXPECT_EQ(cfg.base.seed, 99u);
}

TEST(TrainerTest, TrainCauserReportsDiagnostics) {
  CauserModel model(TinyConfig());
  CauserTrainResult r =
      TrainCauser(model, TinySplit(), {.max_epochs = 3, .patience = 1});
  EXPECT_GE(r.fit.epochs_run, 1);
  EXPECT_TRUE(std::isfinite(r.final_acyclicity));
  EXPECT_EQ(r.learned_cluster_graph.n(),
            model.causer_config().num_clusters);
}

TEST(ExplainerAdapterTest, MatchesModelScores) {
  CauserModel model(TinyConfig());
  model.TrainEpoch(TinySplit().train);
  auto explainer = MakeCauserExplainer(model, ExplainMode::kFull);
  const auto& inst = TinySplit().test[0];
  int item = inst.target_items[0];
  EXPECT_EQ(explainer(inst, item),
            model.ExplainScores(inst, item, ExplainMode::kFull));
}

}  // namespace
}  // namespace causer::core
