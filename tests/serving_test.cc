// Serving equivalence suite: a session (AdvanceState appends to its
// window; ScoreFromState and StateRep fold the window from its first step)
// must be bit-identical to scoring the full appended history with
// ScoreAll — for the plain GRU4Rec backbone (whose StateRep folds raw cell
// steps while its ScoreAll runs the tape) and for Causer with either
// backbone, with and without the causal filter, with the user embedding,
// without attention (uniform 1/T weights) and with the free input
// embedding in the step inputs, at every thread count, including window slides past
// max_history, wide steps, repeated items and empty steps. Causer's
// ScoreAll (the grouped serve fold) must in turn equal its per-candidate
// Eq. 10 forward, ScoreCandidate, item by item. The engine's batched GEMM
// + fused top-k responses must in turn equal eval::TopK of those scores.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cpu.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "data/split.h"
#include "eval/evaluator.h"
#include "eval/metrics.h"
#include "models/gru4rec.h"
#include "serve/engine.h"
#include "serve/session_store.h"
#include "tensor/kernels.h"
#include "tensor/primitives/primitives.h"
#include "tensor/quant.h"

namespace causer::serve {
namespace {

const data::Dataset& TinyData() {
  static data::Dataset d = data::MakeDataset(data::TinySpec());
  return d;
}

const data::Split& TinySplit() {
  static data::Split s = data::LeaveLastOut(TinyData());
  return s;
}

core::CauserConfig TinyConfig(core::Backbone backbone) {
  core::CauserConfig c = core::DefaultCauserConfig(TinyData(), backbone);
  c.base.embedding_dim = 8;
  c.base.hidden_dim = 8;
  c.encoder_hidden = 8;
  c.cluster_dim = 8;
  c.aux_steps_per_epoch = 5;
  return c;
}

struct ThreadCountGuard {
  ~ThreadCountGuard() { SetDefaultThreads(1); }
};

/// Appends `history` to a session one step at a time. After every append
/// the session scores equal ScoreAll over the appended prefix, float for
/// float: ScoreFromState, and for a model with the single-GEMM form its
/// StateRep scored against OutputItemTable by the zero-seeded GEMV that
/// ScoreAll's MatMul runs.
void ExpectSessionMatchesScoreAll(models::SequentialRecommender& model,
                                  int user,
                                  const std::vector<data::Step>& history,
                                  const std::string& label) {
  models::SessionState state{user, {}};
  const nn::Tensor* table = model.OutputItemTable();
  std::vector<data::Step> prefix;
  for (size_t t = 0; t < history.size(); ++t) {
    model.AdvanceState(state, history[t]);
    prefix.push_back(history[t]);
    const auto replay = model.ScoreAll(user, prefix);
    std::vector<std::vector<float>> served = {model.ScoreFromState(state)};
    if (table != nullptr) {
      std::vector<float> rep(table->cols());
      ASSERT_TRUE(model.StateRep(state, rep.data())) << label;
      served.emplace_back(table->rows(), 0.0f);
      tensor::kernels::MatMulAdd(table->data().data(), rep.data(),
                                 served.back().data(), table->rows(),
                                 table->cols(), 1, false, false);
    }
    for (const auto& scores : served) {
      ASSERT_EQ(scores.size(), replay.size()) << label << " step " << t;
      for (size_t i = 0; i < replay.size(); ++i) {
        ASSERT_EQ(scores[i], replay[i])
            << label << " user " << user << " step " << t << " item " << i;
      }
    }
  }
}

/// Eq. 10's per-candidate reference: after every appended step, each
/// ScoreAll entry (the grouped one-shot fold) equals ScoreCandidate for
/// that item alone, float for float.
void ExpectScoreAllMatchesCandidates(core::CauserModel& model, int user,
                                     const std::vector<data::Step>& history,
                                     const std::string& label) {
  std::vector<data::Step> prefix;
  for (size_t t = 0; t < history.size(); ++t) {
    prefix.push_back(history[t]);
    const auto scores = model.ScoreAll(user, prefix);
    for (int b = 0; b < static_cast<int>(scores.size()); ++b) {
      ASSERT_EQ(scores[b], model.ScoreCandidate(user, prefix, b))
          << label << " user " << user << " step " << t << " item " << b;
    }
  }
}

/// A deterministic synthetic history longer than max_history (12), so the
/// session window slides and every score re-folds the whole window.
std::vector<data::Step> LongHistory(int user, int num_items, int length) {
  std::vector<data::Step> history(length);
  for (int t = 0; t < length; ++t) {
    history[t].items = {(user * 7 + t * 3) % num_items,
                        (user * 11 + t * 5) % num_items};
  }
  return history;
}

/// LongHistory with a step wider than 64 items and an empty step. The wide
/// step repeats one item 64 times before 8 distinct ones, so the filter
/// splits its candidates only on items past the 64th. Both steps are
/// folded with every window until they slide out.
std::vector<data::Step> IrregularHistory(int user, int num_items,
                                         int length) {
  std::vector<data::Step> history = LongHistory(user, num_items, length);
  history[3].items.assign(64, (user * 5 + 1) % num_items);
  for (int i = 0; i < 8; ++i) {
    history[3].items.push_back((user + i * 5) % num_items);
  }
  history[4].items.clear();
  return history;
}

TEST(ServingEquivalenceTest, Gru4RecSessionMatchesScoreAll) {
  ThreadCountGuard guard;
  models::ModelConfig config;
  config.num_users = TinyData().num_users;
  config.num_items = TinyData().num_items;
  config.embedding_dim = 8;
  config.hidden_dim = 8;
  models::Gru4Rec model(config);
  for (int threads : {1, 8}) {
    SetDefaultThreads(threads);
    const std::string label = "gru4rec t" + std::to_string(threads);
    for (int user : {0, 1, 2}) {
      ExpectSessionMatchesScoreAll(model, user,
                                   TinySplit().test[user].history, label);
      // 30 steps > max_history = 12: the window slides every advance.
      ExpectSessionMatchesScoreAll(
          model, user, LongHistory(user, config.num_items, 30),
          label + " long");
    }
  }
}

TEST(ServingEquivalenceTest, CauserSessionMatchesScoreAll) {
  ThreadCountGuard guard;
  struct Variant {
    bool causal;
    bool user_embedding;
    bool attention = true;
    bool free_input = false;
  };
  for (auto backbone : {core::Backbone::kGru, core::Backbone::kLstm}) {
    for (Variant variant :
         {Variant{true, false}, Variant{false, false}, Variant{true, true},
          Variant{true, false, /*attention=*/false},
          Variant{true, false, true, /*free_input=*/true}}) {
      const bool causal = variant.causal;
      core::CauserConfig config = TinyConfig(backbone);
      config.use_causal = causal;
      config.use_user_embedding = variant.user_embedding;
      config.use_attention = variant.attention;
      config.use_free_input_embedding = variant.free_input;
      core::CauserModel model(config);
      // A couple of epochs makes the learned filter (and so the candidate
      // grouping) nontrivial before the equivalence check.
      core::TrainCauser(model, TinySplit(), {.max_epochs = 2, .patience = 1});
      for (int threads : {1, 8}) {
        SetDefaultThreads(threads);
        const std::string label =
            std::string(backbone == core::Backbone::kGru ? "gru" : "lstm") +
            (causal ? "+causal" : "-causal") +
            (variant.user_embedding ? "+user" : "") +
            (variant.attention ? "" : "-att") +
            (variant.free_input ? "+free" : "") + " t" +
            std::to_string(threads);
        for (int user : {0, 3}) {
          ExpectSessionMatchesScoreAll(
              model, user, TinySplit().test[user].history, label);
          ExpectSessionMatchesScoreAll(
              model, user,
              LongHistory(user, TinyData().num_items, 30), label + " long");
          ExpectSessionMatchesScoreAll(
              model, user,
              IrregularHistory(user, TinyData().num_items, 30),
              label + " irregular");
          ExpectScoreAllMatchesCandidates(
              model, user, TinySplit().test[user].history, label);
          ExpectScoreAllMatchesCandidates(
              model, user,
              LongHistory(user, TinyData().num_items, 30), label + " long");
          ExpectScoreAllMatchesCandidates(
              model, user,
              IrregularHistory(user, TinyData().num_items, 30),
              label + " irregular");
        }
      }
    }
  }
}

TEST(ServingEngineTest, BatchedResponsesMatchScoreAllTopK) {
  ThreadCountGuard guard;
  core::CauserModel model(TinyConfig(core::Backbone::kGru));
  core::TrainCauser(model, TinySplit(), {.max_epochs = 2, .patience = 1});
  ServingConfig sc;
  sc.batch_max = 8;
  sc.top_k = 5;
  ServingEngine engine(model, sc);
  const int num_clients = 8;
  std::vector<Response> responses(num_clients);
  std::vector<std::thread> clients;
  for (int c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      const auto& inst = TinySplit().test[c];
      Request request;
      request.user = inst.user;
      request.bootstrap = &inst.history;
      responses[c] = engine.Handle(request);
    });
  }
  for (auto& client : clients) client.join();
  for (int c = 0; c < num_clients; ++c) {
    const auto& inst = TinySplit().test[c];
    auto scores = model.ScoreAll(inst.user, inst.history);
    auto ranked = eval::TopK(scores, sc.top_k);
    ASSERT_EQ(responses[c].items.size(), ranked.size()) << "user " << c;
    for (size_t j = 0; j < ranked.size(); ++j) {
      EXPECT_EQ(responses[c].items[j], ranked[j]) << "user " << c;
      EXPECT_EQ(responses[c].scores[j], scores[ranked[j]]) << "user " << c;
    }
  }
}

TEST(ServingEngineTest, DuplicateUsersInOneBatchFoldIntoOneSession) {
  models::ModelConfig config;
  config.num_users = TinyData().num_users;
  config.num_items = TinyData().num_items;
  config.embedding_dim = 8;
  config.hidden_dim = 8;
  models::Gru4Rec model(config);
  ServingConfig sc;
  sc.top_k = 5;
  ServingEngine engine(model, sc);
  const auto& history = TinySplit().test[0].history;
  ASSERT_GE(history.size(), 2u);
  std::vector<data::Step> bootstrap(history.begin(), history.end() - 2);
  Request first, second;
  first.user = second.user = TinySplit().test[0].user;
  first.bootstrap = second.bootstrap = &bootstrap;
  first.append = &history[history.size() - 2];
  second.append = &history[history.size() - 1];
  auto responses = engine.ScoreBatch({first, second});
  // Both appends land in order; both requests score the final state.
  auto scores = model.ScoreAll(first.user, history);
  auto ranked = eval::TopK(scores, sc.top_k);
  for (const Response& response : responses) {
    ASSERT_EQ(response.items.size(), ranked.size());
    for (size_t j = 0; j < ranked.size(); ++j) {
      EXPECT_EQ(response.items[j], ranked[j]);
      EXPECT_EQ(response.scores[j], scores[ranked[j]]);
    }
  }
}

// Regression (ASan): a batch with more distinct users than max_sessions
// used to LRU-evict an Entry whose SessionState* an earlier request in the
// same ProcessBatch still held, so Phase 2's StateRep/ScoreFromState read
// freed memory. Sessions referenced by the in-flight batch are now pinned
// (shared handles) and skipped as eviction victims.
TEST(ServingEngineTest, EvictionDuringBatchKeepsInFlightSessionsAlive) {
  models::ModelConfig config;
  config.num_users = TinyData().num_users;
  config.num_items = TinyData().num_items;
  config.embedding_dim = 8;
  config.hidden_dim = 8;
  models::Gru4Rec model(config);
  ServingConfig sc;
  sc.top_k = 3;
  sc.batch_max = 8;
  sc.max_sessions = 2;  // < batch size: later Acquires must evict
  ServingEngine engine(model, sc);
  const int num_users = 8;
  std::vector<Request> requests(num_users);
  for (int u = 0; u < num_users; ++u) {
    requests[u].user = TinySplit().test[u].user;
    requests[u].bootstrap = &TinySplit().test[u].history;
  }
  auto responses = engine.ScoreBatch(requests);
  ASSERT_EQ(responses.size(), static_cast<size_t>(num_users));
  for (int u = 0; u < num_users; ++u) {
    const auto& inst = TinySplit().test[u];
    auto scores = model.ScoreAll(inst.user, inst.history);
    auto ranked = eval::TopK(scores, sc.top_k);
    ASSERT_EQ(responses[u].items.size(), ranked.size()) << "user " << u;
    for (size_t j = 0; j < ranked.size(); ++j) {
      EXPECT_EQ(responses[u].items[j], ranked[j]) << "user " << u;
      EXPECT_EQ(responses[u].scores[j], scores[ranked[j]]) << "user " << u;
    }
  }
  // The cap is exceeded only while the batch pins its sessions; the next
  // session-creating acquire finds them unpinned and shrinks the store
  // back under the cap.
  EXPECT_LE(engine.store().size(), num_users);
  Request fresh;
  fresh.user = TinySplit().test[num_users].user;
  fresh.bootstrap = &TinySplit().test[num_users].history;
  auto follow_up = engine.ScoreBatch({fresh});
  ASSERT_EQ(follow_up.size(), 1u);
  EXPECT_LE(engine.store().size(), sc.max_sessions);
}

TEST(ServingEngineTest, SessionStoreEvictsLruAndRebuildsFromBootstrap) {
  core::CauserModel model(TinyConfig(core::Backbone::kGru));
  ServingConfig sc;
  sc.top_k = 3;
  sc.max_sessions = 4;
  ServingEngine engine(model, sc);
  const int num_users = 16;
  for (int round = 0; round < 2; ++round) {
    for (int u = 0; u < num_users; ++u) {
      const auto& inst = TinySplit().test[u];
      Request request;
      request.user = inst.user;
      request.bootstrap = &inst.history;
      auto responses = engine.ScoreBatch({request});
      ASSERT_EQ(responses.size(), 1u);
      auto scores = model.ScoreAll(inst.user, inst.history);
      auto ranked = eval::TopK(scores, sc.top_k);
      ASSERT_EQ(responses[0].items.size(), ranked.size())
          << "round " << round << " user " << u;
      for (size_t j = 0; j < ranked.size(); ++j) {
        EXPECT_EQ(responses[0].items[j], ranked[j]);
      }
      EXPECT_LE(engine.store().size(), sc.max_sessions);
    }
  }
}

// After Stop, Handle must answer kShuttingDown at once: no scoring, no
// blocking.
TEST(ServingEngineTest, HandleAfterStopFailsFastInsteadOfHanging) {
  models::ModelConfig config;
  config.num_users = TinyData().num_users;
  config.num_items = TinyData().num_items;
  config.embedding_dim = 8;
  config.hidden_dim = 8;
  models::Gru4Rec model(config);
  ServingConfig sc;
  sc.top_k = 3;
  ServingEngine engine(model, sc);
  Request request;
  request.user = TinySplit().test[0].user;
  request.bootstrap = &TinySplit().test[0].history;
  Response before = engine.Handle(request);
  EXPECT_EQ(before.status, ResponseStatus::kOk);
  EXPECT_FALSE(before.items.empty());
  engine.Stop();
  // Would deadlock before the fix; gtest has no timeout, so a hang here is
  // the failure mode the CI job surfaces.
  Response after = engine.Handle(request);
  EXPECT_EQ(after.status, ResponseStatus::kShuttingDown);
  EXPECT_TRUE(after.items.empty());
  engine.Stop();  // idempotent
}

// A negative LRU capacity must clamp to 0 (= unbounded) rather than
// reaching the store raw; the documented contract of the flag table.
TEST(ServingEngineTest, NegativeMaxSessionsClampsToUnbounded) {
  models::ModelConfig config;
  config.num_users = TinyData().num_users;
  config.num_items = TinyData().num_items;
  config.embedding_dim = 8;
  config.hidden_dim = 8;
  models::Gru4Rec model(config);
  ServingConfig sc;
  sc.top_k = 3;
  sc.max_sessions = -5;
  ServingEngine engine(model, sc);
  EXPECT_EQ(engine.config().max_sessions, 0);
  std::vector<Request> requests(6);
  for (int u = 0; u < 6; ++u) {
    requests[u].user = TinySplit().test[u].user;
    requests[u].bootstrap = &TinySplit().test[u].history;
  }
  engine.ScoreBatch(requests);
  EXPECT_EQ(engine.store().size(), 6);
}

// serve.request_seconds must count one observation per request on both
// Handle and ScoreBatch, or latency histograms undercount under test/replay
// traffic.
TEST(ServingEngineTest, RequestSecondsObservedOnBothPaths) {
  models::ModelConfig config;
  config.num_users = TinyData().num_users;
  config.num_items = TinyData().num_items;
  config.embedding_dim = 8;
  config.hidden_dim = 8;
  models::Gru4Rec model(config);
  ServingConfig sc;
  sc.top_k = 3;
  ServingEngine engine(model, sc);
  metrics::SetEnabled(true);
  const uint64_t before = ServeMetrics().request_seconds.Count();
  const uint64_t before_requests = ServeMetrics().requests.Value();
  std::vector<Request> requests(3);
  for (int u = 0; u < 3; ++u) {
    requests[u].user = TinySplit().test[u].user;
    requests[u].bootstrap = &TinySplit().test[u].history;
  }
  engine.ScoreBatch(requests);  // synchronous path: 3 requests
  for (int u = 0; u < 2; ++u) {
    engine.Handle(requests[u]);  // batches of one: 2 requests
  }
  const uint64_t observed = ServeMetrics().request_seconds.Count() - before;
  const uint64_t counted = ServeMetrics().requests.Value() - before_requests;
  metrics::SetEnabled(false);
  EXPECT_EQ(observed, 5u);
  EXPECT_EQ(observed, counted);
}

/// A trained tiny GRU4Rec (the single-GEMM model the int8 path targets).
/// Trained, not fresh: quantization error depends on the learned weight
/// distribution, so the equality claims below must survive real weights.
models::Gru4Rec& TrainedTinyGru() {
  static models::Gru4Rec* model = [] {
    models::ModelConfig config;
    config.num_users = TinyData().num_users;
    config.num_items = TinyData().num_items;
    config.embedding_dim = 8;
    config.hidden_dim = 8;
    auto* m = new models::Gru4Rec(config);
    models::Fit(*m, TinySplit(), {.max_epochs = 2, .patience = 1});
    return m;
  }();
  return *model;
}

std::vector<Request> TestSplitRequests(int count) {
  std::vector<Request> requests(count);
  for (int u = 0; u < count; ++u) {
    requests[u].user = TinySplit().test[u].user;
    requests[u].bootstrap = &TinySplit().test[u].history;
  }
  return requests;
}

/// Restores automatic ISA selection (and 1 thread) when a test exits.
struct IsaGuard {
  ~IsaGuard() {
    cpu::ResetIsaForTest();
    SetDefaultThreads(1);
  }
};

TEST(ServingQuantTest, Int8RerankMatchesFp32TopKAcrossThreadsAndIsas) {
  IsaGuard guard;
  models::Gru4Rec& model = TrainedTinyGru();
  // The default rerank_k (2048) covers this tiny catalog entirely, so the
  // int8+re-rank responses are provably identical to fp32 — items and
  // score bits — whatever the quantization error.
  ServingConfig fp32_config;
  fp32_config.top_k = 5;
  ServingConfig int8_config = fp32_config;
  int8_config.quantize_int8 = true;
  const std::vector<Request> requests = TestSplitRequests(8);
  for (const char* isa : {"scalar", "avx2"}) {
    if (!cpu::SetIsaOverride(isa)) continue;  // tier not compiled in
    for (int threads : {1, 8}) {
      SetDefaultThreads(threads);
      ServingEngine fp32_engine(model, fp32_config);
      ServingEngine int8_engine(model, int8_config);
      const auto fp32 = fp32_engine.ScoreBatch(requests);
      const auto int8 = int8_engine.ScoreBatch(requests);
      ASSERT_EQ(fp32.size(), int8.size());
      for (size_t r = 0; r < fp32.size(); ++r) {
        const std::string label = std::string("isa ") + isa + " t" +
                                  std::to_string(threads) + " req " +
                                  std::to_string(r);
        ASSERT_EQ(fp32[r].items, int8[r].items) << label;
        ASSERT_EQ(fp32[r].scores.size(), int8[r].scores.size()) << label;
        for (size_t j = 0; j < fp32[r].scores.size(); ++j) {
          EXPECT_EQ(fp32[r].scores[j], int8[r].scores[j]) << label;
        }
      }
    }
    cpu::ResetIsaForTest();
  }
}

TEST(ServingQuantTest, Int8ScoresAreFp32ExactEvenWithMinimalRerank) {
  ThreadCountGuard guard;
  models::Gru4Rec& model = TrainedTinyGru();
  // rerank_k clamps down to top_k: the candidate *set* may now deviate
  // from fp32, but every returned score must still carry the fp32 bits of
  // that item's true inner product — the re-rank guarantee.
  ServingConfig sc;
  sc.top_k = 5;
  sc.quantize_int8 = true;
  sc.rerank_k = 1;  // clamped up to top_k by the engine
  ServingEngine engine(model, sc);
  const std::vector<Request> requests = TestSplitRequests(8);
  const auto responses = engine.ScoreBatch(requests);
  for (size_t r = 0; r < responses.size(); ++r) {
    const auto& inst = TinySplit().test[r];
    const auto scores = model.ScoreAll(inst.user, inst.history);
    ASSERT_EQ(responses[r].items.size(), static_cast<size_t>(sc.top_k));
    for (size_t j = 0; j < responses[r].items.size(); ++j) {
      const int item = responses[r].items[j];
      EXPECT_EQ(responses[r].scores[j], scores[item])
          << "req " << r << " item " << item;
    }
  }
}

/// The int8 engine's answer for `request`, rebuilt without the engine: the
/// state its store builds (the bootstrap's most recent max_history steps
/// in a fresh session's window), the kernel's rerank_k candidates for
/// it, one ops.dot per candidate, a full sort, and the first top_k.
std::vector<tensor::kernels::TopKEntry> ReferenceRerank(
    models::Gru4Rec& model, const Request& request, int rerank_k,
    int top_k) {
  const nn::Tensor* table = model.OutputItemTable();
  const tensor::QuantizedMatrix* qtable = model.QuantizedItemTable();
  const int dim = table->cols();
  const int vocab = table->rows();
  models::SessionState state{request.user, {}};
  const auto& history = *request.bootstrap;
  const size_t cap = static_cast<size_t>(model.config().max_history);
  for (size_t t = history.size() > cap ? history.size() - cap : 0;
       t < history.size(); ++t) {
    model.AdvanceState(state, history[t]);
  }
  std::vector<float> rep(dim);
  if (!model.StateRep(state, rep.data())) return {};
  tensor::QuantizedMatrix qrep;
  if (!tensor::QuantizeRows(rep.data(), 1, dim, &qrep)) return {};
  std::vector<tensor::kernels::TopKEntry> cands(rerank_k);
  tensor::kernels::MatMulTopKQ(qrep.data.data(), qrep.scales.data(),
                               qtable->data.data(), qtable->scales.data(), 1,
                               dim, vocab, rerank_k, cands.data());
  const tensor::primitives::Ops& ops = tensor::primitives::Active();
  for (auto& c : cands) {
    const float* row =
        table->data().data() + static_cast<size_t>(c.index) * dim;
    c.score = ops.dot(dim, rep.data(), row);
  }
  std::sort(cands.begin(), cands.end(), tensor::kernels::BetterEntry);
  cands.resize(top_k);
  return cands;
}

TEST(ServingQuantTest, Int8RerankOfPartialCandidateSetMatchesReference) {
  IsaGuard guard;
  models::Gru4Rec& model = TrainedTinyGru();
  // top_k < rerank_k < vocab, with 27 candidates: three dot8 groups of
  // eight and a remainder of three scored through ops.dot. At top_k = 25
  // at least one remainder candidate is returned.
  ServingConfig sc;
  sc.quantize_int8 = true;
  sc.rerank_k = 27;
  ASSERT_LT(sc.rerank_k, TinyData().num_items);
  ASSERT_NE(sc.rerank_k % 8, 0);
  ASSERT_NE(model.QuantizedItemTable(), nullptr);
  const std::vector<Request> requests = TestSplitRequests(8);
  for (cpu::Isa isa : cpu::CompiledIsas()) {
    if (!cpu::IsaSupported(isa)) continue;
    ASSERT_TRUE(cpu::SetIsaOverride(cpu::IsaName(isa)));
    for (int threads : {1, 2, 8}) {
      SetDefaultThreads(threads);
      for (int top_k : {5, 25}) {
        sc.top_k = top_k;
        ServingEngine engine(model, sc);
        const auto responses = engine.ScoreBatch(requests);
        ASSERT_EQ(responses.size(), requests.size());
        for (size_t r = 0; r < requests.size(); ++r) {
          const std::string label = std::string(cpu::IsaName(isa)) + " t" +
                                    std::to_string(threads) + " top" +
                                    std::to_string(top_k) + " req " +
                                    std::to_string(r);
          const auto expected =
              ReferenceRerank(model, requests[r], sc.rerank_k, top_k);
          ASSERT_EQ(responses[r].items.size(), expected.size()) << label;
          for (size_t j = 0; j < expected.size(); ++j) {
            EXPECT_EQ(responses[r].items[j], expected[j].index) << label;
            EXPECT_EQ(std::memcmp(&responses[r].scores[j], &expected[j].score,
                                  sizeof(float)),
                      0)
                << label << " rank " << j;
          }
        }
      }
    }
    cpu::ResetIsaForTest();
  }
}

TEST(ServingQuantTest, Int8NdcgDeltaWithinTolerance) {
  ThreadCountGuard guard;
  models::Gru4Rec& model = TrainedTinyGru();
  // The paper's eval protocol (NDCG@Z, Z = 5) through engine-backed
  // scorers: the int8 path with the default --rerank-k must hold the
  // accuracy gate |NDCG_int8 - NDCG_fp32| <= 1e-3 on the eval suite.
  constexpr int kZ = 5;
  auto engine_scorer = [](ServingEngine& engine, int catalog) {
    return [&engine, catalog](const data::EvalInstance& inst) {
      Request request;
      request.user = inst.user;
      request.bootstrap = &inst.history;
      const Response response = engine.Handle(request);
      // Only the returned top-k carries scores; everything else sinks far
      // below. NDCG@Z with Z <= top_k only reads the first Z ranks, so
      // this reproduces the engine's ranking exactly.
      std::vector<float> scores(catalog, -1e30f);
      for (size_t j = 0; j < response.items.size(); ++j) {
        scores[response.items[j]] = response.scores[j];
      }
      return scores;
    };
  };
  const int catalog = TinyData().num_items;
  ServingConfig fp32_config;
  fp32_config.top_k = kZ;
  ServingConfig int8_config = fp32_config;
  int8_config.quantize_int8 = true;
  ServingEngine fp32_engine(model, fp32_config);
  ServingEngine int8_engine(model, int8_config);
  const auto fp32 = eval::Evaluate(engine_scorer(fp32_engine, catalog),
                                   TinySplit().test, kZ);
  const auto int8 = eval::Evaluate(engine_scorer(int8_engine, catalog),
                                   TinySplit().test, kZ);
  EXPECT_LE(std::fabs(int8.ndcg - fp32.ndcg), 1e-3)
      << "int8 " << int8.ndcg << " fp32 " << fp32.ndcg;
  // With the default rerank_k covering the catalog the delta is exactly 0.
  EXPECT_DOUBLE_EQ(int8.ndcg, fp32.ndcg);
  EXPECT_DOUBLE_EQ(int8.f1, fp32.f1);
}

}  // namespace
}  // namespace causer::serve
