// Model-based serving test: seeded random traffic over a few users drives
// the session API and the serving engine through 0-3 appends between
// scores (empty steps and one step wider than 64 items among them), scores
// that reuse a cached session with no append, duplicate users in one
// batch, LRU and explicit evictions, hot reloads, and in-place parameter
// changes mid-session. Every score must equal the ScoreAll oracle over the
// user's whole appended history, and every engine response eval::TopK of
// it, bit for bit — for GRU4Rec and Causer (GRU and LSTM backbones, and
// GRU with the user embedding), fp32 and int8 (rerank_k = catalog), at 1
// and 8 threads. Causer's ScoreAll is itself the serve fold, so the
// session API also checks it against ScoreCandidate, the per-candidate
// Eq. 10 forward, item by item.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "data/split.h"
#include "eval/metrics.h"
#include "models/gru4rec.h"
#include "serve/engine.h"
#include "tensor/kernels.h"

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

struct ThreadCountGuard {
  ~ThreadCountGuard() { SetDefaultThreads(1); }
};

constexpr int kUsers = 5;
constexpr int kRounds = 60;
constexpr int kTopK = 5;

enum class Arch { kGru4Rec, kCauserGru, kCauserLstm, kCauserGruUser };

constexpr Arch kArchs[] = {Arch::kGru4Rec, Arch::kCauserGru,
                           Arch::kCauserLstm, Arch::kCauserGruUser};

const char* ArchName(Arch arch) {
  switch (arch) {
    case Arch::kGru4Rec:
      return "gru4rec";
    case Arch::kCauserGru:
      return "causer-gru";
    case Arch::kCauserLstm:
      return "causer-lstm";
    case Arch::kCauserGruUser:
      return "causer-gru-user";
  }
  return "?";
}

/// A trained model of `arch`, built once per (arch, seed). The two seeds
/// are the two weight sets a reload swaps between.
std::shared_ptr<models::SequentialRecommender> Model(Arch arch, int seed) {
  static std::map<std::pair<Arch, int>,
                  std::shared_ptr<models::SequentialRecommender>>
      cache;
  auto& model = cache[{arch, seed}];
  if (model != nullptr) return model;
  if (arch == Arch::kGru4Rec) {
    models::ModelConfig config;
    config.num_users = TinyData().num_users;
    config.num_items = TinyData().num_items;
    config.embedding_dim = 8;
    config.hidden_dim = 8;
    config.seed = 7 + seed;
    auto gru = std::make_shared<models::Gru4Rec>(config);
    models::Fit(*gru, TinySplit(), {.max_epochs = 1, .patience = 1});
    model = gru;
  } else {
    core::CauserConfig c = core::DefaultCauserConfig(
        TinyData(), arch == Arch::kCauserLstm ? core::Backbone::kLstm
                                              : core::Backbone::kGru);
    c.use_user_embedding = arch == Arch::kCauserGruUser;
    c.base.embedding_dim = 8;
    c.base.hidden_dim = 8;
    c.base.seed = 7 + seed;
    c.encoder_hidden = 8;
    c.cluster_dim = 8;
    c.aux_steps_per_epoch = 5;
    auto causer = std::make_shared<core::CauserModel>(c);
    // Trained, so the learned filter splits the candidates into groups.
    core::TrainCauser(*causer, TinySplit(), {.max_epochs = 2, .patience = 1});
    model = causer;
  }
  return model;
}

/// Empty with probability 0.15, else 1-3 items (repeats allowed).
data::Step RandomStep(Rng& rng) {
  data::Step step;
  if (rng.Bernoulli(0.15)) return step;
  const int n = 1 + rng.UniformInt(3);
  for (int i = 0; i < n; ++i) {
    step.items.push_back(rng.UniformInt(TinyData().num_items));
  }
  return step;
}

/// One item 64 times, then 8 more: wider than 64 items.
data::Step WideStep(Rng& rng) {
  data::Step step;
  step.items.assign(64, rng.UniformInt(TinyData().num_items));
  for (int i = 0; i < 8; ++i) {
    step.items.push_back(rng.UniformInt(TinyData().num_items));
  }
  return step;
}

/// The first step drawn from round 5 on is wide; every other one random.
data::Step NextStep(Rng& rng, int round, bool* wide_sent) {
  if (round < 5 || *wide_sent) return RandomStep(rng);
  *wide_sent = true;
  return WideStep(rng);
}

/// Nudges every parameter in place, then signals the change (Causer
/// refreshes its filter caches, the base drops the int8 table). A session
/// scored after it must see only the new weights.
void PerturbParameters(models::SequentialRecommender& model, Rng& rng) {
  for (nn::Tensor& p : model.Parameters()) {
    for (float& x : p.data()) {
      x += 0.05f * static_cast<float>(rng.Uniform() - 0.5);
    }
  }
  model.OnParametersRestored();
}

void ExpectSameBits(const std::vector<float>& got,
                    const std::vector<float>& want, const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  ASSERT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
            0)
      << label;
}

/// The session API without the engine: 0-3 AdvanceState calls between
/// scores (so a window may be scored twice unchanged), with the parameters
/// nudged mid-session. GRU4Rec's StateRep, scored against its item table
/// by the zero-seeded GEMV ScoreAll's MatMul runs, must match too.
void RunSessionApi(Arch arch, int threads) {
  SetDefaultThreads(threads);
  const bool causer = arch != Arch::kGru4Rec;
  models::SequentialRecommender& model = *Model(arch, 0);
  Rng rng(100 + 10 * static_cast<int>(arch) + threads);
  bool wide_sent = false;
  for (int u = 0; u < 2; ++u) {
    const int user = TinySplit().test[u].user;
    models::SessionState state{user, {}};
    std::vector<data::Step> history;
    for (int round = 0; round < kRounds; ++round) {
      const int appends = rng.UniformInt(4);
      for (int a = 0; a < appends; ++a) {
        history.push_back(NextStep(rng, round, &wide_sent));
        model.AdvanceState(state, history.back());
      }
      if (round % 20 == 13) PerturbParameters(model, rng);
      const std::string label = std::string(ArchName(arch)) + " t" +
                                std::to_string(threads) + " user " +
                                std::to_string(u) + " round " +
                                std::to_string(round);
      const std::vector<float> want = model.ScoreAll(user, history);
      ExpectSameBits(model.ScoreFromState(state), want, label);
      if (::testing::Test::HasFatalFailure()) return;
      std::vector<float> rep(model.config().embedding_dim);
      if (!causer && model.StateRep(state, rep.data())) {
        const nn::Tensor& table = *model.OutputItemTable();
        std::vector<float> scores(table.rows(), 0.0f);
        tensor::kernels::MatMulAdd(table.data().data(), rep.data(),
                                   scores.data(), table.rows(), table.cols(),
                                   1, false, false);
        ExpectSameBits(scores, want, label + " StateRep");
        if (::testing::Test::HasFatalFailure()) return;
      }
      if (causer) {
        auto& causer_model = dynamic_cast<core::CauserModel&>(model);
        std::vector<float> reference(want.size());
        for (size_t b = 0; b < want.size(); ++b) {
          reference[b] = causer_model.ScoreCandidate(user, history,
                                                     static_cast<int>(b));
        }
        ExpectSameBits(want, reference, label + " vs ScoreCandidate");
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

/// Random batches through one engine; every response is checked against
/// the oracle over the user's history after the whole batch.
void RunEngine(Arch arch, bool int8, int threads) {
  SetDefaultThreads(threads);
  const bool causer = arch != Arch::kGru4Rec;
  const std::string name = std::string(ArchName(arch)) +
                           (int8 ? " int8" : " fp32") + " t" +
                           std::to_string(threads);
  std::shared_ptr<models::SequentialRecommender> versions[2] = {
      Model(arch, 0), Model(arch, 1)};
  int current = 0;
  ServingConfig sc;
  sc.top_k = kTopK;
  sc.max_sessions = 3;  // < kUsers: the LRU cap evicts too
  sc.quantize_int8 = int8;
  sc.rerank_k = TinyData().num_items;  // int8 responses are fp32-exact
  ServingEngine engine(versions[current], sc);
  Rng rng(1000 + 100 * static_cast<int>(arch) + 10 * int8 + threads);

  std::vector<int> users(kUsers);
  std::vector<std::vector<data::Step>> history(kUsers);
  for (int u = 0; u < kUsers; ++u) {
    users[u] = TinySplit().test[u].user;
    // The last user starts with an empty history.
    if (u + 1 < kUsers) history[u] = TinySplit().test[u].history;
  }
  bool wide_sent = false;
  for (int round = 0; round < kRounds; ++round) {
    if (rng.Bernoulli(0.1)) engine.store().Evict(users[rng.UniformInt(kUsers)]);
    if (round % 15 == 7) {
      current ^= 1;
      ASSERT_NE(engine.Reload(versions[current]), 0u) << name;
    }
    if (causer && round % 20 == 13) {
      PerturbParameters(*versions[current], rng);
    }

    // 1-3 runs of requests, each for a random user with 0-3 appends (one
    // request per append, or one request without an append). Runs for the
    // same user may interleave with other users' runs.
    std::deque<std::vector<data::Step>> bootstraps;
    std::deque<data::Step> appends;
    std::vector<Request> batch;
    std::vector<int> batch_user;
    const int runs = 1 + rng.UniformInt(3);
    for (int r = 0; r < runs; ++r) {
      const int u = rng.UniformInt(kUsers);
      const int n = rng.UniformInt(4);
      for (int a = 0; a < std::max(n, 1); ++a) {
        Request request;
        request.user = users[u];
        request.bootstrap = &bootstraps.emplace_back(history[u]);
        if (a < n) {
          appends.push_back(NextStep(rng, round, &wide_sent));
          history[u].push_back(appends.back());
          request.append = &appends.back();
        }
        batch.push_back(request);
        batch_user.push_back(u);
      }
    }
    const std::vector<Response> responses = engine.ScoreBatch(batch);
    ASSERT_EQ(responses.size(), batch.size()) << name;
    for (size_t i = 0; i < batch.size(); ++i) {
      const std::string label =
          name + " round " + std::to_string(round) + " request " +
          std::to_string(i);
      const int u = batch_user[i];
      const Response& response = responses[i];
      ASSERT_EQ(response.model_version, engine.active_version()) << label;
      const std::vector<float> scores =
          versions[current]->ScoreAll(users[u], history[u]);
      const std::vector<int> ranked = eval::TopK(scores, kTopK);
      ASSERT_EQ(response.items, ranked) << label;
      std::vector<float> want;
      for (int item : ranked) want.push_back(scores[item]);
      ExpectSameBits(response.scores, want, label);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  ASSERT_TRUE(wide_sent) << name;
}

TEST(ServingModelTest, SessionApiMatchesScoreAll) {
  ThreadCountGuard guard;
  for (Arch arch : kArchs) {
    for (int threads : {1, 8}) {
      RunSessionApi(arch, threads);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(ServingModelTest, EngineMatchesScoreAllTopK) {
  ThreadCountGuard guard;
  for (Arch arch : kArchs) {
    for (bool int8 : {false, true}) {
      for (int threads : {1, 8}) {
        RunEngine(arch, int8, threads);
        if (HasFatalFailure()) return;
      }
    }
  }
}

}  // namespace
}  // namespace causer::serve
