// Hot-reload suite (src/serve/model_registry.h, ServingEngine::Reload):
// the registry must load parameter dumps and CRC-validated training
// checkpoints and reject corrupt files without touching the live version;
// the engine must swap models with one atomic publish (in-flight batches
// finish on the version they pinned, responses are stamped with the
// version that scored them), rebuild the int8 table on reload, and reject
// catalog-size mismatches; version-stamped session states must be
// rebuilt from bootstrap on next touch bit-identically to a fresh replay
// (GRU and Causer, under LRU pressure and pinning, at 1 and 8 workers);
// the server must honor kReload control frames and the slow-loris read
// deadline; Client::CallWithRetry must ride out torn frames within its
// deadline budget.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/metrics.h"
#include "common/net.h"
#include "core/causer_model.h"
#include "core/checkpoint.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "data/split.h"
#include "eval/metrics.h"
#include "models/gru4rec.h"
#include "nn/serialization.h"
#include "serve/client.h"
#include "serve/engine.h"
#include "serve/model_registry.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/session_store.h"

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

models::ModelConfig GruConfig(uint64_t seed) {
  models::ModelConfig config;
  config.num_users = TinyData().num_users;
  config.num_items = TinyData().num_items;
  config.embedding_dim = 8;
  config.hidden_dim = 8;
  config.seed = seed;
  return config;
}

/// Untrained GRU4Rec seeded differently per call site: cheap, and two
/// seeds give two genuinely different weight sets, so a reload visibly
/// changes every score.
std::shared_ptr<models::Gru4Rec> GruModel(uint64_t seed) {
  return std::make_shared<models::Gru4Rec>(GruConfig(seed));
}

core::CauserConfig TinyCauserConfig(uint64_t seed) {
  core::CauserConfig c =
      core::DefaultCauserConfig(TinyData(), core::Backbone::kGru);
  c.base.embedding_dim = 8;
  c.base.hidden_dim = 8;
  c.base.seed = seed;
  c.encoder_hidden = 8;
  c.cluster_dim = 8;
  return c;
}

/// The bootstrap history for test instance `index`.
const std::vector<data::Step>& History(int index) {
  return TinySplit().test[index].history;
}

void ExpectTopKOfModel(const Response& response,
                       models::SequentialRecommender& model, int user,
                       const std::vector<data::Step>& history,
                       const char* label) {
  ASSERT_EQ(response.status, ResponseStatus::kOk) << label;
  auto scores = model.ScoreAll(user, history);
  auto ranked = eval::TopK(scores, static_cast<int>(response.items.size()));
  ASSERT_EQ(response.items.size(), ranked.size()) << label;
  for (size_t j = 0; j < ranked.size(); ++j) {
    ASSERT_EQ(response.items[j], ranked[j]) << label << " rank " << j;
    ASSERT_EQ(response.scores[j], scores[ranked[j]]) << label << " rank " << j;
  }
}

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

/// Registry-snapshot lookup for metrics whose instrument structs are
/// private to their .cc (the server front-end group).
uint64_t CounterValue(const std::string& name) {
  for (const auto& entry : metrics::Snapshot()) {
    if (entry.name == name) return entry.count;
  }
  return 0;
}

// ---- ModelRegistry ----------------------------------------------------

TEST(ModelRegistryTest, PublishBumpsVersionsAndCurrentIsLatest) {
  ModelRegistry registry;
  EXPECT_EQ(registry.Current(), nullptr);
  auto v1 = registry.Publish(GruModel(1), "a");
  ASSERT_NE(v1, nullptr);
  EXPECT_EQ(v1->version, 1u);
  EXPECT_EQ(v1->source, "a");
  auto v2 = registry.Publish(GruModel(2), "b");
  EXPECT_EQ(v2->version, 2u);
  EXPECT_EQ(registry.Current(), v2);
  // The older version stays alive for whoever still holds it.
  EXPECT_EQ(v1->version, 1u);
  ASSERT_NE(v1->model, nullptr);
}

TEST(ModelRegistryTest, LoadAndPublishReadsParameterDumpsAndCheckpoints) {
  auto dump_source = GruModel(11);
  const std::string dump_path = TempPath("reload_dump.model");
  ASSERT_TRUE(nn::SaveParameters(*dump_source, dump_path));

  auto ckpt_source = GruModel(22);
  models::FitResumeState resume;
  const std::string ckpt_path = TempPath("ckpt-000003.causer");
  ASSERT_TRUE(core::SaveTrainingCheckpoint(*ckpt_source, resume, ckpt_path));

  ModelRegistry registry(
      [] { return std::make_unique<models::Gru4Rec>(GruConfig(99)); });

  auto from_dump = registry.LoadAndPublish(dump_path);
  ASSERT_NE(from_dump, nullptr);
  EXPECT_EQ(from_dump->version, 1u);
  EXPECT_EQ(from_dump->source, dump_path);

  auto from_ckpt = registry.LoadAndPublish(ckpt_path);
  ASSERT_NE(from_ckpt, nullptr);
  EXPECT_EQ(from_ckpt->version, 2u);

  // Restored weights must score bit-identically to their source model.
  const auto& inst = TinySplit().test[0];
  auto dump_scores = from_dump->model->ScoreAll(inst.user, inst.history);
  auto dump_expected = dump_source->ScoreAll(inst.user, inst.history);
  ASSERT_EQ(dump_scores, dump_expected);
  auto ckpt_scores = from_ckpt->model->ScoreAll(inst.user, inst.history);
  auto ckpt_expected = ckpt_source->ScoreAll(inst.user, inst.history);
  ASSERT_EQ(ckpt_scores, ckpt_expected);
  ASSERT_NE(dump_scores, ckpt_scores);  // the seeds really differ

  // The same trained weights through both formats. The checkpoint also
  // carries non-zero optimizer moments and a fit state; the registry loads
  // only its parameters, which must score exactly like the dump's.
  auto trained = GruModel(33);
  trained->TrainEpoch(TinySplit().train);
  const std::string trained_dump = TempPath("reload_trained.model");
  const std::string trained_ckpt = TempPath("ckpt-000004.causer");
  ASSERT_TRUE(nn::SaveParameters(*trained, trained_dump));
  ASSERT_TRUE(core::SaveTrainingCheckpoint(*trained, resume, trained_ckpt));
  auto trained_from_dump = registry.LoadAndPublish(trained_dump);
  auto trained_from_ckpt = registry.LoadAndPublish(trained_ckpt);
  ASSERT_NE(trained_from_dump, nullptr);
  ASSERT_NE(trained_from_ckpt, nullptr);
  EXPECT_EQ(trained_from_ckpt->version, 4u);
  auto trained_scores = trained->ScoreAll(inst.user, inst.history);
  ASSERT_EQ(trained_from_dump->model->ScoreAll(inst.user, inst.history),
            trained_scores);
  ASSERT_EQ(trained_from_ckpt->model->ScoreAll(inst.user, inst.history),
            trained_scores);
}

TEST(ModelRegistryTest, CorruptFileRejectedWithoutTouchingCurrent) {
  ModelRegistry registry(
      [] { return std::make_unique<models::Gru4Rec>(GruConfig(1)); });
  auto live = registry.Publish(GruModel(1), "live");

  const std::string junk_path = TempPath("reload_junk.model");
  std::FILE* f = std::fopen(junk_path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char junk[] = "not a model file";
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);

  EXPECT_EQ(registry.LoadAndPublish(junk_path), nullptr);
  EXPECT_EQ(registry.LoadAndPublish(TempPath("reload_missing.model")),
            nullptr);
  EXPECT_EQ(registry.Current(), live);
}

// ---- ServingEngine::Reload --------------------------------------------

TEST(EngineReloadTest, ReloadSwapsVersionAndStampsResponses) {
  auto a = GruModel(1);
  auto b = GruModel(2);
  ServingConfig sc;
  sc.top_k = 5;
  ServingEngine engine(a, sc);
  EXPECT_EQ(engine.active_version(), 1u);

  Request request;
  request.user = TinySplit().test[0].user;
  request.bootstrap = &History(0);
  Response before = engine.Handle(request);
  EXPECT_EQ(before.model_version, 1u);
  ExpectTopKOfModel(before, *a, request.user, History(0), "v1");

  EXPECT_EQ(engine.Reload(b, "b"), 2u);
  EXPECT_EQ(engine.active_version(), 2u);
  Response after = engine.Handle(request);
  EXPECT_EQ(after.model_version, 2u);
  ExpectTopKOfModel(after, *b, request.user, History(0), "v2");
  ASSERT_NE(before.scores, after.scores);
}

TEST(EngineReloadTest, RejectsNullAndCatalogMismatch) {
  metrics::SetEnabled(true);
  const uint64_t failures_before = ServeMetrics().reload_failures.Value();
  ServingConfig sc;
  ServingEngine engine(GruModel(1), sc);
  EXPECT_EQ(engine.Reload(nullptr), 0u);
  models::ModelConfig small = GruConfig(3);
  small.num_items = TinyData().num_items / 2;
  EXPECT_EQ(engine.Reload(std::make_shared<models::Gru4Rec>(small)), 0u);
  EXPECT_EQ(engine.active_version(), 1u);
  EXPECT_EQ(ServeMetrics().reload_failures.Value(), failures_before + 2);
  metrics::SetEnabled(false);
}

TEST(EngineReloadTest, QuantizedTableRebuiltOnReload) {
  auto b = GruModel(2);
  ServingConfig sc;
  sc.top_k = 5;
  sc.quantize_int8 = true;
  sc.rerank_k = TinyData().num_items;  // full re-rank: bit-identical to fp32
  ServingEngine engine(GruModel(1), sc);
  ASSERT_EQ(engine.Reload(b, "b"), 2u);
  Request request;
  request.user = TinySplit().test[1].user;
  request.bootstrap = &History(1);
  Response response = engine.Handle(request);
  EXPECT_EQ(response.model_version, 2u);
  ExpectTopKOfModel(response, *b, request.user, History(1), "quantized v2");
}

TEST(EngineReloadTest, MidBatchReloadPinsTheVersionThatStartedScoring) {
  // Widen the pin-to-score window so reloads land mid-batch, then check
  // every response against the weights of the version stamped on it:
  // versions alternate a (odd) / b (even) by construction below.
  fault::Arm("serve.reload_mid_batch", 1, 1000000000);
  auto a = GruModel(1);
  auto b = GruModel(2);
  ServingConfig sc;
  sc.top_k = 5;
  sc.batch_max = 4;
  ServingEngine engine(a, sc);

  std::atomic<bool> stop{false};
  std::thread reloader([&] {
    for (int round = 0; round < 20; ++round) {
      engine.Reload(round % 2 == 0 ? b : a);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    stop.store(true);
  });

  const int kClients = 4;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const int index = c % static_cast<int>(TinySplit().test.size());
      Request request;
      request.user = TinySplit().test[index].user;
      request.bootstrap = &History(index);
      while (!stop.load()) {
        Response response = engine.Handle(request);
        ASSERT_EQ(response.status, ResponseStatus::kOk);
        ASSERT_GE(response.model_version, 1u);
        models::SequentialRecommender& expected =
            response.model_version % 2 == 1 ? *a : *b;
        ExpectTopKOfModel(response, expected, request.user, History(index),
                          "mid-batch reload");
      }
    });
  }
  for (auto& t : clients) t.join();
  reloader.join();
  fault::DisarmAll();
}

// ---- SessionStore version invalidation --------------------------------

/// Stale rebuild == fresh replay, bit for bit: a state built by version 1
/// and touched under version 2 must be indistinguishable from a state
/// built under version 2 from scratch.
void ExpectStaleRebuildMatchesFreshReplay(
    const std::shared_ptr<models::SequentialRecommender>& m1,
    const std::shared_ptr<models::SequentialRecommender>& m2,
    const char* label) {
  metrics::SetEnabled(true);
  const uint64_t rebuilds_before = ServeMetrics().stale_rebuilds.Value();
  const int user = TinySplit().test[0].user;
  const auto& bootstrap = History(0);

  SessionStore store(0);
  auto v1_state = store.Acquire(user, &bootstrap, m1, 1);
  auto v1_scores = m1->ScoreFromState(*v1_state);
  ASSERT_EQ(v1_scores, m1->ScoreAll(user, bootstrap)) << label;

  // Touch under version 2: the stale entry must be rebuilt with m2.
  auto v2_state = store.Acquire(user, &bootstrap, m2, 2);
  ASSERT_NE(v2_state.get(), v1_state.get()) << label;
  auto rebuilt = m2->ScoreFromState(*v2_state);
  ASSERT_EQ(rebuilt, m2->ScoreAll(user, bootstrap)) << label;
  ASSERT_NE(rebuilt, v1_scores) << label;  // weights really changed

  // The pre-reload handle still pins a usable state for its own model —
  // an in-flight batch keeps scoring the version it started on.
  ASSERT_EQ(m1->ScoreFromState(*v1_state), v1_scores) << label;
  EXPECT_EQ(ServeMetrics().stale_rebuilds.Value(), rebuilds_before + 1)
      << label;
  metrics::SetEnabled(false);
}

TEST(SessionStoreReloadTest, StaleRebuildMatchesFreshReplayGru) {
  ExpectStaleRebuildMatchesFreshReplay(GruModel(1), GruModel(2), "gru");
}

TEST(SessionStoreReloadTest, StaleRebuildMatchesFreshReplayCauser) {
  auto m1 = std::make_shared<core::CauserModel>(TinyCauserConfig(1));
  auto m2 = std::make_shared<core::CauserModel>(TinyCauserConfig(2));
  ExpectStaleRebuildMatchesFreshReplay(m1, m2, "causer");
}

TEST(SessionStoreReloadTest, LruEvictionAndPinningAcrossVersions) {
  auto m1 = GruModel(1);
  auto m2 = GruModel(2);
  SessionStore store(2);
  const auto& bootstrap = History(0);

  // Fill the store; keep user 100 pinned across the version bump.
  auto pinned = store.Acquire(100, &bootstrap, m1, 1);
  store.Acquire(200, &bootstrap, m1, 1);
  ASSERT_EQ(store.size(), 2);

  // A third user under the new version evicts the unpinned entry, never
  // the pinned one.
  store.Acquire(300, &bootstrap, m2, 2);
  ASSERT_EQ(store.size(), 2);
  auto expected_pinned = m1->ScoreFromState(*pinned);
  ASSERT_EQ(expected_pinned, m1->ScoreAll(100, bootstrap));

  // Touching the pinned user under version 2 rebuilds its entry; the old
  // handle keeps the version-1 state alive and bit-stable regardless.
  auto rebuilt = store.Acquire(100, &bootstrap, m2, 2);
  ASSERT_NE(rebuilt.get(), pinned.get());
  ASSERT_EQ(m2->ScoreFromState(*rebuilt), m2->ScoreAll(100, bootstrap));
  ASSERT_EQ(m1->ScoreFromState(*pinned), expected_pinned);
}

TEST(SessionStoreReloadTest,
     RetiredVersionsFreedWhileStaleSessionsStayCached) {
  // The engine is the only owner of each version (the test keeps weak
  // pointers), so a retired version stays alive only if the serving stack
  // still pins it. User A is cached at v1 and then left alone across two
  // reloads; its stale entry must not keep v1's weights alive.
  ServingConfig sc;
  sc.top_k = 5;
  Request a, b;
  a.user = TinySplit().test[0].user;
  a.bootstrap = &History(0);
  b.user = TinySplit().test[1].user;
  b.bootstrap = &History(1);
  ASSERT_NE(a.user, b.user);

  std::shared_ptr<models::SequentialRecommender> m1 = GruModel(1);
  std::weak_ptr<models::SequentialRecommender> v1 = m1;
  ServingEngine engine(std::move(m1), sc);
  for (const Response& r : engine.ScoreBatch({a, b})) {
    ASSERT_EQ(r.model_version, 1u);
  }
  ASSERT_EQ(engine.store().size(), 2);

  std::shared_ptr<models::SequentialRecommender> m2 = GruModel(2);
  std::weak_ptr<models::SequentialRecommender> v2 = m2;
  ASSERT_EQ(engine.Reload(std::move(m2)), 2u);
  ASSERT_EQ(engine.Handle(b).model_version, 2u);
  auto m3 = GruModel(3);
  ASSERT_EQ(engine.Reload(m3), 3u);
  ASSERT_EQ(engine.Handle(b).model_version, 3u);

  EXPECT_TRUE(v1.expired());
  EXPECT_TRUE(v2.expired());
  EXPECT_EQ(engine.store().size(), 2);  // A's stale v1 entry is still cached

  // A's next request rebuilds its stale entry under v3, exactly.
  Response response = engine.Handle(a);
  EXPECT_EQ(response.model_version, 3u);
  ExpectTopKOfModel(response, *m3, a.user, History(0), "A after reloads");
}

void ExpectReloadConsistencyAtThreadCount(int num_threads) {
  auto a = GruModel(1);
  auto b = GruModel(2);
  ServingConfig sc;
  sc.top_k = 5;
  sc.batch_max = 8;
  sc.max_sessions = 4;  // LRU pressure: rebuilds interleave with reloads
  ServingEngine engine(a, sc);

  auto run_pass = [&](uint64_t expect_version,
                      models::SequentialRecommender& expect_model) {
    std::vector<std::thread> threads;
    for (int t = 0; t < num_threads; ++t) {
      threads.emplace_back([&, t] {
        for (int round = 0; round < 6; ++round) {
          const int index =
              (t + round) % static_cast<int>(TinySplit().test.size());
          Request request;
          request.user = TinySplit().test[index].user;
          request.bootstrap = &History(index);
          Response response = engine.Handle(request);
          ASSERT_EQ(response.model_version, expect_version);
          ExpectTopKOfModel(response, expect_model, request.user,
                            History(index), "reload consistency");
        }
      });
    }
    for (auto& thread : threads) thread.join();
  };

  run_pass(1, *a);
  ASSERT_EQ(engine.Reload(b), 2u);
  run_pass(2, *b);  // every surviving session entry is stale here
  ASSERT_EQ(engine.Reload(a), 3u);
  run_pass(3, *a);
}

TEST(SessionStoreReloadTest, StaleSessionsRebuiltConsistentlyOneWorker) {
  ExpectReloadConsistencyAtThreadCount(1);
}

TEST(SessionStoreReloadTest, StaleSessionsRebuiltConsistentlyEightWorkers) {
  ExpectReloadConsistencyAtThreadCount(8);
}

// ---- Server: kReload frames and the slow-loris guard ------------------

TEST(ServerReloadTest, WireReloadOpSwapsModelAndAcksNewVersion) {
  auto a = GruModel(1);
  auto b = GruModel(2);
  ServingConfig sc;
  sc.top_k = 5;
  ServingEngine engine(a, sc);
  ServerConfig server_config;
  server_config.on_reload = [&] { return engine.Reload(b) != 0; };
  Server server(engine, server_config);
  ASSERT_TRUE(server.Start());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  wire::RequestFrame reload;
  reload.request_id = 7;
  reload.op = wire::Op::kReload;
  wire::ResponseFrame ack;
  ASSERT_TRUE(client.Call(reload, &ack));
  EXPECT_EQ(ack.request_id, 7u);
  EXPECT_EQ(ack.status, wire::Status::kOk);
  EXPECT_EQ(ack.model_version, 2u);

  // The connection survives the control frame and now serves version 2.
  wire::RequestFrame score;
  score.request_id = 8;
  score.user = TinySplit().test[0].user;
  for (const auto& step : History(0)) {
    score.bootstrap.emplace_back(step.items.begin(), step.items.end());
  }
  wire::ResponseFrame response;
  ASSERT_TRUE(client.Call(score, &response));
  ASSERT_EQ(response.status, wire::Status::kOk);
  EXPECT_EQ(response.model_version, 2u);
  auto scores = b->ScoreAll(score.user, History(0));
  auto ranked = eval::TopK(scores, static_cast<int>(response.items.size()));
  for (size_t j = 0; j < ranked.size(); ++j) {
    EXPECT_EQ(response.items[j], ranked[j]);
    EXPECT_EQ(response.scores[j], scores[ranked[j]]);
  }

  // A malformed reload (payload attached) and a hook failure both ack
  // kReloadFailed without killing the connection.
  wire::RequestFrame bad = reload;
  bad.request_id = 9;
  bad.append = {1};
  ASSERT_TRUE(client.Call(bad, &ack));
  EXPECT_EQ(ack.status, wire::Status::kReloadFailed);
  server.Shutdown();
}

TEST(ServerReloadTest, ReloadWithoutHookAcksReloadFailed) {
  ServingConfig sc;
  ServingEngine engine(GruModel(1), sc);
  Server server(engine, ServerConfig{});
  ASSERT_TRUE(server.Start());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  wire::RequestFrame reload;
  reload.op = wire::Op::kReload;
  wire::ResponseFrame ack;
  ASSERT_TRUE(client.Call(reload, &ack));
  EXPECT_EQ(ack.status, wire::Status::kReloadFailed);
  EXPECT_EQ(ack.model_version, 1u);
  server.Shutdown();
}

TEST(ServerReloadTest, IdleConnectionClosedBySlowLorisGuard) {
  metrics::SetEnabled(true);
  const uint64_t timeouts_before =
      CounterValue("server.conn_idle_timeout_total");
  ServingConfig sc;
  ServingEngine engine(GruModel(1), sc);
  ServerConfig server_config;
  server_config.idle_timeout_ms = 100;
  Server server(engine, server_config);
  ASSERT_TRUE(server.Start());

  // A slow-loris peer: connects, sends nothing. The read deadline must
  // close it — observed here as EOF on our side.
  const int fd = net::ConnectTcp("127.0.0.1", server.port());
  ASSERT_GE(fd, 0);
  std::vector<uint8_t> payload;
  net::ReadError error = net::ReadError::kNone;
  EXPECT_FALSE(net::ReadFrame(fd, &payload, wire::kMaxFrameBytes, &error));
  EXPECT_EQ(error, net::ReadError::kClosed);
  net::CloseSocket(fd);
  EXPECT_EQ(CounterValue("server.conn_idle_timeout_total"),
            timeouts_before + 1);

  // A live connection with traffic inside the deadline is unaffected.
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  wire::RequestFrame request;
  request.user = TinySplit().test[0].user;
  for (const auto& step : History(0)) {
    request.bootstrap.emplace_back(step.items.begin(), step.items.end());
  }
  wire::ResponseFrame response;
  ASSERT_TRUE(client.Call(request, &response));
  EXPECT_EQ(response.status, wire::Status::kOk);
  server.Shutdown();
  metrics::SetEnabled(false);
}

// ---- Client retry ------------------------------------------------------

TEST(ClientRetryTest, RetriesThroughTornFrameWithinDeadline) {
  ServingConfig sc;
  sc.top_k = 3;
  auto model = GruModel(1);
  ServingEngine engine(model, sc);
  Server server(engine, ServerConfig{});
  ASSERT_TRUE(server.Start());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));

  wire::RequestFrame request;
  request.request_id = 1;
  request.user = TinySplit().test[0].user;
  request.deadline_ms = 5000;
  for (const auto& step : History(0)) {
    request.bootstrap.emplace_back(step.items.begin(), step.items.end());
  }

  // The first WriteFrame in this single-client exchange is ours; tearing
  // it breaks the connection mid-frame, and CallWithRetry must reconnect
  // and resend (idempotent scoring) rather than surface the failure.
  fault::Arm("net.torn_write", 1, 1);
  wire::ResponseFrame response;
  EXPECT_TRUE(client.CallWithRetry(request, &response));
  fault::DisarmAll();
  EXPECT_EQ(response.status, wire::Status::kOk);
  EXPECT_GE(response.attempts, 2);

  // A plain follow-up Call on the recovered connection still works (the
  // retry path must not leave a poisoned receive timeout behind).
  request.request_id = 2;
  EXPECT_TRUE(client.Call(request, &response));
  EXPECT_EQ(response.status, wire::Status::kOk);
  server.Shutdown();
}

TEST(ClientRetryTest, DeadlineBudgetBoundsRetries) {
  // No listener: every attempt fails to connect. The deadline budget must
  // cut the retry loop short well before max_attempts' worth of backoff.
  Client client;
  EXPECT_FALSE(client.Connect("127.0.0.1", 1));  // port 1: nothing listens
  wire::RequestFrame request;
  request.deadline_ms = 100;
  RetryPolicy policy;
  policy.max_attempts = 1000;
  policy.initial_backoff_ms = 40;
  policy.max_backoff_ms = 40;
  const auto start = std::chrono::steady_clock::now();
  wire::ResponseFrame response;
  EXPECT_FALSE(client.CallWithRetry(request, &response, policy));
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GE(response.attempts, 1);
  EXPECT_LT(response.attempts, 10);
  EXPECT_LT(elapsed, 2.0);  // nowhere near 1000 attempts of backoff
}

}  // namespace
}  // namespace causer::serve
