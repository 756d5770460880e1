// TCP front-end suite (src/serve/server.h): wire round-trips must equal
// eval::TopK of the model's scores, malformed/out-of-range requests must be
// rejected without killing the connection, the scheduler must honor
// queue-depth admission, per-request deadlines and priority lanes, a worker
// must score everything queued as one batch, and
// graceful drain must answer every admitted request and cleanly reject
// every later one — no client left blocked — at 1 and 8 workers.

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/net.h"
#include "data/generator.h"
#include "data/split.h"
#include "eval/metrics.h"
#include "models/gru4rec.h"
#include "serve/client.h"
#include "serve/engine.h"
#include "serve/protocol.h"
#include "serve/server.h"

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

/// Untrained GRU4Rec: deterministic from its seed, cheap to build, and
/// exposes the batched GEMM path — plenty for protocol-level tests.
std::unique_ptr<models::Gru4Rec> TinyModel() {
  models::ModelConfig config;
  config.num_users = TinyData().num_users;
  config.num_items = TinyData().num_items;
  config.embedding_dim = 8;
  config.hidden_dim = 8;
  return std::make_unique<models::Gru4Rec>(config);
}

/// The history of test instance `index`, in wire form (bootstrap steps).
std::vector<std::vector<int32_t>> WireHistory(int index) {
  std::vector<std::vector<int32_t>> steps;
  for (const auto& step : TinySplit().test[index].history) {
    steps.emplace_back(step.items.begin(), step.items.end());
  }
  return steps;
}

int WireUser(int index) { return TinySplit().test[index].user; }

void ExpectTopKOf(const wire::ResponseFrame& response,
                  models::SequentialRecommender& model, int index) {
  ASSERT_EQ(response.status, wire::Status::kOk) << "instance " << index;
  const auto& inst = TinySplit().test[index];
  auto scores = model.ScoreAll(inst.user, inst.history);
  auto ranked = eval::TopK(scores, static_cast<int>(response.items.size()));
  ASSERT_EQ(response.items.size(), ranked.size()) << "instance " << index;
  for (size_t j = 0; j < ranked.size(); ++j) {
    EXPECT_EQ(response.items[j], ranked[j]) << "instance " << index;
    EXPECT_EQ(response.scores[j], scores[ranked[j]]) << "instance " << index;
  }
}

void SpinUntil(const std::function<bool()>& done) {
  for (int spin = 0; spin < 2000 && !done(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(done());
}

TEST(ServerTest, ResponsesMatchScoreAllTopKAcrossConnections) {
  auto model = TinyModel();
  ServingConfig sc;
  sc.top_k = 5;
  sc.batch_max = 8;
  ServingEngine engine(*model, sc);
  Server server(engine, ServerConfig{});
  ASSERT_TRUE(server.Start());
  const int num_clients = 4;
  std::vector<std::thread> threads;
  for (int c = 0; c < num_clients; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
      for (int round = 0; round < 2; ++round) {
        const int index = c * 2 + round;
        wire::RequestFrame request;
        request.request_id = static_cast<uint32_t>(100 * c + round);
        request.user = WireUser(index);
        request.bootstrap = WireHistory(index);
        wire::ResponseFrame response;
        ASSERT_TRUE(client.Call(request, &response));
        EXPECT_EQ(response.request_id, request.request_id);
        ExpectTopKOf(response, *model, index);
      }
    });
  }
  for (auto& t : threads) t.join();
  server.Shutdown();
}

TEST(ServerTest, OutOfCatalogItemRejectedWithoutKillingConnection) {
  auto model = TinyModel();
  ServingConfig sc;
  sc.top_k = 3;
  ServingEngine engine(*model, sc);
  Server server(engine, ServerConfig{});
  ASSERT_TRUE(server.Start());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));

  wire::RequestFrame bad;
  bad.request_id = 1;
  bad.user = WireUser(0);
  bad.append = {static_cast<int32_t>(TinyData().num_items)};  // one past
  wire::ResponseFrame response;
  ASSERT_TRUE(client.Call(bad, &response));
  EXPECT_EQ(response.request_id, 1u);
  EXPECT_EQ(response.status, wire::Status::kBadRequest);
  EXPECT_TRUE(response.items.empty());

  // The connection survives a bad request; the next one scores normally.
  wire::RequestFrame good;
  good.request_id = 2;
  good.user = WireUser(0);
  good.bootstrap = WireHistory(0);
  ASSERT_TRUE(client.Call(good, &response));
  EXPECT_EQ(response.request_id, 2u);
  ExpectTopKOf(response, *model, 0);
  server.Shutdown();
}

TEST(ServerTest, QueueDepthAdmissionRejectsWithQueueFull) {
  auto model = TinyModel();
  ServingEngine engine(*model, {.top_k = 3});
  ServerConfig config;
  config.queue_depth = 2;
  Server server(engine, config);
  ASSERT_TRUE(server.Start());
  server.PauseWorkersForTest(true);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  // One connection = one reader = admission in send order: 1 and 2 fill
  // the queue, 3 bounces immediately with the backpressure status.
  for (uint32_t id = 1; id <= 3; ++id) {
    wire::RequestFrame request;
    request.request_id = id;
    request.user = 0;
    ASSERT_TRUE(client.Send(request));
  }
  wire::ResponseFrame response;
  ASSERT_TRUE(client.Receive(&response));
  EXPECT_EQ(response.request_id, 3u);
  EXPECT_EQ(response.status, wire::Status::kQueueFull);
  EXPECT_EQ(server.queue_size(), 2);

  server.PauseWorkersForTest(false);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(client.Receive(&response));
    EXPECT_LE(response.request_id, 2u);
    EXPECT_EQ(response.status, wire::Status::kOk);
  }
  server.Shutdown();
}

TEST(ServerTest, ExpiredDeadlineRejectedBeforeScoring) {
  auto model = TinyModel();
  ServingEngine engine(*model, {.top_k = 3});
  Server server(engine, ServerConfig{});
  ASSERT_TRUE(server.Start());
  server.PauseWorkersForTest(true);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  wire::RequestFrame request;
  request.request_id = 7;
  request.user = 0;
  request.deadline_ms = 30;
  ASSERT_TRUE(client.Send(request));
  SpinUntil([&] { return server.queue_size() == 1; });
  // The request ages past its deadline while workers are paused; on pop it
  // must be rejected without touching the engine.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server.PauseWorkersForTest(false);
  wire::ResponseFrame response;
  ASSERT_TRUE(client.Receive(&response));
  EXPECT_EQ(response.request_id, 7u);
  EXPECT_EQ(response.status, wire::Status::kDeadlineExceeded);
  EXPECT_TRUE(response.items.empty());
  server.Shutdown();
}

TEST(ServerTest, HighPriorityLaneSchedulesAheadOfNormal) {
  auto model = TinyModel();
  ServingEngine engine(*model, {.top_k = 3});
  ServerConfig config;
  config.workers = 1;  // serial pops make the lane order observable
  Server server(engine, config);
  ASSERT_TRUE(server.Start());
  server.PauseWorkersForTest(true);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  wire::RequestFrame normal;
  normal.request_id = 1;
  normal.user = 0;
  ASSERT_TRUE(client.Send(normal));
  wire::RequestFrame high;
  high.request_id = 2;
  high.user = 1;
  high.priority = wire::Priority::kHigh;
  ASSERT_TRUE(client.Send(high));
  SpinUntil([&] { return server.queue_size() == 2; });
  server.PauseWorkersForTest(false);
  // Although the normal request was admitted first, the single worker must
  // pop (and so answer) the high lane first.
  wire::ResponseFrame first, second;
  ASSERT_TRUE(client.Receive(&first));
  ASSERT_TRUE(client.Receive(&second));
  EXPECT_EQ(first.request_id, 2u);
  EXPECT_EQ(first.status, wire::Status::kOk);
  EXPECT_EQ(second.request_id, 1u);
  EXPECT_EQ(second.status, wire::Status::kOk);
  server.Shutdown();
}

// The lanes are the only request queue: a worker pops everything queued
// (up to batch_max) as one batch and scores it with one ScoreBatch call.
TEST(ServerTest, WorkerScoresEverythingQueuedAsOneBatch) {
  auto model = TinyModel();
  ServingConfig sc;
  sc.top_k = 3;
  ServingEngine engine(*model, sc);
  ServerConfig config;
  config.workers = 1;
  Server server(engine, config);
  ASSERT_TRUE(server.Start());
  server.PauseWorkersForTest(true);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  for (int index = 0; index < 3; ++index) {
    wire::RequestFrame request;
    request.request_id = static_cast<uint32_t>(index);
    request.user = WireUser(index);
    request.bootstrap = WireHistory(index);
    ASSERT_TRUE(client.Send(request));
  }
  SpinUntil([&] { return server.queue_size() == 3; });
  metrics::SetEnabled(true);
  const uint64_t batches_before = ServeMetrics().batches.Value();
  const uint64_t sizes_before = ServeMetrics().batch_size.Count();
  const double size_sum_before = ServeMetrics().batch_size.Sum();
  server.PauseWorkersForTest(false);
  for (int index = 0; index < 3; ++index) {
    wire::ResponseFrame response;
    ASSERT_TRUE(client.Receive(&response));
    EXPECT_EQ(response.request_id, static_cast<uint32_t>(index));
    ExpectTopKOf(response, *model, index);
  }
  server.Shutdown();
  const uint64_t batches = ServeMetrics().batches.Value() - batches_before;
  const uint64_t sizes = ServeMetrics().batch_size.Count() - sizes_before;
  const double size_sum = ServeMetrics().batch_size.Sum() - size_sum_before;
  metrics::SetEnabled(false);
  EXPECT_EQ(batches, 1u);
  EXPECT_EQ(sizes, 1u);
  EXPECT_EQ(size_sum, 3.0);
}

/// Drain contract at a given worker count: every admitted request is
/// answered with a real response, every post-drain request with a clean
/// kShuttingDown, and after Shutdown the sockets read EOF — nobody hangs.
void ExpectGracefulDrain(int workers) {
  auto model = TinyModel();
  ServingConfig sc;
  sc.top_k = 3;
  sc.batch_max = 4;
  ServingEngine engine(*model, sc);
  ServerConfig config;
  config.workers = workers;
  Server server(engine, config);
  ASSERT_TRUE(server.Start());
  server.PauseWorkersForTest(true);

  const int num_clients = 3;
  const int per_client = 2;
  std::vector<Client> clients(num_clients);
  for (int c = 0; c < num_clients; ++c) {
    ASSERT_TRUE(clients[c].Connect("127.0.0.1", server.port()))
        << "workers " << workers;
    for (int i = 0; i < per_client; ++i) {
      wire::RequestFrame request;
      request.request_id = static_cast<uint32_t>(10 * c + i);
      request.user = WireUser(c);
      request.bootstrap = WireHistory(c);
      ASSERT_TRUE(clients[c].Send(request));
    }
  }
  SpinUntil([&] { return server.queue_size() == num_clients * per_client; });

  server.BeginDrain();
  // Post-drain requests are rejected by the reader immediately, even while
  // the queued ones are still waiting for (paused) workers.
  for (int c = 0; c < num_clients; ++c) {
    wire::RequestFrame late;
    late.request_id = 99;
    late.user = WireUser(c);
    ASSERT_TRUE(clients[c].Send(late));
    wire::ResponseFrame response;
    ASSERT_TRUE(clients[c].Receive(&response));
    EXPECT_EQ(response.request_id, 99u);
    EXPECT_EQ(response.status, wire::Status::kShuttingDown);
  }

  server.PauseWorkersForTest(false);
  for (int c = 0; c < num_clients; ++c) {
    for (int i = 0; i < per_client; ++i) {
      wire::ResponseFrame response;
      ASSERT_TRUE(clients[c].Receive(&response))
          << "workers " << workers << " client " << c;
      ExpectTopKOf(response, *model, c);
    }
  }
  server.Shutdown();
  // Drained and closed: the next read must see EOF, not block forever.
  wire::ResponseFrame eof;
  for (int c = 0; c < num_clients; ++c) {
    EXPECT_FALSE(clients[c].Receive(&eof)) << "workers " << workers;
  }
  // New connections are refused once the listener is down.
  Client refused;
  EXPECT_FALSE(refused.Connect("127.0.0.1", server.port()));
}

TEST(ServerTest, GracefulDrainAnswersEveryInFlightRequestOneWorker) {
  ExpectGracefulDrain(1);
}

TEST(ServerTest, GracefulDrainAnswersEveryInFlightRequestEightWorkers) {
  ExpectGracefulDrain(8);
}

TEST(ServerTest, ProtocolRoundTripAndMalformedPayloads) {
  wire::RequestFrame request;
  request.request_id = 0xDEADBEEF;
  request.user = 12345;
  request.deadline_ms = 250;
  request.priority = wire::Priority::kHigh;
  request.op = wire::Op::kReload;
  request.append = {1, 2, 3};
  request.bootstrap = {{4}, {5, 6}};
  std::vector<uint8_t> payload;
  wire::EncodeRequest(request, &payload);
  wire::RequestFrame decoded;
  ASSERT_TRUE(wire::DecodeRequest(payload, &decoded));
  EXPECT_EQ(decoded.request_id, request.request_id);
  EXPECT_EQ(decoded.user, request.user);
  EXPECT_EQ(decoded.deadline_ms, request.deadline_ms);
  EXPECT_EQ(decoded.priority, request.priority);
  EXPECT_EQ(decoded.op, request.op);
  EXPECT_EQ(decoded.append, request.append);
  EXPECT_EQ(decoded.bootstrap, request.bootstrap);

  wire::ResponseFrame response;
  response.request_id = 42;
  response.status = wire::Status::kOk;
  response.model_version = 7;
  response.items = {7, 8};
  response.scores = {0.5f, 0.25f};
  wire::EncodeResponse(response, &payload);
  wire::ResponseFrame round;
  ASSERT_TRUE(wire::DecodeResponse(payload, &round));
  EXPECT_EQ(round.request_id, response.request_id);
  EXPECT_EQ(round.model_version, response.model_version);
  EXPECT_EQ(round.items, response.items);
  EXPECT_EQ(round.scores, response.scores);

  // An out-of-range op byte must fail to decode.
  std::vector<uint8_t> bad_op = payload;
  wire::EncodeRequest(request, &bad_op);
  bad_op[2] = 2;  // past Op::kReload
  EXPECT_FALSE(wire::DecodeRequest(bad_op, &decoded));

  // Truncation, trailing garbage and a wrong version must all fail.
  wire::EncodeRequest(request, &payload);
  std::vector<uint8_t> truncated(payload.begin(), payload.end() - 1);
  EXPECT_FALSE(wire::DecodeRequest(truncated, &decoded));
  std::vector<uint8_t> padded = payload;
  padded.push_back(0);
  EXPECT_FALSE(wire::DecodeRequest(padded, &decoded));
  std::vector<uint8_t> wrong_version = payload;
  wrong_version[0] = wire::kVersion + 1;
  EXPECT_FALSE(wire::DecodeRequest(wrong_version, &decoded));
}

}  // namespace
}  // namespace causer::serve
