// Network serving benchmark: the TCP front-end (src/serve/server.h) over
// the serving engine, exercised in-process over loopback — wire
// encode/decode, per-connection readers, the two-lane scheduler and the
// workers' batching into ScoreBatch all included.
//
// Closed-loop: each client thread owns one connection and one in-flight
// request (latency here is honest per-call round-trip time; the open-loop
// tail hunter is tools/causer_loadgen.cc against a real process).
//
// Two phases: steady state, then the same traffic with a reloader thread
// continuously hot-swapping between two weight sets — the zero-downtime
// claim, measured: Reload publishes with one atomic store and never
// touches the score path, so the reload-phase tail must stay close to
// steady state.
//
// Gates (exit code): every steady-state response kOk and bit-identical to
// the engine's synchronous ScoreBatch for the same session; every
// reload-phase response bit-identical to the weights of the version
// stamped on it; QPS > 0; and (full runs only — smoke timings are noise)
// reload-phase p99 within 2x of steady-state p99. Writes a
// BENCH_server.json report (path = the one positional argument, default
// ./BENCH_server.json). Any other flag or argument exits 2.
//
// `--smoke` shrinks the request count for CI.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "eval/metrics.h"
#include "serve/client.h"
#include "serve/engine.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace {

using namespace causer;

constexpr int kNumItems = 500;
constexpr int kClients = 4;

models::ModelConfig BenchModelConfig(uint64_t seed) {
  models::ModelConfig config;
  config.num_users = 64;
  config.num_items = kNumItems;
  config.embedding_dim = 32;
  config.hidden_dim = 32;
  config.seed = seed;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args =
      bench::ParseBenchArgs(argc, argv, "BENCH_server.json");
  const bool smoke = args.smoke;
  const std::string& out_path = args.report;

  bench::PrintHeader(
      "Network serving: TCP front-end over the batched engine",
      "Wang et al., ICDE 2023 (serving engine; no paper figure)");
  SetDefaultThreads(1);
  const int per_client = smoke ? 200 : 2000;

  auto model_a = std::make_shared<models::Gru4Rec>(BenchModelConfig(7));
  auto model_b = std::make_shared<models::Gru4Rec>(BenchModelConfig(13));
  serve::ServingConfig sc;
  sc.top_k = 10;
  sc.batch_max = kClients;
  serve::ServingEngine engine(model_a, sc);
  serve::ServerConfig server_config;
  server_config.workers = kClients;
  serve::Server server(engine, server_config);
  if (!server.Start()) {
    std::fprintf(stderr, "FAILED to bind the loopback server\n");
    return 1;
  }

  // Reference answers from the synchronous engine path, one per user: the
  // wire responses must match bit for bit (same sessions, no appends).
  std::vector<serve::Response> expected(kClients);
  for (int c = 0; c < kClients; ++c) {
    serve::Request request;
    request.user = c;
    expected[c] = engine.ScoreBatch({request})[0];
  }

  std::vector<std::vector<double>> latencies(kClients);
  std::vector<long> wrong(kClients, 0);
  Stopwatch wall;
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      serve::Client client;
      if (!client.Connect("127.0.0.1", server.port())) {
        wrong[c] = per_client;
        return;
      }
      latencies[c].reserve(per_client);
      for (int i = 0; i < per_client; ++i) {
        serve::wire::RequestFrame request;
        request.request_id = static_cast<uint32_t>(i);
        request.user = c;
        serve::wire::ResponseFrame response;
        Stopwatch watch;
        if (!client.Call(request, &response)) {
          wrong[c] += per_client - i;
          return;
        }
        latencies[c].push_back(watch.ElapsedSeconds());
        const bool match =
            response.status == serve::wire::Status::kOk &&
            response.items.size() == expected[c].items.size() &&
            std::equal(response.items.begin(), response.items.end(),
                       expected[c].items.begin()) &&
            std::equal(response.scores.begin(), response.scores.end(),
                       expected[c].scores.begin());
        if (!match) ++wrong[c];
      }
    });
  }
  for (auto& t : threads) t.join();
  const double wall_seconds = wall.ElapsedSeconds();

  std::vector<double> all;
  long bad = 0;
  for (int c = 0; c < kClients; ++c) {
    all.insert(all.end(), latencies[c].begin(), latencies[c].end());
    bad += wrong[c];
  }
  std::sort(all.begin(), all.end());
  const auto pct = [](const std::vector<double>& sorted, double q) {
    if (sorted.empty()) return 0.0;
    return sorted[static_cast<size_t>(q * (sorted.size() - 1))] * 1e3;
  };
  const long total = static_cast<long>(kClients) * per_client;
  const double qps = wall_seconds > 0 ? total / wall_seconds : 0.0;

  // ---- Phase 2: the same traffic while hot reloads fire continuously.
  // Version parity identifies the weights (v1 = a, then b, a, b, ...), so
  // every response can be checked against the exact model that stamped it.
  std::vector<serve::Response> expected_b(kClients);
  if (engine.Reload(model_b) != 2) {
    std::fprintf(stderr, "FAILED: first reload rejected\n");
    return 1;
  }
  for (int c = 0; c < kClients; ++c) {
    serve::Request request;
    request.user = c;
    expected_b[c] = engine.ScoreBatch({request})[0];
  }

  std::atomic<bool> reloading{true};
  std::atomic<long> reloads{0};
  std::thread reloader([&] {
    uint64_t version = 2;
    while (reloading.load()) {
      ++version;
      engine.Reload(version % 2 == 1 ? model_a : model_b);
      reloads.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  std::vector<std::vector<double>> reload_latencies(kClients);
  std::vector<long> reload_wrong(kClients, 0);
  Stopwatch reload_wall;
  std::vector<std::thread> reload_threads;
  for (int c = 0; c < kClients; ++c) {
    reload_threads.emplace_back([&, c] {
      serve::Client client;
      if (!client.Connect("127.0.0.1", server.port())) {
        reload_wrong[c] = per_client;
        return;
      }
      reload_latencies[c].reserve(per_client);
      for (int i = 0; i < per_client; ++i) {
        serve::wire::RequestFrame request;
        request.request_id = static_cast<uint32_t>(i);
        request.user = c;
        serve::wire::ResponseFrame response;
        Stopwatch watch;
        if (!client.Call(request, &response)) {
          reload_wrong[c] += per_client - i;
          return;
        }
        reload_latencies[c].push_back(watch.ElapsedSeconds());
        const serve::Response& want =
            response.model_version % 2 == 1 ? expected[c] : expected_b[c];
        const bool match =
            response.status == serve::wire::Status::kOk &&
            response.model_version >= 1 &&
            response.items.size() == want.items.size() &&
            std::equal(response.items.begin(), response.items.end(),
                       want.items.begin()) &&
            std::equal(response.scores.begin(), response.scores.end(),
                       want.scores.begin());
        if (!match) ++reload_wrong[c];
      }
    });
  }
  for (auto& t : reload_threads) t.join();
  const double reload_wall_seconds = reload_wall.ElapsedSeconds();
  reloading.store(false);
  reloader.join();
  server.Shutdown();

  std::vector<double> reload_all;
  long reload_bad = 0;
  for (int c = 0; c < kClients; ++c) {
    reload_all.insert(reload_all.end(), reload_latencies[c].begin(),
                      reload_latencies[c].end());
    reload_bad += reload_wrong[c];
  }
  std::sort(reload_all.begin(), reload_all.end());
  const double reload_qps =
      reload_wall_seconds > 0 ? total / reload_wall_seconds : 0.0;
  const double p99_ratio =
      pct(all, 0.99) > 0 ? pct(reload_all, 0.99) / pct(all, 0.99) : 0.0;

  // Smoke runs keep the bit-exactness gates but skip the timing ratio:
  // 200-request percentiles are noise.
  const bool tail_ok = smoke || p99_ratio <= 2.0;
  const bool ok = bad == 0 && reload_bad == 0 && qps > 0 &&
                  reloads.load() >= 5 && tail_ok;

  std::printf("%ld requests over %d connections: p50 %.3f ms  p99 %.3f ms  "
              "%.0f req/s  mismatches %ld\n",
              total, kClients, pct(all, 0.50), pct(all, 0.99), qps, bad);
  std::printf("%ld requests under %ld hot reloads: p50 %.3f ms  p99 %.3f ms "
              " %.0f req/s  mismatches %ld  (p99 ratio %.2fx)\n",
              total, reloads.load(), pct(reload_all, 0.50),
              pct(reload_all, 0.99), reload_qps, reload_bad, p99_ratio);
  std::printf("gate (bit-identical both phases, QPS > 0, >= 5 reloads%s): "
              "%s\n",
              smoke ? "" : ", reload p99 <= 2x steady",
              ok ? "PASS" : "FAIL");

  bench::JsonObject report;
  report.Set("bench", std::string("server"))
      .Set("smoke", smoke)
      .Set("requests", static_cast<int>(total))
      .Set("connections", kClients)
      .Set("workers", server_config.workers)
      .Set("p50_ms", pct(all, 0.50))
      .Set("p99_ms", pct(all, 0.99))
      .Set("qps", qps)
      .Set("mismatches", static_cast<int>(bad))
      .Set("reloads", static_cast<int>(reloads.load()))
      .Set("reload_p50_ms", pct(reload_all, 0.50))
      .Set("reload_p99_ms", pct(reload_all, 0.99))
      .Set("reload_qps", reload_qps)
      .Set("reload_mismatches", static_cast<int>(reload_bad))
      .Set("reload_p99_ratio", p99_ratio)
      .Set("pass", ok);
  if (!bench::WriteTextFile(out_path, report.Str())) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("report -> %s\n", out_path.c_str());
  return ok ? 0 : 1;
}
