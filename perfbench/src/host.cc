// `perfbench host`: a small TCP server host over serve::Server and
// serve::ServingEngine for one serving workload.
//
// It loads the workload's weight file through serve::ModelRegistry, builds
// the engine (quantized table included), starts the server and warms the
// scoring path — that is the set-up a user pays, done kSetups times (the
// last stack is the one that serves). It then serves until told to stop on stdin:
//   metrics on     enable the program's metrics registry
//   dump PATH      write the registry snapshot as JSON to PATH
//   quit (or EOF)  drain, shut down, report peak RSS
// Under a workload with reload_every_ms, wire reload frames from the load
// generator make a background thread hot-reload weight sets B, A, B, ...
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>

#include "common.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "serve/engine.h"
#include "serve/model_registry.h"
#include "serve/server.h"

namespace perfbench {

using namespace causer;

namespace {

/// Set-ups per host process. perfbench/run.py starts several hosts over a
/// run and reports the median of their per-process medians as setup_s.
constexpr int kSetups = 3;

struct Hosted {
  std::unique_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<serve::ServingEngine> engine;
  std::unique_ptr<serve::Server> server;

  void Stop() {
    if (server) server->Shutdown();
    if (engine) engine->Stop();
    server.reset();
    engine.reset();
    registry.reset();
  }
};

/// Builds and starts one serving stack; false on failure.
bool SetUp(const WorkloadSpec& spec, bool toy, const std::string& dir,
           std::function<bool()> on_reload, Hosted* out) {
  const bool toy_model = toy;
  out->registry = std::make_unique<serve::ModelRegistry>(
      [&spec, toy_model] { return NewModel(spec, toy_model, 0); });
  std::shared_ptr<const serve::ModelVersion> initial =
      out->registry->LoadAndPublish(WeightPath(spec, toy, dir, 0));
  if (initial == nullptr) return false;
  serve::ServingConfig sc;
  sc.top_k = kTopK;
  sc.max_sessions = spec.max_sessions;
  sc.quantize_int8 = spec.quantize_int8;
  sc.score_shards = spec.score_shards;
  out->engine = std::make_unique<serve::ServingEngine>(initial->model, sc);
  serve::ServerConfig server_config;
  server_config.port = 0;
  server_config.workers = kThreads;
  server_config.queue_depth = kQueueDepth;
  if (spec.reload_every_ms > 0) server_config.on_reload = std::move(on_reload);
  out->server = std::make_unique<serve::Server>(*out->engine, server_config);
  if (!out->server->Start()) return false;
  // Warm the scoring path (first-touch pages, kernels) with requests from
  // user ids the traffic model never produces, then drop their sessions.
  const int warm = 2 * sc.batch_max;
  const int items = NumItems(spec, toy);
  std::vector<std::vector<data::Step>> boots(warm);
  std::vector<data::Step> appends(warm);
  std::vector<serve::Request> requests(warm);
  for (int i = 0; i < warm; ++i) {
    for (int t = 0; t < kWindow; ++t) {
      boots[i].push_back(StepOf((i * 31 + t * 7) % items));
    }
    appends[i] = StepOf((i * 13 + 5) % items);
    requests[i].user = (1 << 30) + i;
    requests[i].append = &appends[i];
    requests[i].bootstrap = &boots[i];
  }
  out->engine->ScoreBatch(requests);
  for (int i = 0; i < warm; ++i) out->engine->store().Evict(requests[i].user);
  return true;
}

/// Background hot reloads, requested over the wire (Op::kReload) by the
/// load generator at fixed points of its schedule. The hook only queues
/// the request, so the connection's reader is never blocked; this thread
/// loads the next weight set through the registry and publishes it with
/// ServingEngine::Reload. Engine version v serves set (v - 1) % 2, which
/// the generator's oracle relies on.
class Reloader {
 public:
  Reloader(const WorkloadSpec& spec, bool toy, const std::string& dir,
           Hosted* hosted)
      : spec_(spec), toy_(toy), dir_(dir), hosted_(hosted),
        thread_([this] { Loop(); }) {}
  ~Reloader() { Stop(); }

  /// Finishes the reload in progress (if any) and joins. Idempotent.
  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  Reloader(const Reloader&) = delete;
  Reloader& operator=(const Reloader&) = delete;

  bool Request() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++pending_;
    }
    cv_.notify_all();
    return true;
  }
  long reloads() const { return reloads_; }
  long failures() const { return failures_; }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      cv_.wait(lock, [this] { return done_ || pending_ > 0; });
      if (done_) return;
      --pending_;
      lock.unlock();
      const int set = static_cast<int>(hosted_->engine->active_version() % 2);
      std::shared_ptr<const serve::ModelVersion> v =
          hosted_->registry->LoadAndPublish(WeightPath(spec_, toy_, dir_, set));
      const uint64_t version =
          v == nullptr ? 0 : hosted_->engine->Reload(v->model, v->source);
      if (version == 0 || static_cast<int>((version - 1) % 2) != set) {
        ++failures_;
      } else {
        ++reloads_;
      }
      lock.lock();
    }
  }

  const WorkloadSpec& spec_;
  const bool toy_;
  const std::string dir_;
  Hosted* hosted_;
  std::atomic<long> reloads_{0}, failures_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  int pending_ = 0;
  bool done_ = false;
  std::thread thread_;  // last: started after the members it uses
};

}  // namespace

int CmdHost(const Flags& flags) {
  const bool toy = flags.GetBool("toy", false);
  const WorkloadSpec* spec = FindWorkload(flags.GetString("workload"), toy);
  const std::string dir = flags.GetString("fixtures");
  if (spec == nullptr || !spec->serve || dir.empty()) {
    std::fprintf(stderr, "perfbench host: bad --workload/--fixtures\n");
    return 2;
  }
  SetDefaultThreads(kThreads);

  Hosted hosted;
  Reloader reloader(*spec, toy, dir, &hosted);
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    if (i > 0) hosted.Stop();
    const Clock::time_point t0 = Clock::now();
    if (!SetUp(*spec, toy, dir, [&reloader] { return reloader.Request(); },
               &hosted)) {
      std::fprintf(stderr, "perfbench host: set-up failed\n");
      return 1;
    }
    setup_s.push_back(SecondsSince(t0));
  }
  std::printf("READY port=%d setup_s=%s provenance=%s\n",
              hosted.server->port(), JsonArray(setup_s).c_str(),
              ProvenanceJson().c_str());
  std::fflush(stdout);

  std::string line;
  while (std::getline(std::cin, line)) {
    if (line == "quit") break;
    if (line == "metrics on") {
      metrics::SetEnabled(true);
      std::printf("OK\n");
    } else if (line.rfind("dump ", 0) == 0) {
      const bool ok = metrics::WriteSnapshotJson(line.substr(5));
      std::printf(ok ? "OK\n" : "FAILED\n");
    } else {
      std::printf("UNKNOWN\n");
    }
    std::fflush(stdout);
  }
  reloader.Stop();
  hosted.Stop();
  std::printf("DONE peak_rss_kb=%ld reloads=%ld reload_failures=%ld\n",
              PeakRssKb(), reloader.reloads(), reloader.failures());
  std::fflush(stdout);
  return reloader.failures() == 0 ? 0 : 1;
}

}  // namespace perfbench
