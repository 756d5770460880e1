#ifndef CAUSER_SERVE_SERVER_H_
#define CAUSER_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "data/dataset.h"
#include "serve/engine.h"
#include "serve/protocol.h"

namespace causer::serve {

/// Network front-end knobs. The engine's own knobs (batch_max, top_k,
/// max_sessions) stay on ServingConfig.
struct ServerConfig {
  /// Numeric IPv4 address to bind.
  std::string host = "127.0.0.1";
  /// TCP port; 0 = ephemeral (read the bound port from port()).
  int port = 0;
  /// Admission cap: requests queued across both priority lanes beyond
  /// which new arrivals are rejected with kQueueFull (backpressure).
  int queue_depth = 256;
  /// Scheduler threads pulling lane work into the engine. Each pop takes
  /// everything queued, up to the engine's batch_max, as one batch.
  int workers = 2;
  /// Default per-request deadline applied when a frame carries 0;
  /// 0 = no deadline.
  int deadline_ms = 0;
  /// listen(2) backlog.
  int backlog = 128;
  /// Per-connection read deadline (slow-loris guard): a connection whose
  /// peer sends nothing — or stalls mid-frame — for this long is closed
  /// and counted by server.conn_idle_timeout_total, instead of pinning a
  /// reader thread forever. 0 = no deadline.
  int idle_timeout_ms = 0;
  /// Invoked on a kReload control frame (protocol.h). Returns whether the
  /// reload took; the frame is acked with kOk + the new active version, or
  /// kReloadFailed. Runs on the connection's reader thread and may be
  /// called concurrently from several connections — the hook serializes
  /// itself (ServingEngine::Reload already does). Null = reloads over the
  /// wire are rejected.
  std::function<bool()> on_reload;
};

/// Self-contained TCP front-end over a ServingEngine: a blocking accept
/// loop (one reader thread per connection, pipelining allowed), a two-lane
/// priority scheduler with per-request deadlines and queue-depth admission
/// control, and worker threads. The lanes are the only request queue: a
/// worker pops whatever is queued, up to the engine's batch_max and high
/// lane first, answers expired deadlines, and scores the rest with one
/// ServingEngine::ScoreBatch call. Graceful drain: BeginDrain() stops
/// accepting and admitting while queued and in-flight requests complete;
/// Shutdown() then closes every connection, so no client is left hanging.
/// Wire format: protocol.h.
class Server {
 public:
  Server(ServingEngine& engine, const ServerConfig& config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and starts the accept loop and workers. False if the listen
  /// socket could not be bound.
  bool Start();

  /// Port actually bound (after Start(); useful with config.port = 0).
  int port() const { return port_; }

  /// Stops accepting connections and admitting requests: the listener
  /// closes and readers answer every later request with kShuttingDown.
  /// Already-queued and in-flight requests keep flowing to completion.
  /// Idempotent, non-blocking.
  void BeginDrain();

  /// BeginDrain(), then blocks until every queued request was answered,
  /// closes all connections and joins all threads. Idempotent. The engine
  /// is left running (the caller owns its lifetime).
  void Shutdown();

  /// Requests currently queued in the scheduler (both lanes).
  int queue_size() const;

  /// Test hook: while paused, workers stop popping the lanes — queued
  /// requests age deterministically (deadline/admission/priority tests).
  void PauseWorkersForTest(bool paused);

 private:
  /// One accepted socket. Jobs hold shared ownership so a worker can
  /// still write its response after the reader saw EOF; the write mutex
  /// serializes interleaved responses on pipelined connections.
  struct Connection {
    explicit Connection(int fd) : fd(fd) {}
    ~Connection();
    int fd = -1;
    std::mutex write_mu;
  };

  /// A decoded, admitted request waiting for a worker. Owns the Step
  /// storage the engine's Request points into.
  struct Job {
    std::shared_ptr<Connection> conn;
    uint32_t request_id = 0;
    int user = 0;
    wire::Priority priority = wire::Priority::kNormal;
    data::Step append;
    bool has_append = false;
    std::vector<data::Step> bootstrap;
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline;
    std::chrono::steady_clock::time_point admitted;
  };

  void AcceptLoop();
  void ReaderLoop(std::shared_ptr<Connection> conn);
  void WorkerLoop();
  /// Answers one popped batch: rejects expired deadlines, scores the live
  /// jobs with one ScoreBatch call, and writes every response in pop order.
  void ProcessJobs(const std::vector<std::unique_ptr<Job>>& jobs);
  void WriteResponse(Connection& conn, const wire::ResponseFrame& frame);
  void Reject(Connection& conn, uint32_t request_id, wire::Status status);

  ServingEngine& engine_;
  const ServerConfig config_;
  const int num_items_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::thread acceptor_;
  std::vector<std::thread> workers_;

  mutable std::mutex sched_mu_;
  std::condition_variable sched_cv_;    // workers wait for lane work
  std::condition_variable drained_cv_;  // Shutdown waits for quiescence
  std::deque<std::unique_ptr<Job>> high_lane_;
  std::deque<std::unique_ptr<Job>> normal_lane_;
  int in_flight_jobs_ = 0;  // popped but not yet responded
  bool draining_ = false;
  bool paused_ = false;

  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;
  std::vector<std::thread> readers_;
  bool started_ = false;
  bool joined_ = false;
};

}  // namespace causer::serve

#endif  // CAUSER_SERVE_SERVER_H_
