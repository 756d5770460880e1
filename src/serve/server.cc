#include "serve/server.h"

#include <algorithm>
#include <utility>

#include "common/log.h"
#include "common/metrics.h"
#include "common/net.h"
#include "common/trace.h"

namespace causer::serve {

namespace {

/// Server front-end instruments (see docs/OBSERVABILITY.md), registered
/// together on first touch. The engine behind the server keeps its own
/// serve.* group; these cover what only the network layer sees — admission
/// decisions, queueing and connection churn.
struct ServerMetricsT {
  metrics::Counter& connections;        ///< server.connections_total
  metrics::Counter& requests;           ///< server.requests_total
  metrics::Counter& rejected_queue;     ///< server.rejected_queue_full_total
  metrics::Counter& rejected_deadline;  ///< server.rejected_deadline_total
  metrics::Counter& rejected_shutdown;  ///< server.rejected_shutdown_total
  metrics::Counter& bad_requests;       ///< server.bad_requests_total
  metrics::Counter& protocol_errors;    ///< server.protocol_errors_total
  metrics::Counter& idle_timeouts;      ///< server.conn_idle_timeout_total
  metrics::Gauge& open_connections;     ///< server.open_connections
  metrics::Gauge& queue_depth;          ///< server.queue_depth
  metrics::Histogram& queue_seconds;    ///< server.queue_seconds
  metrics::Histogram& request_seconds;  ///< server.request_seconds
};

ServerMetricsT& ServerMetrics() {
  static ServerMetricsT m{
      metrics::GetCounter("server.connections_total", "connections",
                          "TCP connections accepted by the serving "
                          "front-end."),
      metrics::GetCounter("server.requests_total", "requests",
                          "Request frames received, including rejected "
                          "ones."),
      metrics::GetCounter("server.rejected_queue_full_total", "requests",
                          "Requests rejected by queue-depth admission "
                          "control (backpressure)."),
      metrics::GetCounter("server.rejected_deadline_total", "requests",
                          "Requests whose deadline expired while queued; "
                          "rejected before scoring."),
      metrics::GetCounter("server.rejected_shutdown_total", "requests",
                          "Requests rejected because the server was "
                          "draining."),
      metrics::GetCounter("server.bad_requests_total", "requests",
                          "Semantically invalid requests answered with "
                          "bad_request (e.g. item id outside the "
                          "catalog)."),
      metrics::GetCounter("server.protocol_errors_total", "errors",
                          "Connections dropped on undecodable frames or "
                          "oversized declared lengths."),
      metrics::GetCounter("server.conn_idle_timeout_total", "connections",
                          "Connections closed by the per-connection read "
                          "deadline (slow-loris guard): the peer sent "
                          "nothing, or stalled mid-frame, for "
                          "--conn-idle-timeout-ms."),
      metrics::GetGauge("server.open_connections", "connections",
                        "Currently accepted TCP connections."),
      metrics::GetGauge("server.queue_depth", "requests",
                        "Requests queued in the scheduler lanes (the "
                        "admission-control variable)."),
      metrics::GetHistogram("server.queue_seconds", "seconds",
                            "Time from admission to a worker popping the "
                            "request (scheduler queueing delay).",
                            metrics::ExponentialBuckets(1e-6, 10.0, 8)),
      metrics::GetHistogram("server.request_seconds", "seconds",
                            "Server-side latency from admission to the "
                            "response write, including rejections.",
                            metrics::ExponentialBuckets(1e-6, 10.0, 8)),
  };
  return m;
}

}  // namespace

Server::Connection::~Connection() { net::CloseSocket(fd); }

Server::Server(ServingEngine& engine, const ServerConfig& config)
    : engine_(engine),
      config_([&config] {
        ServerConfig c = config;
        c.queue_depth = std::max(1, c.queue_depth);
        c.workers = std::max(1, c.workers);
        c.deadline_ms = std::max(0, c.deadline_ms);
        c.backlog = std::max(1, c.backlog);
        c.idle_timeout_ms = std::max(0, c.idle_timeout_ms);
        return c;
      }()),
      num_items_(engine.model()->config().num_items) {}

Server::~Server() { Shutdown(); }

bool Server::Start() {
  CAUSER_CHECK(!started_);
  listen_fd_ =
      net::ListenTcp(config_.host, config_.port, config_.backlog, &port_);
  if (listen_fd_ < 0) return false;
  started_ = true;
  acceptor_ = std::thread([this] { AcceptLoop(); });
  workers_.reserve(config_.workers);
  for (int w = 0; w < config_.workers; ++w) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return true;
}

void Server::AcceptLoop() {
  for (;;) {
    int fd = net::AcceptConnection(listen_fd_);
    if (fd < 0) return;  // listener closed by BeginDrain (or failed)
    auto conn = std::make_shared<Connection>(fd);
    bool draining;
    {
      std::lock_guard<std::mutex> lock(sched_mu_);
      draining = draining_;
    }
    if (draining) continue;  // raced BeginDrain: Connection dtor closes fd
    if (metrics::Enabled()) ServerMetrics().connections.Add();
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.push_back(conn);
    if (metrics::Enabled()) {
      ServerMetrics().open_connections.Set(
          static_cast<double>(conns_.size()));
    }
    readers_.emplace_back(
        [this, conn = std::move(conn)] { ReaderLoop(conn); });
  }
}

void Server::ReaderLoop(std::shared_ptr<Connection> conn) {
  if (config_.idle_timeout_ms > 0) {
    // Slow-loris guard: without a receive deadline, a peer that stalls —
    // idle between frames or, worse, mid-frame — pins this reader thread
    // (and its connection slot) forever.
    net::SetRecvTimeout(conn->fd, config_.idle_timeout_ms / 1000.0);
  }
  std::vector<uint8_t> payload;
  wire::RequestFrame frame;
  net::ReadError read_error = net::ReadError::kNone;
  while (net::ReadFrame(conn->fd, &payload, wire::kMaxFrameBytes,
                        &read_error)) {
    const bool measure = metrics::Enabled();
    if (measure) ServerMetrics().requests.Add();
    if (!wire::DecodeRequest(payload, &frame)) {
      // Undecodable bytes mean the stream framing can no longer be
      // trusted; drop the connection rather than answer garbage.
      if (measure) ServerMetrics().protocol_errors.Add();
      break;
    }
    if (frame.op == wire::Op::kReload) {
      // Control frame: same effect as SIGHUP, acked inline from this
      // reader thread (reloads are rare and never block the score path).
      wire::ResponseFrame ack;
      ack.request_id = frame.request_id;
      const bool reloaded = config_.on_reload != nullptr &&
                            frame.append.empty() && frame.bootstrap.empty() &&
                            config_.on_reload();
      ack.status = reloaded ? wire::Status::kOk : wire::Status::kReloadFailed;
      ack.model_version = static_cast<uint32_t>(engine_.active_version());
      WriteResponse(*conn, ack);
      continue;
    }
    bool bad = frame.user < 0;
    for (int32_t item : frame.append) {
      bad = bad || item < 0 || item >= num_items_;
    }
    for (const auto& step : frame.bootstrap) {
      for (int32_t item : step) {
        bad = bad || item < 0 || item >= num_items_;
      }
    }
    if (bad) {
      if (measure) ServerMetrics().bad_requests.Add();
      Reject(*conn, frame.request_id, wire::Status::kBadRequest);
      continue;
    }

    auto job = std::make_unique<Job>();
    job->conn = conn;
    job->request_id = frame.request_id;
    job->user = frame.user;
    job->priority = frame.priority;
    job->has_append = !frame.append.empty();
    if (job->has_append) {
      job->append.items.assign(frame.append.begin(), frame.append.end());
    }
    job->bootstrap.reserve(frame.bootstrap.size());
    for (const auto& step : frame.bootstrap) {
      data::Step s;
      s.items.assign(step.begin(), step.end());
      job->bootstrap.push_back(std::move(s));
    }
    const uint32_t deadline_ms = frame.deadline_ms != 0
                                     ? frame.deadline_ms
                                     : static_cast<uint32_t>(
                                           config_.deadline_ms);
    job->admitted = std::chrono::steady_clock::now();
    job->has_deadline = deadline_ms != 0;
    if (job->has_deadline) {
      job->deadline = job->admitted + std::chrono::milliseconds(deadline_ms);
    }

    // Admission under the scheduler lock: the draining flag and the depth
    // check must be atomic with the enqueue, or a drain could strand a
    // just-admitted request.
    wire::Status rejection = wire::Status::kOk;
    {
      std::lock_guard<std::mutex> lock(sched_mu_);
      if (draining_) {
        rejection = wire::Status::kShuttingDown;
      } else if (static_cast<int>(high_lane_.size() + normal_lane_.size()) >=
                 config_.queue_depth) {
        rejection = wire::Status::kQueueFull;
      } else {
        auto& lane = job->priority == wire::Priority::kHigh ? high_lane_
                                                            : normal_lane_;
        lane.push_back(std::move(job));
        if (measure) {
          ServerMetrics().queue_depth.Set(static_cast<double>(
              high_lane_.size() + normal_lane_.size()));
        }
        sched_cv_.notify_one();
      }
    }
    if (rejection != wire::Status::kOk) {
      if (measure) {
        if (rejection == wire::Status::kQueueFull) {
          ServerMetrics().rejected_queue.Add();
        } else {
          ServerMetrics().rejected_shutdown.Add();
        }
      }
      Reject(*conn, frame.request_id, rejection);
    }
  }
  if (read_error == net::ReadError::kTimeout) {
    // The read deadline expired: close the connection so the stalled peer
    // cannot hold the slot. In-flight responses for it may still be
    // written; their failed writes unwind harmlessly.
    if (metrics::Enabled()) ServerMetrics().idle_timeouts.Add();
    net::ShutdownSocket(conn->fd);
  }
}

void Server::WorkerLoop() {
  const size_t batch_max = static_cast<size_t>(engine_.config().batch_max);
  std::vector<std::unique_ptr<Job>> jobs;
  for (;;) {
    jobs.clear();
    {
      std::unique_lock<std::mutex> lock(sched_mu_);
      sched_cv_.wait(lock, [&] {
        const bool work =
            !paused_ && (!high_lane_.empty() || !normal_lane_.empty());
        const bool done =
            draining_ && high_lane_.empty() && normal_lane_.empty();
        return work || done;
      });
      if (high_lane_.empty() && normal_lane_.empty()) return;  // drained
      // One batch of everything queued, up to batch_max, high lane first.
      for (auto* lane : {&high_lane_, &normal_lane_}) {
        while (!lane->empty() && jobs.size() < batch_max) {
          jobs.push_back(std::move(lane->front()));
          lane->pop_front();
        }
      }
      in_flight_jobs_ += static_cast<int>(jobs.size());
      if (metrics::Enabled()) {
        ServerMetrics().queue_depth.Set(
            static_cast<double>(high_lane_.size() + normal_lane_.size()));
      }
    }
    ProcessJobs(jobs);
    {
      std::lock_guard<std::mutex> lock(sched_mu_);
      in_flight_jobs_ -= static_cast<int>(jobs.size());
      if (draining_ && in_flight_jobs_ == 0 && high_lane_.empty() &&
          normal_lane_.empty()) {
        drained_cv_.notify_all();
        sched_cv_.notify_all();  // wake peers so they observe "done"
      }
    }
  }
}

void Server::ProcessJobs(const std::vector<std::unique_ptr<Job>>& jobs) {
  const bool measure = metrics::Enabled();
  trace::TraceSpan span("server.batch");
  span.AddArg("size", static_cast<double>(jobs.size()));
  const auto popped = std::chrono::steady_clock::now();

  std::vector<wire::ResponseFrame> responses(jobs.size());
  std::vector<Request> requests;
  std::vector<size_t> scored;  // job index of each request
  for (size_t i = 0; i < jobs.size(); ++i) {
    const Job& job = *jobs[i];
    if (measure) {
      ServerMetrics().queue_seconds.Observe(
          std::chrono::duration<double>(popped - job.admitted).count());
    }
    responses[i].request_id = job.request_id;
    if (job.has_deadline && popped > job.deadline) {
      // Expired while queued: reject before spending scoring work on a
      // response the client already gave up on.
      responses[i].status = wire::Status::kDeadlineExceeded;
      if (measure) ServerMetrics().rejected_deadline.Add();
      continue;
    }
    Request request;
    request.user = job.user;
    if (job.has_append) request.append = &job.append;
    request.bootstrap = &job.bootstrap;
    requests.push_back(request);
    scored.push_back(i);
  }

  std::vector<Response> results = engine_.ScoreBatch(requests);
  for (size_t r = 0; r < results.size(); ++r) {
    Response& result = results[r];
    wire::ResponseFrame& response = responses[scored[r]];
    if (result.status == ResponseStatus::kOk) {
      response.status = wire::Status::kOk;
      // The version that actually scored this batch — not the currently
      // active one, which a concurrent reload may already have advanced.
      response.model_version = static_cast<uint32_t>(result.model_version);
      response.items.assign(result.items.begin(), result.items.end());
      response.scores = std::move(result.scores);
    } else {
      response.status = wire::Status::kShuttingDown;
      if (measure) ServerMetrics().rejected_shutdown.Add();
    }
  }

  for (size_t i = 0; i < jobs.size(); ++i) {
    WriteResponse(*jobs[i]->conn, responses[i]);
    if (measure) {
      ServerMetrics().request_seconds.Observe(
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        jobs[i]->admitted)
              .count());
    }
  }
}

void Server::WriteResponse(Connection& conn,
                           const wire::ResponseFrame& frame) {
  std::vector<uint8_t> payload;
  wire::EncodeResponse(frame, &payload);
  std::lock_guard<std::mutex> lock(conn.write_mu);
  // A failed write means the peer is gone or the frame went out torn
  // (net.torn_write). Either way the stream can no longer carry aligned
  // frames: shut the socket down so the peer unwinds instead of waiting
  // for the rest of a frame that will never come, and so our reader sees
  // EOF and retires the connection.
  if (!net::WriteFrame(conn.fd, payload.data(), payload.size())) {
    net::ShutdownSocket(conn.fd);
  }
}

void Server::Reject(Connection& conn, uint32_t request_id,
                    wire::Status status) {
  wire::ResponseFrame response;
  response.request_id = request_id;
  response.status = status;
  WriteResponse(conn, response);
}

int Server::queue_size() const {
  std::lock_guard<std::mutex> lock(sched_mu_);
  return static_cast<int>(high_lane_.size() + normal_lane_.size());
}

void Server::PauseWorkersForTest(bool paused) {
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    paused_ = paused;
  }
  sched_cv_.notify_all();
}

void Server::BeginDrain() {
  if (!started_) return;
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    if (draining_) return;
    draining_ = true;
  }
  // Closing the listener makes the blocking accept() return; from here on
  // connects are refused and readers reject with kShuttingDown.
  net::ShutdownSocket(listen_fd_);
  sched_cv_.notify_all();
}

void Server::Shutdown() {
  if (!started_ || joined_) return;
  BeginDrain();
  {
    // Every queued and in-flight request gets its response before any
    // socket closes: the drain contract.
    std::unique_lock<std::mutex> lock(sched_mu_);
    drained_cv_.wait(lock, [&] {
      return high_lane_.empty() && normal_lane_.empty() &&
             in_flight_jobs_ == 0;
    });
  }
  if (acceptor_.joinable()) acceptor_.join();
  net::CloseSocket(listen_fd_);
  listen_fd_ = -1;
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  {
    // Wake readers blocked in ReadFrame; Connection dtors close the fds.
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& conn : conns_) net::ShutdownSocket(conn->fd);
  }
  for (auto& reader : readers_) {
    if (reader.joinable()) reader.join();
  }
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.clear();
    if (metrics::Enabled()) ServerMetrics().open_connections.Set(0.0);
  }
  joined_ = true;
}

}  // namespace causer::serve
