// `perfbench load`: the open-loop load generator for the serving workloads,
// with a bit-exact oracle check of every scored response.
//
// Open loop: request i of a phase is due at start + i / rate whatever the
// server does, and its latency is timed from that due time, so a stall is
// charged to every request it delays. Each user is routed to one
// connection (user % connections) and has at most one request in flight:
// a request due while its user is still waiting is held back and sent when
// the previous answer arrives — still timed from its own due time. That
// keeps each user's history order fixed, so the oracle knows exactly which
// history every response was scored on.
//
// Every request appends one item and carries the user's recent history
// (the model's scoring window) as bootstrap. After the timed phases every
// kOk response is checked bit for bit — ranked items and fp32 score bits —
// against eval::TopK of the model's ScoreAll on that window, using the
// weight set of the response's stamped model_version.
//
// Phases: optional warm-up (each warm user once, untimed), the fixed-rate
// phase whose latency is quoted, then a rate ladder (rung 0 is the fixed
// phase) that stops after two consecutive rungs miss the latency limit.
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common.h"
#include "common/net.h"
#include "eval/metrics.h"
#include "serve/protocol.h"

namespace perfbench {

using namespace causer;
namespace wire = serve::wire;

namespace {

constexpr int kConnections = kThreads;
/// A phase whose generator lag (send time minus due time of requests the
/// generator itself was free to send) has a p90 above this fell behind its
/// schedule, and its latency is not quoted. (A single stall of the machine
/// delays a few sends; falling behind delays most.)
constexpr double kMaxLagP90Ms = 5.0;

struct Record {
  int user = 0;
  wire::Status status = wire::Status::kOk;
  uint32_t version = 0;
  std::vector<int> window;  ///< history the response was scored on
  std::vector<int32_t> items;
  std::vector<float> scores;
};

struct UserState {
  std::vector<int> window;
  long next_pos = 0;
  bool busy = false;
  std::deque<double> waiting;  ///< due offsets held back behind `busy`
};

struct InFlight {
  int user = 0;
  double due = 0;  ///< seconds after the phase start
  std::vector<int> window;
  int span = -1;
};

struct PhaseResult {
  std::string name;
  double rate = 0;
  double seconds = 0;
  long sent = 0, ok = 0, failed = 0, hung = 0;
  std::vector<double> latencies_ms;
  std::vector<double> due_s;  ///< due offset of each latency sample
  std::vector<double> lag_ms;
  double drain_ms = 0;  ///< last response after the last due time
  long done_in_window = 0;  ///< kOk responses received before the phase end
};

/// One connection: owns its socket, its users' histories and records.
class Connection {
 public:
  Connection(const Traffic& traffic, Spans* spans)
      : traffic_(traffic), spans_(spans) {}
  ~Connection() { net::CloseSocket(fd_); }

  bool Connect(int port) {
    fd_ = net::ConnectTcp("127.0.0.1", port);
    return fd_ >= 0;
  }

  /// Starts a phase whose due offsets count from `t0`.
  void BeginPhase(Clock::time_point t0, PhaseResult* out) {
    t0_ = t0;
    out_ = out;
  }

  /// A request of `user` fell due at `due` (now = `now`): send it, or hold
  /// it behind the user's request in flight.
  void Dispatch(int user, double due, double now) {
    UserState& u = users_[user];
    if (u.busy) {
      u.waiting.push_back(due);
    } else {
      out_->lag_ms.push_back((now - due) * 1e3);
      Send(user, due);
    }
  }

  /// Drains whatever the socket has; false on EOF or a protocol error
  /// (the connection is then broken and its requests in flight hung).
  bool ReadAvailable() {
    if (!ReadFrames()) {
      out_->hung += static_cast<long>(inflight_.size());
      inflight_.clear();
      broken_ = true;
      return false;
    }
    return true;
  }

  /// Gives up on every request still in flight.
  void Abandon() {
    out_->hung += static_cast<long>(inflight_.size());
    reload_failures_ += static_cast<long>(reloads_pending_.size());
    inflight_.clear();
    reloads_pending_.clear();
  }

  /// Asks the server to hot-reload its model (a control frame).
  void SendReload() {
    wire::RequestFrame frame;
    frame.request_id = next_id_++;
    frame.op = wire::Op::kReload;
    wire::EncodeRequest(frame, &buf_);
    if (!net::WriteFrame(fd_, buf_.data(), buf_.size())) broken_ = true;
    reloads_pending_.insert(frame.request_id);
  }

  int fd() const { return fd_; }
  size_t in_flight() const {
    return inflight_.size() + reloads_pending_.size();
  }
  long reload_acks() const { return reload_acks_; }
  long reload_failures() const { return reload_failures_; }
  std::vector<Record>& records() { return records_; }
  bool broken() const { return broken_; }
  long protocol_errors() const { return protocol_errors_; }

 private:
  double Now() const {
    return std::chrono::duration<double>(Clock::now() - t0_).count();
  }

  void Send(int user, double due) {
    UserState& u = users_[user];
    if (u.window.empty() && u.next_pos == 0) {
      for (int t = -kWindow; t < 0; ++t) {
        u.window.push_back(traffic_.ItemAt(user, t));
      }
    }
    wire::RequestFrame frame;
    frame.request_id = next_id_++;
    frame.user = user;
    const int item = traffic_.ItemAt(user, u.next_pos);
    frame.append = {item};
    for (int step : u.window) frame.bootstrap.push_back({step});
    InFlight f;
    f.user = user;
    f.due = due;
    f.window = u.window;
    f.window.push_back(item);
    if (static_cast<int>(f.window.size()) > kWindow) {
      f.window.erase(f.window.begin());
    }
    if (spans_ != nullptr) {
      f.span = spans_->Begin("client.request", -1, frame.request_id);
    }
    const int enc =
        spans_ ? spans_->Begin("wire.encode_request", f.span, frame.request_id)
               : -1;
    wire::EncodeRequest(frame, &buf_);
    if (spans_) spans_->End(enc);
    if (!net::WriteFrame(fd_, buf_.data(), buf_.size())) broken_ = true;
    u.busy = true;
    inflight_[frame.request_id] = std::move(f);
    ++out_->sent;
  }

  bool ReadFrames() {
    uint8_t chunk[65536];
    const ssize_t n = recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n == 0) return false;
    if (n < 0) return errno == EAGAIN || errno == EINTR;
    rx_.insert(rx_.end(), chunk, chunk + n);
    size_t pos = 0;
    while (rx_.size() - pos >= 4) {
      uint32_t len = 0;
      std::memcpy(&len, rx_.data() + pos, 4);  // little-endian hosts only
      if (len > wire::kMaxFrameBytes) {
        ++protocol_errors_;
        return false;
      }
      if (rx_.size() - pos - 4 < len) break;
      std::vector<uint8_t> payload(rx_.begin() + pos + 4,
                                   rx_.begin() + pos + 4 + len);
      pos += 4 + len;
      if (!OnResponse(payload)) return false;
    }
    rx_.erase(rx_.begin(), rx_.begin() + pos);
    return true;
  }

  bool OnResponse(const std::vector<uint8_t>& payload) {
    wire::ResponseFrame resp;
    const int dec = spans_ ? spans_->Begin("wire.decode_response", -1, -1)
                           : -1;
    const bool decoded = wire::DecodeResponse(payload, &resp);
    if (spans_) spans_->End(dec);
    if (decoded && reloads_pending_.erase(resp.request_id) > 0) {
      ++(resp.status == wire::Status::kOk ? reload_acks_ : reload_failures_);
      return true;
    }
    auto it = decoded ? inflight_.find(resp.request_id) : inflight_.end();
    if (it == inflight_.end()) {
      ++protocol_errors_;
      return false;
    }
    InFlight f = std::move(it->second);
    inflight_.erase(it);
    if (spans_) spans_->End(f.span);
    Record r;
    r.user = f.user;
    r.status = resp.status;
    r.version = resp.model_version;
    UserState& u = users_[f.user];
    if (resp.status == wire::Status::kOk) {
      // Latency samples are of served requests only: a refusal is a
      // failure, not a fast answer.
      out_->latencies_ms.push_back((Now() - f.due) * 1e3);
      out_->due_s.push_back(f.due);
      ++out_->ok;
      if (Now() <= out_->seconds) ++out_->done_in_window;
      u.window = f.window;
      ++u.next_pos;
      r.window = std::move(f.window);
      r.items = std::move(resp.items);
      r.scores = std::move(resp.scores);
    } else {
      ++out_->failed;
    }
    records_.push_back(std::move(r));
    u.busy = false;
    if (!u.waiting.empty()) {
      const double due = u.waiting.front();
      u.waiting.pop_front();
      Send(f.user, due);
    }
    return true;
  }

  const Traffic& traffic_;
  Spans* spans_;
  int fd_ = -1;
  bool broken_ = false;
  long protocol_errors_ = 0;
  uint32_t next_id_ = 1;
  Clock::time_point t0_;
  PhaseResult* out_ = nullptr;
  std::unordered_map<int, UserState> users_;
  std::unordered_map<uint32_t, InFlight> inflight_;
  std::vector<Record> records_;
  std::unordered_set<uint32_t> reloads_pending_;
  long reload_acks_ = 0, reload_failures_ = 0;
  std::vector<uint8_t> buf_, rx_;
};

/// Runs one phase over every connection (one thread each).
PhaseResult RunPhase(std::vector<std::unique_ptr<Connection>>& conns,
                     const std::string& name, double rate,
                     double seconds, const Traffic& traffic, long offset,
                     uint32_t stream, int warm_users, double reload_every_s) {
  PhaseResult result;
  result.name = name;
  result.rate = rate;
  result.seconds = seconds;
  // (due offset, user), ascending by due.
  std::vector<std::pair<double, int>> schedule;
  if (warm_users > 0) {
    for (int u = 0; u < warm_users; ++u) {
      schedule.push_back(
          {0.0, static_cast<int>((static_cast<uint64_t>(u) * 2654435761ull) %
                                     traffic.user_space() +
                                 offset)});
    }
  } else {
    const long n = std::max(1L, std::lround(rate * seconds));
    for (long i = 0; i < n; ++i) {
      schedule.push_back(
          {i / rate, traffic.UserAt(i, stream) + static_cast<int>(offset)});
    }
  }
  // One thread drives every connection, so the generator never competes
  // with itself for a core.
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  for (auto& c : conns) c->BeginPhase(t0, &result);
  const auto now_s = [t0] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  const double last_due = schedule.back().first;
  const double give_up_s = last_due + 30.0;
  double last_response = 0;
  std::vector<pollfd> fds(conns.size());
  // Hot reloads at fixed points of timed phases: every reload_every_s,
  // starting half a period in.
  std::vector<double> reloads;
  for (double t = 0.5 * reload_every_s;
       warm_users == 0 && reload_every_s > 0 && t < seconds;
       t += reload_every_s) {
    reloads.push_back(t);
  }
  size_t next = 0, next_reload = 0;
  while (true) {
    const double now = now_s();
    while (next_reload < reloads.size() && reloads[next_reload] <= now) {
      conns[0]->SendReload();
      ++next_reload;
    }
    while (next < schedule.size() && schedule[next].first <= now) {
      const auto [due, user] = schedule[next++];
      conns[user % conns.size()]->Dispatch(user, due, now);
    }
    size_t in_flight = 0;
    for (auto& c : conns) in_flight += c->in_flight();
    if (next == schedule.size() && next_reload == reloads.size() &&
        in_flight == 0) {
      break;
    }
    if (now > give_up_s) {
      for (auto& c : conns) c->Abandon();
      break;
    }
    // Sleep until the next due time (or a response).
    const double wait_s = std::max(
        0.0, next < schedule.size() ? schedule[next].first - now
                                    : give_up_s - now);
    for (size_t c = 0; c < conns.size(); ++c) {
      fds[c] = {conns[c]->broken() ? -1 : conns[c]->fd(), POLLIN, 0};
    }
    timespec ts{static_cast<time_t>(wait_s),
                static_cast<long>((wait_s - std::floor(wait_s)) * 1e9)};
    if (ppoll(fds.data(), fds.size(), &ts, nullptr) > 0) {
      for (size_t c = 0; c < conns.size(); ++c) {
        if (fds[c].revents != 0) conns[c]->ReadAvailable();
      }
      last_response = now_s();
    }
  }
  result.drain_ms = std::max(0.0, (last_response - last_due) * 1e3);
  return result;
}

/// Windows the quoted tail is computed over (see WindowedP99).
constexpr int kTailWindows = 11;

/// The phase's q-quantile taken per window of due time (kTailWindows equal
/// windows), then the median across windows: a stall of the machine, or a
/// reload, that spoils one window does not move the quoted tail.
double WindowedPercentile(const PhaseResult& p, double q) {
  if (p.latencies_ms.empty()) return 0;
  const double span = *std::max_element(p.due_s.begin(), p.due_s.end()) +
                      1e-9;
  std::vector<std::vector<double>> windows(kTailWindows);
  for (size_t i = 0; i < p.latencies_ms.size(); ++i) {
    const int w = std::min(kTailWindows - 1,
                           static_cast<int>(p.due_s[i] / span * kTailWindows));
    windows[w].push_back(p.latencies_ms[i]);
  }
  std::vector<double> per_window;
  for (const auto& w : windows) {
    if (!w.empty()) per_window.push_back(Percentile(w, q));
  }
  return Median(per_window);
}

bool LagOk(const PhaseResult& p) {
  return Percentile(p.lag_ms, 0.90) <= kMaxLagP90Ms;
}

bool RungPasses(const PhaseResult& p, double slo_ms) {
  return p.failed == 0 && p.hung == 0 && LagOk(p) &&
         Percentile(p.latencies_ms, 0.99) <= slo_ms &&
         p.drain_ms <= slo_ms;
}

std::string PhaseJson(const PhaseResult& p, double slo_ms) {
  return Json()
      .Str("name", p.name)
      .Num("rate", p.rate)
      .Num("seconds", p.seconds)
      .Int("sent", p.sent)
      .Int("ok", p.ok)
      .Int("failed", p.failed + p.hung)
      .Int("samples", static_cast<long long>(p.latencies_ms.size()))
      .Num("goodput", p.seconds > 0 ? p.done_in_window / p.seconds : 0.0)
      .Num("p50_ms", Percentile(p.latencies_ms, 0.5))
      .Num("p90_ms", Percentile(p.latencies_ms, 0.90))
      .Num("p95_ms", Percentile(p.latencies_ms, 0.95))
      .Num("p99_ms", Percentile(p.latencies_ms, 0.99))
      .Num("p90_windowed_ms", WindowedPercentile(p, 0.90))
      .Num("p99_windowed_ms", WindowedPercentile(p, 0.99))
      .Int("tail_windows", kTailWindows)
      .Num("p999_ms", Percentile(p.latencies_ms, 0.999))
      .Num("max_ms", Percentile(p.latencies_ms, 1.0))
      .Num("gen_lag_p50_ms", Percentile(p.lag_ms, 0.5))
      .Num("gen_lag_p99_ms", Percentile(p.lag_ms, 0.99))
      .Num("gen_lag_max_ms", Percentile(p.lag_ms, 1.0))
      .Num("drain_ms", p.drain_ms)
      .Bool("lag_ok", LagOk(p))
      .Bool("meets_slo", RungPasses(p, slo_ms))
      .Done();
}

/// Oracle threads: the timed phases are over, so the verifier may use every
/// core of the generator's budget.
constexpr int kVerifyThreads = 2 * kThreads;

/// Checks every kOk record against the oracle; returns mismatches.
long Verify(const WorkloadSpec& spec, bool toy, const std::string& dir,
            const std::vector<const Record*>& records, long* checked) {
  std::vector<long> mismatches(kVerifyThreads, 0), counted(kVerifyThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kVerifyThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each verifier owns its oracle models (no shared scratch state).
      std::shared_ptr<models::SequentialRecommender> sets[2] = {
          LoadModel(spec, toy, dir, 0),
          spec.reload_every_ms > 0 ? LoadModel(spec, toy, dir, 1) : nullptr};
      for (size_t i = t; i < records.size(); i += kVerifyThreads) {
        const Record& r = *records[i];
        const int set = spec.reload_every_ms > 0 && r.version > 0
                            ? static_cast<int>((r.version - 1) % 2)
                            : 0;
        if (sets[set] == nullptr || (spec.reload_every_ms == 0 &&
                                     r.version != 1)) {
          ++mismatches[t];
          continue;
        }
        std::vector<data::Step> history;
        for (int item : r.window) history.push_back(StepOf(item));
        const std::vector<float> scores = sets[set]->ScoreAll(r.user, history);
        const std::vector<int> top = eval::TopK(scores, kTopK);
        bool same = top.size() == r.items.size() &&
                    r.scores.size() == r.items.size();
        for (size_t j = 0; same && j < top.size(); ++j) {
          same = top[j] == r.items[j] &&
                 std::memcmp(&scores[top[j]], &r.scores[j], sizeof(float)) ==
                     0;
        }
        ++counted[t];
        if (!same) ++mismatches[t];
      }
    });
  }
  for (std::thread& th : threads) th.join();
  long total = 0;
  *checked = 0;
  for (int t = 0; t < kVerifyThreads; ++t) {
    total += mismatches[t];
    *checked += counted[t];
  }
  return total;
}

}  // namespace

int CmdLoad(const Flags& flags) {
  const bool toy = flags.GetBool("toy", false);
  const WorkloadSpec* spec = FindWorkload(flags.GetString("workload"), toy);
  const std::string dir = flags.GetString("fixtures");
  const std::string out_path = flags.GetString("out");
  const int port = flags.GetInt("port", 0);
  if (spec == nullptr || !spec->serve || dir.empty() || out_path.empty() ||
      port <= 0) {
    std::fprintf(stderr, "perfbench load: bad arguments\n");
    return 2;
  }
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const double seconds = std::max(0.5, flags.GetDouble("seconds", 10));
  // --mode=full: warm-up, fixed phase, ladder. --mode=fixed: warm-up and
  // fixed phase only (the traced run's two halves).
  const bool ladder = flags.GetString("mode", "full") == "full";
  const long offset = flags.GetInt("user-offset", 0);
  const std::string spans_path = flags.GetString("spans-out");
  const bool corrupt = flags.GetBool("corrupt", false);

  const Traffic traffic(*spec, NumItems(*spec, toy), seed);
  std::vector<Spans> spans(kConnections);
  std::vector<std::unique_ptr<Connection>> conns;
  for (int c = 0; c < kConnections; ++c) {
    conns.push_back(std::make_unique<Connection>(
        traffic, spans_path.empty() ? nullptr : &spans[c]));
    if (!conns.back()->Connect(port)) {
      std::fprintf(stderr, "perfbench load: cannot connect to %d\n", port);
      return 1;
    }
  }

  std::vector<PhaseResult> phases;
  // Reserved up front: references into `phases` stay valid below.
  phases.reserve(3 + spec->ladder_rungs);
  const double reload_s = spec->reload_every_ms / 1000.0;
  const uint32_t stream = static_cast<uint32_t>(offset != 0);
  // Hot reloads (if the workload has them) run during the fixed phase only,
  // so every run makes the same number.
  const auto run = [&](const std::string& name, double rate, double secs,
                       uint32_t s, int warm) -> const PhaseResult& {
    phases.push_back(RunPhase(conns, name, rate, secs, traffic, offset, s,
                              warm,
                              name == "fixed" ? reload_s : 0.0));
    return phases.back();
  };
  // Warm-up (untimed): every hot user once (full mode only: the traced
  // run's registry should not see the burst), then a short settle at the
  // fixed rate.
  if (ladder && spec->warm_users > 0) {
    run("warmup", 0, 0, stream, spec->warm_users);
  }
  run("settle", spec->fixed_qps, 0.05 * seconds, stream + 2, 0);
  const PhaseResult& fixed = run("fixed", spec->fixed_qps,
                                 (ladder ? 0.7 : 0.9) * seconds, stream, 0);
  // The ladder: rung i offers base * ratio^i (the fixed phase counts as a
  // rung below it).
  // It stops after two consecutive rungs miss the limit, so one rung spoilt
  // by a stall of the machine does not end it. max_qps_slo is the highest
  // passing rung; the interpolated figure is where, between it and the
  // next rung, p99 reaches the limit (log-linear in p99).
  double max_qps = RungPasses(fixed, kSloP99Ms) ? spec->fixed_qps : 0;
  double max_qps_interp = max_qps;
  if (ladder) {
    const PhaseResult* last_pass = max_qps > 0 ? &fixed : nullptr;
    const PhaseResult* next_fail = nullptr;
    int misses = max_qps > 0 ? 0 : 1;
    for (int i = 0; i < spec->ladder_rungs && misses < 2; ++i) {
      const double rate =
          spec->ladder_base * std::pow(kLadderRatio, i + 1);
      const PhaseResult& rung = run("rung" + std::to_string(i + 1), rate,
                                    0.025 * seconds, stream + 4 + i, 0);
      if (RungPasses(rung, kSloP99Ms)) {
        last_pass = &rung;
        next_fail = nullptr;
        misses = 0;
      } else {
        if (next_fail == nullptr) next_fail = &rung;
        ++misses;
      }
    }
    if (last_pass != nullptr) {
      max_qps = max_qps_interp = last_pass->rate;
      if (next_fail != nullptr && next_fail->failed == 0 &&
          next_fail->hung == 0 && LagOk(*next_fail)) {
        const double p_lo = Percentile(last_pass->latencies_ms, 0.99);
        const double p_hi = Percentile(next_fail->latencies_ms, 0.99);
        if (p_hi > p_lo && p_lo > 0) {
          const double f = std::clamp(
              std::log(kSloP99Ms / p_lo) / std::log(p_hi / p_lo), 0.0,
              1.0);
          max_qps_interp =
              last_pass->rate + f * (next_fail->rate - last_pass->rate);
        }
      }
    }
  }
  // Saturation throughput: the most kOk responses per second completed
  // inside any timed phase's window (above the knee, the server's capacity).
  double goodput = 0;
  for (size_t i = 0; i < phases.size(); ++i) {
    if (&phases[i] < &fixed || phases[i].seconds <= 0) continue;
    goodput = std::max(goodput, phases[i].done_in_window / phases[i].seconds);
  }
  long reload_acks = 0, reload_failures = 0;
  for (auto& c : conns) {
    reload_acks += c->reload_acks();
    reload_failures += c->reload_failures();
  }

  // Oracle check of every scored response.
  std::vector<Record*> ok_records;
  long attempted = 0, failed = 0, protocol_errors = 0;
  bool broken = false;
  for (auto& c : conns) {
    for (Record& r : c->records()) {
      if (r.status == wire::Status::kOk) ok_records.push_back(&r);
    }
    protocol_errors += c->protocol_errors();
    broken = broken || c->broken();
  }
  for (const PhaseResult& p : phases) {
    attempted += p.sent;
    failed += p.failed + p.hung;
  }
  if (corrupt && !ok_records.empty() && !ok_records[0]->scores.empty()) {
    uint32_t bits = 0;
    std::memcpy(&bits, &ok_records[0]->scores[0], 4);
    bits ^= 1u;
    std::memcpy(&ok_records[0]->scores[0], &bits, 4);
  }
  const Clock::time_point v0 = Clock::now();
  long checked = 0;
  const long mismatches =
      Verify(*spec, toy, dir,
             std::vector<const Record*>(ok_records.begin(), ok_records.end()),
             &checked);
  const double verify_s = SecondsSince(v0);

  std::string phases_json = "[";
  for (size_t i = 0; i < phases.size(); ++i) {
    phases_json += (i ? ", " : "") + PhaseJson(phases[i], kSloP99Ms);
  }
  phases_json += "]";
  // The quoted latency is only valid when the generator kept its schedule
  // and the server answered every request of the fixed phase.
  const bool valid =
      LagOk(fixed) && !broken && fixed.failed == 0 && fixed.hung == 0;
  std::vector<long> status_counts(8, 0);
  for (auto& c : conns) {
    for (const Record& r : c->records()) {
      ++status_counts[std::min<size_t>(7, static_cast<size_t>(r.status))];
    }
  }
  std::string status_json = "{";
  for (int s = 0; s < 6; ++s) {
    status_json += std::string(s ? ", " : "") + "\"" +
                   wire::StatusName(static_cast<wire::Status>(s)) +
                   "\": " + std::to_string(status_counts[s]);
  }
  status_json += "}";
  const std::string text =
      Json()
          .Str("workload", spec->name)
          .Int("seed", static_cast<long long>(seed))
          .Int("connections", kConnections)
          .Raw("phases", phases_json)
          .Raw("fixed", PhaseJson(fixed, kSloP99Ms))
          .Num("max_qps_slo", max_qps)
          .Num("max_qps_slo_interp", max_qps_interp)
          .Num("goodput", goodput)
          .Num("slo_p99_ms", kSloP99Ms)
          .Int("attempted", attempted)
          .Int("failed", failed + mismatches)
          .Int("mismatches", mismatches)
          .Int("checked", checked)
          .Int("protocol_errors", protocol_errors)
          .Int("reloads", reload_acks)
          .Int("reload_failures", reload_failures)
          .Raw("statuses", status_json)
          .Num("verify_s", verify_s)
          .Bool("valid", valid)
          .Done();
  if (!WriteFile(out_path, text)) return 1;
  if (!spans_path.empty()) {
    std::string all = "[";
    for (int c = 0; c < kConnections; ++c) {
      all += (c ? ", " : "") + spans[c].ToJson();
    }
    WriteFile(spans_path, all + "]");
  }
  if (mismatches > 0) {
    std::fprintf(stderr, "perfbench load: %ld oracle mismatches\n",
                 mismatches);
    return 3;
  }
  if (!valid || protocol_errors > 0 || reload_failures > 0 ||
      checked != static_cast<long>(ok_records.size())) {
    std::fprintf(stderr, "perfbench load: invalid run\n");
    return 4;
  }
  return 0;
}

}  // namespace perfbench
