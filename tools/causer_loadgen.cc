// causer_loadgen: open-loop load generator for the serving TCP front-end
// (`causer_cli serve --serve-port=...`, wire format in src/serve/protocol.h).
//
// Open-loop means request i is *due* at start + i/qps regardless of how
// fast the server answers, and latency is measured from that due time —
// a server that stalls accumulates the backlog in the reported tail
// instead of silently slowing the offered load (coordinated omission).
//
// Users and items are Zipf-distributed over configurably huge id spaces
// (millions of distinct users exercise session-store eviction; the skew
// exercises the cache-hit path), sampled in O(1) per draw via Hörmann's
// rejection-inversion, so no per-id state is kept.
//
// The generator is fault-tolerant the way a real client fleet is: a
// broken connection (reset, torn frame, server-injected fault) is
// reconnected and every response-less request is resent; kQueueFull
// responses are retried with per-request exponential backoff. Retries,
// reconnects and resends are reported so chaos runs can see the recovery
// machinery working.
//
// --check turns on the bit-exactness cross-check used by the chaos CI
// job: every request carries a bootstrap history derived purely from its
// user id and appends nothing, so the server's response is a pure
// function of (user, model_version). The first response seen for each
// such pair is recorded; every later response must match it byte for
// byte (ranked items and fp32 score bits), across session eviction,
// rebuilds and hot reloads. Requires --items=N for the catalog bound.
//
// Exit status is a gate for CI: nonzero when any protocol error occurred,
// when no request succeeded, when achieved OK-throughput fell below
// --min-qps, when a connection was left hanging (a response never
// arrived within --drain-wait-s after the last send), or when --check
// saw any cross-check mismatch.
//
//   causer_loadgen --port=P [--host=127.0.0.1] [--qps=5000]
//                  [--duration-s=5] [--connections=4] [--users=1000000]
//                  [--items=0] [--zipf=1.1] [--deadline-ms=0]
//                  [--high-pct=10] [--min-qps=0] [--drain-wait-s=5]
//                  [--seed=1] [--smoke] [--check]
//
// --items=N (> 0) appends one sampled item per request, exercising the
// session-append path; item ids must fit the served model's catalog.
// With --check it bounds the bootstrap item ids instead (no appends).
// --smoke shrinks the defaults for a fast CI run (2s at 2000 qps).

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/flags.h"
#include "common/net.h"
#include "common/rng.h"
#include "serve/protocol.h"

namespace {

using namespace causer;
using Clock = std::chrono::steady_clock;

constexpr int kNumStatuses = 6;
/// Resend attempts per request beyond the first (queue-full backoff).
constexpr int kMaxRetries = 6;

/// Zipf(s) sampler over {0, ..., n-1} by Hörmann's rejection-inversion
/// (as in "Rejection-inversion to generate variates from monotone
/// discrete distributions", ACM TOMACS 6(3), 1996): O(1) expected time
/// per draw and O(1) memory, so the id space can be in the millions.
class ZipfSampler {
 public:
  ZipfSampler(long n, double s) : n_(n), s_(s) {
    h_n_ = H(n_ + 0.5);
    dist_ = h_n_ - H(0.5);
  }

  long Sample(Rng& rng) {
    if (n_ <= 1) return 0;
    for (;;) {
      const double u = h_n_ - rng.Uniform() * dist_;
      const double x = Hinv(u);
      long k = std::lround(x);
      if (k < 1) k = 1;
      if (k > n_) k = n_;
      // Accept k exactly when u falls inside its probability bar.
      if (u >= H(k + 0.5) - std::exp(-std::log(k) * s_)) return k - 1;
    }
  }

 private:
  // H is the integral of the (unnormalized) density x^-s, extended to
  // non-integers; its inverse drives the inversion step.
  double H(double x) const {
    return s_ == 1.0 ? std::log(x)
                     : (std::pow(x, 1.0 - s_) - 1.0) / (1.0 - s_);
  }
  double Hinv(double x) const {
    return s_ == 1.0 ? std::exp(x)
                     : std::pow(1.0 + x * (1.0 - s_), 1.0 / (1.0 - s_));
  }

  long n_;
  double s_;
  double h_n_ = 0.0;
  double dist_ = 0.0;
};

/// Everything one connection accumulates; merged after the join.
struct ConnStats {
  long sent = 0;             // first sends (not resends)
  long send_failures = 0;    // requests given up on (connection dead)
  long protocol_errors = 0;  // undecodable response payloads
  long hung = 0;             // responses that never arrived
  long retries = 0;          // kQueueFull-triggered resends
  long reconnects = 0;       // successful re-dials after a break
  long resent = 0;           // frames resent (reconnect replay + retries)
  long by_status[kNumStatuses] = {0, 0, 0, 0, 0, 0};
  std::vector<double> latencies;  // seconds, from scheduled due time
};

/// A request on the wire awaiting its response (or a resend slot).
struct Pending {
  std::vector<uint8_t> bytes;  // encoded payload, resent verbatim
  Clock::time_point due;       // open-loop schedule slot (latency origin)
  Clock::time_point resend_at{};  // when set, resend instead of waiting
  int32_t user = 0;
  int retries = 0;
  bool resend_pending = false;
};

/// --check bookkeeping, shared across connections: the first kOk payload
/// seen for each (user, model_version) pair is canon; every later one
/// must match bit for bit.
struct CheckTable {
  std::mutex mu;
  std::unordered_map<uint64_t, std::vector<uint8_t>> canon;
  long checked = 0;
  long mismatches = 0;
};

/// items + fp32 score bits, the bit-exactness comparison unit.
std::vector<uint8_t> ResponseSignature(const serve::wire::ResponseFrame& r) {
  std::vector<uint8_t> sig;
  sig.reserve(r.items.size() * 8);
  for (size_t i = 0; i < r.items.size(); ++i) {
    net::PutU32(&sig, static_cast<uint32_t>(r.items[i]));
    net::PutF32(&sig, i < r.scores.size() ? r.scores[i] : 0.0f);
  }
  return sig;
}

/// The --check request body for a user: a short bootstrap derived purely
/// from the user id (so rebuilds after eviction or reload replay the
/// exact same history), no append.
void FillCheckBootstrap(int32_t user, long catalog,
                        serve::wire::RequestFrame* frame) {
  const uint32_t u = static_cast<uint32_t>(user);
  const int steps = 1 + static_cast<int>(u % 3);
  frame->bootstrap.resize(steps);
  for (int j = 0; j < steps; ++j) {
    const uint32_t item =
        ((u + 1u) * 2654435761u + static_cast<uint32_t>(j) * 40503u) %
        static_cast<uint32_t>(catalog);
    frame->bootstrap[j] = {static_cast<int32_t>(item)};
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: causer_loadgen --port=P [--host=A] [--qps=N] "
               "[--duration-s=S] [--connections=N] [--users=N] [--items=N] "
               "[--zipf=S] [--deadline-ms=N] [--high-pct=N] [--min-qps=N] "
               "[--drain-wait-s=S] [--seed=N] [--smoke] [--check]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  if (flags.GetBool("help", false)) return Usage();
  if (!flags.Has("port")) return Usage();

  const bool smoke = flags.GetBool("smoke", false);
  const bool check = flags.GetBool("check", false);
  const std::string host = flags.GetString("host", "127.0.0.1");
  const int port = flags.GetInt("port", 0);
  const double qps = flags.GetDouble("qps", smoke ? 2000.0 : 5000.0);
  const double duration_s =
      flags.GetDouble("duration-s", smoke ? 2.0 : 5.0);
  const int connections = std::max(1, flags.GetInt("connections", 4));
  const long users = std::max(1, flags.GetInt("users", 1000000));
  const long items = std::max(0, flags.GetInt("items", 0));
  const double zipf_s = flags.GetDouble("zipf", 1.1);
  const uint32_t deadline_ms =
      static_cast<uint32_t>(std::max(0, flags.GetInt("deadline-ms", 0)));
  const int high_pct =
      std::min(100, std::max(0, flags.GetInt("high-pct", 10)));
  const double min_qps = flags.GetDouble("min-qps", 0.0);
  const double drain_wait_s =
      std::max(0.5, flags.GetDouble("drain-wait-s", 5.0));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  flags.ExitOnUnknown();
  const long total =
      std::max<long>(1, std::lround(qps * std::max(0.1, duration_s)));
  if (check && items <= 0) {
    std::fprintf(stderr, "--check needs --items=N for the catalog bound\n");
    return 2;
  }

  std::vector<int> fds(connections, -1);
  for (int c = 0; c < connections; ++c) {
    fds[c] = net::ConnectTcp(host, port);
    if (fds[c] < 0) {
      std::fprintf(stderr, "connect %s:%d failed (connection %d)\n",
                   host.c_str(), port, c);
      for (int fd : fds) net::CloseSocket(fd);
      return 1;
    }
    net::SetRecvTimeout(fds[c], drain_wait_s);
  }

  std::printf(
      "offering %ld requests at %.0f qps over %d connection(s): "
      "%ld users / %ld items (zipf %.2f), %d%% high priority, "
      "deadline %u ms%s\n",
      total, qps, connections, users, items, zipf_s, high_pct, deadline_ms,
      check ? ", bit-exactness check on" : "");
  std::fflush(stdout);

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const auto due = [&](long i) {
    return start + std::chrono::nanoseconds(
                       static_cast<long long>(i * 1e9 / qps));
  };

  CheckTable check_table;
  std::vector<ConnStats> stats(connections);
  std::vector<std::thread> workers;
  workers.reserve(connections);

  // One worker per connection, pipelining sends at their due times while
  // draining whatever responses poll() says are ready — so a single
  // thread owns its fd end to end and reconnect/resend needs no
  // cross-thread coordination.
  for (int c = 0; c < connections; ++c) {
    workers.emplace_back([&, c] {
      ConnStats& s = stats[c];
      int fd = fds[c];
      bool dead = false;
      Rng rng(seed * 7919 + static_cast<uint64_t>(c));
      ZipfSampler user_zipf(users, zipf_s);
      ZipfSampler item_zipf(std::max<long>(1, items), zipf_s);
      std::unordered_map<uint32_t, Pending> outstanding;
      std::vector<uint8_t> payload;

      // Re-dial after a break and replay every response-less request.
      // False (and `dead`) only when the server is truly unreachable.
      auto recover = [&]() -> bool {
        for (int round = 0; round < 5 && !dead; ++round) {
          net::CloseSocket(fd);
          fd = -1;
          for (int attempt = 0; attempt < 10 && fd < 0; ++attempt) {
            fd = net::ConnectTcp(host, port);
            if (fd < 0) {
              std::this_thread::sleep_for(
                  std::chrono::milliseconds(2 * (attempt + 1)));
            }
          }
          if (fd < 0) break;
          net::SetRecvTimeout(fd, drain_wait_s);
          ++s.reconnects;
          bool replayed = true;
          for (auto& [id, p] : outstanding) {
            if (!net::WriteFrame(fd, p.bytes.data(), p.bytes.size())) {
              replayed = false;  // broke again mid-replay; next round
              break;
            }
            ++s.resent;
            p.resend_pending = false;
          }
          if (replayed) return true;
        }
        dead = true;
        return false;
      };

      auto handle_response = [&]() {
        serve::wire::ResponseFrame response;
        if (!serve::wire::DecodeResponse(payload, &response)) {
          ++s.protocol_errors;
          return;
        }
        auto it = outstanding.find(response.request_id);
        if (it == outstanding.end()) return;  // duplicate after a replay
        Pending& p = it->second;
        if (response.status == serve::wire::Status::kQueueFull &&
            p.retries < kMaxRetries) {
          // Back off per request: 1, 2, 4, ... ms, decorrelated by the
          // open-loop schedule itself (requests back off from when their
          // rejection arrives, not in lockstep).
          ++p.retries;
          ++s.retries;
          p.resend_at = Clock::now() +
                        std::chrono::milliseconds(1 << (p.retries - 1));
          p.resend_pending = true;
          return;
        }
        const int status = static_cast<int>(response.status);
        if (status >= 0 && status < kNumStatuses) ++s.by_status[status];
        if (response.status == serve::wire::Status::kOk) {
          s.latencies.push_back(
              std::chrono::duration<double>(Clock::now() - p.due).count());
          if (check) {
            const uint64_t key =
                (static_cast<uint64_t>(static_cast<uint32_t>(p.user)) << 32) |
                response.model_version;
            const std::vector<uint8_t> sig = ResponseSignature(response);
            std::lock_guard<std::mutex> lock(check_table.mu);
            ++check_table.checked;
            auto canon_it = check_table.canon.find(key);
            if (canon_it == check_table.canon.end()) {
              check_table.canon.emplace(key, sig);
            } else if (canon_it->second != sig) {
              ++check_table.mismatches;
              std::fprintf(stderr,
                           "CHECK MISMATCH user %d model_version %u\n",
                           p.user, response.model_version);
            }
          }
        }
        outstanding.erase(it);
      };

      // Fire any due queue-full resends; returns the earliest pending
      // resend time (or `fallback` when none are pending).
      auto flush_resends = [&](Clock::time_point fallback) -> Clock::time_point {
        Clock::time_point next = fallback;
        const Clock::time_point now = Clock::now();
        for (auto& [id, p] : outstanding) {
          if (!p.resend_pending) continue;
          if (p.resend_at <= now) {
            if (!net::WriteFrame(fd, p.bytes.data(), p.bytes.size())) {
              if (!recover()) return fallback;
              break;  // recover() replayed everything, flags cleared
            }
            ++s.resent;
            p.resend_pending = false;
          } else if (p.resend_at < next) {
            next = p.resend_at;
          }
        }
        return next;
      };

      // Drain responses (and fire resends) until `until`.
      auto drain_until = [&](Clock::time_point until) {
        while (!dead) {
          const Clock::time_point wake = flush_resends(until);
          const Clock::time_point now = Clock::now();
          if (now >= until) return;
          const auto wait = std::min(wake, until) - now;
          const int timeout_ms = std::max(
              1, static_cast<int>(
                     std::chrono::duration_cast<std::chrono::milliseconds>(
                         wait)
                         .count()) +
                     1);
          struct pollfd pfd = {fd, POLLIN, 0};
          const int ready = poll(&pfd, 1, timeout_ms);
          if (ready <= 0) continue;  // timeout/EINTR: re-check the clock
          if (!net::ReadFrame(fd, &payload, serve::wire::kMaxFrameBytes)) {
            if (!recover()) return;
            continue;
          }
          handle_response();
        }
      };

      // Connection c owns request indices i ≡ c (mod connections); the
      // request_id encodes i so due times survive out-of-order replies.
      for (long i = c; i < total; i += connections) {
        if (!dead) drain_until(due(i));
        if (dead) {
          ++s.send_failures;  // never reached a live wire
          continue;
        }
        serve::wire::RequestFrame frame;
        frame.request_id = static_cast<uint32_t>(i);
        frame.user = static_cast<int32_t>(user_zipf.Sample(rng));
        frame.deadline_ms = deadline_ms;
        frame.priority = (i % 100) < high_pct
                             ? serve::wire::Priority::kHigh
                             : serve::wire::Priority::kNormal;
        if (check) {
          FillCheckBootstrap(frame.user, items, &frame);
        } else if (items > 0) {
          frame.append.push_back(
              static_cast<int32_t>(item_zipf.Sample(rng)));
        }
        Pending pending;
        pending.due = due(i);
        pending.user = frame.user;
        serve::wire::EncodeRequest(frame, &pending.bytes);
        auto [it, inserted] =
            outstanding.emplace(frame.request_id, std::move(pending));
        ++s.sent;
        if (!net::WriteFrame(fd, it->second.bytes.data(),
                             it->second.bytes.size())) {
          recover();  // replays the whole window, this frame included
        }
      }

      // Drain: everything still response-less after the grace window
      // counts as hung (the CI gate for stuck connections).
      const Clock::time_point drain_deadline =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(drain_wait_s));
      while (!dead && !outstanding.empty() &&
             Clock::now() < drain_deadline) {
        drain_until(std::min(drain_deadline,
                             Clock::now() + std::chrono::milliseconds(50)));
      }
      s.hung = static_cast<long>(outstanding.size());
      net::CloseSocket(fd);
      fds[c] = -1;
    });
  }
  for (auto& t : workers) t.join();
  const double wall =
      std::chrono::duration<double>(Clock::now() - start).count();
  for (int fd : fds) net::CloseSocket(fd);

  ConnStats all;
  for (int c = 0; c < connections; ++c) {
    const ConnStats& s = stats[c];
    all.sent += s.sent;
    all.send_failures += s.send_failures;
    all.protocol_errors += s.protocol_errors;
    all.hung += s.hung;
    all.retries += s.retries;
    all.reconnects += s.reconnects;
    all.resent += s.resent;
    for (int k = 0; k < kNumStatuses; ++k) all.by_status[k] += s.by_status[k];
    all.latencies.insert(all.latencies.end(), s.latencies.begin(),
                         s.latencies.end());
  }
  std::sort(all.latencies.begin(), all.latencies.end());
  const auto pct = [&](double q) {
    if (all.latencies.empty()) return 0.0;
    const size_t idx =
        static_cast<size_t>(q * (all.latencies.size() - 1));
    return all.latencies[idx] * 1e3;  // ms
  };
  const long ok = all.by_status[0];
  const double achieved = wall > 0 ? ok / wall : 0.0;

  long answered = 0;
  for (int k = 0; k < kNumStatuses; ++k) answered += all.by_status[k];
  std::printf("sent %ld (%ld send failures), responses %ld: ", all.sent,
              all.send_failures, answered);
  for (int k = 0; k < kNumStatuses; ++k) {
    std::printf("%s%s %ld", k > 0 ? "  " : "",
                serve::wire::StatusName(static_cast<serve::wire::Status>(k)),
                all.by_status[k]);
  }
  std::printf("\nprotocol errors %ld, hung %ld\n", all.protocol_errors,
              all.hung);
  std::printf("retries %ld, reconnects %ld, resent %ld\n", all.retries,
              all.reconnects, all.resent);
  if (check) {
    std::printf("check: %ld ok responses against %zu (user, version) keys, "
                "%ld mismatches\n",
                check_table.checked, check_table.canon.size(),
                check_table.mismatches);
  }
  std::printf("latency p50 %.3f ms  p99 %.3f ms  p99.9 %.3f ms\n",
              pct(0.50), pct(0.99), pct(0.999));
  std::printf("achieved %.0f ok-req/s over %.2f s (offered %.0f qps)\n",
              achieved, wall, qps);

  int failures = 0;
  if (all.protocol_errors > 0) {
    std::fprintf(stderr, "FAIL: %ld protocol errors\n", all.protocol_errors);
    ++failures;
  }
  if (ok == 0) {
    std::fprintf(stderr, "FAIL: no request succeeded\n");
    ++failures;
  }
  if (all.hung > 0) {
    std::fprintf(stderr, "FAIL: %ld responses never arrived\n", all.hung);
    ++failures;
  }
  if (min_qps > 0 && achieved < min_qps) {
    std::fprintf(stderr, "FAIL: achieved %.0f qps < --min-qps=%.0f\n",
                 achieved, min_qps);
    ++failures;
  }
  if (check && check_table.mismatches > 0) {
    std::fprintf(stderr,
                 "FAIL: %ld bit-exactness mismatches across reloads\n",
                 check_table.mismatches);
    ++failures;
  }
  return failures > 0 ? 1 : 0;
}
