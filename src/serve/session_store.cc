#include "serve/session_store.h"

#include <algorithm>
#include <utility>

#include "common/log.h"

namespace causer::serve {

ServeMetricsT& ServeMetrics() {
  static ServeMetricsT m{
      metrics::GetCounter("serve.requests_total", "requests",
                          "Scoring requests handled by the serving engine."),
      metrics::GetCounter("serve.batches_total", "batches",
                          "Scoring batches (ScoreBatch calls; a server "
                          "worker's popped requests are one batch)."),
      metrics::GetCounter("serve.session_hits_total", "hits",
                          "Requests whose user already had a cached "
                          "session window."),
      metrics::GetCounter("serve.session_misses_total", "misses",
                          "Requests that created a session window (first "
                          "sight or post-eviction bootstrap)."),
      metrics::GetCounter("serve.session_evictions_total", "evictions",
                          "Sessions evicted by the store's LRU cap."),
      metrics::GetGauge("serve.sessions", "sessions",
                        "Session windows currently cached."),
      metrics::GetHistogram("serve.batch_size", "requests",
                            "Requests per scoring batch.",
                            {1, 2, 4, 8, 16, 32, 64, 128}),
      metrics::GetHistogram("serve.request_seconds", "seconds",
                            "Request latency through ScoreBatch, waiting "
                            "for the batch lock included.",
                            metrics::ExponentialBuckets(1e-6, 10.0, 8)),
      metrics::GetHistogram("serve.advance_seconds", "seconds",
                            "Wall time of a batch's session-advance phase "
                            "(store lookups and window appends; the models "
                            "encode in the scoring phase).",
                            metrics::ExponentialBuckets(1e-6, 10.0, 8)),
      metrics::GetHistogram("serve.score_seconds", "seconds",
                            "Wall time of a batch's catalog-scoring phase "
                            "(folding each session's window, then batched "
                            "GEMM + fused top-k, or per-request fallback).",
                            metrics::ExponentialBuckets(1e-6, 10.0, 8)),
      metrics::GetCounter("serve.quant.batches_total", "batches",
                          "Batches scored through the int8 quantized "
                          "GEMM + fp32 re-rank path."),
      metrics::GetCounter("serve.quant.rerank_candidates_total", "candidates",
                          "Int8 top-k candidates re-scored exactly in fp32 "
                          "before the final selection."),
      metrics::GetHistogram("serve.quant.rerank_seconds", "seconds",
                            "Wall time of a quantized batch's fp32 re-rank "
                            "of its int8 candidates, after the candidate "
                            "pass.",
                            metrics::ExponentialBuckets(1e-6, 10.0, 8)),
      metrics::GetCounter("serve.quant.fallbacks_total", "batches",
                          "Batches that requested int8 scoring but ran "
                          "fp32 (no quantized table, or non-finite "
                          "activations)."),
      metrics::GetCounter("serve.reload.reloads_total", "reloads",
                          "Hot model reloads published by the serving "
                          "engine (version swaps)."),
      metrics::GetCounter("serve.reload.failures_total", "failures",
                          "Rejected reload attempts (load failure or "
                          "architecture mismatch); the previous version "
                          "kept serving."),
      metrics::GetHistogram("serve.reload.seconds", "seconds",
                            "Wall time of a reload publish: quantized-table "
                            "rebuild + pointer swap (the score path is never "
                            "blocked).",
                            metrics::ExponentialBuckets(1e-6, 10.0, 8)),
      metrics::GetGauge("serve.reload.active_version", "version",
                        "Model version currently serving (monotonic, "
                        "starts at 1)."),
      metrics::GetCounter("serve.reload.stale_rebuilds_total", "sessions",
                          "Cached session states discarded on touch because "
                          "they were built by an older model version, then "
                          "rebuilt from the request's bootstrap."),
      metrics::GetHistogram("serve.shard.batch_seconds", "seconds",
                            "Wall time of one catalog shard's fused "
                            "GEMM + top-k task within a sharded scoring "
                            "pass (--score-shards > 1).",
                            metrics::ExponentialBuckets(1e-6, 10.0, 8)),
      metrics::GetGauge("serve.shard.imbalance", "ratio",
                        "Max/mean shard wall time of the latest sharded "
                        "scoring pass (1.0 = perfectly balanced)."),
  };
  return m;
}

SessionStore::SessionStore(int max_sessions)
    : cap_(std::max(0, max_sessions)) {}

void SessionStore::Unlink(Entry* entry) {
  if (entry->newer != nullptr) {
    entry->newer->older = entry->older;
  } else {
    mru_ = entry->older;
  }
  if (entry->older != nullptr) {
    entry->older->newer = entry->newer;
  } else {
    lru_ = entry->newer;
  }
  entry->newer = entry->older = nullptr;
}

void SessionStore::PushMru(Entry* entry) {
  entry->newer = nullptr;
  entry->older = mru_;
  if (mru_ != nullptr) mru_->newer = entry;
  mru_ = entry;
  if (lru_ == nullptr) lru_ = entry;
}

void SessionStore::EvictUnderCap(bool measure) {
  // O(1) per victim: the LRU end of the intrusive list *is* the oldest
  // entry — no full-map stamp scan. Entries pinned by an in-flight batch
  // (use_count > 1: the map holds one reference, handles the rest) are
  // walked past, not evicted: dropping one's map entry mid-batch would
  // fork the user's session, and its memory would survive anyway. With
  // every entry pinned the store transiently exceeds its cap by at most
  // the batch size; the next unpinned Acquire shrinks it back.
  while (cap_ > 0 && static_cast<int>(sessions_.size()) >= cap_) {
    Entry* victim = lru_;
    while (victim != nullptr && victim->state.use_count() > 1) {
      victim = victim->newer;  // pinned: skip toward the MRU end
    }
    if (victim == nullptr) break;  // everything pinned: overshoot
    Unlink(victim);
    sessions_.erase(victim->user);
    if (measure) ServeMetrics().evictions.Add();
  }
}

SessionStore::Handle SessionStore::Acquire(
    int user, const std::vector<data::Step>* bootstrap,
    const std::shared_ptr<models::SequentialRecommender>& model,
    uint64_t version) {
  const bool measure = metrics::Enabled();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(user);
  if (it != sessions_.end()) {
    if (it->second.version == version) {
      // Touch: move to the MRU end of the recency list.
      Unlink(&it->second);
      PushMru(&it->second);
      if (measure) ServeMetrics().session_hits.Add();
      return it->second.state;
    }
    // Stale: created under a different model version. Drop the entry and
    // fall through to the miss path, which reseeds it from the bootstrap.
    // Any handle still pinning the old state keeps it alive for the batch
    // that holds it.
    Unlink(&it->second);
    sessions_.erase(it);
    if (measure) ServeMetrics().stale_rebuilds.Add();
  }
  EvictUnderCap(measure);
  Entry entry;
  entry.state = std::make_shared<models::SessionState>();
  entry.state->user = user;
  entry.version = version;
  entry.user = user;
  if (bootstrap != nullptr) {
    // Seed the window with the prior history. Only the most recent
    // max_history steps can influence scoring (ScoreAll truncates), so
    // the copy is O(max_history) however long the history is.
    const size_t start = model->WindowStart(*bootstrap);
    // One slot more than the suffix: the request's append lands before
    // the oldest step leaves, and must not double the capacity.
    entry.state->window.reserve(bootstrap->size() - start + 1);
    entry.state->window.assign(bootstrap->begin() + start, bootstrap->end());
  }
  auto [pos, inserted] = sessions_.emplace(user, std::move(entry));
  CAUSER_CHECK(inserted);
  PushMru(&pos->second);
  if (measure) {
    ServeMetrics().session_misses.Add();
    ServeMetrics().sessions.Set(static_cast<double>(sessions_.size()));
  }
  return pos->second.state;
}

void SessionStore::Evict(int user) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(user);
  if (it == sessions_.end()) return;
  Unlink(&it->second);
  sessions_.erase(it);
  if (metrics::Enabled()) {
    ServeMetrics().sessions.Set(static_cast<double>(sessions_.size()));
  }
}

int SessionStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(sessions_.size());
}

}  // namespace causer::serve
