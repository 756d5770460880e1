#ifndef CAUSER_SERVE_SESSION_STORE_H_
#define CAUSER_SERVE_SESSION_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "data/dataset.h"
#include "models/recommender.h"

namespace causer::serve {

/// Serving instruments (see docs/OBSERVABILITY.md), registered together on
/// first touch and shared by the session store and the engine.
struct ServeMetricsT {
  metrics::Counter& requests;        ///< serve.requests_total
  metrics::Counter& batches;         ///< serve.batches_total
  metrics::Counter& session_hits;    ///< serve.session_hits_total
  metrics::Counter& session_misses;  ///< serve.session_misses_total
  metrics::Counter& evictions;       ///< serve.session_evictions_total
  metrics::Gauge& sessions;          ///< serve.sessions
  metrics::Histogram& batch_size;    ///< serve.batch_size
  metrics::Histogram& request_seconds;  ///< serve.request_seconds
  metrics::Histogram& advance_seconds;  ///< serve.advance_seconds
  metrics::Histogram& score_seconds;    ///< serve.score_seconds
  metrics::Counter& quant_batches;      ///< serve.quant.batches_total
  metrics::Counter& quant_rerank;       ///< serve.quant.rerank_candidates_total
  metrics::Histogram& quant_rerank_seconds;  ///< serve.quant.rerank_seconds
  metrics::Counter& quant_fallbacks;    ///< serve.quant.fallbacks_total
  metrics::Counter& reloads;            ///< serve.reload.reloads_total
  metrics::Counter& reload_failures;    ///< serve.reload.failures_total
  metrics::Histogram& reload_seconds;   ///< serve.reload.seconds
  metrics::Gauge& active_version;       ///< serve.reload.active_version
  metrics::Counter& stale_rebuilds;     ///< serve.reload.stale_rebuilds_total
  metrics::Histogram& shard_batch_seconds;  ///< serve.shard.batch_seconds
  metrics::Gauge& shard_imbalance;       ///< serve.shard.imbalance
};

/// The shared serving instrument group.
ServeMetricsT& ServeMetrics();

/// Per-user cache of session windows (models::SessionState): a hit keeps
/// the user's last max_history steps, so a request only sends its new step
/// instead of its whole history; every score folds the window from its
/// first step. Bounded by `max_sessions` with least-recently-used
/// eviction; an evicted user is rebuilt from the request's bootstrap
/// history on its next appearance, so eviction only costs time, never
/// correctness. Entries are version-stamped with the model version they
/// were created under: a hot reload bumps the engine's version, and a
/// stale entry is replaced by a fresh window seeded from the bootstrap on
/// its next touch, so after a reload a session restarts from what its
/// client sends. An entry keeps only that stamp, never the model: a stale
/// entry that is not touched again does not pin its retired version,
/// which is freed when the last batch that pinned it ends.
///
/// One mutex guards one map and one recency list. Eviction is O(1) per
/// victim: recency is a doubly-linked list threaded through the entries,
/// so the oldest entry is its tail, not the result of a map scan. The
/// lock is never contended in serving: the engine acquires and advances
/// sessions only under its own batch lock.
class SessionStore {
 public:
  /// Shared ownership of a cached session. Holding a Handle pins the state:
  /// the LRU walk skips pinned entries, so a batch that acquires more
  /// distinct users than `max_sessions` cannot free a state an earlier
  /// request in the same batch still points at. Eviction then only drops
  /// the map entry; the state itself lives until its last Handle releases.
  using Handle = std::shared_ptr<models::SessionState>;

  /// `max_sessions` <= 0 means unbounded.
  explicit SessionStore(int max_sessions);

  /// Returns the session for `user` under `version`, creating it on miss
  /// with its window seeded from the last max_history steps of `bootstrap`
  /// (may be null = start empty). A cached entry stamped with a different
  /// version is treated as a miss and reseeded from `bootstrap`. `model`
  /// is read only for its max_history; the store keeps no reference to
  /// it. The handle keeps the state alive across evictions; drop it when
  /// the request's batch completes so the LRU cap can reclaim the entry.
  Handle Acquire(int user, const std::vector<data::Step>* bootstrap,
                 const std::shared_ptr<models::SequentialRecommender>& model,
                 uint64_t version);

  /// Drops a user's session (testing / explicit logout).
  void Evict(int user);

  /// Cached sessions.
  int size() const;

 private:
  struct Entry {
    std::shared_ptr<models::SessionState> state;
    /// Engine model version `state` was created under. The stamp alone
    /// marks a stale entry: the entry does not own the model, so a retired
    /// version's weights are freed while its stale states stay cached.
    uint64_t version = 0;
    int user = 0;          // map key, for list-driven erasure
    /// Intrusive recency list: `newer` points toward the MRU end, `older`
    /// toward the LRU end. unordered_map nodes are address-stable, so the
    /// links survive rehashing.
    Entry* newer = nullptr;
    Entry* older = nullptr;
  };

  /// Removes `entry` from the recency list (list only, not the map).
  void Unlink(Entry* entry);
  /// Prepends `entry` at the MRU end.
  void PushMru(Entry* entry);
  /// Evicts unpinned LRU entries until the store is under its cap (or only
  /// pinned entries remain). Caller holds mu_.
  void EvictUnderCap(bool measure);

  const int cap_;  ///< 0 = unbounded
  mutable std::mutex mu_;
  std::unordered_map<int, Entry> sessions_;
  Entry* mru_ = nullptr;  ///< most recently used
  Entry* lru_ = nullptr;  ///< least recently used (first eviction victim)
};

}  // namespace causer::serve

#endif  // CAUSER_SERVE_SESSION_STORE_H_
