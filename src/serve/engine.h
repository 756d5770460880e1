#ifndef CAUSER_SERVE_ENGINE_H_
#define CAUSER_SERVE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "models/recommender.h"
#include "serve/session_store.h"

namespace causer::serve {

/// Serving engine knobs.
struct ServingConfig {
  /// Most queued requests a server worker pops into one ScoreBatch call.
  int batch_max = 32;
  /// Recommendations returned per request.
  int top_k = 10;
  /// Session-store LRU capacity; 0 = unbounded (negative values are
  /// clamped to 0 by the constructor, like batch_max/top_k).
  int max_sessions = 0;
  /// Score batches against the model's int8 per-row-quantized item table
  /// (models::SequentialRecommender::QuantizedItemTable) with an exact
  /// fp32 re-rank of the best `rerank_k` candidates, instead of the fp32
  /// table. Returned scores are always fp32-exact; the top-k *set* can
  /// differ from fp32 only when a true top-k item ranks below rerank_k
  /// under quantized scoring (docs/KERNELS.md, "Quantized primitives").
  /// Models without a single-GEMM form fall back to fp32 per-request
  /// scoring as usual (counted by serve.quant.fallbacks_total).
  bool quantize_int8 = false;
  /// Candidates per request surviving the int8 pass into the fp32 re-rank
  /// under quantize_int8. Clamped to at least top_k; values >= the catalog
  /// size make the result provably identical to the fp32 path (every
  /// candidate is re-scored exactly). The default covers any plausible
  /// quantization-induced rank displacement with big margin.
  int rerank_k = 2048;
  /// Catalog shards for the scoring pass: > 1 splits the item table
  /// row-wise and fans the fused GEMM + top-k out across the thread pool
  /// (kernels::MatMulTopKSharded / the int8 sibling), merging the
  /// per-shard k-heaps under the same total order — responses are
  /// bit-identical to unsharded at every value. Useful when batches are
  /// small: row-parallelism caps at the batch size, shard-parallelism at
  /// min(score_shards, threads) even for a single request. Clamped to at
  /// least 1; the kernel further clamps to the catalog size.
  int score_shards = 1;
};

/// One scoring request. Pointed-to data must stay alive until the call
/// returns (Handle/ScoreBatch block, so stack storage works).
struct Request {
  int user = 0;
  /// Interaction to append to the session before scoring; null = score the
  /// session as it stands.
  const data::Step* append = nullptr;
  /// Prior history that seeds the session's window if the user has no
  /// cached session (first sight or post-eviction); null = start from an
  /// empty history.
  const std::vector<data::Step>* bootstrap = nullptr;
};

/// Why a Response carries no recommendations.
enum class ResponseStatus : uint8_t {
  kOk = 0,
  /// The engine was stopped when the request arrived; nothing was scored.
  kShuttingDown = 1,
};

/// Top-k recommendations, best first — exactly eval::TopK of the model's
/// ScoreAll over the session's history. Empty with a non-kOk status when
/// the request was rejected instead of scored.
struct Response {
  std::vector<int> items;
  std::vector<float> scores;
  ResponseStatus status = ResponseStatus::kOk;
  /// The engine model version that scored this response (1 = the model the
  /// engine was constructed with, bumped by each Reload). 0 on rejection.
  uint64_t model_version = 0;
};

/// Online inference engine: a session store of per-user windows plus one
/// batch scorer. ScoreBatch appends every request's step to its session's
/// window, then scores the batch, each model folding every window from its
/// first step. The scoring is
/// one batched GEMM + fused top-k pass (kernels::MatMulTopK) when the
/// model exposes the single-inner-product form (StateRep/OutputItemTable),
/// falling back to per-request ScoreFromState otherwise (Causer's grouped
/// scoring). The engine has no queue and starts no thread: its callers
/// form the batches (the server's workers pop up to batch_max queued
/// requests each), and one mutex runs their batches one at a time. See
/// docs/ARCHITECTURE.md for the request data flow.
///
/// The model is hot-swappable: Reload() publishes a new version by
/// swapping a shared_ptr (epoch swap) under a mutex held only for the
/// pointer copy. Each batch pins the version live when it starts and
/// scores with it to completion, so a reload never waits on a batch and
/// an in-flight batch never sees weights change under it; sessions created
/// under older versions are replaced by fresh ones seeded from their
/// request's bootstrap on next touch (docs/ROBUSTNESS.md, "Serving fault
/// tolerance").
class ServingEngine {
 public:
  ServingEngine(std::shared_ptr<models::SequentialRecommender> model,
                const ServingConfig& config);
  /// Non-owning convenience overload: `model` must outlive the engine
  /// (tests, benches, single-model embedders).
  ServingEngine(models::SequentialRecommender& model,
                const ServingConfig& config);

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Scores one request as a batch of one: ScoreBatch({request})[0].
  Response Handle(const Request& request);

  /// Stops scoring: a batch already running finishes, and every later
  /// Handle/ScoreBatch call answers kShuttingDown without scoring.
  /// Idempotent.
  void Stop();

  /// Appends each request's step to its session's window in order, then
  /// scores the batch against one pinned model version. Requests for the
  /// same user fold into one session: each append lands in order and every
  /// duplicate scores the final state. Thread-safe and blocking;
  /// concurrent calls run one at a time.
  std::vector<Response> ScoreBatch(const std::vector<Request>& requests);

  /// Hot-swaps the served model: rebuilds the int8 quantized item table
  /// when quantize_int8 is on (on this thread — scoring continues on the
  /// old version meanwhile), then publishes the new version with one
  /// pointer swap under served_mu_. Batches in flight finish on the
  /// version they pinned; later batches pick up the new one, and their
  /// stale sessions are reseeded from bootstrap on touch. The engine
  /// drops its reference to the retired version here; the version is
  /// freed when the last batch that pinned it ends, whatever stale
  /// sessions it leaves cached (they keep only its version stamp). Returns
  /// the new active version, or 0 — previous version keeps serving — when
  /// `model` is null or its catalog size differs from the current one (the
  /// server's request validation and every cached expectation key on it).
  /// Thread-safe; concurrent reloads are serialized.
  uint64_t Reload(std::shared_ptr<models::SequentialRecommender> model,
                  const std::string& source = "reload");

  /// The version currently serving (1 = construction model).
  uint64_t active_version() const;

  SessionStore& store() { return store_; }
  const ServingConfig& config() const { return config_; }
  /// The served model (e.g. for catalog-size request validation). The
  /// returned pointer stays valid across reloads — hold it, not a
  /// reference into it.
  std::shared_ptr<const models::SequentialRecommender> model() const;

 private:
  /// One published model version plus its serving-side derived state.
  /// Immutable after publish; batches pin it with one Served() copy and
  /// keep it for the whole batch.
  struct ServedModel {
    uint64_t version = 1;
    std::shared_ptr<models::SequentialRecommender> model;
    /// Model-owned quantized item table; non-null only under quantize_int8
    /// with a quantizable model. Valid while `model` lives — the pin above
    /// covers it.
    const tensor::QuantizedMatrix* qtable = nullptr;
    std::string source;
  };

  /// Builds a ServedModel (quantized-table calibration included).
  std::shared_ptr<const ServedModel> BuildServed(
      std::shared_ptr<models::SequentialRecommender> model, uint64_t version,
      const std::string& source);

  /// ScoreBatch's body, run under batch_mu_: advances every request's
  /// session, then scores them (batched GEMM + fused top-k when
  /// available). Returns one response per request, in order.
  std::vector<Response> ProcessBatch(const std::vector<Request>& requests);
  /// Int8 path of ProcessBatch's scoring phase: quantizes the packed
  /// [rows, dim] reps per row, runs the quantized fused top-rerank_k
  /// (kernels::MatMulTopKQ) against `served`'s table, then re-scores the
  /// surviving candidates exactly in fp32 and fills the responses. Returns
  /// false — responses untouched, caller runs the fp32 path — when the
  /// activations cannot be quantized (non-finite values).
  bool ScoreRowsQuantized(const ServedModel& served, const float* reps,
                          int rows, int dim, int vocab,
                          const tensor::Tensor* table,
                          const std::vector<int>& gemm_rows,
                          std::vector<Response>& unique_responses);

  /// A copy of the current version, taken under served_mu_.
  std::shared_ptr<const ServedModel> Served() const;

  const ServingConfig config_;
  SessionStore store_;
  /// The epoch-swapped current version. served_mu_ is held only to copy
  /// or swap the pointer, never across a build or a batch, so readers
  /// wait at most for another pointer copy.
  mutable std::mutex served_mu_;
  std::shared_ptr<const ServedModel> served_;
  std::mutex reload_mu_;  // serializes writers (Reload)

  /// The one serving lock: ProcessBatch, and with it every session-store
  /// Acquire and state advance, runs under it.
  std::mutex batch_mu_;
  std::atomic<bool> stopped_{false};
};

}  // namespace causer::serve

#endif  // CAUSER_SERVE_ENGINE_H_
