#include "serve/engine.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/fault.h"
#include "common/log.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "eval/metrics.h"
#include "tensor/kernels.h"
#include "tensor/quant.h"
#include "tensor/tensor.h"

namespace causer::serve {

namespace {

/// Feeds one sharded scoring pass's per-shard wall times into the
/// serve.shard.* instruments: a histogram observation per shard and the
/// imbalance gauge (max/mean — 1.0 means the static row split kept every
/// shard equally busy). A pass that ran unsharded (count <= 1) records
/// nothing. Caller checks metrics::Enabled().
void ObserveShardTimes(const double* seconds, int count) {
  if (count <= 1) return;
  double sum = 0.0;
  double worst = 0.0;
  for (int s = 0; s < count; ++s) {
    ServeMetrics().shard_batch_seconds.Observe(seconds[s]);
    sum += seconds[s];
    worst = std::max(worst, seconds[s]);
  }
  if (sum > 0.0) {
    ServeMetrics().shard_imbalance.Set(worst * count / sum);
  }
}

}  // namespace

ServingEngine::ServingEngine(
    std::shared_ptr<models::SequentialRecommender> model,
    const ServingConfig& config)
    : config_([&config] {
        ServingConfig c = config;
        c.batch_max = std::max(1, c.batch_max);
        c.top_k = std::max(1, c.top_k);
        // A negative capacity must not silently mean unbounded: the store
        // receives the clamped value, and 0 is the documented "no cap".
        c.max_sessions = std::max(0, c.max_sessions);
        // A re-rank narrower than the response would drop results.
        c.rerank_k = std::max(std::max(1, c.top_k), c.rerank_k);
        c.score_shards = std::max(1, c.score_shards);
        return c;
      }()),
      store_(config_.max_sessions) {
  CAUSER_CHECK(model != nullptr);
  served_ = BuildServed(std::move(model), 1, "initial");
  if (metrics::Enabled()) ServeMetrics().active_version.Set(1.0);
}

ServingEngine::ServingEngine(models::SequentialRecommender& model,
                             const ServingConfig& config)
    : ServingEngine(std::shared_ptr<models::SequentialRecommender>(
                        &model, [](models::SequentialRecommender*) {}),
                    config) {}

std::shared_ptr<const ServingEngine::ServedModel> ServingEngine::BuildServed(
    std::shared_ptr<models::SequentialRecommender> model, uint64_t version,
    const std::string& source) {
  auto served = std::make_shared<ServedModel>();
  served->version = version;
  served->model = std::move(model);
  served->source = source;
  if (config_.quantize_int8) {
    // Calibrate (or fetch the model's cached) quantized table up front so
    // the first batch doesn't pay the absmax pass, and so an unquantizable
    // model is reported once per version instead of per batch. On reload
    // this runs on the reloader's thread while the old version keeps
    // scoring.
    served->qtable = served->model->QuantizedItemTable();
    if (served->qtable == nullptr) {
      CAUSER_LOG(Warning)
          << "int8 scoring requested but " << served->model->name()
          << " has no quantizable item table; serving fp32";
    }
  }
  return served;
}

uint64_t ServingEngine::Reload(
    std::shared_ptr<models::SequentialRecommender> model,
    const std::string& source) {
  const bool measure = metrics::Enabled();
  std::lock_guard<std::mutex> lock(reload_mu_);
  Stopwatch watch;
  const auto current = Served();
  if (model == nullptr ||
      model->config().num_items != current->model->config().num_items) {
    // The catalog size is load-bearing: the server validates request item
    // ids against it once at startup, and clients key cached expectations
    // on it. A model of a different shape is a deployment error, not a
    // reload.
    CAUSER_LOG(Warning) << "model reload rejected (" << source << "): "
                        << (model == nullptr ? "no model"
                                             : "catalog size mismatch");
    if (measure) ServeMetrics().reload_failures.Add();
    return 0;
  }
  const auto next = BuildServed(std::move(model), current->version + 1,
                                source);
  // The swap itself: one pointer swap under served_mu_. Batches already
  // running keep the ServedModel they pinned; the next batch (and the
  // session store's version stamps, via the version it passes to Acquire)
  // sees the new one. Nothing on the score path blocks on reload_mu_, and
  // `current` keeps the retired version until after the lock is released.
  {
    std::lock_guard<std::mutex> swap(served_mu_);
    served_ = next;
  }
  if (measure) {
    ServeMetrics().reloads.Add();
    ServeMetrics().active_version.Set(static_cast<double>(next->version));
    ServeMetrics().reload_seconds.Observe(watch.ElapsedSeconds());
  }
  return next->version;
}

std::shared_ptr<const ServingEngine::ServedModel> ServingEngine::Served()
    const {
  std::lock_guard<std::mutex> lock(served_mu_);
  return served_;
}

uint64_t ServingEngine::active_version() const {
  return Served()->version;
}

std::shared_ptr<const models::SequentialRecommender> ServingEngine::model()
    const {
  return Served()->model;
}

void ServingEngine::Stop() { stopped_.store(true, std::memory_order_release); }

Response ServingEngine::Handle(const Request& request) {
  return ScoreBatch({request})[0];
}

std::vector<Response> ServingEngine::ScoreBatch(
    const std::vector<Request>& requests) {
  if (requests.empty()) return {};
  Stopwatch watch;
  std::vector<Response> responses;
  {
    std::lock_guard<std::mutex> batch_lock(batch_mu_);
    if (stopped_.load(std::memory_order_acquire)) {
      Response rejected;
      rejected.status = ResponseStatus::kShuttingDown;
      return std::vector<Response>(requests.size(), rejected);
    }
    responses = ProcessBatch(requests);
  }
  if (metrics::Enabled()) {
    // One observation per request, including the wait for batch_mu_.
    const double elapsed = watch.ElapsedSeconds();
    for (size_t i = 0; i < requests.size(); ++i) {
      ServeMetrics().request_seconds.Observe(elapsed);
    }
  }
  return responses;
}

bool ServingEngine::ScoreRowsQuantized(
    const ServedModel& served, const float* reps, int rows, int dim,
    int vocab, const tensor::Tensor* table, const std::vector<int>& gemm_rows,
    std::vector<Response>& unique_responses) {
  std::vector<std::int8_t> qreps(static_cast<size_t>(rows) * dim);
  std::vector<float> rep_scales(rows);
  if (!tensor::QuantizeRows(reps, rows, dim, qreps.data(),
                            rep_scales.data())) {
    return false;
  }
  const bool measure = metrics::Enabled();
  const int k = config_.top_k;
  const int kq = std::min(vocab, config_.rerank_k);
  std::vector<tensor::kernels::TopKEntry> cands(static_cast<size_t>(rows) *
                                                kq);
  std::vector<double> shard_seconds(
      measure ? static_cast<size_t>(config_.score_shards) : 0);
  const int used = tensor::kernels::MatMulTopKQSharded(
      qreps.data(), rep_scales.data(), served.qtable->data.data(),
      served.qtable->scales.data(), rows, dim, vocab, kq,
      config_.score_shards, cands.data(),
      measure ? shard_seconds.data() : nullptr);
  if (measure) ObserveShardTimes(shard_seconds.data(), used);
  // Exact fp32 re-rank: each candidate's score is the zero-seeded
  // ascending-k chain MatMulTopK scores with, so every returned score
  // carries the fp32 path's bits; with rerank_k >= vocab every item is a
  // candidate and the whole response is provably identical to the fp32
  // branch.
  Stopwatch rerank_watch;
  const float* tbl = table->data().data();
  std::vector<tensor::kernels::TopKEntry> best(k);
  size_t rescored = 0;
  for (int r = 0; r < rows; ++r) {
    const tensor::kernels::TopKEntry* crow =
        cands.data() + static_cast<size_t>(r) * kq;
    for (int j = 0; j < kq && crow[j].index >= 0; ++j) ++rescored;
    const int take = tensor::kernels::RerankTopK(
        reps + static_cast<size_t>(r) * dim, tbl, dim, crow, kq, k,
        best.data());
    Response& response = unique_responses[gemm_rows[r]];
    for (int j = 0; j < take; ++j) {
      response.items.push_back(best[j].index);
      response.scores.push_back(best[j].score);
    }
  }
  if (measure) {
    ServeMetrics().quant_batches.Add();
    ServeMetrics().quant_rerank.Add(static_cast<double>(rescored));
    ServeMetrics().quant_rerank_seconds.Observe(
        rerank_watch.ElapsedSeconds());
  }
  return true;
}

std::vector<Response> ServingEngine::ProcessBatch(
    const std::vector<Request>& batch) {
  const bool measure = metrics::Enabled();
  trace::TraceSpan batch_span("serve.batch");
  batch_span.AddArg("size", static_cast<double>(batch.size()));
  if (measure) {
    ServeMetrics().requests.Add(static_cast<double>(batch.size()));
    ServeMetrics().batches.Add();
    ServeMetrics().batch_size.Observe(static_cast<double>(batch.size()));
  }

  // Pin the current model version for the whole batch: one pointer copy
  // under served_mu_, released before any work. A Reload publishing
  // mid-batch swaps served_ under us, but this shared_ptr keeps our
  // version (weights + quantized table) alive and every step below uses
  // it — the batch is bit-exact for the version it started on.
  const std::shared_ptr<const ServedModel> served = Served();
  models::SequentialRecommender& model = *served->model;
  if (fault::ShouldFail("serve.reload_mid_batch")) {
    // Chaos harness: widen the pin-to-score window so a concurrent Reload
    // reliably lands inside it; the assertions above must keep holding.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // Phase 1 — append to session windows in arrival order; the models
  // fold the windows in Phase 2. Duplicate users in one batch fold
  // into a single session: each append lands in order and every duplicate
  // scores the final state (exactly what sequential per-request handling
  // would produce). The handles pin every acquired session for the whole
  // batch, so a later Acquire's LRU eviction cannot free a state Phase 2
  // still reads.
  std::vector<SessionStore::Handle> states(batch.size());
  std::vector<int> uniques;           // batch index of each unique user
  std::unordered_map<int, int> seen;  // user -> position in `uniques`
  std::vector<int> unique_of(batch.size());
  {
    Stopwatch watch;
    trace::TraceSpan span("serve.advance");
    for (size_t i = 0; i < batch.size(); ++i) {
      const Request& request = batch[i];
      states[i] = store_.Acquire(request.user, request.bootstrap,
                                 served->model, served->version);
      if (request.append != nullptr) {
        model.AdvanceState(*states[i], *request.append);
      }
      auto [it, inserted] =
          seen.emplace(request.user, static_cast<int>(uniques.size()));
      if (inserted) uniques.push_back(static_cast<int>(i));
      unique_of[i] = it->second;
    }
    if (measure) {
      ServeMetrics().advance_seconds.Observe(watch.ElapsedSeconds());
    }
  }

  // Phase 2 — score each unique user once. When the model exposes the
  // single-inner-product form, stack the reps into [B,d] and run one fused
  // GEMM + top-k over the catalog; otherwise (or for states that decline,
  // e.g. Causer's grouped scoring) fall back to per-user ScoreFromState.
  const int num_unique = static_cast<int>(uniques.size());
  const int k = config_.top_k;
  std::vector<Response> unique_responses(num_unique);
  {
    Stopwatch watch;
    trace::TraceSpan span("serve.score");
    span.AddArg("unique_users", static_cast<double>(num_unique));
    const tensor::Tensor* table = model.OutputItemTable();
    std::vector<int> fallback;
    std::vector<int> gemm_rows;  // unique index of each packed rep row
    std::vector<float> reps;
    if (table != nullptr) {
      const int dim = table->cols();
      reps.resize(static_cast<size_t>(num_unique) * dim);
      for (int u = 0; u < num_unique; ++u) {
        float* row = reps.data() + static_cast<size_t>(gemm_rows.size()) * dim;
        if (model.StateRep(*states[uniques[u]], row)) {
          gemm_rows.push_back(u);
        } else {
          fallback.push_back(u);
        }
      }
    } else {
      for (int u = 0; u < num_unique; ++u) fallback.push_back(u);
    }
    bool quantized = false;
    if (!gemm_rows.empty()) {
      const int rows = static_cast<int>(gemm_rows.size());
      const int dim = table->cols();
      const int vocab = table->rows();
      if (served->qtable != nullptr) {
        quantized = ScoreRowsQuantized(*served, reps.data(), rows, dim,
                                       vocab, table, gemm_rows,
                                       unique_responses);
      }
      if (!quantized) {
        std::vector<tensor::kernels::TopKEntry> entries(
            static_cast<size_t>(rows) * k);
        std::vector<double> shard_seconds(
            measure ? static_cast<size_t>(config_.score_shards) : 0);
        const int used = tensor::kernels::MatMulTopKSharded(
            reps.data(), table->data().data(), rows, dim, vocab, k,
            config_.score_shards, entries.data(),
            measure ? shard_seconds.data() : nullptr);
        if (measure) ObserveShardTimes(shard_seconds.data(), used);
        for (int r = 0; r < rows; ++r) {
          Response& response = unique_responses[gemm_rows[r]];
          const tensor::kernels::TopKEntry* row =
              entries.data() + static_cast<size_t>(r) * k;
          for (int j = 0; j < k && row[j].index >= 0; ++j) {
            response.items.push_back(row[j].index);
            response.scores.push_back(row[j].score);
          }
        }
      }
    }
    if (measure && config_.quantize_int8 && !quantized) {
      ServeMetrics().quant_fallbacks.Add();
    }
    for (int u : fallback) {
      const std::vector<float> scores =
          model.ScoreFromState(*states[uniques[u]]);
      Response& response = unique_responses[u];
      for (int item : eval::TopK(scores, k)) {
        response.items.push_back(item);
        response.scores.push_back(scores[item]);
      }
    }
    if (measure) {
      ServeMetrics().score_seconds.Observe(watch.ElapsedSeconds());
    }
  }

  std::vector<Response> responses;
  responses.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    responses.push_back(unique_responses[unique_of[i]]);
    responses.back().model_version = served->version;
  }
  return responses;
}

}  // namespace causer::serve
