// Online serving benchmark: the batched engine (raw window fold, GEMM +
// fused top-k) vs. per-request ScoreAll, int8 scoring, and the raw fold.
//
// Four sections, all single-process:
//   (1) batched: 32 concurrent users, each with a full 12-step window (the
//       default max_history) of a 50-step history, scored through the
//       engine (raw window fold, then one batched [B,d] x [V,d]^T GEMM +
//       fused top-k) vs. 32 independent ScoreAll + eval::TopK calls (tape
//       encode, per-request scores), timed interleaved and gated on the
//       median per-pair ratio; plus the unbatched engine in between (one
//       ScoreBatch per request, reported). At this 500 x 32 catalog the
//       scoring GEMM is small next to a 12-step fold, so the unbatched
//       engine reads about the batched one: the gated gain is mostly the
//       raw fold against the tape encode;
//   (2) quant: the int8 engine (--quantize=int8: int8 GEMM + fp32
//       re-rank) vs the fp32 engine (fused GEMM + top-k) on a
//       serving-sized catalog (4096 items, d=128), plus the item-table
//       memory ratio. The sessions hold one step, so the window fold both
//       sides run before scoring is one GRU step per request. Exactness is
//       checked with rerank_k = catalog (provably identical to fp32)
//       before timing the rerank_k=64 configuration, interleaved and gated
//       on the median per-pair ratio;
//   (3) window fold: folding a full 12-step window on the tape vs with
//       the raw cell steps the serve path runs — GRU4Rec's whole StateRep
//       (20000x64 model) against its tape Represent, and the backbone cell
//       fold at Causer's 16-wide dimensions (GRU and LSTM) against the
//       tape round trip its serve fold used to take per step. The two
//       sides are timed interleaved (bench::TimePair) and gated on the
//       median per-pair ratio: >= 1.5x (smoke >= 1.3x). Both sides pay the
//       same libm sigmoid/tanh calls and GEMVs (about 25 us of the 64-wide
//       GRU4Rec fold), so the ratio measures the tape's per-op cost only.
//       The roadmap's absolute target is <= 30 us for the GRU4Rec fold
//       (reported, not gated);
//   (4) causer fold: Causer's ScoreAll, the grouped serve fold every
//       served Causer request runs, on the Foursquare-shaped catalog
//       (420 items) trained from seed 7 (6 epochs; 2 under --smoke), one
//       request per test user over a slid 12-step window of one-item
//       steps. Reported as us per request with the mean number of
//       candidate groups per fold, after every score is checked equal to
//       ScoreCandidate; not gated.
//
// Sharded scoring is benched (and gated) by bench_kernels alone.
//
// Every timed path is checked bit-identical to its reference first; a
// mismatch fails the run. Every stage is timed by bench::TimeCalls (one
// warm-up call, then N timed calls), or by bench::TimePair for the
// interleaved pairs, and reported as median [p10, p90]; every speed gate
// compares the median per-pair ratio with its threshold. Writes a
// BENCH_serving.json report (path = the one positional argument, default
// ./BENCH_serving.json). Any other flag or argument exits 2.
//
// `--smoke` shrinks the timed work for CI and relaxes the >=2x full-run
// batched gate to >=1.5x, the >=1.5x int8 gate and the >=1.5x fold gate
// to >=1.3x (shared-runner noise), keeping them as the exit code. The full
// thresholds sit below ten full runs on a 4-vCPU VM: batched 2.30-2.43x,
// int8 1.78-1.87x, fold pairs 1.67x and up. The >=3.5x
// memory-ratio gate is exact arithmetic and never relaxed.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "data/generator.h"
#include "data/split.h"
#include "eval/metrics.h"
#include "serve/engine.h"
#include "tensor/arena.h"
#include "tensor/quant.h"

namespace {

using namespace causer;

constexpr int kHistoryLen = 50;
constexpr int kBatchUsers = 32;
constexpr int kNumItems = 500;
/// Window the fold pairs fold: a full window at the default max_history.
constexpr int kFoldWindow = 12;

/// Deterministic synthetic history: 2 items per step, length `length`.
std::vector<data::Step> SyntheticHistory(int user, int num_items,
                                         int length) {
  std::vector<data::Step> history(length);
  for (int t = 0; t < length; ++t) {
    history[t].items = {(user * 7 + t * 3) % num_items,
                        (user * 11 + t * 5) % num_items};
  }
  return history;
}

models::ModelConfig ServingModelConfig() {
  models::ModelConfig config;
  config.num_users = kBatchUsers * 2;
  config.num_items = kNumItems;
  config.embedding_dim = 32;
  config.hidden_dim = 32;
  return config;
}

/// Exposes GRU4Rec's tape encoder, the reference side of the fold pair.
class TapeGru4Rec : public models::Gru4Rec {
 public:
  using models::Gru4Rec::Gru4Rec;
  using models::Gru4Rec::Represent;
};

/// One tape-vs-raw fold pair: both sides' timings and the per-pair ratio.
struct FoldResult {
  bench::PairTiming timing;
  bool bit_identical = true;
};

/// GRU4Rec at the serving catalog shape: a full 12-step window's whole
/// StateRep (step embeddings, 12 GRU steps, out_proj) on the tape vs on
/// the raw steps the serve path runs.
FoldResult RunGruFold(int samples) {
  models::ModelConfig config = ServingModelConfig();
  config.num_items = 20000;
  config.embedding_dim = 64;
  config.hidden_dim = 64;
  config.max_history = kFoldWindow;
  TapeGru4Rec model(config);
  const auto window = SyntheticHistory(0, config.num_items, kFoldWindow);
  const models::SessionState state{0, window};
  std::vector<float> tape(config.embedding_dim), raw(config.embedding_dim);
  auto tape_fold = [&] {
    tensor::NoGradGuard guard;
    tensor::ArenaScope arena_scope;
    const nn::Tensor rep = model.Represent(0, window);
    std::copy(rep.data().begin(), rep.data().end(), tape.begin());
  };
  auto raw_fold = [&] { model.StateRep(state, raw.data()); };
  FoldResult result;
  tape_fold();
  raw_fold();
  result.bit_identical = tape == raw;
  result.timing = bench::TimePair(tape_fold, raw_fold, samples);
  return result;
}

/// The backbone cell fold of Causer's serve path over a 12-step window, at
/// `cell`'s dimensions, from precomputed step inputs (the serve path reads
/// them from its per-item table). The tape side
/// is the per-step round trip the fold took before the raw steps: a fresh
/// tensor from the stored floats, Forward, and a copy back out.
template <typename Cell>
FoldResult RunCellFold(const Cell& cell, int samples) {
  constexpr bool kLstm = std::is_same_v<Cell, nn::LstmCell>;
  const int in = cell.input_dim(), hd = cell.hidden_dim();
  Rng rng(11);
  std::vector<nn::Tensor> xs;
  for (int t = 0; t < kFoldWindow; ++t) {
    xs.push_back(nn::Tensor::RandomUniform(1, in, -1.0f, 1.0f, rng));
  }
  std::vector<float> tape_h, tape_c, raw_h, raw_c;
  auto tape_fold = [&] {
    tape_h.clear();
    tape_c.clear();
    for (const nn::Tensor& x : xs) {
      tensor::NoGradGuard guard;
      tensor::ArenaScope arena_scope;
      auto from = [&](const std::vector<float>& v) {
        return v.empty() ? nn::Tensor::Zeros(1, hd)
                         : nn::Tensor::FromData(1, hd, v);
      };
      if constexpr (kLstm) {
        const nn::LstmState next =
            cell.Forward(x, {from(tape_h), from(tape_c)});
        tape_h.assign(next.h.data().begin(), next.h.data().end());
        tape_c.assign(next.c.data().begin(), next.c.data().end());
      } else {
        const nn::Tensor next = cell.Forward(x, from(tape_h));
        tape_h.assign(next.data().begin(), next.data().end());
      }
    }
  };
  auto raw_fold = [&] {
    raw_h.clear();
    raw_c.clear();
    for (const nn::Tensor& x : xs) {
      const float* prev_h = raw_h.empty() ? nullptr : raw_h.data();
      raw_h.resize(hd);
      if constexpr (kLstm) {
        const float* prev_c = raw_c.empty() ? nullptr : raw_c.data();
        raw_c.resize(hd);
        cell.Step(x.data().data(), prev_h, prev_c, raw_h.data(),
                  raw_c.data());
      } else {
        cell.Step(x.data().data(), prev_h, raw_h.data());
      }
    }
  };
  FoldResult result;
  tape_fold();
  raw_fold();
  result.bit_identical = tape_h == raw_h && tape_c == raw_c;
  result.timing = bench::TimePair(tape_fold, raw_fold, samples);
  return result;
}

/// Causer's grouped ScoreAll over slid windows: timing, mean groups per
/// fold and the check against the per-candidate reference.
struct CauserFoldResult {
  int window = 0;
  int requests = 0;
  int catalog = 0;
  bench::Timing score_all;
  double groups_per_fold = 0.0;
  bool exact = true;
};

/// The candidate groups of one fold, counted independently of the fold:
/// candidates whose filters keep the same items of every window step share
/// one group. `window` is already truncated to max_history.
int CountGroups(core::CauserModel& model,
                const std::vector<data::Step>& window) {
  const int v = model.config().num_items;
  const float eps = model.causer_config().epsilon;
  std::set<std::vector<std::vector<int>>> groups;
  for (int b = 0; b < v; ++b) {
    std::vector<std::vector<int>> kept;
    for (const data::Step& step : window) {
      if (step.items.empty()) continue;
      kept.emplace_back();
      for (int a : step.items) {
        if (model.ItemCausalWeight(a, b) > eps) kept.back().push_back(a);
      }
    }
    groups.insert(std::move(kept));
  }
  return static_cast<int>(groups.size());
}

CauserFoldResult RunCauserFold(bool smoke, int passes) {
  const data::Dataset data =
      data::MakeDataset(data::SpecFor(data::PaperDataset::kFoursquare));
  const data::Split split = data::LeaveLastOut(data);
  core::CauserModel model(
      core::DefaultCauserConfig(data, core::Backbone::kGru, /*seed=*/7));
  models::TrainConfig train;  // the perfbench fixture's schedule
  train.max_epochs = smoke ? 2 : 6;
  core::TrainCauser(model, split, train);
  // One request per test user: the user's history items as one-item steps,
  // repeated to max_history + 1 steps, so the window has slid once.
  const int window = model.config().max_history;
  std::vector<int> users;
  std::vector<std::vector<data::Step>> histories;
  for (const data::EvalInstance& inst : split.test) {
    std::vector<int> items;
    for (const data::Step& step : inst.history) {
      items.insert(items.end(), step.items.begin(), step.items.end());
    }
    if (items.empty()) continue;
    std::vector<data::Step> history(window + 1);
    for (int t = 0; t <= window; ++t) {
      history[t].items = {items[t % items.size()]};
    }
    users.push_back(inst.user);
    histories.push_back(std::move(history));
  }
  CauserFoldResult result;
  result.window = window;
  result.requests = static_cast<int>(histories.size());
  result.catalog = model.config().num_items;
  double groups = 0.0;
  for (size_t r = 0; r < histories.size(); ++r) {
    const auto scores = model.ScoreAll(users[r], histories[r]);
    for (int b = 0; result.exact && b < result.catalog; ++b) {
      result.exact =
          scores[b] == model.ScoreCandidate(users[r], histories[r], b);
    }
    const std::vector<data::Step> slid(histories[r].end() - window,
                                       histories[r].end());
    groups += CountGroups(model, slid);
  }
  result.groups_per_fold = groups / std::max(1, result.requests);
  float sink = 0.0f;
  result.score_all = bench::TimeCalls(
      [&] {
        for (size_t r = 0; r < histories.size(); ++r) {
          sink += model.ScoreAll(users[r], histories[r])[0];
        }
      },
      passes, std::max(1, result.requests));
  if (sink == 54321.678f) std::printf("unreachable\n");
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args =
      bench::ParseBenchArgs(argc, argv, "BENCH_serving.json");
  const bool smoke = args.smoke;
  const std::string& out_path = args.report;

  bench::PrintHeader(
      "Online serving: batched engine, int8 engine, raw window fold",
      "Wang et al., ICDE 2023 (serving engine; no paper figure)");
  SetDefaultThreads(1);  // engine-path numbers, not parallel scaling
  const double gate = smoke ? 1.5 : 2.0;
  bool ok = true;
  // Timed calls per stage: in the full run enough for ten to lie beyond
  // each reported percentile.
  const int passes = smoke ? 20 : 100;

  // -- Section 1: batched engine scoring vs per-request ScoreAll ----------
  models::Gru4Rec gru(ServingModelConfig());
  std::vector<std::vector<data::Step>> histories;
  for (int u = 0; u < kBatchUsers; ++u) {
    histories.push_back(SyntheticHistory(u, kNumItems, kHistoryLen));
  }
  serve::ServingConfig sc;
  sc.top_k = 10;
  serve::ServingEngine engine(gru, sc);
  std::vector<serve::Request> requests(kBatchUsers);
  for (int u = 0; u < kBatchUsers; ++u) {
    requests[u].user = u;
    requests[u].bootstrap = &histories[u];
  }
  // Warm the session store (each bootstrap is copied in once, not per
  // round), and check the engine's batched responses against ScoreAll +
  // TopK.
  auto responses = engine.ScoreBatch(requests);
  bool batch_exact = true;
  for (int u = 0; u < kBatchUsers; ++u) {
    auto scores = gru.ScoreAll(u, histories[u]);
    auto ranked = eval::TopK(scores, sc.top_k);
    batch_exact = batch_exact &&
                  responses[u].items == ranked &&
                  responses[u].scores.size() == ranked.size();
    for (size_t j = 0; batch_exact && j < ranked.size(); ++j) {
      batch_exact = responses[u].scores[j] == scores[ranked[j]];
    }
  }
  ok = ok && batch_exact;

  // Per-request timings: each call scores all kBatchUsers users.
  float sink = 0.0f;
  const bench::PairTiming batch_pair = bench::TimePair(
      [&] {
        for (int u = 0; u < kBatchUsers; ++u) {
          auto scores = gru.ScoreAll(u, histories[u]);
          sink += static_cast<float>(eval::TopK(scores, sc.top_k)[0]);
        }
      },
      [&] {
        sink += static_cast<float>(engine.ScoreBatch(requests)[0].items[0]);
      },
      passes, kBatchUsers);
  const bench::Timing unbatched = bench::TimeCalls(
      [&] {
        for (int u = 0; u < kBatchUsers; ++u) {
          serve::Request one = requests[u];
          sink += static_cast<float>(engine.ScoreBatch({one})[0].items[0]);
        }
      },
      passes, kBatchUsers);
  const bench::Timing& per_request = batch_pair.a;
  const bench::Timing& batched = batch_pair.b;
  const double batched_speedup = batch_pair.ratio;
  std::printf(
      "\nBatch scoring (%d users, %d-step windows of %d-step histories, "
      "top-%d, us per request, median [p10, p90]):\n",
      kBatchUsers, gru.config().max_history, kHistoryLen, sc.top_k);
  std::printf("  per-request ScoreAll + TopK : %26s\n",
              bench::Spread(per_request).c_str());
  std::printf("  unbatched engine            : %26s\n",
              bench::Spread(unbatched).c_str());
  std::printf("  batched engine              : %26s   (%.2fx vs "
              "per-request, median of %d pairs; exact %s)\n",
              bench::Spread(batched).c_str(), batched_speedup, passes,
              batch_exact ? "yes" : "NO");

  // -- Section 2: int8 quantized scoring vs fp32 --------------------------
  // A serving-sized catalog: the 500-item model above fits its whole score
  // pass in L2, which understates the memory-bandwidth win int8 exists for.
  constexpr int kQuantItems = 4096;
  constexpr int kQuantDim = 128;
  models::ModelConfig qconfig = ServingModelConfig();
  qconfig.num_items = kQuantItems;
  qconfig.embedding_dim = kQuantDim;
  qconfig.hidden_dim = kQuantDim;
  models::Gru4Rec qmodel(qconfig);
  // One-step sessions: every request folds its window before scoring, the
  // same on both sides, and a 12-step GRU fold at d = 128 would cost more
  // than the scoring stage this option changes.
  std::vector<std::vector<data::Step>> qhistories;
  for (int u = 0; u < kBatchUsers; ++u) {
    qhistories.push_back(SyntheticHistory(u, kQuantItems, 1));
  }
  std::vector<serve::Request> qrequests(kBatchUsers);
  for (int u = 0; u < kBatchUsers; ++u) {
    qrequests[u].user = u;
    qrequests[u].bootstrap = &qhistories[u];
  }
  serve::ServingConfig fp32_sc;
  fp32_sc.top_k = 10;
  serve::ServingEngine fp32_engine(qmodel, fp32_sc);
  serve::ServingConfig int8_sc = fp32_sc;
  int8_sc.quantize_int8 = true;
  int8_sc.rerank_k = 64;
  serve::ServingEngine int8_engine(qmodel, int8_sc);

  // Exactness: with rerank_k >= catalog every candidate is re-scored in
  // fp32, so the int8 engine must return the fp32 engine's exact bits.
  bool quant_exact = true;
  {
    serve::ServingConfig full_sc = fp32_sc;
    full_sc.quantize_int8 = true;
    full_sc.rerank_k = kQuantItems;
    serve::ServingEngine full_rerank(qmodel, full_sc);
    auto fp32_responses = fp32_engine.ScoreBatch(qrequests);
    auto int8_responses = full_rerank.ScoreBatch(qrequests);
    for (int u = 0; u < kBatchUsers; ++u) {
      quant_exact = quant_exact &&
                    fp32_responses[u].items == int8_responses[u].items &&
                    fp32_responses[u].scores == int8_responses[u].scores;
    }
    ok = ok && quant_exact;
  }

  const bench::PairTiming quant_pair = bench::TimePair(
      [&] {
        sink += static_cast<float>(
            fp32_engine.ScoreBatch(qrequests)[0].items[0]);
      },
      [&] {
        sink += static_cast<float>(
            int8_engine.ScoreBatch(qrequests)[0].items[0]);
      },
      passes);
  if (sink == 54321.678f) std::printf("unreachable\n");
  const bench::Timing& fp32_batch = quant_pair.a;
  const bench::Timing& int8_batch = quant_pair.b;
  const double quant_speedup = quant_pair.ratio;
  const tensor::QuantizedMatrix* qtable = qmodel.QuantizedItemTable();
  if (qtable == nullptr) {
    std::fprintf(stderr, "FATAL: no int8 item table\n");
    return 1;
  }
  const double fp32_table_bytes =
      static_cast<double>(kQuantItems) * kQuantDim * sizeof(float);
  const double memory_ratio =
      fp32_table_bytes / static_cast<double>(qtable->MemoryBytes());
  const double quant_gate = smoke ? 1.3 : 1.5;
  const double memory_gate = 3.5;
  std::printf(
      "\nInt8 quantized scoring (%d users, 1-step sessions, catalog %d, "
      "d=%d, rerank-k %d, us per batch, median [p10, p90]):\n",
      kBatchUsers, kQuantItems, kQuantDim, int8_sc.rerank_k);
  std::printf("  fp32 GEMM + fused top-k     : %26s\n",
              bench::Spread(fp32_batch).c_str());
  std::printf("  int8 GEMM + fp32 re-rank    : %26s   (%.2fx, median of %d "
              "pairs; exact via full re-rank %s)\n",
              bench::Spread(int8_batch).c_str(), quant_speedup, passes,
              quant_exact ? "yes" : "NO");
  std::printf("  item table %9.0f -> %7.0f bytes  (%.2fx smaller)\n",
              fp32_table_bytes, static_cast<double>(qtable->MemoryBytes()),
              memory_ratio);

  // -- Section 3: window fold, tape vs raw cell steps ---------------------
  const int fold_samples = smoke ? 200 : 1000;
  const double fold_gate = smoke ? 1.3 : 1.5;
  const FoldResult gru_fold = RunGruFold(fold_samples);
  // Causer's backbone maps cluster_dim step inputs to hidden_dim states;
  // both 16 here, from DefaultCauserConfig's seed.
  constexpr int kCauserDim = 16;
  Rng cell_rng(7);
  nn::GruCell causer_gru(kCauserDim, kCauserDim, cell_rng);
  nn::LstmCell causer_lstm(kCauserDim, kCauserDim, cell_rng);
  const FoldResult gru_cell_fold = RunCellFold(causer_gru, fold_samples);
  const FoldResult lstm_cell_fold = RunCellFold(causer_lstm, fold_samples);
  std::printf(
      "\n12-step window fold, tape vs raw cell steps (us per fold, "
      "median [p10, p90] of %d interleaved pairs):\n",
      fold_samples);
  std::printf("%-30s %24s %24s %8s %6s\n", "fold", "tape", "raw", "ratio",
              "exact");
  auto print_fold = [](const char* name, const FoldResult& r) {
    std::printf("%-30s %24s %24s %7.2fx %6s\n", name,
                bench::Spread(r.timing.a).c_str(),
                bench::Spread(r.timing.b).c_str(), r.timing.ratio,
                r.bit_identical ? "yes" : "NO");
  };
  print_fold("GRU4Rec StateRep 20000x64", gru_fold);
  print_fold("Causer GRU cell fold", gru_cell_fold);
  print_fold("Causer LSTM cell fold", lstm_cell_fold);
  const FoldResult* folds[] = {&gru_fold, &gru_cell_fold, &lstm_cell_fold};
  for (const FoldResult* f : folds) ok = ok && f->bit_identical;

  // -- Section 4: Causer's grouped serve fold -----------------------------
  const CauserFoldResult causer_fold = RunCauserFold(smoke, passes);
  ok = ok && causer_fold.exact;
  std::printf(
      "\nCauser ScoreAll, slid %d-step windows (%d requests, catalog %d, "
      "us per request, median [p10, p90] of %d passes):\n",
      causer_fold.window, causer_fold.requests, causer_fold.catalog, passes);
  std::printf("  grouped serve fold          : %26s   (%.1f groups per "
              "fold; exact vs ScoreCandidate %s)\n",
              bench::Spread(causer_fold.score_all).c_str(),
              causer_fold.groups_per_fold, causer_fold.exact ? "yes" : "NO");

  // -- Report -------------------------------------------------------------
  bench::JsonObject batch_row;
  batch_row.Set("users", kBatchUsers)
      .Set("history_len", kHistoryLen)
      .Set("window", gru.config().max_history)
      .Set("catalog", kNumItems)
      .Set("top_k", sc.top_k)
      .Set("passes", passes)
      .SetRaw("per_request_scoreall_us", bench::TimingJson(per_request))
      .SetRaw("unbatched_engine_us", bench::TimingJson(unbatched))
      .SetRaw("batched_us", bench::TimingJson(batched))
      .Set("batched_speedup", batched_speedup)
      .Set("responses_exact", batch_exact);
  bench::JsonObject quant_row;
  quant_row.Set("users", kBatchUsers)
      .Set("window", 1)
      .Set("catalog", kQuantItems)
      .Set("dim", kQuantDim)
      .Set("rerank_k", int8_sc.rerank_k)
      .Set("passes", passes)
      .SetRaw("fp32_batch_us", bench::TimingJson(fp32_batch))
      .SetRaw("int8_batch_us", bench::TimingJson(int8_batch))
      .Set("int8_speedup", quant_speedup)
      .Set("table_memory_ratio", memory_ratio)
      .Set("full_rerank_exact", quant_exact)
      .Set("gate_min_speedup", quant_gate)
      .Set("gate_min_memory_ratio", memory_gate);
  auto fold_json = [](const FoldResult& r) {
    bench::JsonObject o;
    o.SetRaw("tape_us", bench::TimingJson(r.timing.a))
        .SetRaw("raw_us", bench::TimingJson(r.timing.b))
        .Set("median_pair_ratio", r.timing.ratio)
        .Set("bit_identical", r.bit_identical);
    return o.Str();
  };
  bench::JsonObject fold_row;
  fold_row.Set("window", kFoldWindow)
      .Set("pairs", fold_samples)
      .SetRaw("gru4rec_state_rep_20000x64", fold_json(gru_fold))
      .SetRaw("causer_gru_cell_fold", fold_json(gru_cell_fold))
      .SetRaw("causer_lstm_cell_fold", fold_json(lstm_cell_fold))
      .Set("gate_min_ratio", fold_gate);
  bench::JsonObject causer_row;
  causer_row.Set("window", causer_fold.window)
      .Set("requests", causer_fold.requests)
      .Set("catalog", causer_fold.catalog)
      .Set("passes", passes)
      .SetRaw("score_all_us", bench::TimingJson(causer_fold.score_all))
      .Set("groups_per_fold", causer_fold.groups_per_fold)
      .Set("exact_vs_score_candidate", causer_fold.exact);
  bench::JsonObject report;
  report.Set("bench", std::string("bench_serving"))
      .Set("smoke", smoke)
      .Set("threads", 1)
      .SetRaw("batched_vs_per_request", batch_row.Str())
      .SetRaw("quant", quant_row.Str())
      .SetRaw("window_fold", fold_row.Str())
      .SetRaw("causer_fold", causer_row.Str())
      .Set("gate_min_speedup", gate);
  if (!bench::WriteTextFile(out_path, report.Str())) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nreport -> %s\n", out_path.c_str());

  if (!ok) {
    std::fprintf(stderr,
                 "FATAL: an equivalence check failed (see NO rows above)\n");
    return 1;
  }
  if (batched_speedup < gate) {
    std::fprintf(stderr,
                 "FATAL: batched speedup %.2fx below the %.1fx gate\n",
                 batched_speedup, gate);
    return 1;
  }
  if (quant_speedup < quant_gate) {
    std::fprintf(stderr,
                 "FATAL: int8 speedup %.2fx below the %.1fx gate\n",
                 quant_speedup, quant_gate);
    return 1;
  }
  if (memory_ratio < memory_gate) {
    std::fprintf(stderr,
                 "FATAL: item-table memory ratio %.2fx below the %.1fx gate\n",
                 memory_ratio, memory_gate);
    return 1;
  }
  for (const FoldResult* f : folds) {
    if (f->timing.ratio < fold_gate) {
      std::fprintf(stderr,
                   "FATAL: raw fold %.2fx faster than the tape, below the "
                   "%.1fx gate\n",
                   f->timing.ratio, fold_gate);
      return 1;
    }
  }
  return 0;
}
