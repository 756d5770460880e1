// Kernel & memory engine benchmark: packed matmul microkernels, heap TopK
// selection, and the autograd arena allocator.
//
// Three sections, all single-process:
//   (1) GEMM: naive reference kernel vs. the packed/blocked production
//       kernel on every compiled+supported ISA tier (scalar / avx2 /
//       avx512, pinned per measurement via cpu::SetIsaOverride; single
//       thread, so the number is the microkernel itself, not parallelism),
//       with a bitwise-equality check per shape and tier;
//   (2) TopK: bounded-heap selection vs. a full argsort of the catalog;
//   (3) fused top-k on the serving shape (32x64 states against a 4096x64
//       item table, k=10): the fp32 MatMulTopK vs. the unfused
//       materialize-then-TopK path (smoke gate: fused must not regress
//       below unfused), and the int8 MatMulTopKQ per ISA tier with a
//       cross-tier determinism check;
//   (4) int8 serving stages at the serving int8 shape (n=1 against a
//       20000x64 table, rerank_k 2048, k=10, S in {1, 2}): per-call
//       p10/median/p90 of the candidate pass, the shard merge and the
//       fp32 re-rank, each checked bit for bit against a sorted full-score
//       reference (only the check gates the smoke run);
//   (5) end-to-end: GRU4Rec TrainEpoch steps/sec with the arena enabled vs.
//       disabled, asserting bit-identical epoch losses either way.
//
// Writes a BENCH_kernels.json report (path = argv[last], default
// ./BENCH_kernels.json) including the resolved ISA selection and the
// per-tier GFLOP/s rows the docs/KERNELS.md table is refreshed from.
//
// `--smoke` shrinks the timed work for CI and turns three checks into the
// exit code: packed must not be slower than naive on the large transpose-B
// shape, the avx2 tier must beat scalar by kSimdGateMinSpeedup on the
// same shape (skipped with a notice when the runner lacks AVX2), and the
// fused fp32 MatMulTopK must not regress below the unfused
// materialize-then-TopK path on the serving shape.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/cpu.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "eval/metrics.h"
#include "tensor/arena.h"
#include "tensor/kernels.h"
#include "tensor/primitives/primitives.h"
#include "tensor/quant.h"

namespace {

using namespace causer;

// ---------------------------------------------------------------------------
// Section 1: GEMM microkernels

struct GemmShape {
  const char* label;
  int n, m, p;
  bool ta, tb;
};

// The transpose-B shapes are the hot ones: every backward pass computes
// dA = dC · B^T, and full-catalog scoring is a [1, h] · [catalog, h]^T
// product. The large tb entry is the smoke-test gate.
const GemmShape kGemmShapes[] = {
    {"forward_64x64x64", 64, 64, 64, false, false},
    {"forward_33x128x128", 33, 128, 128, false, false},
    {"grad_b_transA_64x512x64", 64, 512, 64, true, false},
    {"grad_a_transB_64x64x512", 64, 64, 512, false, true},
    {"score_row_transB_1x64x512", 1, 64, 512, false, true},
};
const char* kSmokeGateLabel = "grad_a_transB_64x64x512";

// Smoke gate on the explicit-SIMD layer: AVX2 must beat the scalar tier by
// at least this factor on the gate shape (the scalar tier still
// auto-vectorizes at the SSE2 baseline, so this is 256-bit explicit
// intrinsics vs. 128-bit compiler output, not vs. straight-line code).
constexpr double kSimdGateMinSpeedup = 1.5;

/// One ISA tier's numbers on one shape, measured through the production
/// MatMulAdd with that tier pinned via cpu::SetIsaOverride.
struct IsaGemm {
  std::string isa;
  double gflops = 0.0;
  double speedup_vs_naive = 0.0;
  bool bit_identical = true;
};

struct GemmResult {
  std::string label;
  double naive_gflops = 0.0;
  std::vector<IsaGemm> variants;  // every compiled+supported tier
  double packed_gflops = 0.0;     // the auto-selected (strongest) tier
  double speedup = 0.0;
  bool bit_identical = true;
};

std::vector<float> RandomBuffer(size_t size, Rng& rng) {
  std::vector<float> out(size);
  for (auto& v : out) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  return out;
}

// Best-of-`repeats` GFLOP/s for one kernel entry point on one shape.
template <typename KernelFn>
double MeasureGflops(KernelFn&& kernel, const std::vector<float>& a,
                     const std::vector<float>& b, std::vector<float>& c,
                     const GemmShape& s, int iters, int repeats) {
  double best_seconds = 1e30;
  for (int r = 0; r < repeats; ++r) {
    std::fill(c.begin(), c.end(), 0.0f);
    Stopwatch sw;
    for (int i = 0; i < iters; ++i)
      kernel(a.data(), b.data(), c.data(), s.n, s.m, s.p, s.ta, s.tb);
    best_seconds = std::min(best_seconds, sw.ElapsedSeconds());
  }
  const double flops =
      2.0 * s.n * s.m * s.p * static_cast<double>(iters);
  return flops / best_seconds / 1e9;
}

GemmResult RunGemmShape(const GemmShape& s, bool smoke) {
  Rng rng(42);
  auto a = RandomBuffer(static_cast<size_t>(s.n) * s.m, rng);
  auto b = RandomBuffer(static_cast<size_t>(s.m) * s.p, rng);
  std::vector<float> c_naive(static_cast<size_t>(s.n) * s.p, 0.0f);
  std::vector<float> c_packed(c_naive.size(), 0.0f);

  tensor::kernels::MatMulAddNaive(a.data(), b.data(), c_naive.data(), s.n,
                                  s.m, s.p, s.ta, s.tb);
  // Timed loops clobber c_naive below; keep the single-call result as the
  // reference for the per-tier bitwise checks.
  const std::vector<float> c_ref = c_naive;
  GemmResult result;
  result.label = s.label;

  // Size the timed loop to a roughly constant op budget per shape.
  const double target_ops = smoke ? 4e7 : 4e8;
  const double ops = 2.0 * s.n * s.m * s.p;
  const int iters = std::max(1, static_cast<int>(target_ops / ops));
  const int repeats = smoke ? 3 : 5;
  result.naive_gflops =
      MeasureGflops(tensor::kernels::MatMulAddNaive, a, b, c_naive, s, iters,
                    repeats);

  // Every runnable tier through the production kernel: correctness first
  // (one accumulating call compared bitwise against naive), then timing.
  for (cpu::Isa isa : cpu::CompiledIsas()) {
    if (!cpu::IsaSupported(isa)) continue;
    cpu::SetIsaOverride(cpu::IsaName(isa));
    IsaGemm v;
    v.isa = cpu::IsaName(isa);
    std::fill(c_packed.begin(), c_packed.end(), 0.0f);
    tensor::kernels::MatMulAdd(a.data(), b.data(), c_packed.data(), s.n, s.m,
                               s.p, s.ta, s.tb);
    v.bit_identical = std::memcmp(c_ref.data(), c_packed.data(),
                                  c_ref.size() * sizeof(float)) == 0;
    v.gflops = MeasureGflops(tensor::kernels::MatMulAdd, a, b, c_packed, s,
                             iters, repeats);
    v.speedup_vs_naive = v.gflops / result.naive_gflops;
    result.variants.push_back(std::move(v));
  }
  cpu::SetIsaOverride("auto");

  // The strongest tier is what auto-dispatch selects; keep it as the
  // headline packed number so the naive-vs-packed gate stays meaningful.
  result.bit_identical = true;
  for (const IsaGemm& v : result.variants) {
    result.bit_identical = result.bit_identical && v.bit_identical;
  }
  if (!result.variants.empty()) {
    result.packed_gflops = result.variants.back().gflops;
    result.speedup = result.variants.back().speedup_vs_naive;
  }
  return result;
}

/// The per-variant gflops for `isa` on a measured shape, or 0 if that tier
/// did not run (not compiled / not supported on this machine).
double VariantGflops(const GemmResult& r, const char* isa) {
  for (const IsaGemm& v : r.variants) {
    if (v.isa == isa) return v.gflops;
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Section 2: TopK selection

struct TopKResult {
  int catalog = 0;
  int k = 0;
  double heap_us = 0.0;
  double sort_us = 0.0;
  double speedup = 0.0;
  bool identical = true;
};

std::vector<int> TopKFullSort(const std::vector<float>& scores, int k) {
  std::vector<int> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&scores](int a, int b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return a < b;
  });
  order.resize(std::min<size_t>(k, order.size()));
  return order;
}

TopKResult RunTopK(int catalog, int k, bool smoke) {
  Rng rng(7);
  // Coarse score grid → frequent exact ties, the tie-break's worst case.
  std::vector<float> scores(catalog);
  for (auto& s : scores)
    s = 0.01f * static_cast<float>(static_cast<int>(rng.Uniform(0, 1000)));
  TopKResult result;
  result.catalog = catalog;
  result.k = k;
  result.identical = eval::TopK(scores, k) == TopKFullSort(scores, k);

  const int iters = (smoke ? 50 : 500) * (catalog <= 1000 ? 10 : 1);
  const int repeats = smoke ? 3 : 5;
  double best_heap = 1e30, best_sort = 1e30;
  // The selections feed a volatile-style sink so the loops cannot be
  // hoisted; accumulate the first index instead of discarding results.
  long long sink = 0;
  for (int r = 0; r < repeats; ++r) {
    Stopwatch sw;
    for (int i = 0; i < iters; ++i) sink += eval::TopK(scores, k)[0];
    best_heap = std::min(best_heap, sw.ElapsedSeconds());
  }
  for (int r = 0; r < repeats; ++r) {
    Stopwatch sw;
    for (int i = 0; i < iters; ++i) sink += TopKFullSort(scores, k)[0];
    best_sort = std::min(best_sort, sw.ElapsedSeconds());
  }
  if (sink == -1) std::printf("unreachable\n");
  result.heap_us = best_heap / iters * 1e6;
  result.sort_us = best_sort / iters * 1e6;
  result.speedup = result.sort_us / result.heap_us;
  return result;
}

// ---------------------------------------------------------------------------
// Int8 serving stages: the candidate pass, the shard merge and the fp32
// re-rank of one request at the serving int8 shape.

constexpr int kStageN = 1, kStageM = 64, kStageP = 20000, kStageKq = 2048,
              kStageK = 10;

/// p10/median/p90 of `samples` calls of `fn` after one warm-up call
/// (scratch allocations, caches).
template <typename Fn>
bench::Timing TimeStage(Fn&& fn, int samples) {
  fn();
  return bench::TimeCalls(fn, samples);
}

bool SameEntries(const std::vector<tensor::kernels::TopKEntry>& x,
                 const std::vector<tensor::kernels::TopKEntry>& y) {
  if (x.size() != y.size()) return false;
  for (size_t e = 0; e < x.size(); ++e) {
    if (x[e].index != y[e].index ||
        std::memcmp(&x[e].score, &y[e].score, sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

struct StageResult {
  int shards = 0;
  bench::Timing candidates, merge, rerank;
  bool exact = true;
};

/// Times the three stages at S = 1 and 2 shards on one thread. The merge
/// row times MergeTopK alone over per-shard selections taken beforehand
/// (S = 1 has nothing to merge). Every stage's output is checked against
/// references built from the materialized scores: the candidates and the
/// merge against the first kq of a full sort of the int8 scores, and the
/// re-rank against one ops.dot per candidate followed by a full sort.
std::vector<StageResult> RunInt8Stages(bool smoke) {
  using tensor::kernels::BetterEntry;
  using tensor::kernels::TopKEntry;
  Rng rng(17);
  const auto a = RandomBuffer(static_cast<size_t>(kStageN) * kStageM, rng);
  const auto b = RandomBuffer(static_cast<size_t>(kStageP) * kStageM, rng);
  tensor::QuantizedMatrix qa, qb;
  if (!tensor::QuantizeRows(a.data(), kStageN, kStageM, &qa) ||
      !tensor::QuantizeRows(b.data(), kStageP, kStageM, &qb)) {
    return {StageResult{0, {}, {}, {}, false}};
  }
  std::vector<TopKEntry> all(kStageP);
  for (int j = 0; j < kStageP; ++j) {
    std::int32_t acc = 0;
    for (int t = 0; t < kStageM; ++t) {
      acc += static_cast<std::int32_t>(qa.data[t]) *
             qb.data[static_cast<size_t>(j) * kStageM + t];
    }
    all[j] = {j, static_cast<float>(acc) * (qa.scales[0] * qb.scales[j])};
  }
  std::sort(all.begin(), all.end(), BetterEntry);
  const std::vector<TopKEntry> ref_cands(all.begin(), all.begin() + kStageKq);
  const tensor::primitives::Ops& ops = tensor::primitives::Active();
  std::vector<TopKEntry> rescored;
  for (const TopKEntry& c : ref_cands) {
    rescored.push_back(
        {c.index, ops.dot(kStageM, a.data(),
                          b.data() + static_cast<size_t>(c.index) * kStageM)});
  }
  std::sort(rescored.begin(), rescored.end(), BetterEntry);
  const std::vector<TopKEntry> ref_best(rescored.begin(),
                                        rescored.begin() + kStageK);

  const int samples = smoke ? 30 : 300;
  std::vector<StageResult> results;
  for (int S : {1, 2}) {
    StageResult r;
    r.shards = S;
    std::vector<TopKEntry> cands(kStageKq);
    auto candidate_pass = [&] {
      tensor::kernels::MatMulTopKQSharded(
          qa.data.data(), qa.scales.data(), qb.data.data(), qb.scales.data(),
          kStageN, kStageM, kStageP, kStageKq, S, cands.data());
    };
    r.candidates = TimeStage(candidate_pass, samples);
    r.exact = r.exact && SameEntries(cands, ref_cands);
    if (S > 1) {
      // Per-shard selections in the [S, n, k] layout, indices global.
      std::vector<TopKEntry> runs(static_cast<size_t>(S) * kStageKq);
      for (int s = 0; s < S; ++s) {
        const int jb = kStageP * s / S, je = kStageP * (s + 1) / S;
        TopKEntry* run = runs.data() + static_cast<size_t>(s) * kStageKq;
        tensor::kernels::MatMulTopKQ(
            qa.data.data(), qa.scales.data(),
            qb.data.data() + static_cast<size_t>(jb) * kStageM,
            qb.scales.data() + jb, kStageN, kStageM, je - jb, kStageKq, run);
        for (int t = 0; t < kStageKq; ++t) {
          if (run[t].index >= 0) run[t].index += jb;
        }
      }
      std::vector<TopKEntry> merged(kStageKq);
      r.merge = TimeStage(
          [&] {
            tensor::kernels::MergeTopK(runs.data(), S, kStageN, kStageKq,
                                       merged.data());
          },
          samples);
      r.exact = r.exact && SameEntries(merged, ref_cands);
    }
    std::vector<TopKEntry> best(kStageK);
    r.rerank = TimeStage(
        [&] {
          tensor::kernels::RerankTopK(a.data(), b.data(), kStageM,
                                      cands.data(), kStageKq, kStageK,
                                      best.data());
        },
        samples);
    r.exact = r.exact && SameEntries(best, ref_best);
    results.push_back(r);
  }
  return results;
}

// ---------------------------------------------------------------------------
// Section 3: end-to-end training with/without the arena

const data::Dataset& BenchData() {
  static data::Dataset d = [] {
    data::DatasetSpec spec = data::TinySpec();
    spec.num_users = 200;
    spec.num_items = 120;
    spec.num_clusters = 8;
    spec.min_len = 4;
    spec.max_len = 12;
    return data::MakeDataset(spec);
  }();
  return d;
}

const data::Split& BenchSplit() {
  static data::Split s = data::LeaveLastOut(BenchData());
  return s;
}

struct TrainResult {
  double steps_per_sec_arena_off = 0.0;
  double steps_per_sec_arena_on = 0.0;
  double speedup = 0.0;
  bool losses_bit_identical = true;
};

TrainResult RunTraining(bool smoke) {
  const int epochs = smoke ? 2 : 4;
  const int steps_per_epoch =
      static_cast<int>(data::EnumerateExamples(BenchSplit().train).size());
  // Best-of-epochs: each epoch does identical work, so the fastest one is
  // the least-noise estimate of the steady-state step rate.
  auto run = [&](bool arena_on, std::vector<double>& losses) {
    tensor::SetArenaEnabled(arena_on);
    models::Gru4Rec model(bench::BaseConfig(BenchData()));
    model.TrainEpoch(BenchSplit().train);  // warm-up (allocations, caches)
    losses.clear();
    double best_seconds = 1e30;
    for (int e = 0; e < epochs; ++e) {
      Stopwatch sw;
      losses.push_back(model.TrainEpoch(BenchSplit().train));
      best_seconds = std::min(best_seconds, sw.ElapsedSeconds());
    }
    return steps_per_epoch / best_seconds;
  };
  TrainResult result;
  std::vector<double> losses_off, losses_on;
  result.steps_per_sec_arena_off = run(false, losses_off);
  result.steps_per_sec_arena_on = run(true, losses_on);
  tensor::SetArenaEnabled(true);
  result.speedup =
      result.steps_per_sec_arena_on / result.steps_per_sec_arena_off;
  result.losses_bit_identical = losses_on == losses_off;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_kernels.json";
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }

  bench::PrintHeader(
      "Kernel & memory engine: packed GEMM, heap TopK, autograd arena",
      "Wang et al., ICDE 2023 (engine optimization; no paper figure)");
  SetDefaultThreads(1);  // microkernel numbers, not parallel scaling

  bool ok = true;

  const cpu::IsaSelection selection = cpu::ActiveSelection();
  std::printf("cpu ISA: active=%s (source=%s%s), compiled:",
              cpu::IsaName(selection.active),
              selection.source == cpu::IsaSource::kFlag  ? "flag"
              : selection.source == cpu::IsaSource::kEnv ? "env"
                                                         : "cpuid",
              selection.fell_back ? ", fell back" : "");
  for (cpu::Isa isa : cpu::CompiledIsas()) {
    std::printf(" %s%s", cpu::IsaName(isa),
                cpu::IsaSupported(isa) ? "" : "(unsupported here)");
  }
  std::printf("\n\n");

  std::printf("GEMM (single thread, best-of-n, per ISA tier):\n");
  std::printf("%-28s %12s %12s %12s %12s %9s %6s\n", "shape", "naive GF/s",
              "scalar GF/s", "avx2 GF/s", "avx512 GF/s", "speedup", "exact");
  std::vector<std::string> gemm_rows;
  double gate_speedup = 0.0;
  double gate_scalar_gflops = 0.0, gate_avx2_gflops = 0.0;
  for (const GemmShape& s : kGemmShapes) {
    GemmResult r = RunGemmShape(s, smoke);
    ok = ok && r.bit_identical;
    if (r.label == kSmokeGateLabel) {
      gate_speedup = r.speedup;
      gate_scalar_gflops = VariantGflops(r, "scalar");
      gate_avx2_gflops = VariantGflops(r, "avx2");
    }
    std::printf("%-28s %12.2f %12.2f %12.2f %12.2f %8.2fx %6s\n",
                r.label.c_str(), r.naive_gflops, VariantGflops(r, "scalar"),
                VariantGflops(r, "avx2"), VariantGflops(r, "avx512"),
                r.speedup, r.bit_identical ? "yes" : "NO");
    std::vector<std::string> variant_rows;
    for (const IsaGemm& v : r.variants) {
      bench::JsonObject vrow;
      vrow.Set("isa", v.isa)
          .Set("gflops", v.gflops)
          .Set("speedup_vs_naive", v.speedup_vs_naive)
          .Set("bit_identical", v.bit_identical);
      variant_rows.push_back(vrow.Str());
    }
    bench::JsonObject row;
    row.Set("shape", r.label)
        .Set("naive_gflops", r.naive_gflops)
        .Set("packed_gflops", r.packed_gflops)
        .Set("speedup", r.speedup)
        .Set("bit_identical", r.bit_identical)
        .SetRaw("variants", bench::JsonArray(variant_rows));
    gemm_rows.push_back(row.Str());
  }

  std::printf("\nTopK (catalog argmax-k, per call):\n");
  std::printf("%8s %4s %12s %12s %9s %6s\n", "catalog", "k", "heap us",
              "sort us", "speedup", "exact");
  std::vector<std::string> topk_rows;
  for (int catalog : {1000, 10000}) {
    for (int k : {5, 20}) {
      TopKResult r = RunTopK(catalog, k, smoke);
      ok = ok && r.identical;
      std::printf("%8d %4d %12.2f %12.2f %8.2fx %6s\n", r.catalog, r.k,
                  r.heap_us, r.sort_us, r.speedup,
                  r.identical ? "yes" : "NO");
      bench::JsonObject row;
      row.Set("catalog", r.catalog)
          .Set("k", r.k)
          .Set("heap_us_per_call", r.heap_us)
          .Set("full_sort_us_per_call", r.sort_us)
          .Set("speedup", r.speedup)
          .Set("identical_to_full_sort", r.identical);
      topk_rows.push_back(row.Str());
    }
  }

  // -- Fused top-k on the serving shape: fp32 vs unfused, int8 per tier ----
  constexpr int kTopKN = 32, kTopKM = 64, kTopKP = 4096, kTopKK = 10;
  double fused_vs_unfused = 0.0;
  std::vector<std::string> quant_rows;
  {
    Rng rng(11);
    auto a = RandomBuffer(static_cast<size_t>(kTopKN) * kTopKM, rng);
    auto b = RandomBuffer(static_cast<size_t>(kTopKP) * kTopKM, rng);
    tensor::QuantizedMatrix qa, qb;
    ok = ok && tensor::QuantizeRows(a.data(), kTopKN, kTopKM, &qa) &&
         tensor::QuantizeRows(b.data(), kTopKP, kTopKM, &qb);
    const int iters = smoke ? 20 : 200;
    const int repeats = smoke ? 3 : 5;
    std::vector<tensor::kernels::TopKEntry> fused(
        static_cast<size_t>(kTopKN) * kTopKK);
    std::vector<tensor::kernels::TopKEntry> quant(fused.size());
    long long sink = 0;

    // Unfused reference on the auto-selected tier: materialize the [B, V]
    // score matrix, then bounded-heap TopK per row. The fused kernel must
    // never lose to it — this is the regression assertion guarding the
    // MatMulTopK tile loop (hoisted tile pointers and all).
    std::vector<float> score_matrix(static_cast<size_t>(kTopKN) * kTopKP);
    std::vector<float> row_scores(kTopKP);
    double best_unfused = 1e30, best_fused_auto = 1e30;
    for (int r = 0; r < repeats; ++r) {
      Stopwatch sw;
      for (int i = 0; i < iters; ++i) {
        std::fill(score_matrix.begin(), score_matrix.end(), 0.0f);
        tensor::kernels::MatMulAdd(a.data(), b.data(), score_matrix.data(),
                                   kTopKN, kTopKM, kTopKP, false, true);
        for (int row = 0; row < kTopKN; ++row) {
          const float* src = score_matrix.data() +
                             static_cast<size_t>(row) * kTopKP;
          row_scores.assign(src, src + kTopKP);
          sink += eval::TopK(row_scores, kTopKK)[0];
        }
      }
      best_unfused = std::min(best_unfused, sw.ElapsedSeconds());
    }
    for (int r = 0; r < repeats; ++r) {
      Stopwatch sw;
      for (int i = 0; i < iters; ++i) {
        tensor::kernels::MatMulTopK(a.data(), b.data(), kTopKN, kTopKM,
                                    kTopKP, kTopKK, fused.data());
        sink += fused[0].index;
      }
      best_fused_auto = std::min(best_fused_auto, sw.ElapsedSeconds());
    }
    fused_vs_unfused = best_unfused / best_fused_auto;

    // Per-tier rows: fp32 fused vs int8 fused, plus the cross-tier
    // determinism check (int32 accumulation is exact, so every tier must
    // reproduce the scalar tier's entries bit-for-bit).
    std::vector<tensor::kernels::TopKEntry> quant_scalar(quant.size());
    cpu::SetIsaOverride("scalar");
    tensor::kernels::MatMulTopKQ(qa.data.data(), qa.scales.data(),
                                 qb.data.data(), qb.scales.data(), kTopKN,
                                 kTopKM, kTopKP, kTopKK, quant_scalar.data());
    std::printf(
        "\nFused top-k (n=%d, d=%d, catalog %d, k=%d, us per call):\n",
        kTopKN, kTopKM, kTopKP, kTopKK);
    std::printf("%-8s %12s %12s %9s %6s\n", "isa", "fp32 us", "int8 us",
                "speedup", "exact");
    for (cpu::Isa isa : cpu::CompiledIsas()) {
      if (!cpu::IsaSupported(isa)) continue;
      cpu::SetIsaOverride(cpu::IsaName(isa));
      tensor::kernels::MatMulTopKQ(qa.data.data(), qa.scales.data(),
                                   qb.data.data(), qb.scales.data(), kTopKN,
                                   kTopKM, kTopKP, kTopKK, quant.data());
      bool tier_exact = true;
      for (size_t e = 0; e < quant.size(); ++e) {
        tier_exact = tier_exact &&
                     quant[e].index == quant_scalar[e].index &&
                     std::memcmp(&quant[e].score, &quant_scalar[e].score,
                                 sizeof(float)) == 0;
      }
      ok = ok && tier_exact;
      double best_fused = 1e30, best_quant = 1e30;
      for (int r = 0; r < repeats; ++r) {
        Stopwatch sw;
        for (int i = 0; i < iters; ++i) {
          tensor::kernels::MatMulTopK(a.data(), b.data(), kTopKN, kTopKM,
                                      kTopKP, kTopKK, fused.data());
          sink += fused[0].index;
        }
        best_fused = std::min(best_fused, sw.ElapsedSeconds());
      }
      for (int r = 0; r < repeats; ++r) {
        Stopwatch sw;
        for (int i = 0; i < iters; ++i) {
          tensor::kernels::MatMulTopKQ(qa.data.data(), qa.scales.data(),
                                       qb.data.data(), qb.scales.data(),
                                       kTopKN, kTopKM, kTopKP, kTopKK,
                                       quant.data());
          sink += quant[0].index;
        }
        best_quant = std::min(best_quant, sw.ElapsedSeconds());
      }
      std::printf("%-8s %12.1f %12.1f %8.2fx %6s\n", cpu::IsaName(isa),
                  best_fused / iters * 1e6, best_quant / iters * 1e6,
                  best_fused / best_quant, tier_exact ? "yes" : "NO");
      bench::JsonObject row;
      row.Set("isa", std::string(cpu::IsaName(isa)))
          .Set("fp32_us_per_call", best_fused / iters * 1e6)
          .Set("int8_us_per_call", best_quant / iters * 1e6)
          .Set("int8_speedup", best_fused / best_quant)
          .Set("matches_scalar_tier", tier_exact);
      quant_rows.push_back(row.Str());
    }
    cpu::SetIsaOverride("auto");
    if (sink == -1) std::printf("unreachable\n");
    std::printf("  fp32 fused vs unfused (auto tier): %.2fx\n",
                fused_vs_unfused);
  }

  std::printf(
      "\nInt8 serving stages (n=%d, %dx%d, kq=%d, k=%d, single thread, "
      "us per call p10/median/p90):\n",
      kStageN, kStageP, kStageM, kStageKq, kStageK);
  std::printf("%6s %26s %26s %26s %6s\n", "shards", "candidate pass",
              "merge", "re-rank", "exact");
  std::vector<std::string> stage_rows;
  for (const StageResult& r : RunInt8Stages(smoke)) {
    ok = ok && r.exact;
    auto cell = [](const bench::Timing& t) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%7.1f/%7.1f/%7.1f", t.p10, t.median,
                    t.p90);
      return std::string(buf);
    };
    std::printf("%6d %26s %26s %26s %6s\n", r.shards,
                cell(r.candidates).c_str(),
                r.shards > 1 ? cell(r.merge).c_str() : "-",
                cell(r.rerank).c_str(), r.exact ? "yes" : "NO");
    bench::JsonObject row;
    row.Set("shards", r.shards)
        .SetRaw("candidate_pass", bench::TimingJson(r.candidates));
    if (r.shards > 1) row.SetRaw("merge", bench::TimingJson(r.merge));
    row.SetRaw("rerank", bench::TimingJson(r.rerank))
        .Set("matches_sorted_full_scores", r.exact);
    stage_rows.push_back(row.Str());
  }

  std::printf("\nTrainEpoch (GRU4Rec, batch_size 1, single thread):\n");
  TrainResult train = RunTraining(smoke);
  ok = ok && train.losses_bit_identical;
  std::printf("  arena off: %8.1f steps/s\n", train.steps_per_sec_arena_off);
  std::printf("  arena on:  %8.1f steps/s  (%.2fx, losses %s)\n",
              train.steps_per_sec_arena_on, train.speedup,
              train.losses_bit_identical ? "bit-identical" : "DIVERGED");

  std::vector<std::string> compiled_names, supported_names;
  for (cpu::Isa isa : cpu::CompiledIsas()) {
    compiled_names.push_back(bench::JsonObject::Quote(cpu::IsaName(isa)));
    if (cpu::IsaSupported(isa)) {
      supported_names.push_back(bench::JsonObject::Quote(cpu::IsaName(isa)));
    }
  }
  bench::JsonObject isa_info;
  isa_info.Set("active", std::string(cpu::IsaName(selection.active)))
      .Set("source", std::string(selection.source == cpu::IsaSource::kFlag
                                     ? "flag"
                                 : selection.source == cpu::IsaSource::kEnv
                                     ? "env"
                                     : "cpuid"))
      .Set("fell_back", selection.fell_back)
      .SetRaw("compiled", bench::JsonArray(compiled_names))
      .SetRaw("supported", bench::JsonArray(supported_names));

  bench::JsonObject report;
  report.Set("bench", std::string("bench_kernels"))
      .Set("smoke", smoke)
      .Set("threads", 1)
      .SetRaw("cpu_isa", isa_info.Str())
      .SetRaw("gemm", bench::JsonArray(gemm_rows))
      .SetRaw("topk", bench::JsonArray(topk_rows));
  bench::JsonObject topk_fused_row;
  topk_fused_row.Set("n", kTopKN)
      .Set("m", kTopKM)
      .Set("catalog", kTopKP)
      .Set("k", kTopKK)
      .Set("fp32_fused_vs_unfused_speedup", fused_vs_unfused)
      .SetRaw("quant_variants", bench::JsonArray(quant_rows));
  report.SetRaw("topk_fused", topk_fused_row.Str());
  bench::JsonObject stages;
  stages.Set("n", kStageN)
      .Set("m", kStageM)
      .Set("catalog", kStageP)
      .Set("rerank_k", kStageKq)
      .Set("k", kStageK)
      .SetRaw("rows", bench::JsonArray(stage_rows));
  report.SetRaw("int8_serving_stages", stages.Str());
  bench::JsonObject train_row;
  train_row.Set("workload",
                std::string("TinySpec scaled to 200 users / 120 items, "
                            "GRU4Rec, batch_size 1"))
      .Set("steps_per_sec_arena_off", train.steps_per_sec_arena_off)
      .Set("steps_per_sec_arena_on", train.steps_per_sec_arena_on)
      .Set("arena_speedup", train.speedup)
      .Set("losses_bit_identical", train.losses_bit_identical);
  report.SetRaw("train_epoch", train_row.Str());
  report.Set("packed_vs_naive_gate_shape", std::string(kSmokeGateLabel))
      .Set("packed_vs_naive_gate_speedup", gate_speedup);
  if (!bench::WriteTextFile(out_path, report.Str())) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nreport -> %s\n", out_path.c_str());

  if (!ok) {
    std::fprintf(stderr,
                 "FATAL: an equivalence check failed (see NO/DIVERGED rows "
                 "above)\n");
    return 1;
  }
  if (smoke && gate_speedup < 1.0) {
    std::fprintf(stderr,
                 "FATAL: packed kernel slower than naive on %s "
                 "(%.2fx)\n",
                 kSmokeGateLabel, gate_speedup);
    return 1;
  }
  if (smoke && fused_vs_unfused < 1.0) {
    std::fprintf(stderr,
                 "FATAL: fused MatMulTopK slower than materialize+TopK on "
                 "the serving shape (%.2fx)\n",
                 fused_vs_unfused);
    return 1;
  }
  if (smoke) {
    if (gate_avx2_gflops <= 0.0) {
      // Skip-with-notice, not silent: runners without AVX2 can't measure
      // the SIMD gate, and pretending they did would hide a regression.
      std::fprintf(stderr,
                   "notice: avx2 tier unavailable on this runner; skipping "
                   "the avx2-vs-scalar gate on %s\n",
                   kSmokeGateLabel);
    } else if (gate_avx2_gflops < kSimdGateMinSpeedup * gate_scalar_gflops) {
      std::fprintf(stderr,
                   "FATAL: avx2 tier only %.2fx scalar on %s "
                   "(%.2f vs %.2f GF/s, gate %.1fx)\n",
                   gate_avx2_gflops / gate_scalar_gflops, kSmokeGateLabel,
                   gate_avx2_gflops, gate_scalar_gflops, kSimdGateMinSpeedup);
      return 1;
    }
  }
  return 0;
}
