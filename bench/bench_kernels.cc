// Kernel & memory engine benchmark: packed matmul microkernels, heap TopK
// selection, fused and sharded top-k, and the autograd arena allocator.
//
// Six sections, all single-process:
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
//       20000x64 table, rerank_k 2048, k=10, S in {1, 2}): the candidate
//       pass, the shard merge and the fp32 re-rank, each checked bit for
//       bit against a sorted full-score reference (only the check gates
//       the smoke run);
//   (5) sharded scoring: one request (n=1, d=64, k=10) against a 65536-
//       (smoke) or 1M-item catalog through MatMulTopKSharded at S in
//       {2, 4, 8, 16} and threads in {1, min(8, cores)}, against the
//       unsharded kernel on one thread. The unsharded kernel cannot split
//       a single row, so shard fan-out is the only way this shape scales.
//       Gate (smoke 1.5x, full 3x): some S at min(8, cores) threads beats
//       the unsharded kernel by it, enforced only on hosts with >= 2
//       hardware threads (`gate_enforced` in the report). The
//       bit-identity of every sharded point is tests/sharding_test.cc's;
//   (6) end-to-end: GRU4Rec TrainEpoch steps/sec with the arena enabled vs.
//       disabled, asserting bit-identical epoch losses either way.
//
// Every stage is timed by bench::TimeCalls (one warm-up call, then N
// timed calls) and reported as median [p10, p90]. The two sides of each
// speed gate are timed interleaved by bench::TimePair, and the gate
// compares the median of the per-pair ratios with its threshold.
//
// Writes a BENCH_kernels.json report (path = the one positional argument,
// default ./BENCH_kernels.json; any other flag or argument exits 2)
// including the resolved ISA selection and the per-tier GFLOP/s rows (at
// the median call) the docs/KERNELS.md table is refreshed from.
//
// `--smoke` shrinks the timed work for CI and turns three more checks into
// the exit code: packed must not be slower than naive on the large
// transpose-B shape, the avx2 tier must beat scalar by kSimdGateMinSpeedup
// on the same shape (skipped with a notice when the runner lacks AVX2),
// and the fused fp32 MatMulTopK must not regress below the unfused
// materialize-then-TopK path on the serving shape.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <thread>
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
  bench::Timing us;  // per kernel call
  double gflops = 0.0;  // at the median call
  double speedup_vs_naive = 0.0;
  bool bit_identical = true;
};

struct GemmResult {
  std::string label;
  bench::Timing naive_us;
  double naive_gflops = 0.0;
  std::vector<IsaGemm> variants;  // every compiled+supported tier
  double packed_gflops = 0.0;     // the auto-selected (strongest) tier
  double speedup = 0.0;
  /// Gate shape only, when avx2 ran: scalar vs avx2 timed interleaved,
  /// the median per-pair ratio (how many times faster avx2 ran).
  double avx2_vs_scalar = 0.0;
  bool bit_identical = true;
};

std::vector<float> RandomBuffer(size_t size, Rng& rng) {
  std::vector<float> out(size);
  for (auto& v : out) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  return out;
}

GemmResult RunGemmShape(const GemmShape& s, bool smoke) {
  Rng rng(42);
  auto a = RandomBuffer(static_cast<size_t>(s.n) * s.m, rng);
  auto b = RandomBuffer(static_cast<size_t>(s.m) * s.p, rng);
  std::vector<float> c_naive(static_cast<size_t>(s.n) * s.p, 0.0f);
  std::vector<float> c_packed(c_naive.size(), 0.0f);

  tensor::kernels::MatMulAddNaive(a.data(), b.data(), c_naive.data(), s.n,
                                  s.m, s.p, s.ta, s.tb);
  // Timed loops accumulate into c_naive below; keep the single-call result
  // as the reference for the per-tier bitwise checks.
  const std::vector<float> c_ref = c_naive;
  GemmResult result;
  result.label = s.label;

  // Each timed sample runs a roughly constant op budget per shape, so the
  // small shapes are not timed one microsecond call at a time. The full
  // run takes enough samples for ten to lie beyond each percentile.
  const double ops = 2.0 * s.n * s.m * s.p;
  const int iters = std::max(1, static_cast<int>((smoke ? 1e7 : 2e7) / ops));
  const int samples = smoke ? 15 : 101;
  auto time_kernel = [&](auto kernel, std::vector<float>& c) {
    return bench::TimeCalls(
        [&] {
          for (int i = 0; i < iters; ++i)
            kernel(a.data(), b.data(), c.data(), s.n, s.m, s.p, s.ta, s.tb);
        },
        samples, iters);
  };
  result.naive_us = time_kernel(tensor::kernels::MatMulAddNaive, c_naive);
  result.naive_gflops = ops / result.naive_us.median / 1e3;

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
    v.us = time_kernel(tensor::kernels::MatMulAdd, c_packed);
    v.gflops = ops / v.us.median / 1e3;
    v.speedup_vs_naive = v.gflops / result.naive_gflops;
    result.variants.push_back(std::move(v));
  }
  cpu::SetIsaOverride("auto");

  // The strongest tier is what auto-dispatch selects; keep it as the
  // headline packed number so the naive-vs-packed gate stays meaningful.
  for (const IsaGemm& v : result.variants) {
    result.bit_identical = result.bit_identical && v.bit_identical;
  }
  if (!result.variants.empty()) {
    result.packed_gflops = result.variants.back().gflops;
    result.speedup = result.variants.back().speedup_vs_naive;
  }
  if (result.label == kSmokeGateLabel && cpu::IsaSupported(cpu::Isa::kAvx2)) {
    auto on_tier = [&](const char* isa) {
      return [&, isa] {
        cpu::SetIsaOverride(isa);
        for (int i = 0; i < iters; ++i) {
          tensor::kernels::MatMulAdd(a.data(), b.data(), c_packed.data(),
                                     s.n, s.m, s.p, s.ta, s.tb);
        }
      };
    };
    result.avx2_vs_scalar =
        bench::TimePair(on_tier("scalar"), on_tier("avx2"), samples, iters)
            .ratio;
    cpu::SetIsaOverride("auto");
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
  bench::Timing heap, sort;  // per call
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

  // The selections feed a sink so the calls cannot be hoisted; accumulate
  // the first index instead of discarding results.
  const int iters = (smoke ? 10 : 25) * (catalog <= 1000 ? 10 : 1);
  const int samples = smoke ? 15 : 101;
  long long sink = 0;
  result.heap = bench::TimeCalls(
      [&] {
        for (int i = 0; i < iters; ++i) sink += eval::TopK(scores, k)[0];
      },
      samples, iters);
  result.sort = bench::TimeCalls(
      [&] {
        for (int i = 0; i < iters; ++i) sink += TopKFullSort(scores, k)[0];
      },
      samples, iters);
  if (sink == -1) std::printf("unreachable\n");
  result.speedup = result.sort.median / result.heap.median;
  return result;
}

// ---------------------------------------------------------------------------
// Int8 serving stages: the candidate pass, the shard merge and the fp32
// re-rank of one request at the serving int8 shape.

constexpr int kStageN = 1, kStageM = 64, kStageP = 20000, kStageKq = 2048,
              kStageK = 10;

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
    r.candidates = bench::TimeCalls(candidate_pass, samples);
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
      r.merge = bench::TimeCalls(
          [&] {
            tensor::kernels::MergeTopK(runs.data(), S, kStageN, kStageKq,
                                       merged.data());
          },
          samples);
      r.exact = r.exact && SameEntries(merged, ref_cands);
    }
    std::vector<TopKEntry> best(kStageK);
    r.rerank = bench::TimeCalls(
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
// Sharded scoring: one request against a large catalog, S shards fanned out
// over the pool.

constexpr int kShardDim = 64, kShardTopK = 10;  // n = 1, the request shape

struct ShardPoint {
  int shards = 0;
  int threads = 0;
  bench::Timing us;  // per call
  /// Unsharded time / this time: at the gated thread count the median of
  /// the interleaved pairs' ratios, otherwise the ratio of the medians.
  double speedup = 0.0;
};

struct ShardSweep {
  int catalog = 0;
  int top_threads = 1;  // min(8, hardware threads): the gated points
  bench::Timing unsharded;  // per call, one thread
  std::vector<ShardPoint> points;
  double best_speedup = 0.0;  // over S, at top_threads
};

ShardSweep RunShardSweep(bool smoke, int hardware) {
  ShardSweep sweep;
  sweep.catalog = smoke ? 65536 : 1000000;
  sweep.top_threads = std::min(8, hardware);
  Rng rng(20260818);
  const auto table =
      RandomBuffer(static_cast<size_t>(sweep.catalog) * kShardDim, rng);
  const auto query = RandomBuffer(kShardDim, rng);
  std::vector<tensor::kernels::TopKEntry> out(kShardTopK);
  // Enough calls for ten to lie beyond each reported percentile.
  const int samples = 100;
  auto unsharded = [&] {
    tensor::kernels::MatMulTopK(query.data(), table.data(), 1, kShardDim,
                                sweep.catalog, kShardTopK, out.data());
  };
  SetDefaultThreads(1);
  sweep.unsharded = bench::TimeCalls(unsharded, samples);
  std::vector<int> thread_counts = {1};
  if (sweep.top_threads > 1) thread_counts.push_back(sweep.top_threads);
  for (int threads : thread_counts) {
    SetDefaultThreads(threads);
    for (int shards : {2, 4, 8, 16}) {
      ShardPoint point;
      point.shards = shards;
      point.threads = threads;
      auto sharded = [&] {
        tensor::kernels::MatMulTopKSharded(query.data(), table.data(), 1,
                                           kShardDim, sweep.catalog,
                                           kShardTopK, shards, out.data());
      };
      if (threads == sweep.top_threads) {
        // The gated points. A one-row unsharded call never forks (a
        // single-shard ParallelFor runs inline), so it runs at this pool
        // size unchanged, interleaved with the sharded calls.
        const bench::PairTiming pair =
            bench::TimePair(unsharded, sharded, samples);
        point.us = pair.b;
        point.speedup = pair.ratio;
        sweep.best_speedup = std::max(sweep.best_speedup, point.speedup);
      } else {
        point.us = bench::TimeCalls(sharded, samples);
        point.speedup = sweep.unsharded.median / point.us.median;
      }
      sweep.points.push_back(point);
    }
  }
  SetDefaultThreads(1);
  return sweep;
}

// ---------------------------------------------------------------------------
// End-to-end training with/without the arena

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
  bench::Timing epoch_arena_off, epoch_arena_on;  // per epoch
  double steps_per_sec_arena_off = 0.0;  // at the median epoch
  double steps_per_sec_arena_on = 0.0;
  double speedup = 0.0;
  bool losses_bit_identical = true;
};

TrainResult RunTraining(bool smoke) {
  const int epochs = smoke ? 5 : 15;
  const int steps_per_epoch =
      static_cast<int>(data::EnumerateExamples(BenchSplit().train).size());
  // Each epoch does identical work, so the median epoch is the steady-state
  // step rate. Every epoch's loss, the warm-up's included, is compared.
  auto run = [&](bool arena_on, std::vector<double>& losses) {
    tensor::SetArenaEnabled(arena_on);
    models::Gru4Rec model(bench::BaseConfig(BenchData()));
    return bench::TimeCalls(
        [&] { losses.push_back(model.TrainEpoch(BenchSplit().train)); },
        epochs);
  };
  TrainResult result;
  std::vector<double> losses_off, losses_on;
  result.epoch_arena_off = run(false, losses_off);
  result.epoch_arena_on = run(true, losses_on);
  tensor::SetArenaEnabled(true);
  result.steps_per_sec_arena_off =
      steps_per_epoch / (result.epoch_arena_off.median * 1e-6);
  result.steps_per_sec_arena_on =
      steps_per_epoch / (result.epoch_arena_on.median * 1e-6);
  result.speedup =
      result.steps_per_sec_arena_on / result.steps_per_sec_arena_off;
  result.losses_bit_identical = losses_on == losses_off;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args =
      bench::ParseBenchArgs(argc, argv, "BENCH_kernels.json");
  const bool smoke = args.smoke;
  const std::string& out_path = args.report;

  bench::PrintHeader(
      "Kernel & memory engine: packed GEMM, heap and fused TopK, sharded "
      "scoring, autograd arena",
      "Wang et al., ICDE 2023 (engine optimization; no paper figure)");
  SetDefaultThreads(1);  // microkernel numbers, not parallel scaling
  const int hardware = std::max(
      1, static_cast<int>(std::thread::hardware_concurrency()));

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
  std::printf("\nhardware threads: %d\n\n", hardware);

  std::printf("GEMM (single thread, GF/s at the median call, per ISA "
              "tier):\n");
  std::printf("%-28s %12s %12s %12s %12s %9s %6s\n", "shape", "naive GF/s",
              "scalar GF/s", "avx2 GF/s", "avx512 GF/s", "speedup", "exact");
  std::vector<std::string> gemm_rows;
  double gate_speedup = 0.0;
  double gate_avx2_vs_scalar = 0.0;  // 0: avx2 did not run here
  for (const GemmShape& s : kGemmShapes) {
    GemmResult r = RunGemmShape(s, smoke);
    ok = ok && r.bit_identical;
    if (r.label == kSmokeGateLabel) {
      gate_speedup = r.speedup;
      gate_avx2_vs_scalar = r.avx2_vs_scalar;
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
          .SetRaw("us_per_call", bench::TimingJson(v.us))
          .Set("speedup_vs_naive", v.speedup_vs_naive)
          .Set("bit_identical", v.bit_identical);
      variant_rows.push_back(vrow.Str());
    }
    bench::JsonObject row;
    row.Set("shape", r.label)
        .Set("naive_gflops", r.naive_gflops)
        .SetRaw("naive_us_per_call", bench::TimingJson(r.naive_us))
        .Set("packed_gflops", r.packed_gflops)
        .Set("speedup", r.speedup)
        .Set("bit_identical", r.bit_identical)
        .SetRaw("variants", bench::JsonArray(variant_rows));
    gemm_rows.push_back(row.Str());
  }
  if (gate_avx2_vs_scalar > 0.0) {
    std::printf("  %s: avx2 %.2fx scalar (median of interleaved pairs)\n",
                kSmokeGateLabel, gate_avx2_vs_scalar);
  }

  std::printf("\nTopK (catalog argmax-k, us per call, median [p10, p90]):\n");
  std::printf("%8s %4s %26s %26s %9s %6s\n", "catalog", "k", "heap",
              "full sort", "speedup", "exact");
  std::vector<std::string> topk_rows;
  for (int catalog : {1000, 10000}) {
    for (int k : {5, 20}) {
      TopKResult r = RunTopK(catalog, k, smoke);
      ok = ok && r.identical;
      std::printf("%8d %4d %26s %26s %8.2fx %6s\n", r.catalog, r.k,
                  bench::Spread(r.heap).c_str(),
                  bench::Spread(r.sort).c_str(), r.speedup,
                  r.identical ? "yes" : "NO");
      bench::JsonObject row;
      row.Set("catalog", r.catalog)
          .Set("k", r.k)
          .SetRaw("heap_us_per_call", bench::TimingJson(r.heap))
          .SetRaw("full_sort_us_per_call", bench::TimingJson(r.sort))
          .Set("speedup", r.speedup)
          .Set("identical_to_full_sort", r.identical);
      topk_rows.push_back(row.Str());
    }
  }

  // -- Fused top-k on the serving shape: fp32 vs unfused, int8 per tier ----
  constexpr int kTopKN = 32, kTopKM = 64, kTopKP = 4096, kTopKK = 10;
  bench::Timing unfused, fused_auto;
  double fused_vs_unfused = 0.0;  // median per-pair ratio, the gated value
  std::vector<std::string> quant_rows;
  {
    Rng rng(11);
    auto a = RandomBuffer(static_cast<size_t>(kTopKN) * kTopKM, rng);
    auto b = RandomBuffer(static_cast<size_t>(kTopKP) * kTopKM, rng);
    tensor::QuantizedMatrix qa, qb;
    ok = ok && tensor::QuantizeRows(a.data(), kTopKN, kTopKM, &qa) &&
         tensor::QuantizeRows(b.data(), kTopKP, kTopKM, &qb);
    const int samples = smoke ? 30 : 200;
    std::vector<tensor::kernels::TopKEntry> fused(
        static_cast<size_t>(kTopKN) * kTopKK);
    std::vector<tensor::kernels::TopKEntry> quant(fused.size());
    long long sink = 0;

    // Unfused reference on the auto-selected tier: materialize the [B, V]
    // score matrix, then bounded-heap TopK per row. The fused kernel must
    // never lose to it — this is the regression assertion guarding the
    // MatMulTopK tile loop (hoisted tile pointers and all). The two sides
    // are timed interleaved so that each pair sees the same host.
    std::vector<float> score_matrix(static_cast<size_t>(kTopKN) * kTopKP);
    std::vector<float> row_scores(kTopKP);
    const bench::PairTiming pair = bench::TimePair(
        [&] {
          std::fill(score_matrix.begin(), score_matrix.end(), 0.0f);
          tensor::kernels::MatMulAdd(a.data(), b.data(), score_matrix.data(),
                                     kTopKN, kTopKM, kTopKP, false, true);
          for (int row = 0; row < kTopKN; ++row) {
            const float* src =
                score_matrix.data() + static_cast<size_t>(row) * kTopKP;
            row_scores.assign(src, src + kTopKP);
            sink += eval::TopK(row_scores, kTopKK)[0];
          }
        },
        [&] {
          tensor::kernels::MatMulTopK(a.data(), b.data(), kTopKN, kTopKM,
                                      kTopKP, kTopKK, fused.data());
          sink += fused[0].index;
        },
        samples);
    unfused = pair.a;
    fused_auto = pair.b;
    fused_vs_unfused = pair.ratio;

    // Per-tier rows: fp32 fused vs int8 fused, plus the cross-tier
    // determinism check (int32 accumulation is exact, so every tier must
    // reproduce the scalar tier's entries bit-for-bit).
    std::vector<tensor::kernels::TopKEntry> quant_scalar(quant.size());
    cpu::SetIsaOverride("scalar");
    tensor::kernels::MatMulTopKQ(qa.data.data(), qa.scales.data(),
                                 qb.data.data(), qb.scales.data(), kTopKN,
                                 kTopKM, kTopKP, kTopKK, quant_scalar.data());
    std::printf(
        "\nFused top-k (n=%d, d=%d, catalog %d, k=%d, us per call, median "
        "[p10, p90]):\n",
        kTopKN, kTopKM, kTopKP, kTopKK);
    std::printf("%-8s %26s %26s %9s %6s\n", "isa", "fp32", "int8", "speedup",
                "exact");
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
      const bench::Timing fp32 = bench::TimeCalls(
          [&] {
            tensor::kernels::MatMulTopK(a.data(), b.data(), kTopKN, kTopKM,
                                        kTopKP, kTopKK, fused.data());
            sink += fused[0].index;
          },
          samples);
      const bench::Timing int8 = bench::TimeCalls(
          [&] {
            tensor::kernels::MatMulTopKQ(qa.data.data(), qa.scales.data(),
                                         qb.data.data(), qb.scales.data(),
                                         kTopKN, kTopKM, kTopKP, kTopKK,
                                         quant.data());
            sink += quant[0].index;
          },
          samples);
      std::printf("%-8s %26s %26s %8.2fx %6s\n", cpu::IsaName(isa),
                  bench::Spread(fp32).c_str(), bench::Spread(int8).c_str(),
                  fp32.median / int8.median, tier_exact ? "yes" : "NO");
      bench::JsonObject row;
      row.Set("isa", std::string(cpu::IsaName(isa)))
          .SetRaw("fp32_us_per_call", bench::TimingJson(fp32))
          .SetRaw("int8_us_per_call", bench::TimingJson(int8))
          .Set("int8_speedup", fp32.median / int8.median)
          .Set("matches_scalar_tier", tier_exact);
      quant_rows.push_back(row.Str());
    }
    cpu::SetIsaOverride("auto");
    if (sink == -1) std::printf("unreachable\n");
  }
  std::printf("  auto tier: unfused %s us, fused %s us: %.2fx (median of "
              "interleaved pairs)\n",
              bench::Spread(unfused).c_str(),
              bench::Spread(fused_auto).c_str(), fused_vs_unfused);

  std::printf(
      "\nInt8 serving stages (n=%d, %dx%d, kq=%d, k=%d, single thread, "
      "us per call, median [p10, p90]):\n",
      kStageN, kStageP, kStageM, kStageKq, kStageK);
  std::printf("%6s %26s %26s %26s %6s\n", "shards", "candidate pass",
              "merge", "re-rank", "exact");
  std::vector<std::string> stage_rows;
  for (const StageResult& r : RunInt8Stages(smoke)) {
    ok = ok && r.exact;
    std::printf("%6d %26s %26s %26s %6s\n", r.shards,
                bench::Spread(r.candidates).c_str(),
                r.shards > 1 ? bench::Spread(r.merge).c_str() : "-",
                bench::Spread(r.rerank).c_str(), r.exact ? "yes" : "NO");
    bench::JsonObject row;
    row.Set("shards", r.shards)
        .SetRaw("candidate_pass", bench::TimingJson(r.candidates));
    if (r.shards > 1) row.SetRaw("merge", bench::TimingJson(r.merge));
    row.SetRaw("rerank", bench::TimingJson(r.rerank))
        .Set("matches_sorted_full_scores", r.exact);
    stage_rows.push_back(row.Str());
  }

  // The scaling gate only means something with workers to fan out to.
  const bool shard_gate_enforced = hardware >= 2;
  const double shard_gate = smoke ? 1.5 : 3.0;
  const ShardSweep sweep = RunShardSweep(smoke, hardware);
  std::printf(
      "\nSharded scoring (1-row request, catalog %d, d=%d, top-%d, us per "
      "call, median [p10, p90]):\n",
      sweep.catalog, kShardDim, kShardTopK);
  std::printf("  unsharded, 1 thread : %32s  (baseline)\n",
              bench::Spread(sweep.unsharded).c_str());
  std::vector<std::string> shard_rows;
  for (const ShardPoint& point : sweep.points) {
    std::printf("  S=%-3d %2d thread%s : %32s  (%5.2fx)\n", point.shards,
                point.threads, point.threads == 1 ? " " : "s",
                bench::Spread(point.us).c_str(), point.speedup);
    bench::JsonObject row;
    row.Set("shards", point.shards)
        .Set("threads", point.threads)
        .SetRaw("us_per_call", bench::TimingJson(point.us))
        .Set("speedup_vs_unsharded_1t", point.speedup);
    shard_rows.push_back(row.Str());
  }
  std::printf("  best sharded speedup at %d threads: %.2fx  (gate %.1fx, "
              "%s)\n",
              sweep.top_threads, sweep.best_speedup, shard_gate,
              shard_gate_enforced ? "enforced" : "recorded only");

  std::printf("\nTrainEpoch (GRU4Rec, batch_size 1, single thread, steps/s "
              "at the median epoch):\n");
  TrainResult train = RunTraining(smoke);
  ok = ok && train.losses_bit_identical;
  std::printf("  arena off: %8.1f steps/s  (epoch %s us)\n",
              train.steps_per_sec_arena_off,
              bench::Spread(train.epoch_arena_off).c_str());
  std::printf("  arena on:  %8.1f steps/s  (epoch %s us; %.2fx, losses %s)\n",
              train.steps_per_sec_arena_on,
              bench::Spread(train.epoch_arena_on).c_str(), train.speedup,
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
      .Set("hardware_threads", hardware)
      .SetRaw("cpu_isa", isa_info.Str())
      .SetRaw("gemm", bench::JsonArray(gemm_rows))
      .SetRaw("topk", bench::JsonArray(topk_rows));
  bench::JsonObject topk_fused_row;
  topk_fused_row.Set("n", kTopKN)
      .Set("m", kTopKM)
      .Set("catalog", kTopKP)
      .Set("k", kTopKK)
      .SetRaw("unfused_us_per_call", bench::TimingJson(unfused))
      .SetRaw("fp32_fused_us_per_call", bench::TimingJson(fused_auto))
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
  bench::JsonObject sharding;
  sharding.Set("catalog", sweep.catalog)
      .Set("dim", kShardDim)
      .Set("rows", 1)
      .Set("top_k", kShardTopK)
      .SetRaw("unsharded_1t_us_per_call", bench::TimingJson(sweep.unsharded))
      .SetRaw("points", bench::JsonArray(shard_rows))
      .Set("gate_threads", sweep.top_threads)
      .Set("best_speedup_at_gate_threads", sweep.best_speedup)
      .Set("gate_min_speedup", shard_gate)
      .Set("gate_enforced", shard_gate_enforced);
  report.SetRaw("sharded_scoring", sharding.Str());
  bench::JsonObject train_row;
  train_row.Set("workload",
                std::string("TinySpec scaled to 200 users / 120 items, "
                            "GRU4Rec, batch_size 1"))
      .SetRaw("epoch_us_arena_off", bench::TimingJson(train.epoch_arena_off))
      .SetRaw("epoch_us_arena_on", bench::TimingJson(train.epoch_arena_on))
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
  // Every gate is checked and reported, not only the first to fail.
  bool gates_ok = true;
  if (shard_gate_enforced && sweep.best_speedup < shard_gate) {
    std::fprintf(stderr,
                 "FATAL: sharded scoring speedup %.2fx at %d threads below "
                 "the %.1fx gate\n",
                 sweep.best_speedup, sweep.top_threads, shard_gate);
    gates_ok = false;
  }
  if (smoke && gate_speedup < 1.0) {
    std::fprintf(stderr,
                 "FATAL: packed kernel slower than naive on %s "
                 "(%.2fx)\n",
                 kSmokeGateLabel, gate_speedup);
    gates_ok = false;
  }
  if (smoke && fused_vs_unfused < 1.0) {
    std::fprintf(stderr,
                 "FATAL: fused MatMulTopK slower than materialize+TopK on "
                 "the serving shape (%.2fx)\n",
                 fused_vs_unfused);
    gates_ok = false;
  }
  if (smoke) {
    if (gate_avx2_vs_scalar <= 0.0) {
      // Skip-with-notice, not silent: runners without AVX2 can't measure
      // the SIMD gate, and pretending they did would hide a regression.
      std::fprintf(stderr,
                   "notice: avx2 tier unavailable on this runner; skipping "
                   "the avx2-vs-scalar gate on %s\n",
                   kSmokeGateLabel);
    } else if (gate_avx2_vs_scalar < kSimdGateMinSpeedup) {
      std::fprintf(stderr,
                   "FATAL: avx2 tier only %.2fx scalar on %s (gate %.1fx)\n",
                   gate_avx2_vs_scalar, kSmokeGateLabel, kSimdGateMinSpeedup);
      gates_ok = false;
    }
  }
  return gates_ok ? 0 : 1;
}
