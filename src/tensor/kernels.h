#ifndef CAUSER_TENSOR_KERNELS_H_
#define CAUSER_TENSOR_KERNELS_H_

#include <cstdint>

namespace causer::tensor::kernels {

/// One selected candidate of a fused score-and-select row: the candidate's
/// column index and its inner-product score.
struct TopKEntry {
  int index = -1;
  float score = 0.0f;
};

/// The ranking order of every top-k here and of eval::TopK: score
/// descending, index ascending on ties — a strict total order over the
/// entries of one row, so a selection under it is unique.
inline bool BetterEntry(const TopKEntry& x, const TopKEntry& y) {
  if (x.score != y.score) return x.score > y.score;
  return x.index < y.index;
}

/// Matmul microkernels: C[n,p] += op(A) * op(B) on raw row-major float
/// buffers, where op transposes when the corresponding flag is set (so A is
/// stored [m,n] under transpose_a and B is stored [p,m] under transpose_b).
///
/// Both entry points compute, for every output element, the same ascending-k
/// sequence of single-rounded multiply-adds — the bit-exactness contract the
/// parallel training/eval paths rely on (see docs/KERNELS.md and
/// docs/PERFORMANCE.md). They may reorder across *distinct* elements (row
/// blocking, SIMD lanes over j, thread partitioning) but never reassociate
/// within one dot product.
///
/// This header is a *dispatch point*, not an implementation tier: the
/// kernels' inner loops run on the active tensor::primitives::Ops variant
/// (explicit scalar / AVX2 / AVX-512 translation units), selected once per
/// process via cpu::ActiveIsa() — precedence --cpu-isa flag >
/// CAUSER_CPU_ISA env > cpuid, with graceful fallback. Because every
/// variant honors the contract above, the selected tier changes throughput
/// only, never a single output bit.

/// Reference kernel: the plain ikj triple loop, kept for the equivalence
/// suite and as the bench_kernels baseline. Always runs on the calling
/// thread and never dispatches to the SIMD variants — it *defines* the
/// rounding sequence the primitive layer must reproduce.
void MatMulAddNaive(const float* a, const float* b, float* c, int n, int m,
                    int p, bool transpose_a, bool transpose_b);

/// Production kernel: packs a transposed B into contiguous row-major panels
/// (reusable thread-local pack buffer; a transposed A is consumed in place —
/// its blocked row loads are already contiguous), then runs the active
/// ISA's register-blocked gemm panels (gemm_panel4/gemm_panel1, or
/// dot8/axpy on the degenerate shapes). Large products are sharded over
/// output rows on the shared thread pool; every partition computes the
/// identical per-element sums, so results are bit-identical to
/// MatMulAddNaive at every thread count and on every ISA tier.
void MatMulAdd(const float* a, const float* b, float* c, int n, int m, int p,
               bool transpose_a, bool transpose_b);

/// Fused GEMM + top-k selection for the serving engine's catalog scoring:
/// for every row i of A [n, m], scores all p rows of B [p, m] (both
/// row-major, i.e. B is in transpose_b layout) by inner product and writes
/// the k best candidates of row i into out[i*k .. i*k+k), sorted
/// best-first under BetterEntry. The [n, p] score matrix is never
/// materialized: B streams in cache-sized column chunks, each scored
/// against every row, and each row keeps a survivor buffer behind a
/// threshold filter.
///
/// fp32 (MatMulTopK*): every score is the zero-seeded ascending-k dot
/// MatMulAddNaive computes, so the result is bit-identical to a full
/// matmul followed by eval::TopK.
///
/// int8 (MatMulTopKQ*): A and B are symmetric per-row int8 quantizations
/// (codes in [-127, 127] with fp32 row scales — tensor/quant.h), and each
/// score is the exact int32 dot of the codes dequantized once:
///   score(i, j) = (float)sum_k a[i*m+k]*b[j*m+k] * (a_scales[i] * b_scales[j])
/// These are *quantized approximations* of the fp32 inner products;
/// callers that need fp32-exact scores re-rank the returned candidates
/// with ops.dot (see serve::ServingEngine and docs/KERNELS.md "Quantized
/// primitives"). Requires m <= 65536 so |sum| stays inside int32 —
/// enforced with a CAUSER_CHECK on the calling thread, not silent
/// overflow.
///
/// Sharding (*Sharded): B's p rows are split into `shards` contiguous
/// ranges (shard s covers [p*s/S, p*(s+1)/S), the thread pool's static
/// formula), shards fan out across the shared pool — so parallelism is
/// min(S, threads) even when n = 1 — and the per-shard selections merge
/// under BetterEntry (MergeTopK, linear in S·k). A global top-k item is in
/// the top k of its own shard, so the merge is bit-identical to the
/// unsharded selection.
/// `shards` is clamped to [1, p]; 1 parallelizes over batch rows instead.
/// The plain entry points are the shards = 1 case.
///
/// Exactness: whatever the shard count, thread count or ISA tier, every
/// score carries the same bits and the selection is the unique k best
/// under BetterEntry (tests/kernels_test.cc, quant_test.cc and
/// sharding_test.cc sweep all three). k is clamped to [0, p]; when k > p
/// the trailing entries of each output row keep {index = -1, score = 0}.
///
/// The *Sharded entry points return the effective shard count (0 when
/// n <= 0 or k <= 0, which write nothing). When `shard_seconds` is
/// non-null it must hold `shards` doubles; entries [0, returned) receive
/// each shard's scoring wall time (the serving engine's serve.shard.*
/// instruments — pass null to skip timing).
void MatMulTopK(const float* a, const float* b, int n, int m, int p, int k,
                TopKEntry* out);
void MatMulTopKQ(const std::int8_t* a, const float* a_scales,
                 const std::int8_t* b, const float* b_scales, int n, int m,
                 int p, int k, TopKEntry* out);
int MatMulTopKSharded(const float* a, const float* b, int n, int m, int p,
                      int k, int shards, TopKEntry* out,
                      double* shard_seconds = nullptr);
int MatMulTopKQSharded(const std::int8_t* a, const float* a_scales,
                       const std::int8_t* b, const float* b_scales, int n,
                       int m, int p, int k, int shards, TopKEntry* out,
                       double* shard_seconds = nullptr);

/// The shard merge behind the *Sharded entry points, public so benches can
/// time it on its own. `runs` holds S per-shard selections laid out
/// [S, n, k], each row sorted best-first under BetterEntry and -1-padded;
/// out[i*k .. i*k+k) receives the k best of row i across all S runs, sorted
/// and {-1, 0}-padded. A linear S-way merge of the sorted runs: it stops
/// after k entries and never sorts. `out` must not alias `runs`.
void MergeTopK(const TopKEntry* runs, int S, int n, int k, TopKEntry* out);

/// Exact fp32 re-rank of one row's quantized candidates: scores the
/// candidates cands[0 .. count) up to the first index -1 against row `a`
/// [m] with rows of B [*, m], and writes the k best under BetterEntry to
/// out[0 .. k), sorted best-first and {-1, 0}-padded. Each score is the
/// zero-seeded ascending-k chain ops.dot computes (eight candidates per
/// dot8 over a gathered tile, the remainder through dot), so it carries
/// the bits of MatMulTopK's score for that item on every ISA tier.
/// Candidate indices must be distinct. Returns the count written before
/// the padding, min(k, candidates).
int RerankTopK(const float* a, const float* b, int m,
               const TopKEntry* cands, int count, int k, TopKEntry* out);

}  // namespace causer::tensor::kernels

#endif  // CAUSER_TENSOR_KERNELS_H_
