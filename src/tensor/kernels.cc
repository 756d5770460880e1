#include "tensor/kernels.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <vector>

#include "common/log.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "tensor/primitives/primitives.h"

namespace causer::tensor::kernels {
namespace {

/// Pack instruments (see docs/OBSERVABILITY.md), registered together on
/// first touch. bytes_total / packs_total gives the mean packed panel size.
struct PackMetricsT {
  metrics::Counter& packs;
  metrics::Counter& bytes;
};

PackMetricsT& PackMetrics() {
  static PackMetricsT m{
      metrics::GetCounter("tensor.pack.packs_total", "packs",
                          "Transposed operands repacked into contiguous "
                          "row-major panels before a matmul."),
      metrics::GetCounter("tensor.pack.bytes_total", "bytes",
                          "Bytes written into pack buffers."),
  };
  return m;
}

/// Below this many multiply-adds the pool dispatch overhead dominates and
/// the product stays on the calling thread.
constexpr int64_t kParallelMatMulMinOps = 1 << 15;

/// Transposes `src` (row-major [rows, cols]) into the thread-local pack
/// buffer `buf` as row-major [cols, rows]. Reads stream through src; the
/// strided writes touch each destination cache line rows times in quick
/// succession, so packing is O(rows*cols) cheap next to the O(n*m*p)
/// product it unlocks.
const float* PackTranspose(const float* src, int rows, int cols,
                           std::vector<float>& buf) {
  buf.resize(static_cast<size_t>(rows) * cols);
  float* dst = buf.data();
  for (int r = 0; r < rows; ++r) {
    const float* srow = src + static_cast<size_t>(r) * cols;
    for (int c = 0; c < cols; ++c) {
      dst[static_cast<size_t>(c) * rows + r] = srow[c];
    }
  }
  if (metrics::Enabled()) {
    PackMetrics().packs.Add();
    PackMetrics().bytes.Add(static_cast<uint64_t>(rows) * cols *
                            sizeof(float));
  }
  return dst;
}

/// Reusable per-thread pack storage; capacity converges to the largest
/// operand this thread ever packs. Only B^T needs packing: its naive inner
/// loop strides by m per j step, while A^T is already contiguous along the
/// blocked row direction (see TransAKernel) and is consumed in place.
const float* PackB(const float* b, int rows, int cols) {
  static thread_local std::vector<float> buf;
  return PackTranspose(b, rows, cols, buf);
}

/// Row-major panel kernel: c rows [row_begin, row_end) += a * b with a
/// effectively [n? ,m] and b [m,p], both contiguous. Delegates to the
/// active ISA's register-blocked gemm panels (a_step = 1: A rows are
/// contiguous in k). Per element the k-summation stays ascending with one
/// rounding per multiply and add — bit-identical to the naive reference
/// whichever primitives::Ops variant is live (see tensor/primitives/).
void PanelKernel(const float* a, const float* b, float* c, int row_begin,
                 int row_end, int m, int p) {
  const primitives::Ops& ops = primitives::Active();
  int i = row_begin;
  for (; i + 4 <= row_end; i += 4) {
    const float* a0 = a + static_cast<size_t>(i) * m;
    float* c0 = c + static_cast<size_t>(i) * p;
    ops.gemm_panel4(m, p, a0, a0 + m, a0 + 2 * m, a0 + 3 * m, /*a_step=*/1,
                    b, /*ldb=*/p, c0, c0 + p, c0 + 2 * p, c0 + 3 * p);
  }
  for (; i < row_end; ++i) {
    ops.gemm_panel1(m, p, a + static_cast<size_t>(i) * m, /*a_step=*/1, b,
                    /*ldb=*/p, c + static_cast<size_t>(i) * p);
  }
}

/// Single-output-row kernel for transpose_b: each b row is contiguous, so
/// the dot products stream both operands instead of striding across b.
/// Eight dots advance together through the active ISA's dot8 (lanes =
/// distinct output columns, seeded from the incoming c values); the
/// j-remainder keeps the seeded scalar chain inline — `dot` starts from
/// zero, and folding c[j] in afterwards would round differently. Every
/// accumulator chain is strictly sequential in k, matching the reference
/// rounding exactly.
void DotRowKernel(const float* a, const float* b, float* c, int m, int p) {
  const primitives::Ops& ops = primitives::Active();
  int j = 0;
  for (; j + 8 <= p; j += 8) {
    ops.dot8(m, a, b + static_cast<size_t>(j) * m, /*stride=*/m, c + j);
  }
  for (; j < p; ++j) {
    const float* bj = b + static_cast<size_t>(j) * m;
    float acc = c[j];
    for (int k = 0; k < m; ++k) acc += a[k] * bj[k];
    c[j] = acc;
  }
}

/// Kernel consuming A^T in place (a stored [m,n]). Packing A^T would cost
/// n*m strided writes, but it buys nothing here: under transpose_a, four
/// consecutive *logical* rows of A are four adjacent columns of the stored
/// matrix, so the register-blocked loads a[k*n + i..i+3] are already
/// contiguous. Per output element the k-summation stays ascending with one
/// rounding per add. Computes output rows [row_begin, row_end).
void TransAKernel(const float* a, const float* b, float* c, int row_begin,
                  int row_end, int n, int m, int p) {
  const primitives::Ops& ops = primitives::Active();
  if (p == 1) {
    // Single output column: k-outer vectorizes over i instead — one axpy
    // per k, so each c[i] still accumulates its own ascending-k chain
    // (call r advances every chain by exactly term r).
    for (int k = 0; k < m; ++k) {
      ops.axpy(row_end - row_begin, b[k],
               a + static_cast<size_t>(k) * n + row_begin, c + row_begin);
    }
    return;
  }
  // Four consecutive logical rows of A^T are four adjacent stored columns:
  // base pointers a+i..a+i+3 with a_step = n.
  int i = row_begin;
  for (; i + 4 <= row_end; i += 4) {
    float* c0 = c + static_cast<size_t>(i) * p;
    ops.gemm_panel4(m, p, a + i, a + i + 1, a + i + 2, a + i + 3,
                    /*a_step=*/n, b, /*ldb=*/p, c0, c0 + p, c0 + 2 * p,
                    c0 + 3 * p);
  }
  for (; i < row_end; ++i) {
    ops.gemm_panel1(m, p, a + i, /*a_step=*/n, b, /*ldb=*/p,
                    c + static_cast<size_t>(i) * p);
  }
}

/// True when this product should be sharded over output rows on the shared
/// pool. Any row partition computes identical per-element sums, so the
/// cutoff is purely a performance knob.
bool ShouldParallelize(int n, int m, int p) {
  const int64_t total_ops =
      static_cast<int64_t>(n) * m * static_cast<int64_t>(p);
  return DefaultThreads() > 1 && n > 1 &&
         total_ops >= kParallelMatMulMinOps &&
         !ThreadPool::InParallelRegion();
}

}  // namespace

void MatMulAddNaive(const float* a, const float* b, float* c, int n, int m,
                    int p, bool transpose_a, bool transpose_b) {
  for (int i = 0; i < n; ++i) {
    for (int k = 0; k < m; ++k) {
      const float av = transpose_a ? a[static_cast<size_t>(k) * n + i]
                                   : a[static_cast<size_t>(i) * m + k];
      float* crow = c + static_cast<size_t>(i) * p;
      if (!transpose_b) {
        const float* brow = b + static_cast<size_t>(k) * p;
        for (int j = 0; j < p; ++j) crow[j] += av * brow[j];
      } else {
        // b is [p, m] stored row-major; b^T[k][j] = b[j][k].
        for (int j = 0; j < p; ++j)
          crow[j] += av * b[static_cast<size_t>(j) * m + k];
      }
    }
  }
}

void MatMulAdd(const float* a, const float* b, float* c, int n, int m, int p,
               bool transpose_a, bool transpose_b) {
  // A [m,1] under transpose_a is the same memory as [1,m]: no packing and
  // the plain row kernels apply.
  if (n == 1) {
    if (transpose_b) {
      DotRowKernel(a, b, c, m, p);
    } else {
      PanelKernel(a, b, c, 0, 1, m, p);
    }
    return;
  }

  // Packing happens once on the calling thread; pool workers only read the
  // packed panels (ParallelFor's region setup orders the writes before
  // them).
  const float* be = transpose_b ? PackB(b, p, m) : b;

  if (transpose_a) {
    if (ShouldParallelize(n, m, p)) {
      DefaultPool().ParallelFor(0, n, [&](int row_begin, int row_end) {
        TransAKernel(a, be, c, row_begin, row_end, n, m, p);
      });
    } else {
      TransAKernel(a, be, c, 0, n, n, m, p);
    }
    return;
  }

  if (ShouldParallelize(n, m, p)) {
    DefaultPool().ParallelFor(0, n, [&](int row_begin, int row_end) {
      PanelKernel(a, be, c, row_begin, row_end, m, p);
    });
  } else {
    PanelKernel(a, be, c, 0, n, m, p);
  }
}

namespace {

/// Candidate columns scored per chunk. At m = 64 a chunk of B is 128 KiB —
/// it stays in L2 while every row of the batch scores it, so B streams from
/// memory once per call instead of once per row.
constexpr int kTopKTile = 512;

/// Static catalog partition: shard s of S covers B rows [p*s/S, p*(s+1)/S)
/// — the thread pool's ParallelFor formula, so the split is deterministic
/// in (p, S) alone.
inline int ShardBegin(int p, int S, int s) {
  return static_cast<int>(static_cast<int64_t>(p) * s / S);
}

/// Order-preserving 64-bit key of a TopKEntry with index >= 0: key(x) >
/// key(y) exactly when BetterEntry(x, y), so one unsigned compare replaces
/// the two-field comparator in the selection's nth_element and sort. The
/// high 32 bits map the score to a monotone unsigned value (-0 taken as +0,
/// so `==` ties fall through to the index); the low 32 bits hold
/// (INT32_MAX - index) << 1, so a lower index ranks higher, plus one bit
/// that remembers a -0 score. Indices are unique within a row, so that bit
/// never decides an order, and FromKey restores every score bit.
inline std::uint64_t EntryKey(int index, float score) {
  std::uint32_t bits;
  std::memcpy(&bits, &score, sizeof(bits));
  const std::uint32_t neg_zero = bits == 0x80000000u ? 1u : 0u;
  if (neg_zero != 0) bits = 0;
  const std::uint32_t hi = (bits & 0x80000000u) != 0 ? ~bits
                                                     : bits | 0x80000000u;
  const std::uint32_t lo =
      (static_cast<std::uint32_t>(0x7FFFFFFF - index) << 1) | neg_zero;
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
}

inline TopKEntry FromKey(std::uint64_t key) {
  const auto hi = static_cast<std::uint32_t>(key >> 32);
  const auto lo = static_cast<std::uint32_t>(key);
  std::uint32_t bits = (hi & 0x80000000u) != 0 ? hi & 0x7FFFFFFFu : ~hi;
  if ((lo & 1u) != 0) bits = 0x80000000u;
  TopKEntry e;
  e.index = 0x7FFFFFFF - static_cast<int>(lo >> 1);
  std::memcpy(&e.score, &bits, sizeof(bits));
  return e;
}

/// Below this many keys the comparison-based std algorithms are cheapest
/// (every k = 10 selection stays on them); from here up, the linear passes
/// below win, because a comparison sort or nth_element over random keys
/// mispredicts about every other branch.
constexpr int kLinearKeysMin = 256;

/// Moves the k largest of keys[0, n) to keys[0, k), in no particular
/// order, and returns the kth largest; 1 <= k <= n, and tmp holds n keys.
/// Above kLinearKeysMin each round partitions the range without branches
/// around a pivot drawn from a sorted sample at the target's expected
/// rank, so a few linear passes replace nth_element's mispredicted ones;
/// the last few hundred keys go to nth_element. Keys are unique, so the
/// k largest are one set whatever the pivots.
std::uint64_t SelectKeys(std::uint64_t* keys, int n, int k,
                         std::uint64_t* tmp) {
  if (k == n) return *std::min_element(keys, keys + n);
  constexpr int kSample = 15;
  int lo = 0, hi = n;  // keys[0, lo) beat, and keys[hi, n) lose to, the rest
  while (hi - lo > kLinearKeysMin) {
    const int m = hi - lo;
    std::uint64_t* a = keys + lo;
    std::uint64_t sample[kSample];
    for (int i = 0; i < kSample; ++i) {
      sample[i] =
          a[static_cast<std::int64_t>(m) * (2 * i + 1) / (2 * kSample)];
    }
    std::sort(sample, sample + kSample, std::greater<std::uint64_t>());
    const int r = std::min(
        kSample - 1,
        static_cast<int>(static_cast<std::int64_t>(k - lo) * kSample / m));
    const std::uint64_t pivot = sample[r];
    // Every key is written to both ends and the cursor of its side moves:
    // keys >= pivot fill tmp from the front, the rest from the back.
    int front = 0, back = m - 1;
    for (int i = 0; i < m; ++i) {
      const std::uint64_t v = a[i];
      tmp[front] = v;
      tmp[back] = v;
      const bool keep = v >= pivot;
      front += keep;
      back -= !keep;
    }
    std::copy_n(tmp, m, a);
    if (front == m) break;  // the pivot was the range's minimum
    if (k <= lo + front) {
      hi = lo + front;
    } else {
      lo += front;
    }
  }
  std::nth_element(keys + lo, keys + (k - 1), keys + hi,
                   std::greater<std::uint64_t>());
  return keys[k - 1];
}

/// Sorts keys[0, n) descending; tmp holds n keys. Above kLinearKeysMin:
/// a stable LSD radix sort over the score half of the key (four 8-bit
/// digits, skipping any digit all keys share), then each run of equal
/// scores, rare in practice, is put in index order.
void SortKeys(std::uint64_t* keys, int n, std::uint64_t* tmp) {
  if (n < kLinearKeysMin) {
    std::sort(keys, keys + n, std::greater<std::uint64_t>());
    return;
  }
  // Descending by key is ascending by the complemented score half.
  auto digits = [](std::uint64_t key) {
    return ~static_cast<std::uint32_t>(key >> 32);
  };
  std::uint32_t count[4][256] = {};
  for (int i = 0; i < n; ++i) {
    const std::uint32_t d = digits(keys[i]);
    for (int pass = 0; pass < 4; ++pass) {
      ++count[pass][(d >> (8 * pass)) & 255];
    }
  }
  std::uint64_t* src = keys;
  std::uint64_t* dst = tmp;
  for (int pass = 0; pass < 4; ++pass) {
    std::uint32_t* c = count[pass];
    const int shift = 8 * pass;
    if (c[(digits(src[0]) >> shift) & 255] == static_cast<std::uint32_t>(n)) {
      continue;
    }
    std::uint32_t sum = 0;
    for (int b = 0; b < 256; ++b) {
      const std::uint32_t here = c[b];
      c[b] = sum;
      sum += here;
    }
    for (int i = 0; i < n; ++i) {
      dst[c[(digits(src[i]) >> shift) & 255]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != keys) std::copy_n(src, n, keys);
  for (int i = 0; i < n;) {
    int j = i + 1;
    while (j < n && (keys[j] >> 32) == (keys[i] >> 32)) ++j;
    if (j - i > 1) {
      std::sort(keys + i, keys + j, std::greater<std::uint64_t>());
    }
    i = j;
  }
}

/// The one selection loop: the k best catalog columns in [jb, je) for rows
/// [row_begin, row_end) of A, written to out[i*k .. i*k+k) sorted
/// best-first and {-1, 0}-padded. `score(i, j0, w, thr, idx, scores)`
/// scores row i against columns [j0, j0+w) and writes the chunk positions
/// whose score compares >= thr (ascending) to idx and their scores to
/// scores, returning the count. It is taken by value, so each task owns
/// any scratch the scorer carries.
///
/// Chunks are OUTER and rows inner: one chunk of B stays cache-resident
/// while every row scores it. Each row appends every survivor, as its
/// EntryKey, to its slot of one survivor slab, with no per-candidate
/// comparison against the selection so far; SelectKeys compacts the slot
/// to its k best, and the kth score becomes the row's filter threshold.
/// The filter only drops scores strictly below an exact kth-best-so-far,
/// and a compaction only drops entries k others beat, so the result is
/// exactly the k best under BetterEntry whatever the chunking.
///
/// Priming: the first chunk is only min(cap, kTopKTile) columns wide and
/// passes unfiltered (thr starts at -inf); a row whose threshold is still
/// unset compacts as soon as it holds k entries. Later chunks are then
/// filtered from the start instead of flooding the slab. A row compacts
/// again once it holds cap entries, so a slot never needs more than
/// cap + kTopKTile entries (nor more than the range holds). cap is 4k
/// while compactions run on nth_element, and 2k once they are linear
/// passes (k >= kLinearKeysMin): there a compaction is cheap enough that
/// running it twice as often pays for itself in a tighter threshold and
/// fewer survivors (measured at k = 10 and k = 2048 on a 20000-row
/// catalog).
template <typename Scorer>
void SelectTopK(Scorer score, int row_begin, int row_end, int jb, int je,
                int k, TopKEntry* out) {
  constexpr float kUnset = -std::numeric_limits<float>::infinity();
  const int rows = row_end - row_begin;
  const std::size_t cap =
      (k < kLinearKeysMin ? 4 : 2) * static_cast<std::size_t>(k);
  const std::size_t slot = std::min<std::size_t>(
      cap + kTopKTile, static_cast<std::size_t>(je - jb));
  std::vector<std::uint64_t> slab(slot * static_cast<std::size_t>(rows));
  std::vector<std::uint64_t> tmp(slot);
  std::vector<int> len(rows, 0);
  std::vector<float> thr(rows, kUnset);
  std::vector<std::int32_t> idx(kTopKTile);
  std::vector<float> scores(kTopKTile);
  auto compact = [&](int r) {
    std::uint64_t* buf = slab.data() + slot * static_cast<std::size_t>(r);
    thr[r] = FromKey(SelectKeys(buf, len[r], k, tmp.data())).score;
    len[r] = k;
  };
  const int first = static_cast<int>(
      std::min<std::size_t>({cap, kTopKTile, slot}));
  for (int j0 = jb, w = first; j0 < je;
       j0 += w, w = std::min(kTopKTile, je - j0)) {
    for (int r = 0; r < rows; ++r) {
      std::uint64_t* buf = slab.data() + slot * static_cast<std::size_t>(r);
      const int cnt =
          score(row_begin + r, j0, w, thr[r], idx.data(), scores.data());
      for (int t = 0; t < cnt; ++t) {
        buf[len[r]++] = EntryKey(j0 + idx[t], scores[t]);
      }
      const std::size_t limit =
          thr[r] == kUnset ? static_cast<std::size_t>(k) : cap;
      if (static_cast<std::size_t>(len[r]) >= limit) compact(r);
    }
  }
  for (int r = 0; r < rows; ++r) {
    std::uint64_t* buf = slab.data() + slot * static_cast<std::size_t>(r);
    // Shrink to the k best before sorting so the sort never touches the
    // beaten tail the slot may still hold.
    if (len[r] > k) compact(r);
    SortKeys(buf, len[r], tmp.data());
    TopKEntry* orow = out + static_cast<size_t>(row_begin + r) * k;
    for (int t = 0; t < k; ++t) {
      orow[t] = t < len[r] ? FromKey(buf[t]) : TopKEntry{};
    }
  }
}

/// The one top-k driver behind all four entry points. One shard
/// parallelizes over batch rows; S > 1 shards fan out over the pool — each
/// task selects over *all* n rows against its slice of the catalog, so
/// parallelism no longer caps at n — into one [S, n, k] slab, then merge.
template <typename Scorer>
int RunTopK(const Scorer& score, int n, int m, int p, int k, int shards,
            TopKEntry* out, double* shard_seconds) {
  const int S = std::clamp(shards, 1, std::max(p, 1));
  if (S == 1) {
    Stopwatch watch;
    if (ShouldParallelize(n, m, p)) {
      DefaultPool().ParallelFor(0, n, [&](int row_begin, int row_end) {
        SelectTopK(score, row_begin, row_end, 0, p, k, out);
      });
    } else {
      SelectTopK(score, 0, n, 0, p, k, out);
    }
    if (shard_seconds != nullptr) shard_seconds[0] = watch.ElapsedSeconds();
    return 1;
  }
  std::vector<TopKEntry> local(static_cast<size_t>(S) * n * k);
  auto run_shard = [&](int s) {
    Stopwatch watch;
    SelectTopK(score, 0, n, ShardBegin(p, S, s), ShardBegin(p, S, s + 1), k,
               local.data() + static_cast<size_t>(s) * n * k);
    if (shard_seconds != nullptr) shard_seconds[s] = watch.ElapsedSeconds();
  };
  if (DefaultThreads() > 1 && !ThreadPool::InParallelRegion()) {
    DefaultPool().ParallelFor(0, S, [&](int begin, int end) {
      for (int s = begin; s < end; ++s) run_shard(s);
    });
  } else {
    for (int s = 0; s < S; ++s) run_shard(s);
  }
  MergeTopK(local.data(), S, n, k, out);
  return S;
}

}  // namespace

void MergeTopK(const TopKEntry* runs, int S, int n, int k, TopKEntry* out) {
  // Each run is sorted best-first with its -1 padding at the tail, so the
  // best remaining entry is always one of the S heads: k steps of an S-way
  // head comparison on EntryKeys (a spent run's key is 0, below every real
  // entry's), so the data-dependent pick needs no branch.
  std::vector<const TopKEntry*> head(S);
  std::vector<const TopKEntry*> end(S);
  std::vector<std::uint64_t> key(S);
  auto head_key = [&](int s) -> std::uint64_t {
    return head[s] < end[s] && head[s]->index >= 0
               ? EntryKey(head[s]->index, head[s]->score)
               : 0;
  };
  for (int i = 0; i < n; ++i) {
    for (int s = 0; s < S; ++s) {
      head[s] = runs + (static_cast<size_t>(s) * n + i) * k;
      end[s] = head[s] + k;
      key[s] = head_key(s);
    }
    TopKEntry* orow = out + static_cast<size_t>(i) * k;
    int r = 0;
    for (; r < k; ++r) {
      int best = 0;
      for (int s = 1; s < S; ++s) best = key[s] > key[best] ? s : best;
      if (key[best] == 0) break;
      orow[r] = *head[best]++;
      key[best] = head_key(best);
    }
    std::fill(orow + r, orow + k, TopKEntry{});
  }
}

int RerankTopK(const float* a, const float* b, int m,
               const TopKEntry* cands, int count, int k, TopKEntry* out) {
  const primitives::Ops& ops = primitives::Active();
  int c = 0;
  while (c < count && cands[c].index >= 0) ++c;
  std::vector<TopKEntry> scored(c);
  // dot8 reads eight rows at one stride, so each group of eight candidate
  // rows is gathered into a contiguous tile first; zero-seeded lanes make
  // each score the chain ops.dot computes for the remainder.
  std::vector<float> tile(static_cast<size_t>(8) * m);
  int j = 0;
  for (; j + 8 <= c; j += 8) {
    for (int l = 0; l < 8; ++l) {
      std::memcpy(tile.data() + static_cast<size_t>(l) * m,
                  b + static_cast<size_t>(cands[j + l].index) * m,
                  sizeof(float) * m);
    }
    float lanes[8] = {};
    ops.dot8(m, a, tile.data(), /*stride=*/m, lanes);
    for (int l = 0; l < 8; ++l) scored[j + l] = {cands[j + l].index, lanes[l]};
  }
  for (; j < c; ++j) {
    scored[j] = {cands[j].index,
                 ops.dot(m, a, b + static_cast<size_t>(cands[j].index) * m)};
  }
  const int take = std::clamp(k, 0, c);
  std::partial_sort(scored.begin(), scored.begin() + take, scored.end(),
                    BetterEntry);
  std::copy_n(scored.begin(), take, out);
  std::fill(out + take, out + std::max(k, 0), TopKEntry{});
  return take;
}

void MatMulTopK(const float* a, const float* b, int n, int m, int p, int k,
                TopKEntry* out) {
  MatMulTopKSharded(a, b, n, m, p, k, /*shards=*/1, out);
}

void MatMulTopKQ(const std::int8_t* a, const float* a_scales,
                 const std::int8_t* b, const float* b_scales, int n, int m,
                 int p, int k, TopKEntry* out) {
  MatMulTopKQSharded(a, a_scales, b, b_scales, n, m, p, k, /*shards=*/1, out);
}

int MatMulTopKSharded(const float* a, const float* b, int n, int m, int p,
                      int k, int shards, TopKEntry* out,
                      double* shard_seconds) {
  if (n <= 0 || k <= 0) return 0;
  const primitives::Ops& ops = primitives::Active();
  // Each score is the zero-seeded ascending-k chain MatMulAddNaive
  // computes: eight columns per dot8, the remainder through dot.
  auto score = [&](int i, int j0, int w, float thr, std::int32_t* idx,
                   float* scores) {
    const float* ai = a + static_cast<size_t>(i) * m;
    const float* bj = b + static_cast<size_t>(j0) * m;
    std::fill_n(scores, w, 0.0f);
    int j = 0;
    for (; j + 8 <= w; j += 8) {
      ops.dot8(m, ai, bj + static_cast<size_t>(j) * m, /*stride=*/m,
               scores + j);
    }
    for (; j < w; ++j) {
      scores[j] = ops.dot(m, ai, bj + static_cast<size_t>(j) * m);
    }
    int cnt = 0;
    for (int l = 0; l < w; ++l) {
      if (scores[l] >= thr) {
        idx[cnt] = l;
        scores[cnt++] = scores[l];
      }
    }
    return cnt;
  };
  return RunTopK(score, n, m, p, k, shards, out, shard_seconds);
}

int MatMulTopKQSharded(const std::int8_t* a, const float* a_scales,
                       const std::int8_t* b, const float* b_scales, int n,
                       int m, int p, int k, int shards, TopKEntry* out,
                       double* shard_seconds) {
  if (n <= 0 || k <= 0) return 0;
  // |sum of m products of codes in [-127, 127]| <= m * 127^2 must stay
  // inside int32; past the documented bound the scores would wrap silently
  // and the selection would be garbage that *looks* ranked. Checked here,
  // before any fan-out, so a violation is one message on the caller.
  CAUSER_CHECK(m <= 65536);
  const primitives::Ops& ops = primitives::Active();
  // One gemm_panel_s8 per chunk (exact int32 dots of the codes), then the
  // dequantize + threshold scan of ops.dequant_filter, whose score
  // expression acc * (a_scale * b_scale) is bit-identical on every tier.
  auto score = [&, acc = std::vector<std::int32_t>(kTopKTile)](
                   int i, int j0, int w, float thr, std::int32_t* idx,
                   float* scores) mutable {
    ops.gemm_panel_s8(m, w, a + static_cast<size_t>(i) * m,
                      b + static_cast<size_t>(j0) * m, /*stride=*/m,
                      acc.data());
    return ops.dequant_filter(w, acc.data(), b_scales + j0, a_scales[i], thr,
                              idx, scores);
  };
  return RunTopK(score, n, m, p, k, shards, out, shard_seconds);
}

}  // namespace causer::tensor::kernels
