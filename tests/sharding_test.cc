// Sharding equivalence suite. The kernel half proves the tentpole's
// exactness claim as a property: MatMulTopKSharded / MatMulTopKQSharded are
// bit-identical to their unsharded kernels at every shard count, thread
// count, and compiled ISA tier — including duplicate scores straddling
// shard boundaries (the (score desc, index asc) tie-break must survive the
// merge) and the threshold priming across multiple column chunks per
// shard. The store half covers the SessionStore: intrusive LRU order,
// pinned-entry skips, version stamps, and a concurrent
// Acquire/Evict/version-shift hammer that the CI TSan job runs. The engine
// half checks the end-to-end wiring: sharded config serves byte-identical
// responses, fp32 and int8.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cpu.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/generator.h"
#include "data/split.h"
#include "eval/metrics.h"
#include "models/gru4rec.h"
#include "serve/engine.h"
#include "serve/session_store.h"
#include "tensor/kernels.h"
#include "tensor/quant.h"

namespace causer {
namespace {

using tensor::kernels::TopKEntry;

/// Restores automatic ISA selection and a single thread on test exit.
struct IsaThreadGuard {
  ~IsaThreadGuard() {
    cpu::ResetIsaForTest();
    SetDefaultThreads(1);
  }
};

/// A catalog engineered for merge-order trouble: only `distinct` unique
/// rows cycled over p, so most scores appear many times and every shard
/// boundary cuts through runs of exact ties. The tie-break (index asc)
/// must come out of the merge untouched.
std::vector<float> DuplicateHeavyMatrix(int rows, int cols, int distinct,
                                        Rng& rng) {
  std::vector<float> base(static_cast<size_t>(distinct) * cols);
  for (auto& v : base) v = static_cast<float>(rng.Uniform(-2.0, 2.0));
  std::vector<float> out(static_cast<size_t>(rows) * cols);
  for (int r = 0; r < rows; ++r) {
    std::memcpy(out.data() + static_cast<size_t>(r) * cols,
                base.data() + static_cast<size_t>(r % distinct) * cols,
                sizeof(float) * cols);
  }
  return out;
}

std::vector<float> RandomMatrix(int rows, int cols, Rng& rng) {
  std::vector<float> out(static_cast<size_t>(rows) * cols);
  for (auto& v : out) v = static_cast<float>(rng.Uniform(-3.0, 3.0));
  return out;
}

void ExpectBitIdentical(const std::vector<TopKEntry>& expected,
                        const std::vector<TopKEntry>& actual,
                        const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (size_t e = 0; e < expected.size(); ++e) {
    ASSERT_EQ(expected[e].index, actual[e].index) << label << " entry " << e;
    ASSERT_EQ(std::memcmp(&expected[e].score, &actual[e].score,
                          sizeof(float)),
              0)
        << label << " entry " << e << " score " << expected[e].score
        << " vs " << actual[e].score;
  }
}

/// One catalog input of the kernel equivalence tests. `distinct` > 0
/// builds a DuplicateHeavyMatrix; 0 builds a random one.
struct CatalogShape {
  int m, p, distinct;
};

std::vector<float> ShapeMatrix(const CatalogShape& shape, Rng& rng) {
  return shape.distinct > 0
             ? DuplicateHeavyMatrix(shape.p, shape.m, shape.distinct, rng)
             : RandomMatrix(shape.p, shape.m, rng);
}

/// The serving shape: d = 64 and a random catalog of 4096 items, so that
/// each of 2-8 shards spans several 512-column chunks.
constexpr CatalogShape kServingShape = {64, 4096, 0};

TEST(ShardedTopKTest, Fp32BitIdenticalAcrossShardsThreadsIsas) {
  IsaThreadGuard guard;
  Rng rng(20260815);
  for (const CatalogShape& shape : {CatalogShape{16, 300, 7}, kServingShape}) {
    const int m = shape.m, p = shape.p;
    auto b = ShapeMatrix(shape, rng);
    for (cpu::Isa isa : cpu::CompiledIsas()) {
      if (!cpu::IsaSupported(isa)) continue;
      ASSERT_TRUE(cpu::SetIsaOverride(cpu::IsaName(isa)));
      for (int threads : {1, 2, 8}) {
        SetDefaultThreads(threads);
        for (int n : {1, 4}) {  // n = 1 is the single-request serving shape
          auto a = RandomMatrix(n, m, rng);
          for (int k : {1, 5, 128}) {
            std::vector<TopKEntry> expected(static_cast<size_t>(n) * k);
            tensor::kernels::MatMulTopK(a.data(), b.data(), n, m, p, k,
                                        expected.data());
            for (int shards : {1, 2, 3, 8, 17}) {
              // 17 shards of ~18 rows with k = 128 > shard width (p = 300):
              // shards return fewer than k candidates and the merge must
              // repad.
              std::vector<TopKEntry> actual(static_cast<size_t>(n) * k,
                                            TopKEntry{7, -1.0f});
              const int used = tensor::kernels::MatMulTopKSharded(
                  a.data(), b.data(), n, m, p, k, shards, actual.data());
              EXPECT_EQ(used, shards);  // all counts here are within [1, p]
              ExpectBitIdentical(expected, actual,
                                 std::string(cpu::IsaName(isa)) + " t" +
                                     std::to_string(threads) + " p" +
                                     std::to_string(p) + " n" +
                                     std::to_string(n) + " k" +
                                     std::to_string(k) + " S" +
                                     std::to_string(shards));
            }
          }
        }
      }
      cpu::ResetIsaForTest();
      SetDefaultThreads(1);
    }
  }
}

TEST(ShardedTopKTest, Int8BitIdenticalIncludingThresholdPriming) {
  IsaThreadGuard guard;
  Rng rng(20260816);
  // p = 1200 gives shards wider than one 512-column chunk at small S, so
  // threshold priming (each range's narrow first chunk, compacted at once)
  // is followed by filtered chunks *within* shards, not just in the
  // unsharded reference; the serving shape does so over random scores.
  for (const CatalogShape& shape :
       {CatalogShape{16, 300, 7}, CatalogShape{16, 1200, 7}, kServingShape}) {
    const int m = shape.m, p = shape.p;
    auto bf = ShapeMatrix(shape, rng);
    tensor::QuantizedMatrix qb;
    ASSERT_TRUE(tensor::QuantizeRows(bf.data(), p, m, &qb));
    for (cpu::Isa isa : cpu::CompiledIsas()) {
      if (!cpu::IsaSupported(isa)) continue;
      ASSERT_TRUE(cpu::SetIsaOverride(cpu::IsaName(isa)));
      for (int threads : {1, 2, 8}) {
        SetDefaultThreads(threads);
        for (int n : {1, 4}) {
          auto af = RandomMatrix(n, m, rng);
          tensor::QuantizedMatrix qa;
          ASSERT_TRUE(tensor::QuantizeRows(af.data(), n, m, &qa));
          for (int k : {1, 5, 128}) {
            std::vector<TopKEntry> expected(static_cast<size_t>(n) * k);
            tensor::kernels::MatMulTopKQ(qa.data.data(), qa.scales.data(),
                                         qb.data.data(), qb.scales.data(), n,
                                         m, p, k, expected.data());
            for (int shards : {1, 2, 3, 8, 17}) {
              std::vector<TopKEntry> actual(static_cast<size_t>(n) * k);
              const int used = tensor::kernels::MatMulTopKQSharded(
                  qa.data.data(), qa.scales.data(), qb.data.data(),
                  qb.scales.data(), n, m, p, k, shards, actual.data());
              EXPECT_EQ(used, shards);
              ExpectBitIdentical(expected, actual,
                                 std::string("int8 ") + cpu::IsaName(isa) +
                                     " t" + std::to_string(threads) + " p" +
                                     std::to_string(p) + " n" +
                                     std::to_string(n) + " k" +
                                     std::to_string(k) + " S" +
                                     std::to_string(shards));
            }
          }
        }
      }
      cpu::ResetIsaForTest();
      SetDefaultThreads(1);
    }
  }
}

/// A random catalog whose rows just around every shard boundary of
/// S in {2, 3, 7} are copies of one hot row: 4 * a[0] for the first row
/// of `a`, so that row's 24 best scores are one exact tie split across
/// shards, and the other rows see the same tie somewhere in their order.
std::vector<float> BoundaryTieMatrix(int p, int m, const std::vector<float>& a,
                                     Rng& rng) {
  std::vector<float> b = RandomMatrix(p, m, rng);
  for (int S : {2, 3, 7}) {
    for (int s = 1; s < S; ++s) {
      const int boundary = static_cast<int>(static_cast<int64_t>(p) * s / S);
      for (int r = boundary - 2; r < boundary + 2; ++r) {
        for (int c = 0; c < m; ++c) {
          b[static_cast<size_t>(r) * m + c] = 4.0f * a[c];
        }
      }
    }
  }
  return b;
}

/// eval::TopK over one materialized row of scores, as entries.
std::vector<TopKEntry> ReferenceTopK(const std::vector<float>& scores, int k) {
  std::vector<TopKEntry> out(k);
  const std::vector<int> idx = eval::TopK(scores, k);
  for (size_t t = 0; t < idx.size(); ++t) out[t] = {idx[t], scores[idx[t]]};
  return out;
}

TEST(ShardedTopKTest, MergeKeepsBoundaryTiesInIndexOrder) {
  IsaThreadGuard guard;
  Rng rng(20260818);
  // p = 3000: at k = 2048 every shard of S = 2, 3, 7 is narrower than k,
  // so each per-shard selection comes back -1-padded. k = 300 compacts
  // several times through the partition passes of large k, and S = 1
  // checks the unsharded selection against the same reference.
  const int n = 3, m = 16, p = 3000;
  const auto a = RandomMatrix(n, m, rng);
  const auto b = BoundaryTieMatrix(p, m, a, rng);
  std::vector<float> fp32(static_cast<size_t>(n) * p, 0.0f);
  tensor::kernels::MatMulAddNaive(a.data(), b.data(), fp32.data(), n, m, p,
                                  false, true);
  tensor::QuantizedMatrix qa, qb;
  ASSERT_TRUE(tensor::QuantizeRows(a.data(), n, m, &qa));
  ASSERT_TRUE(tensor::QuantizeRows(b.data(), p, m, &qb));
  std::vector<float> int8(fp32.size());
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < p; ++j) {
      const std::int8_t* ai = qa.data.data() + static_cast<size_t>(i) * m;
      const std::int8_t* bj = qb.data.data() + static_cast<size_t>(j) * m;
      std::int32_t acc = 0;
      for (int c = 0; c < m; ++c) acc += std::int32_t{ai[c]} * bj[c];
      int8[static_cast<size_t>(i) * p + j] =
          static_cast<float>(acc) * (qa.scales[i] * qb.scales[j]);
    }
  }
  for (int k : {10, 128, 300, 2048}) {
    std::vector<TopKEntry> expected_fp32, expected_int8;
    for (int i = 0; i < n; ++i) {
      const auto row = [&](const std::vector<float>& all) {
        return std::vector<float>(all.begin() + static_cast<size_t>(i) * p,
                                  all.begin() + static_cast<size_t>(i + 1) * p);
      };
      for (const auto& e : ReferenceTopK(row(fp32), k)) {
        expected_fp32.push_back(e);
      }
      for (const auto& e : ReferenceTopK(row(int8), k)) {
        expected_int8.push_back(e);
      }
    }
    // The hot row's best scores are the straddling tie itself.
    EXPECT_EQ(expected_fp32[1].score, expected_fp32[0].score);
    for (int threads : {1, 2, 8}) {
      SetDefaultThreads(threads);
      for (int shards : {1, 2, 3, 7}) {
        const std::string label = " t" + std::to_string(threads) + " k" +
                                  std::to_string(k) + " S" +
                                  std::to_string(shards);
        std::vector<TopKEntry> actual(static_cast<size_t>(n) * k);
        tensor::kernels::MatMulTopKSharded(a.data(), b.data(), n, m, p, k,
                                           shards, actual.data());
        ExpectBitIdentical(expected_fp32, actual, "fp32" + label);
        tensor::kernels::MatMulTopKQSharded(
            qa.data.data(), qa.scales.data(), qb.data.data(),
            qb.scales.data(), n, m, p, k, shards, actual.data());
        ExpectBitIdentical(expected_int8, actual, "int8" + label);
      }
    }
  }
}

TEST(ShardedTopKTest, ClampsShardCountAndFillsPerShardTimings) {
  IsaThreadGuard guard;
  Rng rng(20260817);
  const int n = 2, m = 8, p = 10, k = 3;
  auto a = RandomMatrix(n, m, rng);
  auto b = RandomMatrix(p, m, rng);
  std::vector<TopKEntry> expected(static_cast<size_t>(n) * k);
  tensor::kernels::MatMulTopK(a.data(), b.data(), n, m, p, k,
                              expected.data());
  // More shards than catalog rows: clamps to p, still exact; every
  // reported slot carries a real (non-negative) wall time.
  std::vector<TopKEntry> actual(static_cast<size_t>(n) * k);
  std::vector<double> seconds(64, -1.0);
  const int used = tensor::kernels::MatMulTopKSharded(
      a.data(), b.data(), n, m, p, k, /*shards=*/64, actual.data(),
      seconds.data());
  EXPECT_EQ(used, p);
  ExpectBitIdentical(expected, actual, "clamped to p");
  for (int s = 0; s < used; ++s) {
    EXPECT_GE(seconds[s], 0.0) << "shard " << s << " never timed";
  }
  EXPECT_EQ(seconds[used], -1.0);  // untouched past the effective count
  // shards = 1 degenerates to the unsharded kernel but still times it.
  seconds.assign(1, -1.0);
  EXPECT_EQ(tensor::kernels::MatMulTopKSharded(a.data(), b.data(), n, m, p,
                                               k, 1, actual.data(),
                                               seconds.data()),
            1);
  ExpectBitIdentical(expected, actual, "degenerate S=1");
  EXPECT_GE(seconds[0], 0.0);
  // Empty problems report zero shards and touch nothing.
  EXPECT_EQ(tensor::kernels::MatMulTopKSharded(a.data(), b.data(), 0, m, p,
                                               k, 4, actual.data()),
            0);
}

const data::Dataset& TinyData() {
  static data::Dataset d = data::MakeDataset(data::TinySpec());
  return d;
}

const data::Split& TinySplit() {
  static data::Split s = data::LeaveLastOut(TinyData());
  return s;
}

std::shared_ptr<models::Gru4Rec> TinyGru() {
  models::ModelConfig config;
  config.num_users = TinyData().num_users;
  config.num_items = TinyData().num_items;
  config.embedding_dim = 8;
  config.hidden_dim = 8;
  return std::make_shared<models::Gru4Rec>(config);
}

TEST(ShardedSessionStoreTest, IntrusiveLruEvictsOldestAndTouchRefreshes) {
  auto model = TinyGru();
  serve::SessionStore store(3);
  auto s1 = store.Acquire(1, nullptr, model, 1);
  auto s2 = store.Acquire(2, nullptr, model, 1);
  auto s3 = store.Acquire(3, nullptr, model, 1);
  models::SessionState* p1 = s1.get();
  models::SessionState* p2 = s2.get();
  s1.reset();
  s2.reset();
  s3.reset();
  // Touch user 1: it moves to the MRU end, so the next eviction must take
  // user 2 (now the oldest), not 1.
  EXPECT_EQ(store.Acquire(1, nullptr, model, 1).get(), p1);
  store.Acquire(4, nullptr, model, 1);
  EXPECT_EQ(store.size(), 3);
  EXPECT_EQ(store.Acquire(1, nullptr, model, 1).get(), p1);  // survived
  EXPECT_NE(store.Acquire(2, nullptr, model, 1).get(), p2);  // rebuilt
}

TEST(ShardedSessionStoreTest, PinnedEntriesAreSkippedNotEvicted) {
  auto model = TinyGru();
  serve::SessionStore store(1);
  auto pinned = store.Acquire(1, nullptr, model, 1);
  // Over-cap acquires while user 1 is pinned: the store overshoots rather
  // than freeing a state someone still holds (an ASan regression).
  auto also_pinned = store.Acquire(2, nullptr, model, 1);
  EXPECT_EQ(store.size(), 2);
  EXPECT_EQ(store.Acquire(1, nullptr, model, 1).get(), pinned.get());
  pinned.reset();
  also_pinned.reset();
  // With the pins gone the next miss sweeps the store back under its cap.
  store.Acquire(3, nullptr, model, 1);
  EXPECT_EQ(store.size(), 1);
}

TEST(ShardedSessionStoreTest, VersionMismatchRebuildsInPlace) {
  auto model = TinyGru();
  serve::SessionStore store(0);
  auto v1 = store.Acquire(7, nullptr, model, 1);
  EXPECT_EQ(store.Acquire(7, nullptr, model, 1).get(), v1.get());
  // A version bump (hot reload) must rebuild, never serve the stale state.
  auto v2 = store.Acquire(7, nullptr, model, 2);
  EXPECT_NE(v2.get(), v1.get());
  EXPECT_EQ(store.size(), 1);
  EXPECT_EQ(store.Acquire(7, nullptr, model, 2).get(), v2.get());
}

// The CI TSan job's target: concurrent Acquire (hits, misses, evictions),
// explicit Evicts, and version shifts (the reload path's store-visible
// effect) against one store. Correctness here is "no data race, no lost
// size accounting", which TSan + the final invariants check.
TEST(ShardedSessionStoreTest, ConcurrentAcquireEvictReloadIsRaceFree) {
  auto model = TinyGru();
  serve::SessionStore store(32);
  std::atomic<uint64_t> version{1};
  constexpr int kThreads = 4;
  constexpr int kIters = 400;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const int user = (t * 37 + i * 11) % 64;
        auto handle = store.Acquire(
            user, nullptr, model, version.load(std::memory_order_relaxed));
        EXPECT_NE(handle, nullptr);
        if (i % 13 == 0) store.Evict((user + 1) % 64);
        if (t == 0 && i % 50 == 49) {
          version.fetch_add(1, std::memory_order_relaxed);  // "reload"
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  // All handles dropped: the sweep's first miss restores the cap.
  for (int u = 0; u < 64; ++u) {
    store.Acquire(u, nullptr, model,
                  version.load(std::memory_order_relaxed));
  }
  EXPECT_LE(store.size(), 32);
  EXPECT_GE(store.size(), 1);
}

std::vector<serve::Request> TestSplitRequests(int count) {
  std::vector<serve::Request> requests(count);
  for (int u = 0; u < count; ++u) {
    requests[u].user = TinySplit().test[u].user;
    requests[u].bootstrap = &TinySplit().test[u].history;
  }
  return requests;
}

TEST(ShardedEngineTest, ResponsesBitIdenticalToUnsharded) {
  IsaThreadGuard guard;
  auto model = TinyGru();
  models::Fit(*model, TinySplit(), {.max_epochs = 2, .patience = 1});
  const std::vector<serve::Request> requests = TestSplitRequests(8);
  for (bool int8 : {false, true}) {
    for (int threads : {1, 8}) {
      SetDefaultThreads(threads);
      serve::ServingConfig plain;
      plain.top_k = 5;
      plain.quantize_int8 = int8;
      serve::ServingConfig sharded = plain;
      sharded.score_shards = 7;
      sharded.max_sessions = 16;
      serve::ServingEngine plain_engine(*model, plain);
      serve::ServingEngine sharded_engine(*model, sharded);
      const auto expected = plain_engine.ScoreBatch(requests);
      const auto actual = sharded_engine.ScoreBatch(requests);
      ASSERT_EQ(expected.size(), actual.size());
      for (size_t r = 0; r < expected.size(); ++r) {
        const std::string label = std::string(int8 ? "int8" : "fp32") +
                                  " t" + std::to_string(threads) + " req " +
                                  std::to_string(r);
        ASSERT_EQ(expected[r].items, actual[r].items) << label;
        ASSERT_EQ(expected[r].scores.size(), actual[r].scores.size())
            << label;
        for (size_t j = 0; j < expected[r].scores.size(); ++j) {
          EXPECT_EQ(expected[r].scores[j], actual[r].scores[j]) << label;
        }
      }
    }
  }
}

TEST(ShardedEngineTest, ConfigClampsAndFlagsReachTheStore) {
  auto model = TinyGru();
  serve::ServingConfig sc;
  sc.top_k = 3;
  sc.score_shards = -4;
  serve::ServingEngine engine(*model, sc);
  EXPECT_EQ(engine.config().score_shards, 1);
}

}  // namespace
}  // namespace causer
