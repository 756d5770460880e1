#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <vector>

#include "data/generator.h"
#include "data/split.h"
#include "eval/evaluator.h"
#include "models/gru4rec.h"
#include "tensor/autograd.h"
#include "tensor/ops.h"

namespace causer {
namespace {

/// Restores the process-wide thread count on scope exit so tests cannot
/// leak a parallel configuration into each other.
struct ThreadCountGuard {
  int saved = DefaultThreads();
  ~ThreadCountGuard() { SetDefaultThreads(saved); }
};

TEST(ThreadPoolTest, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  pool.ParallelFor(0, 1000, [&](int begin, int end) {
    for (int i = begin; i < end; ++i) ++hits[i];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, EmptyAndSingleElementRanges) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(5, 5, [&](int, int) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(3, 4, [&](int begin, int end) {
    EXPECT_EQ(begin, 3);
    EXPECT_EQ(end, 4);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, ReusableAcrossRegions) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> sum{0};
    pool.ParallelFor(0, 64, [&](int begin, int end) {
      int local = 0;
      for (int i = begin; i < end; ++i) local += i;
      sum += local;
    });
    EXPECT_EQ(sum.load(), 64 * 63 / 2);
  }
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::vector<int> hits(256, 0);
  pool.ParallelFor(0, 4, [&](int begin, int end) {
    for (int s = begin; s < end; ++s) {
      // Nested region: must run inline on this thread, touching only this
      // shard's slice, with no deadlock.
      pool.ParallelFor(s * 64, (s + 1) * 64, [&](int lo, int hi) {
        for (int i = lo; i < hi; ++i) ++hits[i];
      });
    }
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsCallerInline) {
  ThreadPool pool(1);
  bool called = false;
  pool.ParallelFor(0, 10, [&](int begin, int end) {
    EXPECT_EQ(begin, 0);
    EXPECT_EQ(end, 10);
    called = true;
  });
  EXPECT_TRUE(called);
}

TEST(DefaultPoolTest, ResizesOnDemand) {
  ThreadCountGuard guard;
  SetDefaultThreads(3);
  EXPECT_EQ(DefaultThreads(), 3);
  EXPECT_EQ(DefaultPool().num_threads(), 3);
  SetDefaultThreads(1);
  EXPECT_EQ(DefaultPool().num_threads(), 1);
  SetDefaultThreads(0);  // clamped
  EXPECT_EQ(DefaultThreads(), 1);
}

tensor::Tensor RandomMatrix(int rows, int cols, Rng& rng) {
  return tensor::Tensor::RandomUniform(rows, cols, -1.0f, 1.0f, rng);
}

TEST(ParallelMatMulTest, BitExactAcrossThreadCounts) {
  ThreadCountGuard guard;
  Rng rng(42);
  // Big enough to clear the parallel dispatch threshold (64*96*64 ops).
  tensor::Tensor a = RandomMatrix(64, 96, rng);
  tensor::Tensor b = RandomMatrix(96, 64, rng);

  SetDefaultThreads(1);
  tensor::Tensor sequential = tensor::MatMul(a, b);
  for (int threads : {2, 4, 8}) {
    SetDefaultThreads(threads);
    tensor::Tensor parallel = tensor::MatMul(a, b);
    ASSERT_EQ(sequential.data(), parallel.data())
        << "threads=" << threads << " diverged from sequential";
  }
}

TEST(ParallelMatMulTest, BackwardBitExactAcrossThreadCounts) {
  ThreadCountGuard guard;
  Rng rng(43);
  auto run = [&](int threads) {
    SetDefaultThreads(threads);
    Rng local(7);
    tensor::Tensor a = RandomMatrix(48, 64, local);
    tensor::Tensor b =
        tensor::Tensor::RandomUniform(64, 48, -1.0f, 1.0f, local, true);
    tensor::Tensor loss = tensor::Sum(tensor::MatMul(a, b));
    tensor::Backward(loss);
    return b.grad();
  };
  auto g1 = run(1);
  auto g4 = run(4);
  EXPECT_EQ(g1, g4);
}

eval::Scorer MakeSyntheticScorer(int num_items) {
  return [num_items](const data::EvalInstance& inst) {
    std::vector<float> scores(num_items);
    for (int i = 0; i < num_items; ++i) {
      scores[i] = static_cast<float>(((inst.user + 1) * (i + 3)) % 97) / 97.0f;
    }
    return scores;
  };
}

TEST(ParallelEvaluateTest, BitIdenticalToSequential) {
  ThreadCountGuard guard;
  std::vector<data::EvalInstance> instances(37);
  for (int i = 0; i < 37; ++i) {
    instances[i].user = i;
    instances[i].target_items = {i % 50, (i * 7) % 50};
  }
  auto scorer = MakeSyntheticScorer(50);
  SetDefaultThreads(1);
  eval::EvalResult sequential = eval::Evaluate(scorer, instances, 5);
  for (int threads : {2, 4, 8}) {
    eval::EvalResult parallel =
        eval::Evaluate(scorer, instances, 5, threads);
    EXPECT_EQ(sequential.f1, parallel.f1) << "threads=" << threads;
    EXPECT_EQ(sequential.ndcg, parallel.ndcg) << "threads=" << threads;
    EXPECT_EQ(sequential.per_instance_f1, parallel.per_instance_f1);
    EXPECT_EQ(sequential.per_instance_ndcg, parallel.per_instance_ndcg);
  }
}

TEST(ParallelEvaluateTest, RealModelScoresMatchSequential) {
  ThreadCountGuard guard;
  data::Dataset dataset = data::MakeDataset(data::TinySpec());
  data::Split split = data::LeaveLastOut(dataset);
  models::ModelConfig cfg;
  cfg.num_users = dataset.num_users;
  cfg.num_items = dataset.num_items;
  cfg.item_features = &dataset.item_features;
  models::Gru4Rec model(cfg);
  model.TrainEpoch(split.train);
  auto scorer = models::MakeScorer(model);
  eval::EvalResult sequential = eval::Evaluate(scorer, split.test, 5, 1);
  eval::EvalResult parallel = eval::Evaluate(scorer, split.test, 5, 4);
  EXPECT_EQ(sequential.per_instance_ndcg, parallel.per_instance_ndcg);
  EXPECT_EQ(sequential.f1, parallel.f1);
}

models::ModelConfig BatchedConfig(const data::Dataset& dataset,
                                  int batch_size) {
  models::ModelConfig cfg;
  cfg.num_users = dataset.num_users;
  cfg.num_items = dataset.num_items;
  cfg.item_features = &dataset.item_features;
  cfg.batch_size = batch_size;
  return cfg;
}

TEST(BatchedTrainingTest, DeterministicForFixedThreadCount) {
  ThreadCountGuard guard;
  data::Dataset dataset = data::MakeDataset(data::TinySpec());
  data::Split split = data::LeaveLastOut(dataset);
  // Batch size 1 is the one-shard batch (live parameters only); at 8 and
  // 4 threads, shards 1.. copy the live values while shard 0 writes the
  // live gradients.
  for (int batch_size : {1, 8}) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE("batch_size=" + std::to_string(batch_size) +
                   " threads=" + std::to_string(threads));
      SetDefaultThreads(threads);
      auto run = [&] {
        models::Gru4Rec model(BatchedConfig(dataset, batch_size));
        std::vector<double> losses;
        for (int e = 0; e < 2; ++e)
          losses.push_back(model.TrainEpoch(split.train));
        return losses;
      };
      EXPECT_EQ(run(), run());
    }
  }
}

TEST(BatchedTrainingTest, ThreadCountOnlyPerturbsRounding) {
  ThreadCountGuard guard;
  data::Dataset dataset = data::MakeDataset(data::TinySpec());
  data::Split split = data::LeaveLastOut(dataset);
  auto run = [&](int threads) {
    SetDefaultThreads(threads);
    models::Gru4Rec model(BatchedConfig(dataset, 8));
    return model.TrainEpoch(split.train);
  };
  double l1 = run(1);
  double l4 = run(4);
  // The per-shard gradient reduce changes float summation order, nothing
  // else; losses must agree tightly (they are sums of per-example forward
  // passes on near-identical parameters).
  EXPECT_NEAR(l1, l4, 1e-3 * (1.0 + std::abs(l1)));
}

TEST(BatchedTrainingTest, BatchedTrainingLearns) {
  ThreadCountGuard guard;
  SetDefaultThreads(4);
  data::Dataset dataset = data::MakeDataset(data::TinySpec());
  data::Split split = data::LeaveLastOut(dataset);
  models::Gru4Rec model(BatchedConfig(dataset, 8));
  double first = model.TrainEpoch(split.train);
  double last = first;
  for (int e = 0; e < 4; ++e) last = model.TrainEpoch(split.train);
  EXPECT_LT(last, first);
}

}  // namespace
}  // namespace causer
