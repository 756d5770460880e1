// Arena allocator tests: block management, scope semantics, and — most
// importantly — that routing the autograd tape through arenas changes no
// computed number anywhere (allocation is not arithmetic).

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "data/generator.h"
#include "data/split.h"
#include "models/gru4rec.h"
#include "tensor/arena.h"
#include "tensor/autograd.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace causer::tensor {
namespace {

struct ThreadCountGuard {
  int saved = DefaultThreads();
  ~ThreadCountGuard() { SetDefaultThreads(saved); }
};

// Restores the global arena toggle, so a failing test cannot leak a
// disabled arena into the rest of the suite.
struct ArenaEnabledGuard {
  bool saved = ArenaEnabled();
  ~ArenaEnabledGuard() { SetArenaEnabled(saved); }
};

TEST(ArenaTest, AllocationsAreAligned) {
  Arena arena(/*first_block_bytes=*/256);
  for (size_t bytes : {1u, 3u, 63u, 64u, 65u, 1000u}) {
    void* p = arena.Allocate(bytes);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % Arena::kAlignment, 0u)
        << "unaligned allocation of " << bytes << " bytes";
  }
}

TEST(ArenaTest, HeapBuffersAreAlignedLikeArenaOnes) {
  // Outside any scope FloatBuffer falls back to the heap, whose malloc
  // alignment (16) would leave a table's placement to allocator history.
  std::vector<FloatBuffer> buffers;
  for (size_t floats : {1u, 3u, 17u, 64u, 1000u, 1280000u}) {
    buffers.emplace_back(floats, 1.0f);
    ASSERT_EQ(buffers.back().get_allocator().arena(), nullptr);
    EXPECT_EQ(
        reinterpret_cast<uintptr_t>(buffers.back().data()) % Arena::kAlignment,
        0u)
        << "unaligned heap buffer of " << floats << " floats";
  }
}

TEST(ArenaTest, ResetRewindsAndReusesStorage) {
  Arena arena(1024);
  void* first = arena.Allocate(100);
  arena.Allocate(200);
  EXPECT_GT(arena.bytes_in_use(), 0u);
  const size_t reserved = arena.bytes_reserved();
  arena.Reset();
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  EXPECT_EQ(arena.bytes_reserved(), reserved);  // blocks retained
  // The first post-Reset allocation lands exactly where the first one did.
  EXPECT_EQ(arena.Allocate(100), first);
}

TEST(ArenaTest, GrowsGeometricallyAndOwnsAllBlocks) {
  Arena arena(128);
  std::vector<void*> ptrs;
  for (int i = 0; i < 20; ++i) ptrs.push_back(arena.Allocate(100));
  EXPECT_GT(arena.num_blocks(), 1u);
  for (void* p : ptrs) EXPECT_TRUE(arena.Owns(p));
  int heap_value = 0;
  EXPECT_FALSE(arena.Owns(&heap_value));
  // Reset keeps every block: the same sequence fits without new blocks.
  const size_t blocks = arena.num_blocks();
  arena.Reset();
  for (int i = 0; i < 20; ++i) arena.Allocate(100);
  EXPECT_EQ(arena.num_blocks(), blocks);
}

TEST(ArenaTest, OversizedAllocationGetsDedicatedBlock) {
  Arena arena(64);
  void* big = arena.Allocate(1 << 16);  // far larger than the first block
  ASSERT_NE(big, nullptr);
  EXPECT_TRUE(arena.Owns(big));
  EXPECT_EQ(reinterpret_cast<uintptr_t>(big) % Arena::kAlignment, 0u);
}

TEST(ArenaScopeTest, ActivatesThreadLocalArenaAndResetsOnExit) {
  ASSERT_EQ(ActiveArena(), nullptr);
  {
    ArenaScope scope;
    ASSERT_TRUE(scope.active());
    Arena* arena = ActiveArena();
    ASSERT_NE(arena, nullptr);
    arena->Allocate(100);
    EXPECT_GT(arena->bytes_in_use(), 0u);
    {
      // Nested scope: no arena switch, no reset on inner exit.
      ArenaScope inner;
      EXPECT_FALSE(inner.active());
      EXPECT_EQ(ActiveArena(), arena);
    }
    EXPECT_EQ(ActiveArena(), arena);
    EXPECT_GT(arena->bytes_in_use(), 0u) << "inner scope must not reset";
  }
  EXPECT_EQ(ActiveArena(), nullptr);
}

TEST(ArenaScopeTest, DisabledToggleMakesScopesNoOps) {
  ArenaEnabledGuard guard;
  SetArenaEnabled(false);
  ArenaScope scope;
  EXPECT_FALSE(scope.active());
  EXPECT_EQ(ActiveArena(), nullptr);
}

TEST(ArenaScopeTest, TapeBuffersComeFromArenaAndMatchHeapBitwise) {
  Rng heap_rng(11);
  Tensor ha = Tensor::RandomNormal(5, 7, 1.0f, heap_rng, true);
  Tensor hb = Tensor::RandomNormal(7, 3, 1.0f, heap_rng, true);
  Tensor hc = MatMul(ha, hb);
  Backward(Sum(hc));

  Rng arena_rng(11);
  ArenaScope scope;
  ASSERT_TRUE(scope.active());
  Tensor a = Tensor::RandomNormal(5, 7, 1.0f, arena_rng, true);
  Tensor b = Tensor::RandomNormal(7, 3, 1.0f, arena_rng, true);
  Tensor c = MatMul(a, b);
  Backward(Sum(c));

  Arena* arena = ActiveArena();
  EXPECT_TRUE(arena->Owns(c.data().data()));
  EXPECT_TRUE(arena->Owns(a.grad().data()));
  std::vector<float> cv(c.data().begin(), c.data().end());
  std::vector<float> hcv(hc.data().begin(), hc.data().end());
  EXPECT_EQ(cv, hcv);
  std::vector<float> ga(a.grad().begin(), a.grad().end());
  std::vector<float> hga(ha.grad().begin(), ha.grad().end());
  EXPECT_EQ(ga, hga);
}

TEST(ArenaScopeTest, CopiesMadeOutsideScopeLandOnHeap) {
  // The escape hatch the trainer relies on: copying an arena-backed buffer
  // into a container constructed outside the scope uses heap storage, so it
  // survives the scope's Reset().
  std::vector<float> escaped;
  {
    ArenaScope scope;
    ASSERT_TRUE(scope.active());
    Tensor t = Tensor::Full(4, 4, 2.5f);
    ASSERT_TRUE(ActiveArena()->Owns(t.data().data()));
    escaped.assign(t.data().begin(), t.data().end());
    EXPECT_FALSE(ActiveArena()->Owns(escaped.data()));
  }
  for (float v : escaped) EXPECT_EQ(v, 2.5f);
}

TEST(ArenaScopeTest, ParametersOutsideScopeKeepHeapGradients) {
  Rng rng(5);
  Tensor param = Tensor::RandomNormal(3, 3, 1.0f, rng, true);
  std::vector<float> first_grads;
  for (int pass = 0; pass < 2; ++pass) {
    param.ZeroGrad();
    ArenaScope scope;
    ASSERT_TRUE(scope.active());
    Tensor loss = Sum(MatMul(param, param));
    Backward(loss);
    // The gradient buffer belongs to the heap-created parameter node, not
    // the tape: it must survive the scope (and its values must repeat
    // exactly when the pass repeats, proving no reuse corruption).
    EXPECT_FALSE(ActiveArena()->Owns(param.grad().data()));
    std::vector<float> grads(param.grad().begin(), param.grad().end());
    if (pass == 0) {
      first_grads = grads;
    } else {
      EXPECT_EQ(grads, first_grads);
    }
  }
  for (float g : param.grad()) EXPECT_TRUE(g != 0.0f);
}

TEST(ArenaScopeTest, ParamSubstitutionScopeWithShadowClones) {
  // Mirrors RepresentationModel::TrainEpoch's shards 1..: shadows cloned
  // *outside* any arena scope (heap), then graphs built against them
  // inside per-example scopes.
  Rng rng(9);
  std::vector<Tensor> params = {Tensor::RandomNormal(4, 4, 1.0f, rng, true)};
  std::vector<Tensor> shadows = {params[0].Clone(/*requires_grad=*/true)};
  std::vector<float> first_grads;
  for (int pass = 0; pass < 3; ++pass) {
    shadows[0].ZeroGrad();
    ArenaScope scope;
    ASSERT_TRUE(scope.active());
    ParamSubstitutionScope subst(params, shadows);
    Tensor loss = Sum(MatMul(params[0], params[0]));  // resolves to shadow
    Backward(loss);
    EXPECT_FALSE(ActiveArena()->Owns(shadows[0].grad().data()));
    std::vector<float> grads(shadows[0].grad().begin(),
                             shadows[0].grad().end());
    if (pass == 0) {
      bool any = false;
      for (float g : grads) any = any || g != 0.0f;
      EXPECT_TRUE(any);
      first_grads = grads;
    } else {
      EXPECT_EQ(grads, first_grads) << "pass " << pass;
    }
    for (float g : params[0].grad()) EXPECT_EQ(g, 0.0f);
  }
}

models::ModelConfig SmokeConfig(const data::Dataset& dataset, int batch_size) {
  models::ModelConfig cfg;
  cfg.num_users = dataset.num_users;
  cfg.num_items = dataset.num_items;
  cfg.item_features = &dataset.item_features;
  cfg.embedding_dim = 8;
  cfg.hidden_dim = 8;
  cfg.batch_size = batch_size;
  return cfg;
}

// Full trainer equivalence: arena on vs. off yields bit-identical epoch
// losses and parameters, for a batch of one (live parameters only) and for
// batches of 8 on 4 threads (shadow shards).
TEST(ArenaTrainingTest, SequentialEpochBitIdenticalWithArenaOnAndOff) {
  ArenaEnabledGuard guard;
  data::Dataset dataset = data::MakeDataset(data::TinySpec());
  data::Split split = data::LeaveLastOut(dataset);
  auto run = [&](bool arena_on) {
    SetArenaEnabled(arena_on);
    models::Gru4Rec model(SmokeConfig(dataset, /*batch_size=*/1));
    std::vector<double> losses;
    for (int e = 0; e < 2; ++e) losses.push_back(model.TrainEpoch(split.train));
    std::vector<float> weights;
    for (const auto& p : model.Parameters())
      weights.insert(weights.end(), p.data().begin(), p.data().end());
    return std::make_pair(losses, weights);
  };
  auto on = run(true);
  auto off = run(false);
  EXPECT_EQ(on.first, off.first);
  EXPECT_EQ(on.second, off.second);
}

TEST(ArenaTrainingTest, BatchedEpochBitIdenticalWithArenaOnAndOff) {
  ArenaEnabledGuard guard;
  ThreadCountGuard threads_guard;
  data::Dataset dataset = data::MakeDataset(data::TinySpec());
  data::Split split = data::LeaveLastOut(dataset);
  auto run = [&](bool arena_on) {
    SetArenaEnabled(arena_on);
    SetDefaultThreads(4);
    models::Gru4Rec model(SmokeConfig(dataset, /*batch_size=*/8));
    std::vector<double> losses;
    for (int e = 0; e < 2; ++e) losses.push_back(model.TrainEpoch(split.train));
    std::vector<float> weights;
    for (const auto& p : model.Parameters())
      weights.insert(weights.end(), p.data().begin(), p.data().end());
    return std::make_pair(losses, weights);
  };
  auto on = run(true);
  auto off = run(false);
  EXPECT_EQ(on.first, off.first);
  EXPECT_EQ(on.second, off.second);
}

}  // namespace
}  // namespace causer::tensor
