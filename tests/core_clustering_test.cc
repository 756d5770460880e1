#include <gtest/gtest.h>

#include <map>

#include "core/clustering.h"
#include "data/generator.h"
#include "nn/optimizer.h"
#include "tensor/autograd.h"
#include "tensor/ops.h"

namespace causer::core {
namespace {

const data::Dataset& TinyData() {
  static data::Dataset d = data::MakeDataset(data::TinySpec());
  return d;
}

std::unique_ptr<ItemClusterer> MakeClusterer(float eta = 0.5f) {
  static Rng rng(55);
  return std::make_unique<ItemClusterer>(TinyData().item_features, 4, 8, 8,
                                         eta, rng);
}

TEST(ClustererTest, Shapes) {
  auto c = MakeClusterer();
  EXPECT_EQ(c->num_items(), TinyData().num_items);
  EXPECT_EQ(c->num_clusters(), 4);
  tensor::Tensor e = c->EncodeAll();
  EXPECT_EQ(e.rows(), TinyData().num_items);
  EXPECT_EQ(e.cols(), 8);
  tensor::Tensor a = c->AssignmentsAll();
  EXPECT_EQ(a.rows(), TinyData().num_items);
  EXPECT_EQ(a.cols(), 4);
}

TEST(ClustererTest, AssignmentsAreDistributions) {
  auto c = MakeClusterer();
  tensor::Tensor a = c->AssignmentsAll();
  for (int r = 0; r < a.rows(); ++r) {
    float total = 0.0f;
    for (int k = 0; k < a.cols(); ++k) {
      EXPECT_GT(a.At(r, k), 0.0f);
      total += a.At(r, k);
    }
    EXPECT_NEAR(total, 1.0f, 1e-5);
  }
}

TEST(ClustererTest, SubsetMatchesFull) {
  auto c = MakeClusterer();
  tensor::Tensor enc_all = c->EncodeAll();
  tensor::Tensor enc_some = c->EncodeItems({5});
  for (int j = 0; j < 8; ++j)
    EXPECT_FLOAT_EQ(enc_some.At(0, j), enc_all.At(5, j));
}

TEST(ClustererTest, LowTemperatureSharpensAssignments) {
  auto soft = MakeClusterer(10.0f);
  auto hard = MakeClusterer(0.01f);
  auto max_of = [](const tensor::Tensor& a, int r) {
    float m = 0.0f;
    for (int k = 0; k < a.cols(); ++k) m = std::max(m, a.At(r, k));
    return m;
  };
  tensor::Tensor sa = soft->AssignmentsAll();
  tensor::Tensor ha = hard->AssignmentsAll();
  double soft_avg = 0, hard_avg = 0;
  for (int r = 0; r < sa.rows(); ++r) {
    soft_avg += max_of(sa, r);
    hard_avg += max_of(ha, r);
  }
  EXPECT_GT(hard_avg, soft_avg);
}

TEST(ClustererTest, LossesDecreaseUnderOptimization) {
  auto c = MakeClusterer();
  nn::Adam opt(c->Parameters(), 0.02f);
  double first_clus = c->ClusteringLoss().Item();
  double first_rec = c->ReconstructionLoss().Item();
  for (int step = 0; step < 80; ++step) {
    tensor::Tensor loss =
        tensor::Add(c->ClusteringLoss(), c->ReconstructionLoss());
    opt.ZeroGrad();
    tensor::Backward(loss);
    opt.Step();
  }
  EXPECT_LT(c->ClusteringLoss().Item(), first_clus);
  EXPECT_LT(c->ReconstructionLoss().Item(), first_rec);
}

TEST(ClustererTest, RecoversTrueClustersAboveChance) {
  // After optimizing Eqs. 7+8, hard assignments should align with the
  // generator's true clusters well above the random-purity baseline.
  auto c = MakeClusterer();
  nn::Adam opt(c->Parameters(), 0.02f);
  for (int step = 0; step < 250; ++step) {
    tensor::Tensor loss =
        tensor::Add(c->ClusteringLoss(), c->ReconstructionLoss());
    opt.ZeroGrad();
    tensor::Backward(loss);
    opt.Step();
  }
  std::vector<int> hard = c->HardAssignments();
  // Purity: for each learned cluster take its majority true cluster.
  std::map<int, std::map<int, int>> table;
  for (int i = 0; i < TinyData().num_items; ++i) {
    table[hard[i]][TinyData().item_true_cluster[i]]++;
  }
  int majority = 0;
  for (const auto& [learned, counts] : table) {
    int best = 0;
    for (const auto& [truth, n] : counts) best = std::max(best, n);
    majority += best;
  }
  double purity = static_cast<double>(majority) / TinyData().num_items;
  EXPECT_GT(purity, 0.5) << "purity " << purity;  // chance is ~0.25-0.4
}

TEST(ClustererTest, HardAssignmentsInRange) {
  auto c = MakeClusterer();
  for (int h : c->HardAssignments()) {
    EXPECT_GE(h, 0);
    EXPECT_LT(h, 4);
  }
}

}  // namespace
}  // namespace causer::core
