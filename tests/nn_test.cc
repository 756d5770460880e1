#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/serial.h"
#include "models/gru4rec.h"
#include "nn/attention.h"
#include "nn/embedding.h"
#include "nn/init.h"
#include "nn/layer_norm.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "nn/optimizer.h"
#include "nn/rnn_cells.h"
#include "tensor/autograd.h"
#include "tensor/ops.h"

namespace causer::nn {
namespace {

using tensor::Backward;
using tensor::Tensor;

Rng& TestRng() {
  static Rng rng(999);
  return rng;
}

TEST(InitTest, XavierBounds) {
  Rng rng(1);
  Tensor w = XavierUniform(10, 20, rng);
  float bound = std::sqrt(6.0f / 30.0f);
  for (float v : w.data()) {
    EXPECT_GE(v, -bound);
    EXPECT_LE(v, bound);
  }
  EXPECT_TRUE(w.requires_grad());
}

TEST(InitTest, ZeroParam) {
  Tensor b = ZeroParam(1, 5);
  for (float v : b.data()) EXPECT_EQ(v, 0.0f);
  EXPECT_TRUE(b.requires_grad());
}

TEST(ModuleTest, ParameterAggregation) {
  Linear a(3, 4, TestRng());
  Linear b(4, 2, TestRng(), /*with_bias=*/false);
  EXPECT_EQ(a.Parameters().size(), 2u);  // weight + bias
  EXPECT_EQ(b.Parameters().size(), 1u);
  EXPECT_EQ(a.NumParameters(), 3 * 4 + 4);
  EXPECT_EQ(b.NumParameters(), 4 * 2);
}

TEST(ModuleTest, ZeroGradClears) {
  Linear lin(2, 2, TestRng());
  Tensor x = Tensor::Full(1, 2, 1.0f);
  Backward(tensor::SquaredNorm(lin.Forward(x)));
  bool any = false;
  for (float g : lin.weight().grad()) any = any || g != 0.0f;
  EXPECT_TRUE(any);
  lin.ZeroGrad();
  for (float g : lin.weight().grad()) EXPECT_EQ(g, 0.0f);
}

TEST(LinearTest, ForwardMatchesManual) {
  Rng rng(2);
  Linear lin(2, 3, rng);
  Tensor x = Tensor::FromData(1, 2, {1.0f, -2.0f});
  Tensor y = lin.Forward(x);
  for (int c = 0; c < 3; ++c) {
    float expected = lin.weight().At(0, c) * 1.0f +
                     lin.weight().At(1, c) * -2.0f + lin.bias().At(0, c);
    EXPECT_NEAR(y.At(0, c), expected, 1e-5);
  }
}

TEST(LinearTest, BatchForward) {
  Linear lin(3, 2, TestRng());
  Tensor x = Tensor::Zeros(5, 3);
  Tensor y = lin.Forward(x);
  EXPECT_EQ(y.rows(), 5);
  EXPECT_EQ(y.cols(), 2);
}

TEST(MlpTest, ForwardShapeAndGrad) {
  Mlp mlp({4, 8, 2}, TestRng());
  Tensor x = Tensor::Full(3, 4, 0.5f);
  Tensor y = mlp.Forward(x);
  EXPECT_EQ(y.rows(), 3);
  EXPECT_EQ(y.cols(), 2);
  Backward(tensor::SquaredNorm(y));
  for (const auto& p : mlp.Parameters()) {
    EXPECT_FALSE(p.grad().empty());
  }
}

TEST(EmbeddingTest, RowLookup) {
  Embedding emb(5, 3, TestRng());
  Tensor row = emb.Row(2);
  EXPECT_EQ(row.rows(), 1);
  for (int c = 0; c < 3; ++c) EXPECT_EQ(row.At(0, c), emb.weight().At(2, c));
}

TEST(EmbeddingTest, GradientOnlyOnLookedUpRows) {
  Embedding emb(4, 2, TestRng());
  Backward(tensor::SquaredNorm(emb.Forward({1, 3})));
  const auto& g = emb.weight().grad();
  EXPECT_EQ(g[0 * 2], 0.0f);
  EXPECT_EQ(g[2 * 2], 0.0f);
  bool row1 = g[1 * 2] != 0.0f || g[1 * 2 + 1] != 0.0f;
  bool row3 = g[3 * 2] != 0.0f || g[3 * 2 + 1] != 0.0f;
  EXPECT_TRUE(row1);
  EXPECT_TRUE(row3);
}

TEST(GruCellTest, OutputShapeAndRange) {
  GruCell cell(3, 4, TestRng());
  Tensor x = Tensor::Full(1, 3, 0.5f);
  Tensor h = cell.InitialState();
  h = cell.Forward(x, h);
  EXPECT_EQ(h.rows(), 1);
  EXPECT_EQ(h.cols(), 4);
  for (float v : h.data()) {
    EXPECT_GT(v, -1.0f);
    EXPECT_LT(v, 1.0f);
  }
}

TEST(GruCellTest, ZeroStatePersistsWithZeroInput) {
  GruCell cell(2, 3, TestRng());
  Tensor x = Tensor::Zeros(1, 2);
  Tensor h = cell.Forward(x, cell.InitialState());
  // With zero biases the candidate is tanh(0)=0, so the state stays 0.
  for (float v : h.data()) EXPECT_NEAR(v, 0.0f, 1e-6);
}

TEST(GruCellTest, GradientsFlowThroughTime) {
  GruCell cell(2, 3, TestRng());
  Tensor x = Tensor::Full(1, 2, 0.7f);
  Tensor h = cell.InitialState();
  for (int t = 0; t < 5; ++t) h = cell.Forward(x, h);
  Backward(tensor::SquaredNorm(h));
  int with_grad = 0;
  for (const auto& p : cell.Parameters()) {
    for (float g : p.grad()) {
      if (g != 0.0f) {
        ++with_grad;
        break;
      }
    }
  }
  EXPECT_GT(with_grad, 5);
}

TEST(LstmCellTest, ShapesAndGradients) {
  LstmCell cell(3, 4, TestRng());
  LstmState s = cell.InitialState();
  Tensor x = Tensor::Full(1, 3, 0.3f);
  for (int t = 0; t < 4; ++t) s = cell.Forward(x, s);
  EXPECT_EQ(s.h.cols(), 4);
  EXPECT_EQ(s.c.cols(), 4);
  Backward(tensor::SquaredNorm(s.h));
  EXPECT_FALSE(cell.Parameters()[0].grad().empty());
}

TEST(LstmCellTest, BatchedState) {
  LstmCell cell(2, 3, TestRng());
  LstmState s = cell.InitialState(4);
  EXPECT_EQ(s.h.rows(), 4);
  Tensor x = Tensor::Zeros(4, 2);
  s = cell.Forward(x, s);
  EXPECT_EQ(s.h.rows(), 4);
}

// -- Raw cell steps: the serve folds' tape-free twins of Forward ----------

/// Scales every weight of `cell` by `scale` and gives the (zero-initialized)
/// biases values in [-2, 2], so gate pre-activations reach about +-20 and
/// the reordering of `(xW + hU) + b` shows in the bits.
void Saturate(Module& cell, float scale, Rng& rng) {
  for (Tensor p : cell.Parameters()) {
    const bool bias = p.rows() == 1;
    for (float& v : p.data()) {
      v = bias ? static_cast<float>(rng.Uniform(-2.0, 2.0)) : v * scale;
    }
  }
}

/// Twelve random input rows of `dim` entries in [-3, 3].
std::vector<Tensor> RandomInputs(int dim, Rng& rng) {
  std::vector<Tensor> xs;
  for (int t = 0; t < 12; ++t) {
    xs.push_back(Tensor::RandomUniform(1, dim, -3.0f, 3.0f, rng));
  }
  return xs;
}

/// The range of gate pre-activations `x W + h U + b` over the steps, for
/// the gate whose parameters start at Parameters()[first].
void PreActivationRange(const Module& cell, int first, const Tensor& x,
                        const Tensor& h, float* lo, float* hi) {
  const auto params = cell.Parameters();
  Tensor pre = tensor::Add(
      tensor::Add(tensor::MatMul(x, params[first]),
                  tensor::MatMul(h, params[first + 1])),
      params[first + 2]);
  for (float v : pre.data()) {
    *lo = std::min(*lo, v);
    *hi = std::max(*hi, v);
  }
}

TEST(RawStepTest, GruStepMatchesForwardBitForBit) {
  Rng rng(41);
  GruCell cell(5, 7, rng);  // input_dim != hidden_dim
  Saturate(cell, 6.0f, rng);
  const std::vector<Tensor> xs = RandomInputs(5, rng);
  tensor::NoGradGuard guard;
  Tensor h = cell.InitialState();
  std::vector<float> raw(7);
  float lo = 0.0f, hi = 0.0f;
  for (int t = 0; t < 12; ++t) {
    for (int gate = 0; gate < 9; gate += 3) {
      PreActivationRange(cell, gate, xs[t], h, &lo, &hi);
    }
    h = cell.Forward(xs[t], h);
    // The first step runs from the null (zero) state, the rest in place.
    cell.Step(xs[t].data().data(), t == 0 ? nullptr : raw.data(),
              raw.data());
    for (int j = 0; j < 7; ++j) {
      ASSERT_EQ(raw[j], h.At(0, j)) << "step " << t << " unit " << j;
    }
  }
  // Both sigmoid branches and saturation were exercised.
  EXPECT_LT(lo, -15.0f);
  EXPECT_GT(hi, 15.0f);
}

TEST(RawStepTest, LstmStepMatchesForwardBitForBit) {
  Rng rng(43);
  LstmCell cell(6, 4, rng);
  Saturate(cell, 6.0f, rng);
  const std::vector<Tensor> xs = RandomInputs(6, rng);
  tensor::NoGradGuard guard;
  LstmState s = cell.InitialState();
  std::vector<float> h(4), c(4);
  float lo = 0.0f, hi = 0.0f;
  for (int t = 0; t < 12; ++t) {
    for (int gate = 0; gate < 12; gate += 3) {
      PreActivationRange(cell, gate, xs[t], s.h, &lo, &hi);
    }
    s = cell.Forward(xs[t], s);
    cell.Step(xs[t].data().data(), t == 0 ? nullptr : h.data(),
              t == 0 ? nullptr : c.data(), h.data(), c.data());
    for (int j = 0; j < 4; ++j) {
      ASSERT_EQ(h[j], s.h.At(0, j)) << "step " << t << " unit " << j;
      ASSERT_EQ(c[j], s.c.At(0, j)) << "step " << t << " unit " << j;
    }
  }
  EXPECT_LT(lo, -15.0f);
  EXPECT_GT(hi, 15.0f);
}

TEST(RawStepTest, NullStateIsExplicitZeros) {
  Rng rng(47);
  GruCell gru(3, 5, rng);
  LstmCell lstm(3, 5, rng);
  Saturate(gru, 4.0f, rng);
  Saturate(lstm, 4.0f, rng);
  const std::vector<float> x = {1.5f, -2.0f, 0.25f};
  const std::vector<float> zeros(5, 0.0f);
  std::vector<float> from_null(5), from_zeros(5);
  gru.Step(x.data(), nullptr, from_null.data());
  gru.Step(x.data(), zeros.data(), from_zeros.data());
  EXPECT_EQ(from_null, from_zeros);
  std::vector<float> c_null(5), c_zeros(5);
  lstm.Step(x.data(), nullptr, nullptr, from_null.data(), c_null.data());
  lstm.Step(x.data(), zeros.data(), zeros.data(), from_zeros.data(),
            c_zeros.data());
  EXPECT_EQ(from_null, from_zeros);
  EXPECT_EQ(c_null, c_zeros);
}

/// Exposes Gru4Rec's tape encoder so the raw fold can be held against it.
class ExposedGru4Rec : public models::Gru4Rec {
 public:
  using models::Gru4Rec::Gru4Rec;
  using models::Gru4Rec::Represent;
};

TEST(RawStepTest, Gru4RecStateRepIsRepresentRow) {
  models::ModelConfig config;
  config.num_users = 4;
  config.num_items = 40;
  config.embedding_dim = 6;
  config.hidden_dim = 9;
  config.max_history = 5;  // 15 appends slide the window ten times
  ExposedGru4Rec model(config);
  models::SessionState state;
  std::vector<data::Step> history;
  std::vector<float> rep(6);
  for (int t = 0; t < 15; ++t) {
    data::Step step;
    // One to three items per step, and one empty step.
    for (int k = 0; k < (t == 6 ? 0 : 1 + t % 3); ++k) {
      step.items.push_back((t * 7 + k * 13) % config.num_items);
    }
    model.AdvanceState(state, step);
    history.push_back(step);
    const std::vector<data::Step> window(
        history.end() - std::min<size_t>(history.size(), 5), history.end());
    ASSERT_TRUE(model.StateRep(state, rep.data()));
    tensor::NoGradGuard guard;
    Tensor expected = model.Represent(0, window);
    for (int j = 0; j < 6; ++j) {
      ASSERT_EQ(rep[j], expected.At(0, j)) << "append " << t << " dim " << j;
    }
    ASSERT_EQ(model.ScoreFromState(state), model.ScoreAll(0, history));
  }
}

TEST(BilinearAttentionTest, WeightsFormDistribution) {
  BilinearAttention att(4, TestRng());
  Rng rng(3);
  Tensor h = Tensor::RandomNormal(6, 4, 1.0f, rng);
  Tensor q = Tensor::RandomNormal(1, 4, 1.0f, rng);
  Tensor w = att.Weights(h, q);
  EXPECT_EQ(w.rows(), 6);
  EXPECT_EQ(w.cols(), 1);
  float total = 0.0f;
  for (int r = 0; r < 6; ++r) {
    EXPECT_GT(w.At(r, 0), 0.0f);
    total += w.At(r, 0);
  }
  EXPECT_NEAR(total, 1.0f, 1e-5);
}

TEST(BilinearAttentionTest, PoolIsConvexCombination) {
  BilinearAttention att(3, TestRng());
  Tensor h = Tensor::Full(4, 3, 0.6f);
  Tensor q = Tensor::Full(1, 3, 0.2f);
  Tensor pooled = att.Pool(h, q);
  for (int c = 0; c < 3; ++c) EXPECT_NEAR(pooled.At(0, c), 0.6f, 1e-5);
}

TEST(CausalSelfAttentionTest, OutputShape) {
  CausalSelfAttention att(4, TestRng());
  Rng rng(4);
  Tensor x = Tensor::RandomNormal(5, 4, 1.0f, rng);
  Tensor y = att.Forward(x);
  EXPECT_EQ(y.rows(), 5);
  EXPECT_EQ(y.cols(), 4);
}

TEST(CausalSelfAttentionTest, MaskPreventsFutureLeakage) {
  CausalSelfAttention att(3, TestRng());
  Rng rng(5);
  Tensor x1 = Tensor::RandomNormal(4, 3, 1.0f, rng);
  Tensor x2 = x1.Clone();
  x2.At(3, 0) += 10.0f;  // change only the last position
  Tensor y1 = att.Forward(x1);
  Tensor y2 = att.Forward(x2);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) EXPECT_NEAR(y1.At(r, c), y2.At(r, c), 1e-5);
  }
}

TEST(LayerNormTest, NormalizesRows) {
  LayerNorm norm(4);
  Rng rng(31);
  Tensor x = Tensor::RandomNormal(3, 4, 5.0f, rng);
  Tensor y = norm.Forward(x);
  // With gamma = 1, beta = 0 each output row has mean ~0 and variance ~1.
  for (int r = 0; r < 3; ++r) {
    float mean = 0.0f, var = 0.0f;
    for (int c = 0; c < 4; ++c) mean += y.At(r, c);
    mean /= 4;
    for (int c = 0; c < 4; ++c) {
      float d = y.At(r, c) - mean;
      var += d * d;
    }
    var /= 4;
    EXPECT_NEAR(mean, 0.0f, 1e-4);
    EXPECT_NEAR(var, 1.0f, 1e-2);
  }
}

TEST(LayerNormTest, AffineParametersApplied) {
  LayerNorm norm(2);
  // gamma and beta are the first two registered parameters.
  auto params = norm.Parameters();
  params[0].At(0, 0) = 3.0f;  // gamma
  params[1].At(0, 1) = 7.0f;  // beta
  Tensor x = Tensor::FromData(1, 2, {1.0f, -1.0f});
  Tensor y = norm.Forward(x);
  // Normalized row is (1, -1); gamma scales col 0 by 3, beta shifts col 1.
  EXPECT_NEAR(y.At(0, 0), 3.0f, 1e-3);
  EXPECT_NEAR(y.At(0, 1), 6.0f, 1e-3);
}

TEST(LayerNormTest, GradientsFlow) {
  LayerNorm norm(3);
  Rng rng(32);
  Tensor x = Tensor::RandomNormal(2, 3, 1.0f, rng, /*requires_grad=*/true);
  tensor::Backward(tensor::SquaredNorm(norm.Forward(x)));
  EXPECT_FALSE(x.grad().empty());
  for (const auto& p : norm.Parameters()) EXPECT_FALSE(p.grad().empty());
}

TEST(AdamTest, ConvergesOnQuadratic) {
  Tensor x = Tensor::Full(1, 2, 3.0f, true);
  Adam opt({x}, 0.1f);
  for (int i = 0; i < 300; ++i) {
    opt.ZeroGrad();
    Backward(tensor::SquaredNorm(x));
    opt.Step();
  }
  EXPECT_NEAR(x.At(0, 0), 0.0f, 1e-3);
  EXPECT_NEAR(x.At(0, 1), 0.0f, 1e-3);
}

TEST(AdamTest, StableAtHighStepCounts) {
  // Bias corrections are computed in double: at step counts past 2^24 a
  // float pow of the step index truncates and the corrections drift. Run
  // well past 1e5 steps on a quadratic and require the iterate to stay
  // finite and converged the whole way.
  Tensor x = Tensor::Full(1, 1, 4.0f, true);
  Adam opt({x}, 0.01f);
  for (int i = 0; i < 150000; ++i) {
    opt.ZeroGrad();
    Backward(tensor::SquaredNorm(x));
    opt.Step();
    ASSERT_TRUE(std::isfinite(x.Item())) << "diverged at step " << i;
  }
  EXPECT_NEAR(x.Item(), 0.0f, 1e-3);
}

TEST(AdamTest, FusedStepMatchesReferenceTrajectory) {
  // Adam::Step() fuses the moment updates and write-back into one pass over
  // hoisted pointers. This pins it to the original three-statement update:
  // feed both the optimizer and an inline reference the same synthetic
  // gradient stream and require bit-identical weights and moments at every
  // step.
  const int n = 37;  // odd size: exercises any unrolled tail
  const float lr = 0.01f, beta1 = 0.9f, beta2 = 0.999f, eps = 1e-8f;
  std::vector<float> init(n);
  for (int j = 0; j < n; ++j)
    init[j] = 0.05f * static_cast<float>(j - n / 2);
  Tensor x = Tensor::FromData(1, n, init, /*requires_grad=*/true);
  Adam opt({x}, lr, beta1, beta2, eps);

  std::vector<float> ref_w = init;
  std::vector<float> ref_m(n, 0.0f), ref_v(n, 0.0f);
  for (int step = 1; step <= 25; ++step) {
    // Deterministic, sign-alternating gradient stream.
    std::vector<float> g(n);
    for (int j = 0; j < n; ++j) {
      g[j] = std::sin(0.7f * static_cast<float>(step) +
                      0.3f * static_cast<float>(j)) +
             0.1f * static_cast<float>(j % 3 - 1);
    }
    x.node()->EnsureGrad();
    auto& grad = x.node()->grad;
    for (int j = 0; j < n; ++j) grad[j] = g[j];
    opt.Step();

    // Pre-fusion update, verbatim (two separate moment statements, then the
    // write-back reading the stored moments).
    const double bc1 = 1.0 - std::pow(static_cast<double>(beta1),
                                      static_cast<double>(step));
    const double bc2 = 1.0 - std::pow(static_cast<double>(beta2),
                                      static_cast<double>(step));
    for (int j = 0; j < n; ++j) {
      ref_m[j] = beta1 * ref_m[j] + (1.0f - beta1) * g[j];
      ref_v[j] = beta2 * ref_v[j] + (1.0f - beta2) * g[j] * g[j];
      float mhat = static_cast<float>(ref_m[j] / bc1);
      float vhat = static_cast<float>(ref_v[j] / bc2);
      ref_w[j] -= lr * mhat / (std::sqrt(vhat) + eps);
    }
    for (int j = 0; j < n; ++j) {
      ASSERT_EQ(x.data()[j], ref_w[j])
          << "weight diverged at step " << step << ", j=" << j;
    }
  }
}

TEST(AdamTest, SkipsParamsWithoutGrad) {
  Tensor x = Tensor::Full(1, 1, 1.0f, true);
  Adam opt({x}, 0.1f);
  opt.Step();  // no Backward happened; must not crash or move x
  EXPECT_EQ(x.Item(), 1.0f);
}

TEST(AdamTest, UnsteppedStateSavesAsZeros) {
  // Moments are allocated on a parameter's first update. An optimizer that
  // never stepped must still save a zero vector of each parameter's size,
  // and restoring that state must not change the trajectory by a bit.
  const std::vector<float> init_x = {0.5f, -1.25f, 2.0f};
  const std::vector<float> init_y = {1.0f, -0.5f, 0.25f, 3.0f};
  auto make_params = [&] {
    return std::vector<Tensor>{
        Tensor::FromData(1, 3, init_x, /*requires_grad=*/true),
        Tensor::FromData(2, 2, init_y, /*requires_grad=*/true)};
  };

  std::vector<Tensor> fresh_params = make_params();
  Adam fresh(fresh_params, 0.01f);
  std::string blob;
  fresh.SaveState(&blob);
  serial::Reader in(blob);
  float lr = 0.0f, beta1 = 0.0f, beta2 = 0.0f, eps = 0.0f;
  int32_t step_count = -1;
  uint64_t count = 0;
  in.ReadF32(&lr);
  in.ReadF32(&beta1);
  in.ReadF32(&beta2);
  in.ReadF32(&eps);
  in.ReadI32(&step_count);
  in.ReadU64(&count);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(step_count, 0);
  ASSERT_EQ(count, fresh_params.size());
  for (const Tensor& p : fresh_params) {
    for (const char* moment : {"m", "v"}) {
      std::vector<float> values;
      ASSERT_TRUE(in.ReadFloats(&values));
      EXPECT_EQ(values, std::vector<float>(p.size(), 0.0f)) << moment;
    }
  }
  EXPECT_TRUE(in.AtEnd());

  // Save -> Load -> Step against Step from fresh, on one gradient stream.
  std::vector<Tensor> restored_params = make_params();
  Adam restored(restored_params, 0.5f);  // LoadState restores lr too
  serial::Reader state(blob);
  ASSERT_TRUE(restored.LoadState(state));
  ASSERT_TRUE(state.AtEnd());
  for (int step = 1; step <= 5; ++step) {
    for (auto* params : {&fresh_params, &restored_params}) {
      for (size_t i = 0; i < params->size(); ++i) {
        auto& node = *(*params)[i].node();
        node.EnsureGrad();
        for (size_t j = 0; j < node.grad.size(); ++j) {
          node.grad[j] = std::sin(0.9f * static_cast<float>(step) +
                                  0.4f * static_cast<float>(i + 3 * j));
        }
      }
    }
    fresh.Step();
    restored.Step();
    for (size_t i = 0; i < fresh_params.size(); ++i) {
      ASSERT_EQ(fresh_params[i].data(), restored_params[i].data())
          << "step " << step << ", param " << i;
    }
  }
  std::string fresh_after, restored_after;
  fresh.SaveState(&fresh_after);
  restored.SaveState(&restored_after);
  EXPECT_EQ(fresh_after, restored_after);
}

TEST(OptimizerTest, ClipGradNormScales) {
  Tensor x = Tensor::FromData(1, 2, {3.0f, 4.0f}, true);
  Adam opt({x}, 1.0f);
  Backward(tensor::Sum(tensor::Mul(x, Tensor::FromData(1, 2, {3.0f, 4.0f}))));
  double norm = opt.ClipGradNorm(1.0);  // grad = (3, 4), norm 5
  EXPECT_NEAR(norm, 5.0, 1e-5);
  EXPECT_NEAR(x.GradAt(0, 0), 0.6f, 1e-5);
  EXPECT_NEAR(x.GradAt(0, 1), 0.8f, 1e-5);
}

TEST(OptimizerTest, ClipLeavesSmallGradientsAlone) {
  Tensor x = Tensor::FromData(1, 1, {1.0f}, true);
  Adam opt({x}, 1.0f);
  Backward(tensor::ScalarMul(x, 0.5f));
  opt.ClipGradNorm(10.0);
  EXPECT_NEAR(x.GradAt(0, 0), 0.5f, 1e-6);
}

TEST(TrainingTest, LinearRegressionLearned) {
  // y = 2x - 1 learned by a Linear layer via Adam.
  Rng rng(6);
  Linear lin(1, 1, rng);
  Adam opt(lin.Parameters(), 0.05f);
  for (int step = 0; step < 400; ++step) {
    float xv = static_cast<float>(rng.Uniform(-1.0, 1.0));
    Tensor x = Tensor::FromData(1, 1, {xv});
    Tensor target = Tensor::FromData(1, 1, {2.0f * xv - 1.0f});
    Tensor loss = tensor::MseLoss(lin.Forward(x), target);
    opt.ZeroGrad();
    Backward(loss);
    opt.Step();
  }
  EXPECT_NEAR(lin.weight().At(0, 0), 2.0f, 0.1f);
  EXPECT_NEAR(lin.bias().At(0, 0), -1.0f, 0.1f);
}

TEST(TrainingTest, GruLearnsToDiscriminateSequences) {
  // Two input sequences with different targets; the GRU + readout should
  // fit both (tiny-capacity sanity check of BPTT end-to-end).
  Rng rng(7);
  GruCell cell(1, 4, rng);
  Linear readout(4, 1, rng);
  std::vector<Tensor> params = cell.Parameters();
  auto rp = readout.Parameters();
  params.insert(params.end(), rp.begin(), rp.end());
  Adam opt(params, 0.05f);

  auto run = [&](const std::vector<float>& xs) {
    Tensor h = cell.InitialState();
    for (float v : xs) h = cell.Forward(Tensor::FromData(1, 1, {v}), h);
    return readout.Forward(h);
  };
  for (int step = 0; step < 300; ++step) {
    Tensor loss = tensor::Add(
        tensor::MseLoss(run({1, 0, 1}), Tensor::Scalar(1.0f)),
        tensor::MseLoss(run({0, 1, 0}), Tensor::Scalar(-1.0f)));
    opt.ZeroGrad();
    Backward(loss);
    opt.Step();
  }
  EXPECT_NEAR(run({1, 0, 1}).Item(), 1.0f, 0.2f);
  EXPECT_NEAR(run({0, 1, 0}).Item(), -1.0f, 0.2f);
}

}  // namespace
}  // namespace causer::nn
