#include "nn/rnn_cells.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "nn/init.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace causer::nn {

using tensor::Add;
using tensor::MatMul;
using tensor::Mul;
using tensor::Sigmoid;
using tensor::Sub;
using tensor::Tanh;
using tensor::Tensor;

namespace {

Tensor Gate(const Tensor& x, const Tensor& w, const Tensor& h, const Tensor& u,
            const Tensor& b) {
  return Add(Add(MatMul(x, w), MatMul(h, u)), b);
}

// The raw steps below mirror Forward float for float. This translation
// unit is built with -ffp-contract=off (src/CMakeLists.txt), so a product
// feeding a sum (the GRU mix, the LSTM cell update) rounds twice, as the
// separate tape ops do, even under an FMA-enabled -march.

/// Per-thread work buffer of `n` floats for the raw steps (grown, never
/// shrunk).
float* WorkBuffer(size_t n) {
  thread_local std::vector<float> buf;
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

/// Raw Gate for one row: out = (x W + h U) + b, each product a zero-seeded
/// MatMulAdd GEMV as in the tape MatMul. `hu` is [hd] working space.
void RawGate(const float* x, int in, const Tensor& w, const float* h,
             const Tensor& u, const Tensor& b, int hd, float* hu, float* out) {
  std::fill(out, out + hd, 0.0f);
  std::fill(hu, hu + hd, 0.0f);
  tensor::kernels::MatMulAdd(x, w.data().data(), out, 1, in, hd, false,
                             false);
  tensor::kernels::MatMulAdd(h, u.data().data(), hu, 1, hd, hd, false, false);
  const float* bias = b.data().data();
  for (int j = 0; j < hd; ++j) out[j] = (out[j] + hu[j]) + bias[j];
}

}  // namespace

GruCell::GruCell(int input_dim, int hidden_dim, causer::Rng& rng)
    : input_dim_(input_dim), hidden_dim_(hidden_dim) {
  auto weight = [&](int in, int out) {
    return RegisterParameter(XavierUniform(in, out, rng));
  };
  auto bias = [&](int out) { return RegisterParameter(ZeroParam(1, out)); };
  wz_ = weight(input_dim, hidden_dim);
  uz_ = weight(hidden_dim, hidden_dim);
  bz_ = bias(hidden_dim);
  wr_ = weight(input_dim, hidden_dim);
  ur_ = weight(hidden_dim, hidden_dim);
  br_ = bias(hidden_dim);
  wc_ = weight(input_dim, hidden_dim);
  uc_ = weight(hidden_dim, hidden_dim);
  bc_ = bias(hidden_dim);
}

Tensor GruCell::Forward(const Tensor& x, const Tensor& h) const {
  CAUSER_CHECK(x.cols() == input_dim_ && h.cols() == hidden_dim_);
  Tensor z = Sigmoid(Gate(x, wz_, h, uz_, bz_));
  Tensor r = Sigmoid(Gate(x, wr_, h, ur_, br_));
  Tensor c = Tanh(Add(Add(MatMul(x, wc_), MatMul(Mul(r, h), uc_)), bc_));
  // (1-z)*h + z*c
  Tensor one_minus_z = Sub(Tensor::Full(z.rows(), z.cols(), 1.0f), z);
  return Add(Mul(one_minus_z, h), Mul(z, c));
}

void GruCell::Step(const float* x, const float* h, float* out) const {
  const int hd = hidden_dim_;
  float* z = WorkBuffer(6 * static_cast<size_t>(hd));
  float* r = z + hd;
  float* c = r + hd;
  float* rh = c + hd;
  float* hu = rh + hd;
  if (h == nullptr) {  // InitialState: the cell runs on explicit zeros
    float* zeros = hu + hd;
    std::fill(zeros, zeros + hd, 0.0f);
    h = zeros;
  }
  RawGate(x, input_dim_, wz_, h, uz_, bz_, hd, hu, z);
  RawGate(x, input_dim_, wr_, h, ur_, br_, hd, hu, r);
  for (int j = 0; j < hd; ++j) {
    z[j] = tensor::SigmoidValue(z[j]);
    rh[j] = tensor::SigmoidValue(r[j]) * h[j];
  }
  RawGate(x, input_dim_, wc_, rh, uc_, bc_, hd, hu, c);
  for (int j = 0; j < hd; ++j) {
    out[j] = ((1.0f - z[j]) * h[j]) + (z[j] * std::tanh(c[j]));
  }
}

Tensor GruCell::InitialState(int n) const {
  return Tensor::Zeros(n, hidden_dim_);
}

LstmCell::LstmCell(int input_dim, int hidden_dim, causer::Rng& rng)
    : input_dim_(input_dim), hidden_dim_(hidden_dim) {
  auto weight = [&](int in, int out) {
    return RegisterParameter(XavierUniform(in, out, rng));
  };
  auto bias = [&](int out) { return RegisterParameter(ZeroParam(1, out)); };
  wi_ = weight(input_dim, hidden_dim);
  ui_ = weight(hidden_dim, hidden_dim);
  bi_ = bias(hidden_dim);
  wf_ = weight(input_dim, hidden_dim);
  uf_ = weight(hidden_dim, hidden_dim);
  bf_ = bias(hidden_dim);
  wo_ = weight(input_dim, hidden_dim);
  uo_ = weight(hidden_dim, hidden_dim);
  bo_ = bias(hidden_dim);
  wg_ = weight(input_dim, hidden_dim);
  ug_ = weight(hidden_dim, hidden_dim);
  bg_ = bias(hidden_dim);
}

LstmState LstmCell::Forward(const Tensor& x, const LstmState& state) const {
  CAUSER_CHECK(x.cols() == input_dim_ && state.h.cols() == hidden_dim_);
  Tensor i = Sigmoid(Gate(x, wi_, state.h, ui_, bi_));
  Tensor f = Sigmoid(Gate(x, wf_, state.h, uf_, bf_));
  Tensor o = Sigmoid(Gate(x, wo_, state.h, uo_, bo_));
  Tensor g = Tanh(Gate(x, wg_, state.h, ug_, bg_));
  Tensor c_next = Add(Mul(f, state.c), Mul(i, g));
  Tensor h_next = Mul(o, Tanh(c_next));
  return {h_next, c_next};
}

void LstmCell::Step(const float* x, const float* h, const float* c,
                    float* h_out, float* c_out) const {
  const int hd = hidden_dim_;
  float* i = WorkBuffer(6 * static_cast<size_t>(hd));
  float* f = i + hd;
  float* o = f + hd;
  float* g = o + hd;
  float* hu = g + hd;
  float* zeros = hu + hd;
  std::fill(zeros, zeros + hd, 0.0f);
  if (h == nullptr) h = zeros;  // InitialState: explicit zeros
  if (c == nullptr) c = zeros;
  RawGate(x, input_dim_, wi_, h, ui_, bi_, hd, hu, i);
  RawGate(x, input_dim_, wf_, h, uf_, bf_, hd, hu, f);
  RawGate(x, input_dim_, wo_, h, uo_, bo_, hd, hu, o);
  RawGate(x, input_dim_, wg_, h, ug_, bg_, hd, hu, g);
  for (int j = 0; j < hd; ++j) {
    const float c_next = (tensor::SigmoidValue(f[j]) * c[j]) +
                         (tensor::SigmoidValue(i[j]) * std::tanh(g[j]));
    c_out[j] = c_next;
    h_out[j] = tensor::SigmoidValue(o[j]) * std::tanh(c_next);
  }
}

LstmState LstmCell::InitialState(int n) const {
  return {Tensor::Zeros(n, hidden_dim_), Tensor::Zeros(n, hidden_dim_)};
}

}  // namespace causer::nn
