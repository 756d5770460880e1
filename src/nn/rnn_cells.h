#ifndef CAUSER_NN_RNN_CELLS_H_
#define CAUSER_NN_RNN_CELLS_H_

#include "nn/module.h"

namespace causer::nn {

/// Gated recurrent unit cell (Cho et al., 2014):
///   z = sig(x Wz + h Uz + bz)
///   r = sig(x Wr + h Ur + br)
///   c = tanh(x Wc + (r*h) Uc + bc)
///   h' = (1-z)*h + z*c
class GruCell : public Module {
 public:
  GruCell(int input_dim, int hidden_dim, causer::Rng& rng);

  /// x: [n, input_dim], h: [n, hidden_dim] -> [n, hidden_dim].
  Tensor Forward(const Tensor& x, const Tensor& h) const;

  /// Tape-free step of one row on raw buffers, for the serve folds:
  /// x [input_dim] and h [hidden_dim] (null: the zero initial state) ->
  /// out [hidden_dim]. Each float is the one Forward computes for that row
  /// (same per-element operations in the same order). out may alias h.
  void Step(const float* x, const float* h, float* out) const;

  /// Zero initial hidden state for a batch of n sequences.
  Tensor InitialState(int n = 1) const;

  int hidden_dim() const { return hidden_dim_; }
  int input_dim() const { return input_dim_; }

 private:
  int input_dim_;
  int hidden_dim_;
  Tensor wz_, uz_, bz_;
  Tensor wr_, ur_, br_;
  Tensor wc_, uc_, bc_;
};

/// LSTM cell state: hidden h and cell memory c, both [n, hidden_dim].
struct LstmState {
  Tensor h;
  Tensor c;
};

/// Long short-term memory cell (Hochreiter & Schmidhuber, 1997):
///   i = sig(x Wi + h Ui + bi)
///   f = sig(x Wf + h Uf + bf)
///   o = sig(x Wo + h Uo + bo)
///   g = tanh(x Wg + h Ug + bg)
///   c' = f*c + i*g ;  h' = o*tanh(c')
class LstmCell : public Module {
 public:
  LstmCell(int input_dim, int hidden_dim, causer::Rng& rng);

  /// Advances one step.
  LstmState Forward(const Tensor& x, const LstmState& state) const;

  /// Tape-free step of one row on raw buffers, like GruCell::Step: x
  /// [input_dim], h and c [hidden_dim] (null: zeros) -> h_out and c_out
  /// [hidden_dim], the floats Forward computes for that row. h_out may
  /// alias h and c_out may alias c.
  void Step(const float* x, const float* h, const float* c, float* h_out,
            float* c_out) const;

  /// Zero initial state for a batch of n sequences.
  LstmState InitialState(int n = 1) const;

  int hidden_dim() const { return hidden_dim_; }
  int input_dim() const { return input_dim_; }

 private:
  int input_dim_;
  int hidden_dim_;
  Tensor wi_, ui_, bi_;
  Tensor wf_, uf_, bf_;
  Tensor wo_, uo_, bo_;
  Tensor wg_, ug_, bg_;
};

}  // namespace causer::nn

#endif  // CAUSER_NN_RNN_CELLS_H_
