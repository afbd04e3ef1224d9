// Dense building blocks: Linear, Mlp, GruCell.
//
// All layers take the Tape explicitly so one forward pass = one tape; they
// hold Parameters only (no activation state), so a layer instance can be
// reused across tapes and graphs.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/module.h"
#include "support/rng.h"
#include "tensor/autograd.h"

namespace gnnhls {

/// Fully connected layer: y = x W + b (bias optional).
class Linear : public Module {
 public:
  Linear(int in_dim, int out_dim, Rng& rng, bool with_bias = true,
         std::string name = "linear");

  Var forward(Tape& tape, const Var& x) const;

  int in_dim() const { return in_dim_; }
  int out_dim() const { return out_dim_; }

 private:
  int in_dim_;
  int out_dim_;
  bool with_bias_;
  Parameter weight_;
  Parameter bias_;
};

/// Multi-layer perceptron with ReLU between layers (none after the last).
/// dims = {in, h1, ..., out}; the paper's regression head is
/// {hidden, 2*hidden, hidden, 1}.
class Mlp : public Module {
 public:
  Mlp(const std::vector<int>& dims, Rng& rng, std::string name = "mlp");

  Var forward(Tape& tape, const Var& x) const;

  int out_dim() const { return layers_.back()->out_dim(); }

 private:
  std::vector<std::unique_ptr<Linear>> layers_;
};

/// Gated recurrent unit cell operating row-wise on [n, dim] states
/// (used by the GGNN layer: state = node embedding, input = aggregated
/// messages).
class GruCell : public Module {
 public:
  GruCell(int dim, Rng& rng, std::string name = "gru");

  /// h' = (1-z)*h + z*htilde, standard GRU gating.
  Var forward(Tape& tape, const Var& input, const Var& state) const;

 private:
  std::unique_ptr<Linear> update_x_, update_h_;
  std::unique_ptr<Linear> reset_x_, reset_h_;
  std::unique_ptr<Linear> cand_x_, cand_h_;
};

}  // namespace gnnhls
