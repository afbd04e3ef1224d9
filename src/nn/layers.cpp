#include "nn/layers.h"

#include <cmath>

namespace gnnhls {

namespace {

/// Xavier/Glorot normal initialization.
Matrix xavier(int in_dim, int out_dim, Rng& rng) {
  const float stddev = std::sqrt(2.0F / static_cast<float>(in_dim + out_dim));
  return Matrix::randn(in_dim, out_dim, rng, stddev);
}

}  // namespace

Linear::Linear(int in_dim, int out_dim, Rng& rng, bool with_bias,
               std::string name)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      with_bias_(with_bias),
      weight_(name + ".weight", xavier(in_dim, out_dim, rng)),
      bias_(name + ".bias", Matrix::zeros(1, out_dim)) {
  register_parameter(weight_);
  if (with_bias_) register_parameter(bias_);
}

Var Linear::forward(Tape& tape, const Var& x) const {
  GNNHLS_CHECK_EQ(x.cols(), in_dim_, "Linear: input width mismatch");
  Var y = tape.matmul(x, weight_.var());
  if (with_bias_) y = tape.add_row_bias(y, bias_.var());
  return y;
}

Mlp::Mlp(const std::vector<int>& dims, Rng& rng, std::string name) {
  GNNHLS_CHECK(dims.size() >= 2, "Mlp: need at least {in, out} dims");
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.push_back(std::make_unique<Linear>(
        dims[i], dims[i + 1], rng, true,
        name + ".fc" + std::to_string(i)));
    register_module(*layers_.back());
  }
}

Var Mlp::forward(Tape& tape, const Var& x) const {
  Var h = x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i]->forward(tape, h);
    if (i + 1 < layers_.size()) h = tape.relu(h);
  }
  return h;
}

GruCell::GruCell(int dim, Rng& rng, std::string name) {
  const auto make = [&](const char* suffix, bool bias) {
    auto l = std::make_unique<Linear>(dim, dim, rng, bias,
                                      name + "." + suffix);
    register_module(*l);
    return l;
  };
  update_x_ = make("update_x", true);
  update_h_ = make("update_h", false);
  reset_x_ = make("reset_x", true);
  reset_h_ = make("reset_h", false);
  cand_x_ = make("cand_x", true);
  cand_h_ = make("cand_h", false);
}

Var GruCell::forward(Tape& tape, const Var& input, const Var& state) const {
  const Var z = tape.sigmoid(
      tape.add(update_x_->forward(tape, input), update_h_->forward(tape, state)));
  const Var r = tape.sigmoid(
      tape.add(reset_x_->forward(tape, input), reset_h_->forward(tape, state)));
  const Var candidate = tape.tanh_act(tape.add(
      cand_x_->forward(tape, input),
      cand_h_->forward(tape, tape.mul(r, state))));
  // h' = (1 - z) * h + z * candidate
  const Var keep = tape.mul(tape.affine(z, -1.0F, 1.0F), state);
  return tape.add(keep, tape.mul(z, candidate));
}

}  // namespace gnnhls
