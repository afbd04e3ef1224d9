#include "nn/adam.h"

#include <cmath>

namespace gnnhls {

Adam::Adam(std::vector<Parameter*> params, AdamConfig config)
    : params_(std::move(params)), config_(config) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto* p : params_) {
    m_.emplace_back(p->value().rows(), p->value().cols());
    v_.emplace_back(p->value().rows(), p->value().cols());
  }
}

void Adam::step() {
  ++t_;
  const float bias1 = 1.0F - std::pow(config_.beta1, static_cast<float>(t_));
  const float bias2 = 1.0F - std::pow(config_.beta2, static_cast<float>(t_));

  float clip_scale = 1.0F;
  if (config_.grad_clip > 0.0F) {
    double total = 0.0;
    for (auto* p : params_) total += p->mutable_grad().squared_norm();
    const double norm = std::sqrt(total);
    if (norm > config_.grad_clip) {
      clip_scale = static_cast<float>(config_.grad_clip / norm);
    }
  }

  // Loop-invariant settings in locals, so the loop body reads no member
  // the stores could alias; every expression keeps its evaluation order.
  // The loop stays scalar all the same: without -fno-math-errno, GCC keeps
  // std::sqrt's errno path, which blocks vectorization.
  const float lr = config_.lr;
  const float beta1 = config_.beta1;
  const float beta2 = config_.beta2;
  const float keep1 = 1.0F - beta1;
  const float keep2 = 1.0F - beta2;
  const float eps = config_.eps;
  const float decay = config_.weight_decay;
  const float lr_decay = lr * decay;
  for (std::size_t k = 0; k < params_.size(); ++k) {
    Parameter& p = *params_[k];
    const std::size_t size = p.mutable_grad().size();
    const float* __restrict grad = p.mutable_grad().data();
    float* __restrict value = p.mutable_value().data();
    float* __restrict m = m_[k].data();
    float* __restrict v = v_[k].data();
    for (std::size_t i = 0; i < size; ++i) {
      const float g = grad[i] * clip_scale;
      m[i] = beta1 * m[i] + keep1 * g;
      v[i] = beta2 * v[i] + keep2 * g * g;
      const float mhat = m[i] / bias1;
      const float vhat = v[i] / bias2;
      float update = lr * mhat / (std::sqrt(vhat) + eps);
      if (decay > 0.0F) update += lr_decay * value[i];
      value[i] -= update;
    }
  }
  zero_grad();
}

void Adam::accumulate(const std::vector<Matrix>& grads) {
  GNNHLS_CHECK_EQ(grads.size(), params_.size(),
                  "accumulate: gradient buffer / parameter count mismatch");
  for (std::size_t k = 0; k < params_.size(); ++k) {
    if (grads[k].empty()) continue;  // no contribution in this scope
    params_[k]->mutable_grad().add_inplace(grads[k]);
  }
}

void Adam::zero_grad() {
  for (auto* p : params_) p->zero_grad();
}

AdamState Adam::export_state() const {
  AdamState state;
  state.m = m_;
  state.v = v_;
  state.t = t_;
  return state;
}

void Adam::import_state(const AdamState& state) {
  GNNHLS_CHECK_EQ(state.m.size(), params_.size(),
                  "import_state: first-moment / parameter count mismatch");
  GNNHLS_CHECK_EQ(state.v.size(), params_.size(),
                  "import_state: second-moment / parameter count mismatch");
  for (std::size_t k = 0; k < params_.size(); ++k) {
    GNNHLS_CHECK(state.m[k].rows() == params_[k]->value().rows() &&
                     state.m[k].cols() == params_[k]->value().cols() &&
                     state.v[k].rows() == params_[k]->value().rows() &&
                     state.v[k].cols() == params_[k]->value().cols(),
                 "import_state: moment shape mismatch");
  }
  m_ = state.m;
  v_ = state.v;
  t_ = state.t;
}

}  // namespace gnnhls
