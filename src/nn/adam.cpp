#include "nn/adam.h"

#include <cmath>

#if defined(GNNHLS_KERNEL_AVX2)
#include <immintrin.h>
#endif

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

namespace {

/// The settings one step applies to every element. Passed by value, so the
/// loops read them from locals no store through the parameter pointers can
/// alias.
struct UpdateCoeffs {
  float clip_scale;
  float beta1;
  float keep1;  // 1 - beta1
  float beta2;
  float keep2;  // 1 - beta2
  float bias1;
  float bias2;
  float lr;
  float eps;
  float decay;
  float lr_decay;  // lr * decay
};

/// The update of elements [i, size) of one parameter, one at a time, every
/// expression in its written evaluation order. GCC leaves this loop scalar:
/// without -fno-math-errno it keeps std::sqrt's errno path.
void update_scalar(UpdateCoeffs c, std::size_t i, std::size_t size,
                   const float* __restrict grad, float* __restrict value,
                   float* __restrict m, float* __restrict v) {
  for (; i < size; ++i) {
    const float g = grad[i] * c.clip_scale;
    m[i] = c.beta1 * m[i] + c.keep1 * g;
    v[i] = c.beta2 * v[i] + c.keep2 * g * g;
    const float mhat = m[i] / c.bias1;
    const float vhat = v[i] / c.bias2;
    float update = c.lr * mhat / (std::sqrt(vhat) + c.eps);
    if (c.decay > 0.0F) update += c.lr_decay * value[i];
    value[i] -= update;
  }
}

#if defined(GNNHLS_KERNEL_AVX2)
/// update_scalar eight elements at a time. Written in intrinsics because
/// GCC does not vectorize std::sqrt while it keeps the errno path (the
/// default -fmath-errno; neither optimize("no-math-errno") nor a pragma
/// lifts it), and not every build of this file can add flags. Each lane
/// runs the scalar sequence: the _mm256 mul, add, div and sqrt round
/// exactly as their scalar forms do, no FMA is used (AVX2 does not imply
/// it, and the library builds this file with -ffp-contract=off), and sqrt's
/// argument v / bias2 is never negative, so every element gets the scalar
/// loop's bits. The tail takes update_scalar.
__attribute__((target("avx2"))) void update_avx2(
    UpdateCoeffs c, std::size_t size, const float* __restrict grad,
    float* __restrict value, float* __restrict m, float* __restrict v) {
  const __m256 clip_scale = _mm256_set1_ps(c.clip_scale);
  const __m256 beta1 = _mm256_set1_ps(c.beta1);
  const __m256 keep1 = _mm256_set1_ps(c.keep1);
  const __m256 beta2 = _mm256_set1_ps(c.beta2);
  const __m256 keep2 = _mm256_set1_ps(c.keep2);
  const __m256 bias1 = _mm256_set1_ps(c.bias1);
  const __m256 bias2 = _mm256_set1_ps(c.bias2);
  const __m256 lr = _mm256_set1_ps(c.lr);
  const __m256 eps = _mm256_set1_ps(c.eps);
  const __m256 lr_decay = _mm256_set1_ps(c.lr_decay);
  const bool decay = c.decay > 0.0F;
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    const __m256 g = _mm256_mul_ps(_mm256_loadu_ps(grad + i), clip_scale);
    const __m256 mi =
        _mm256_add_ps(_mm256_mul_ps(beta1, _mm256_loadu_ps(m + i)),
                      _mm256_mul_ps(keep1, g));
    const __m256 vi =
        _mm256_add_ps(_mm256_mul_ps(beta2, _mm256_loadu_ps(v + i)),
                      _mm256_mul_ps(_mm256_mul_ps(keep2, g), g));
    _mm256_storeu_ps(m + i, mi);
    _mm256_storeu_ps(v + i, vi);
    const __m256 mhat = _mm256_div_ps(mi, bias1);
    const __m256 vhat = _mm256_div_ps(vi, bias2);
    __m256 update = _mm256_div_ps(_mm256_mul_ps(lr, mhat),
                                  _mm256_add_ps(_mm256_sqrt_ps(vhat), eps));
    const __m256 x = _mm256_loadu_ps(value + i);
    if (decay) update = _mm256_add_ps(update, _mm256_mul_ps(lr_decay, x));
    _mm256_storeu_ps(value + i, _mm256_sub_ps(x, update));
  }
  update_scalar(c, i, size, grad, value, m, v);
}
#endif

}  // namespace

void Adam::step_isa(KernelIsa isa) {
  require_kernel_isa(isa);
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

  const UpdateCoeffs c{clip_scale,
                       config_.beta1,
                       1.0F - config_.beta1,
                       config_.beta2,
                       1.0F - config_.beta2,
                       bias1,
                       bias2,
                       config_.lr,
                       config_.eps,
                       config_.weight_decay,
                       config_.lr * config_.weight_decay};
  for (std::size_t k = 0; k < params_.size(); ++k) {
    Parameter& p = *params_[k];
    const std::size_t size = p.mutable_grad().size();
    const float* grad = p.mutable_grad().data();
    float* value = p.mutable_value().data();
#if defined(GNNHLS_KERNEL_AVX2)
    if (isa == KernelIsa::kAvx2) {
      update_avx2(c, size, grad, value, m_[k].data(), v_[k].data());
      continue;
    }
#endif
    update_scalar(c, 0, size, grad, value, m_[k].data(), v_[k].data());
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
