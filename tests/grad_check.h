// Finite-difference gradient checking utilities for autograd tests.
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "nn/module.h"
#include "tensor/autograd.h"

namespace gnnhls::testing {

/// Runs `loss_fn` once with backward and compares the gradient of every
/// entry of every persistent leaf in `leaves` (a model's parameters, say)
/// against finite differences of the same loss, perturbing each entry in
/// place by ±h. The leaves' grads are zeroed first and hold the analytic
/// gradient afterwards. An entry passes when the analytic gradient is
/// within tol * max(1, |numeric|) of the central difference. With `kinks`,
/// an entry whose two one-sided differences disagree by more than that
/// (the ±h step crossed a ReLU or max/min kink, so the central difference
/// blends two slopes) may instead match one of them: at a kink the
/// backward returns the slope of the side the point lies on.
inline void expect_leaf_gradients_match(
    const std::vector<Var>& leaves, const std::function<Var(Tape&)>& loss_fn,
    float h = 1e-2F, float tol = 2e-2F, bool kinks = false) {
  for (const Var& leaf : leaves) {
    ASSERT_TRUE(leaf.requires_grad());
    leaf.node()->grad.fill(0.0F);
  }
  {
    Tape tape;
    const Var loss = loss_fn(tape);
    ASSERT_EQ(loss.rows(), 1);
    ASSERT_EQ(loss.cols(), 1);
    tape.backward(loss);
  }
  const auto loss_value = [&] {
    Tape tape;
    return loss_fn(tape).value()(0, 0);
  };
  const float base = loss_value();

  for (std::size_t k = 0; k < leaves.size(); ++k) {
    Matrix& value = leaves[k].node()->value;
    const Matrix& analytic = leaves[k].grad();
    for (int r = 0; r < value.rows(); ++r) {
      for (int c = 0; c < value.cols(); ++c) {
        const float saved = value(r, c);
        value(r, c) = saved + h;
        const float up = loss_value();
        value(r, c) = saved - h;
        const float down = loss_value();
        value(r, c) = saved;

        const float central = (up - down) / (2.0F * h);
        const float forward = (up - base) / h;
        const float backward = (base - down) / h;
        const auto close = [&](float x, float numeric) {
          return std::abs(x - numeric) <=
                 tol * std::max(1.0F, std::abs(numeric));
        };
        const float a = analytic(r, c);
        const bool kinked = kinks && !close(forward, backward);
        EXPECT_TRUE(close(a, central) ||
                    (kinked && (close(a, forward) || close(a, backward))))
            << "leaf " << k << " entry (" << r << "," << c
            << "): analytic " << a << ", central " << central
            << ", one-sided " << backward << " / " << forward;
      }
    }
  }
}

/// Builds a scalar loss from `leaf` via `fn` and compares the autograd
/// gradient of every entry of `leaf` against central finite differences.
inline void expect_gradient_matches(
    Matrix input, const std::function<Var(Tape&, const Var&)>& fn,
    float h = 1e-2F, float tol = 2e-2F) {
  const Parameter leaf("input", std::move(input));
  expect_leaf_gradients_match(
      {leaf.var()}, [&](Tape& tape) { return fn(tape, leaf.var()); }, h,
      tol);
}

}  // namespace gnnhls::testing
