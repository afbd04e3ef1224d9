#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "nn/adam.h"
#include "nn/layers.h"

namespace gnnhls {
namespace {

TEST(LinearTest, ShapesAndBias) {
  Rng rng(1);
  Linear lin(3, 5, rng);
  Tape tape;
  const Var x = tape.leaf(Matrix(4, 3, 1.0F));
  const Var y = lin.forward(tape, x);
  EXPECT_EQ(y.rows(), 4);
  EXPECT_EQ(y.cols(), 5);
  EXPECT_EQ(lin.parameters().size(), 2U);
}

TEST(LinearTest, InputWidthMismatchThrows) {
  Rng rng(1);
  Linear lin(3, 5, rng);
  Tape tape;
  EXPECT_THROW(lin.forward(tape, tape.leaf(Matrix(4, 2, 1.0F))),
               std::invalid_argument);
}

TEST(MlpTest, PaperHeadShape) {
  Rng rng(2);
  // The paper's graph-level head: hidden-2*hidden-hidden-1.
  Mlp head({300, 600, 300, 1}, rng);
  Tape tape;
  const Var y = head.forward(tape, tape.leaf(Matrix(1, 300, 0.1F)));
  EXPECT_EQ(y.rows(), 1);
  EXPECT_EQ(y.cols(), 1);
  EXPECT_EQ(head.parameters().size(), 6U);
}

TEST(GruCellTest, OutputShapeAndBounded) {
  Rng rng(4);
  GruCell gru(8, rng);
  Tape tape;
  const Var input = tape.leaf(Matrix(5, 8, 0.3F));
  const Var state = tape.leaf(Matrix(5, 8, -0.2F));
  const Var h = gru.forward(tape, input, state);
  EXPECT_EQ(h.rows(), 5);
  EXPECT_EQ(h.cols(), 8);
  // GRU output is a convex combination of tanh candidate and state.
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 8; ++j) {
      EXPECT_LT(std::abs(h.value()(i, j)), 1.01F);
    }
  }
}

TEST(AdamTest, LearnsLinearRegression) {
  Rng rng(5);
  Linear model(2, 1, rng);
  Adam opt(model, AdamConfig{.lr = 0.05F});

  // y = 3*x0 - 2*x1 + 1
  Matrix xs(16, 2);
  Matrix ys(16, 1);
  Rng data_rng(99);
  for (int i = 0; i < 16; ++i) {
    xs(i, 0) = data_rng.normal();
    xs(i, 1) = data_rng.normal();
    ys(i, 0) = 3.0F * xs(i, 0) - 2.0F * xs(i, 1) + 1.0F;
  }

  float first_loss = 0.0F, last_loss = 0.0F;
  for (int epoch = 0; epoch < 200; ++epoch) {
    Tape tape;
    const Var pred = model.forward(tape, tape.leaf(xs));
    const Var loss = tape.mse_loss(pred, ys);
    if (epoch == 0) first_loss = loss.value()(0, 0);
    last_loss = loss.value()(0, 0);
    tape.backward(loss);
    opt.step();
  }
  EXPECT_LT(last_loss, first_loss * 0.01F);
  EXPECT_LT(last_loss, 0.05F);
}

TEST(AdamTest, LearnsBinaryClassification) {
  Rng rng(6);
  Mlp model({2, 8, 1}, rng);
  Adam opt(model, AdamConfig{.lr = 0.05F});

  // Separable data: label = x0 + x1 > 0.
  Matrix xs(32, 2);
  Matrix ys(32, 1);
  Rng data_rng(123);
  for (int i = 0; i < 32; ++i) {
    xs(i, 0) = data_rng.normal();
    xs(i, 1) = data_rng.normal();
    ys(i, 0) = xs(i, 0) + xs(i, 1) > 0.0F ? 1.0F : 0.0F;
  }
  float last_loss = 1e9F;
  for (int epoch = 0; epoch < 300; ++epoch) {
    Tape tape;
    const Var logits = model.forward(tape, tape.leaf(xs));
    const Var loss = tape.bce_with_logits_loss(logits, ys);
    last_loss = loss.value()(0, 0);
    tape.backward(loss);
    opt.step();
  }
  EXPECT_LT(last_loss, 0.2F);
}

TEST(AdamTest, WeightDecayShrinksIdleParameters) {
  Rng rng(7);
  Linear model(1, 1, rng, /*with_bias=*/false);
  Adam opt(model, AdamConfig{.lr = 0.01F, .weight_decay = 0.1F});
  const float before = std::abs(model.parameters()[0]->value()(0, 0));
  for (int i = 0; i < 50; ++i) {
    // Zero gradient steps: only decay acts.
    opt.step();
  }
  const float after = std::abs(model.parameters()[0]->value()(0, 0));
  EXPECT_LT(after, before);
}

TEST(AdamTest, GradClipBoundsUpdate) {
  Rng rng(8);
  Linear model(1, 1, rng, /*with_bias=*/false);
  Adam opt(model, AdamConfig{.lr = 1.0F, .grad_clip = 1e-3F});
  const float before = model.parameters()[0]->value()(0, 0);
  model.parameters()[0]->mutable_grad()(0, 0) = 1e6F;
  opt.step();
  const float after = model.parameters()[0]->value()(0, 0);
  // Step magnitude is lr * clipped unit direction ~ lr, not lr * 1e6.
  EXPECT_LT(std::abs(after - before), 1.5F);
}

/// One Adam step over flat float arrays, written out element by element
/// from Kingma & Ba with the library's decoupled decay and global-norm clip.
struct ReferenceAdam {
  AdamConfig cfg;
  std::vector<std::vector<float>> m;
  std::vector<std::vector<float>> v;
  long t = 0;

  void step(std::vector<std::vector<float>>& values,
            const std::vector<std::vector<float>>& grads) {
    ++t;
    const float bias1 = 1.0F - std::pow(cfg.beta1, static_cast<float>(t));
    const float bias2 = 1.0F - std::pow(cfg.beta2, static_cast<float>(t));
    float clip = 1.0F;
    if (cfg.grad_clip > 0.0F) {
      double total = 0.0;
      for (const auto& g : grads) {
        for (float x : g) total += static_cast<double>(x) * x;
      }
      const double norm = std::sqrt(total);
      if (norm > cfg.grad_clip) clip = static_cast<float>(cfg.grad_clip / norm);
    }
    m.resize(values.size());
    v.resize(values.size());
    for (std::size_t k = 0; k < values.size(); ++k) {
      m[k].resize(values[k].size(), 0.0F);
      v[k].resize(values[k].size(), 0.0F);
      for (std::size_t i = 0; i < values[k].size(); ++i) {
        const float g = grads[k][i] * clip;
        m[k][i] = cfg.beta1 * m[k][i] + (1.0F - cfg.beta1) * g;
        v[k][i] = cfg.beta2 * v[k][i] + ((1.0F - cfg.beta2) * g) * g;
        const float denom = std::sqrt(v[k][i] / bias2) + cfg.eps;
        float update = (cfg.lr * (m[k][i] / bias1)) / denom;
        if (cfg.weight_decay > 0.0F) {
          update = update + (cfg.lr * cfg.weight_decay) * values[k][i];
        }
        values[k][i] = values[k][i] - update;
      }
    }
  }
};

bool same_bits(const Matrix& x, const std::vector<float>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), y.size() * sizeof(float)) == 0;
}

TEST(AdamTest, StepMatchesScalarReference) {
  // Sizes below, at and past one AVX2 vector, and one with a long body and
  // a tail; the clip is off, inactive (norm far below it) and active.
  const std::pair<int, int> shapes[] = {{1, 1}, {7, 1}, {2, 4}, {3, 3},
                                        {1, 4099}};
  for (KernelIsa isa : {KernelIsa::kPortable, KernelIsa::kAvx2}) {
    if (!kernel_isa_available(isa)) continue;
    for (float decay : {0.0F, 0.01F}) {
      for (float clip : {0.0F, 1e6F, 0.5F}) {
        const AdamConfig cfg{.lr = 0.01F, .weight_decay = decay,
                             .grad_clip = clip};
        Rng rng(31);
        std::vector<Parameter> params;
        for (const auto& [rows, cols] : shapes) {
          params.emplace_back("p", Matrix::randn(rows, cols, rng));
        }
        std::vector<Parameter*> ptrs;
        std::vector<std::vector<float>> values;
        for (Parameter& p : params) {
          ptrs.push_back(&p);
          values.emplace_back(p.value().data(),
                              p.value().data() + p.value().size());
        }
        Adam opt(ptrs, cfg);
        ReferenceAdam ref{cfg, {}, {}, 0};
        const std::string where = std::string(kernel_isa_name(isa)) +
                                  " decay=" + std::to_string(decay) +
                                  " clip=" + std::to_string(clip);
        for (int step = 0; step < 3; ++step) {
          std::vector<std::vector<float>> grads;
          for (Parameter& p : params) {
            p.mutable_grad() = Matrix::randn(p.value().rows(),
                                             p.value().cols(), rng, 0.3F);
            grads.emplace_back(p.mutable_grad().data(),
                               p.mutable_grad().data() + p.size());
          }
          opt.step_isa(isa);
          ref.step(values, grads);
          const AdamState state = opt.export_state();
          for (std::size_t k = 0; k < params.size(); ++k) {
            EXPECT_TRUE(same_bits(params[k].value(), values[k]))
                << where << " step " << step << " param " << k;
            EXPECT_TRUE(same_bits(state.m[k], ref.m[k]))
                << where << " step " << step << " param " << k;
            EXPECT_TRUE(same_bits(state.v[k], ref.v[k]))
                << where << " step " << step << " param " << k;
          }
        }
      }
    }
  }
}

TEST(ModuleTest, ZeroGradClearsAccumulation) {
  Rng rng(9);
  Linear model(2, 2, rng);
  Tape tape;
  const Var loss =
      tape.sum_all(model.forward(tape, tape.leaf(Matrix(3, 2, 1.0F))));
  tape.backward(loss);
  double norm = 0.0;
  for (auto* p : model.parameters()) norm += p->mutable_grad().squared_norm();
  EXPECT_GT(norm, 0.0);
  model.zero_grad();
  norm = 0.0;
  for (auto* p : model.parameters()) norm += p->mutable_grad().squared_norm();
  EXPECT_EQ(norm, 0.0);
}

}  // namespace
}  // namespace gnnhls
