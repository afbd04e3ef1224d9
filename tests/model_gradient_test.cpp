// Whole-model gradient checks: every parameter gradient of both task heads
// over all 14 encoders against finite differences. The bit-identity
// suites show that fast paths equal the reference backward; these show the
// reference backward is the derivative of the forward.
#include <gtest/gtest.h>

#include "dataset/dataset.h"
#include "gnn/feature_encoder.h"
#include "gnn/models.h"
#include "grad_check.h"

namespace gnnhls {
namespace {

using testing::expect_leaf_gradients_match;

/// A small CDFG (29 nodes, 33 edges over 5 of the 8 relations, back edges
/// included) keeps each finite difference to one cheap forward.
const Sample& small_sample() {
  static const Sample sample = [] {
    ProgenConfig pc;
    pc.min_stmts = 2;
    pc.max_stmts = 4;
    pc.max_loop_depth = 1;
    pc.max_trip_count = 4;
    return make_sample(generate_cdfg_program(6, pc), GraphKind::kCdfg,
                       HlsConfig{}, "grad");
  }();
  return sample;
}

ModelConfig small_config(GnnKind kind) {
  ModelConfig cfg;
  cfg.kind = kind;
  cfg.hidden = 6;
  cfg.layers = 2;
  // Mean pooling keeps the head's inputs O(1), so a ±h weight step moves
  // its pre-activations by O(h) and rarely across a ReLU kink (sum pooling
  // scales them with the node count). Its readout, a scatter-add then
  // scale_rows, covers every op of the sum readout too.
  cfg.pooling = Pooling::kMean;
  return cfg;
}

std::vector<Var> leaves_of(const Module& model) {
  std::vector<Var> leaves;
  for (const Parameter* p : model.parameters()) leaves.push_back(p->var());
  return leaves;
}

class ModelGradientTest : public ::testing::TestWithParam<GnnKind> {};

TEST_P(ModelGradientTest, RegressorMatchesFiniteDifferences) {
  const Sample& s = small_sample();
  const Matrix feats =
      InputFeatureBuilder::build(s.graph(), Approach::kOffTheShelf);
  Rng init(21);
  const GraphRegressor model(small_config(GetParam()),
                             InputFeatureBuilder::feature_dim(
                                 Approach::kOffTheShelf),
                             init);
  // A target one unit off the prediction keeps the loss near 1, where
  // float central differences resolve well.
  Matrix target;
  {
    Tape tape;
    Rng drop(1);
    target = model.forward(tape, s.tensors, feats, drop, true).value();
    target(0, 0) -= 1.0F;
  }
  expect_leaf_gradients_match(leaves_of(model), [&](Tape& tape) {
    Rng drop(1);
    const Var pred = model.forward(tape, s.tensors, feats, drop, true);
    return tape.mse_loss(pred, target);
  }, 3e-3F, 2e-2F, /*kinks=*/true);
}

TEST_P(ModelGradientTest, NodeClassifierMatchesFiniteDifferences) {
  const Sample& s = small_sample();
  const Matrix feats =
      InputFeatureBuilder::build(s.graph(), Approach::kOffTheShelf);
  Rng init(22);
  const NodeClassifier model(small_config(GetParam()),
                             InputFeatureBuilder::feature_dim(
                                 Approach::kOffTheShelf),
                             init);
  Matrix targets(s.graph().num_nodes(), 3);
  for (int i = 0; i < targets.rows(); ++i) {
    for (int j = 0; j < 3; ++j) targets(i, j) = (i + j) % 2 == 0 ? 1.0F : 0.0F;
  }
  expect_leaf_gradients_match(leaves_of(model), [&](Tape& tape) {
    Rng drop(1);
    const Var logits = model.forward(tape, s.tensors, feats, drop, true);
    return tape.bce_with_logits_loss(logits, targets);
  }, 3e-3F, 2e-2F, /*kinks=*/true);
}

INSTANTIATE_TEST_SUITE_P(
    AllEncoders, ModelGradientTest, ::testing::ValuesIn(all_gnn_kinds()),
    [](const ::testing::TestParamInfo<GnnKind>& info) {
      std::string name = gnn_kind_name(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace gnnhls
