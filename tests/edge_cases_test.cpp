// Failure-injection and boundary-condition tests across modules.
#include <cmath>

#include <gtest/gtest.h>

#include "core/predictor.h"
#include "gnn/encoders.h"
#include "gnn/models.h"

namespace gnnhls {
namespace {

/// A single-node graph: no edges at all. Every encoder must handle the
/// empty-edge paths (gather/scatter over zero edges, empty relations,
/// attention with only self loops).
Sample single_node_sample() {
  Function f;
  f.name = "tiny";
  f.params.push_back(Param{"a", ScalarType{32, true}, 0, false});
  f.body.push_back(ret(var("a")));
  return make_sample(f, GraphKind::kDfg, HlsConfig{}, "tiny");
}

class SingleNodeEncoderTest : public ::testing::TestWithParam<GnnKind> {};

TEST_P(SingleNodeEncoderTest, HandlesGraphWithFewEdges) {
  const Sample s = single_node_sample();
  Rng rng(3);
  EncoderConfig cfg;
  cfg.in_dim = InputFeatureBuilder::feature_dim(Approach::kOffTheShelf);
  cfg.hidden = 8;
  cfg.layers = 2;
  const auto enc = make_encoder(GetParam(), cfg, rng);
  const Matrix feats =
      InputFeatureBuilder::build(s.graph(), Approach::kOffTheShelf);
  Tape tape;
  Rng drop(1);
  const Var h = enc->encode(tape, s.tensors, tape.leaf(feats), drop, false);
  EXPECT_EQ(h.rows(), s.graph().num_nodes());
  for (std::size_t i = 0; i < h.value().size(); ++i) {
    EXPECT_TRUE(std::isfinite(h.value().data()[i]));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, SingleNodeEncoderTest, ::testing::ValuesIn(all_gnn_kinds()),
    [](const ::testing::TestParamInfo<GnnKind>& info) {
      std::string name = gnn_kind_name(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(EdgeCaseTest, RegressorPredictsOnTinyGraph) {
  const Sample s = single_node_sample();
  Rng rng(5);
  ModelConfig mc;
  mc.kind = GnnKind::kPna;  // degree scalers must not divide by zero
  mc.hidden = 8;
  mc.layers = 1;
  GraphRegressor model(
      mc, InputFeatureBuilder::feature_dim(Approach::kOffTheShelf), rng);
  const Matrix feats =
      InputFeatureBuilder::build(s.graph(), Approach::kOffTheShelf);
  EXPECT_TRUE(std::isfinite(model.predict_batch(s.tensors, feats)[0]));
}

TEST(EdgeCaseTest, EncoderConfigValidation) {
  Rng rng(1);
  EXPECT_THROW(make_encoder(GnnKind::kGcn, EncoderConfig{0, 8, 2, 0.0F}, rng),
               std::invalid_argument);
  EXPECT_THROW(make_encoder(GnnKind::kGcn, EncoderConfig{8, 0, 2, 0.0F}, rng),
               std::invalid_argument);
  EXPECT_THROW(make_encoder(GnnKind::kGcn, EncoderConfig{8, 8, 0, 0.0F}, rng),
               std::invalid_argument);
}

TEST(EdgeCaseTest, DropoutOneRejected) {
  Tape tape;
  Rng rng(1);
  const Var x = tape.leaf(Matrix(2, 2, 1.0F), true);
  EXPECT_THROW(tape.dropout(x, 1.0F, rng, true), std::invalid_argument);
}

TEST(EdgeCaseTest, DropoutZeroIsIdentity) {
  Tape tape;
  Rng rng(1);
  const Var x = tape.leaf(Matrix(2, 2, 3.0F), true);
  const Var y = tape.dropout(x, 0.0F, rng, true);
  EXPECT_TRUE(y.value() == x.value());
}

TEST(EdgeCaseTest, FitRejectsEmptySplit) {
  SyntheticDatasetConfig dc;
  dc.kind = GraphKind::kDfg;
  dc.num_graphs = 12;
  const auto samples = build_synthetic_dataset(dc);
  SplitIndices bad;
  bad.train = {};
  bad.val = {0};
  bad.test = {1};
  ModelConfig mc;
  mc.hidden = 8;
  mc.layers = 1;
  QorPredictor predictor(Approach::kOffTheShelf, mc, TrainConfig{.epochs = 1});
  EXPECT_THROW(predictor.fit(samples, bad, Metric::kLut, FitOptions{}),
               std::invalid_argument);
}

TEST(EdgeCaseTest, GatherRowsRejectsBadIndex) {
  Tape tape;
  const Var x = tape.leaf(Matrix(3, 2, 1.0F));
  EXPECT_THROW(tape.gather_rows(x, SegmentIndex({0, 3}, 3)),
               std::invalid_argument);
  EXPECT_THROW(tape.gather_rows(x, SegmentIndex({-1}, 3)),
               std::invalid_argument);
  // In range for the index, but over a different row count than x.
  EXPECT_THROW(tape.gather_rows(x, SegmentIndex({0, 1}, 2)),
               std::invalid_argument);
}

TEST(EdgeCaseTest, ScatterRejectsBadTarget) {
  Tape tape;
  const Var x = tape.leaf(Matrix(2, 2, 1.0F));
  EXPECT_THROW(tape.scatter_add_rows(x, SegmentIndex({0, 5}, 3)),
               std::invalid_argument);
  EXPECT_THROW(tape.scatter_add_rows(x, SegmentIndex({0}, 3)),
               std::invalid_argument);
}

// Segment ids {0, 1, 7} over 2 segments: 7 lies outside [0, 2) and must be
// rejected before any kernel indexes a per-segment buffer with it.
TEST(EdgeCaseTest, SegmentMaxRejectsOutOfRangeSegment) {
  Tape tape;
  const Var x = tape.leaf(Matrix(3, 2, 1.0F));
  EXPECT_THROW(tape.segment_max(x, SegmentIndex({0, 1, 7}, 2)),
               std::invalid_argument);
}

TEST(EdgeCaseTest, SegmentMinRejectsOutOfRangeSegment) {
  Tape tape;
  const Var x = tape.leaf(Matrix(3, 2, 1.0F));
  EXPECT_THROW(tape.segment_min(x, SegmentIndex({0, 1, 7}, 2)),
               std::invalid_argument);
}

TEST(EdgeCaseTest, SegmentSoftmaxRejectsOutOfRangeSegment) {
  Tape tape;
  const Var x = tape.leaf(Matrix(3, 1, 1.0F));
  EXPECT_THROW(tape.segment_softmax(x, SegmentIndex({0, 1, 7}, 2)),
               std::invalid_argument);
}

TEST(EdgeCaseTest, SliceColsRangeValidation) {
  Tape tape;
  const Var x = tape.leaf(Matrix(2, 4, 1.0F));
  EXPECT_THROW(tape.slice_cols(x, 2, 2), std::invalid_argument);
  EXPECT_THROW(tape.slice_cols(x, -1, 2), std::invalid_argument);
  EXPECT_THROW(tape.slice_cols(x, 0, 5), std::invalid_argument);
}

TEST(EdgeCaseTest, SegmentSoftmaxRequiresColumn) {
  Tape tape;
  const Var x = tape.leaf(Matrix(3, 2, 1.0F));
  EXPECT_THROW(tape.segment_softmax(x, SegmentIndex({0, 0, 1}, 2)),
               std::invalid_argument);
}

TEST(EdgeCaseTest, HugeBitwidthClampedInResourceModel) {
  ResourceLibrary lib;
  const OpCost c = lib.cost(Opcode::kAdd, 256);
  EXPECT_TRUE(std::isfinite(c.lut));
  EXPECT_GT(c.lut, lib.cost(Opcode::kAdd, 8).lut);
}

TEST(EdgeCaseTest, TrainingSurvivesZeroTargetGraphs) {
  // All-zero DSP targets (no wide multiplies) must not break training or
  // MAPE evaluation (floor guards the denominator).
  ProgenConfig pc;
  pc.min_ops = 4;
  pc.max_ops = 8;
  pc.wide_ops = false;
  SyntheticDatasetConfig dc;
  dc.kind = GraphKind::kDfg;
  dc.num_graphs = 20;
  dc.progen = pc;
  const auto samples = build_synthetic_dataset(dc);
  const SplitIndices split = split_80_10_10(20, 3);
  ModelConfig mc;
  mc.hidden = 8;
  mc.layers = 1;
  QorPredictor predictor(Approach::kOffTheShelf, mc,
                         TrainConfig{.epochs = 3});
  const double val =
      predictor.fit(samples, split, Metric::kDsp, FitOptions{}).best_val;
  EXPECT_TRUE(std::isfinite(val));
}

}  // namespace
}  // namespace gnnhls
