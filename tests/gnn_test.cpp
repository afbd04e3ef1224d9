#include <cmath>

#include <gtest/gtest.h>

#include "dataset/dataset.h"
#include "gnn/encoders.h"
#include "gnn/feature_encoder.h"
#include "gnn/models.h"
#include "nn/adam.h"

namespace gnnhls {
namespace {

/// Small annotated CDFG sample shared by the encoder tests.
const Sample& test_sample() {
  static const Sample sample = make_sample(
      generate_cdfg_program(11), GraphKind::kCdfg, HlsConfig{}, "test");
  return sample;
}

const Sample& test_dfg_sample() {
  static const Sample sample = make_sample(
      generate_dfg_program(13), GraphKind::kDfg, HlsConfig{}, "test-dfg");
  return sample;
}

TEST(GraphTensorsTest, SelfLoopsAppended) {
  const Sample& s = test_sample();
  const GraphTensors& gt = s.tensors;
  EXPECT_EQ(gt.src_self.size(), gt.src.size() + gt.num_nodes);
  for (int i = 0; i < gt.num_nodes; ++i) {
    EXPECT_EQ(gt.src_self[static_cast<std::size_t>(gt.src.size() + i)], i);
  }
}

TEST(GraphTensorsTest, GcnCoefficientsPositiveAndBounded) {
  const GraphTensors& gt = test_sample().tensors;
  for (float c : gt.gcn_coeff) {
    EXPECT_GT(c, 0.0F);
    EXPECT_LE(c, 1.0F);
  }
}

TEST(GraphTensorsTest, RelationPartitionCoversAllEdges) {
  const GraphTensors& gt = test_sample().tensors;
  int total = 0;
  for (const auto& rel : gt.relations) {
    EXPECT_EQ(rel.src.size(), rel.dst.size());
    total += rel.src.size();
  }
  EXPECT_EQ(total, gt.src.size());
}

TEST(GnnKindTest, NamesRoundTrip) {
  for (GnnKind k : all_gnn_kinds()) {
    EXPECT_EQ(gnn_kind_from_name(gnn_kind_name(k)), k);
  }
  EXPECT_THROW(gnn_kind_from_name("NOPE"), std::invalid_argument);
}

// ----- all 14 encoders, parameterized -----

class EncoderTest : public ::testing::TestWithParam<GnnKind> {};

TEST_P(EncoderTest, OutputShape) {
  const Sample& s = test_sample();
  Rng rng(5);
  EncoderConfig cfg;
  cfg.in_dim = InputFeatureBuilder::feature_dim(Approach::kOffTheShelf);
  cfg.hidden = 16;
  cfg.layers = 2;
  const auto enc = make_encoder(GetParam(), cfg, rng);
  const Matrix feats =
      InputFeatureBuilder::build(s.graph(), Approach::kOffTheShelf);
  Tape tape;
  Rng drop(1);
  const Var h = enc->encode(tape, s.tensors, tape.leaf(feats), drop, false);
  EXPECT_EQ(h.rows(), s.graph().num_nodes());
  EXPECT_EQ(h.cols(), 16);
  for (std::size_t i = 0; i < h.value().size(); ++i) {
    EXPECT_TRUE(std::isfinite(h.value().data()[i]));
  }
}

TEST_P(EncoderTest, GradientReachesAllParameters) {
  const Sample& s = test_sample();
  Rng rng(6);
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
  tape.backward(tape.sum_all(tape.mul(h, h)));
  int with_grad = 0;
  for (const auto* p : enc->parameters()) {
    if (p->var().grad().squared_norm() > 0.0) ++with_grad;
  }
  // Every parameter tensor should receive gradient (ARMA skip weights,
  // attention vectors, relation weights for present relations, ...). Some
  // relation weights legitimately get none if the relation is absent.
  EXPECT_GT(with_grad, static_cast<int>(enc->parameters().size()) / 2);
}

TEST_P(EncoderTest, DeterministicAcrossIdenticalRuns) {
  const Sample& s = test_sample();
  EncoderConfig cfg;
  cfg.in_dim = InputFeatureBuilder::feature_dim(Approach::kOffTheShelf);
  cfg.hidden = 8;
  cfg.layers = 2;
  const Matrix feats =
      InputFeatureBuilder::build(s.graph(), Approach::kOffTheShelf);

  const auto run_once = [&] {
    Rng rng(7);
    const auto enc = make_encoder(GetParam(), cfg, rng);
    Tape tape;
    Rng drop(1);
    return enc->encode(tape, s.tensors, tape.leaf(feats), drop, false)
        .value();
  };
  const Matrix a = run_once();
  const Matrix b = run_once();
  EXPECT_TRUE(a == b);
}

TEST_P(EncoderTest, WorksOnDfgWithoutBackEdges) {
  const Sample& s = test_dfg_sample();
  Rng rng(8);
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
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, EncoderTest, ::testing::ValuesIn(all_gnn_kinds()),
    [](const ::testing::TestParamInfo<GnnKind>& info) {
      std::string name = gnn_kind_name(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ----- feature builder -----

TEST(FeatureBuilderTest, DimsPerApproach) {
  const int base = InputFeatureBuilder::feature_dim(Approach::kOffTheShelf);
  EXPECT_EQ(InputFeatureBuilder::feature_dim(Approach::kKnowledgeInfused),
            base + 3);
  // -R carries log-scaled and linear-scaled resource values.
  EXPECT_EQ(InputFeatureBuilder::feature_dim(Approach::kKnowledgeRich),
            base + 6);
}

TEST(FeatureBuilderTest, OneHotsAreExclusive) {
  const Sample& s = test_sample();
  const Matrix f =
      InputFeatureBuilder::build(s.graph(), Approach::kOffTheShelf);
  // First 5 columns are the node-type one-hot.
  for (int i = 0; i < f.rows(); ++i) {
    float sum = 0.0F;
    for (int j = 0; j < kNumNodeGeneralTypes; ++j) sum += f(i, j);
    EXPECT_FLOAT_EQ(sum, 1.0F);
  }
}

TEST(FeatureBuilderTest, KnowledgeBitsMatchAnnotations) {
  const Sample& s = test_sample();
  const Matrix f =
      InputFeatureBuilder::build(s.graph(), Approach::kKnowledgeInfused);
  const int base = InputFeatureBuilder::feature_dim(Approach::kOffTheShelf);
  for (int i = 0; i < s.graph().num_nodes(); ++i) {
    EXPECT_FLOAT_EQ(f(i, base),
                    s.graph().node(i).resource.uses_dsp ? 1.0F : 0.0F);
  }
}

TEST(FeatureBuilderTest, InferredOverrideReplacesLabels) {
  const Sample& s = test_sample();
  std::vector<InferredTypes> inferred(
      static_cast<std::size_t>(s.graph().num_nodes()));
  for (auto& t : inferred) t = InferredTypes{1.0F, 0.0F, 1.0F};
  const Matrix f = InputFeatureBuilder::build(
      s.graph(), Approach::kKnowledgeInfused, &inferred);
  const int base = InputFeatureBuilder::feature_dim(Approach::kOffTheShelf);
  for (int i = 0; i < f.rows(); ++i) {
    EXPECT_FLOAT_EQ(f(i, base), 1.0F);
    EXPECT_FLOAT_EQ(f(i, base + 1), 0.0F);
  }
}

TEST(FeatureBuilderTest, InferredRejectedForOtherApproaches) {
  const Sample& s = test_sample();
  std::vector<InferredTypes> inferred(
      static_cast<std::size_t>(s.graph().num_nodes()));
  EXPECT_THROW(InputFeatureBuilder::build(s.graph(), Approach::kOffTheShelf,
                                          &inferred),
               std::invalid_argument);
}

TEST(FeatureBuilderTest, NodeLabelsBinary) {
  const Sample& s = test_sample();
  const Matrix labels = InputFeatureBuilder::node_type_labels(s.graph());
  EXPECT_EQ(labels.cols(), 3);
  bool any_lut = false;
  for (int i = 0; i < labels.rows(); ++i) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_TRUE(labels(i, j) == 0.0F || labels(i, j) == 1.0F);
    }
    any_lut |= labels(i, 1) == 1.0F;
  }
  EXPECT_TRUE(any_lut);  // something must use LUTs
}

// ----- models -----

TEST(GraphRegressorTest, ScalarOutputAndTraining) {
  const Sample& s = test_sample();
  Rng rng(9);
  ModelConfig cfg;
  cfg.kind = GnnKind::kGcn;
  cfg.hidden = 16;
  cfg.layers = 2;
  GraphRegressor model(
      cfg, InputFeatureBuilder::feature_dim(Approach::kOffTheShelf), rng);
  const Matrix feats =
      InputFeatureBuilder::build(s.graph(), Approach::kOffTheShelf);
  Adam opt(model, AdamConfig{.lr = 0.01F});
  const float target = 3.5F;
  float first = 0.0F, last = 0.0F;
  for (int step = 0; step < 60; ++step) {
    Tape tape;
    Rng drop(1);
    const Var pred = model.forward(tape, s.tensors, feats, drop, true);
    EXPECT_EQ(pred.rows(), 1);
    EXPECT_EQ(pred.cols(), 1);
    const Var loss = tape.mse_loss(pred, Matrix(1, 1, target));
    if (step == 0) first = loss.value()(0, 0);
    last = loss.value()(0, 0);
    tape.backward(loss);
    opt.step();
  }
  EXPECT_LT(last, first * 0.05F);
}

TEST(GraphRegressorTest, PoolingModesDiffer) {
  const Sample& s = test_sample();
  const Matrix feats =
      InputFeatureBuilder::build(s.graph(), Approach::kOffTheShelf);
  ModelConfig sum_cfg;
  sum_cfg.hidden = 8;
  sum_cfg.layers = 1;
  sum_cfg.pooling = Pooling::kSum;
  ModelConfig mean_cfg = sum_cfg;
  mean_cfg.pooling = Pooling::kMean;
  Rng rng1(3), rng2(3);
  GraphRegressor sum_model(
      sum_cfg, InputFeatureBuilder::feature_dim(Approach::kOffTheShelf),
      rng1);
  GraphRegressor mean_model(
      mean_cfg, InputFeatureBuilder::feature_dim(Approach::kOffTheShelf),
      rng2);
  EXPECT_NE(sum_model.predict_batch(s.tensors, feats),
            mean_model.predict_batch(s.tensors, feats));
}

TEST(NodeClassifierTest, LogitsShapeAndInference) {
  const Sample& s = test_sample();
  Rng rng(10);
  ModelConfig cfg;
  cfg.kind = GnnKind::kRgcn;
  cfg.hidden = 16;
  cfg.layers = 2;
  NodeClassifier model(
      cfg, InputFeatureBuilder::feature_dim(Approach::kOffTheShelf), rng);
  const Matrix feats =
      InputFeatureBuilder::build(s.graph(), Approach::kOffTheShelf);
  Tape tape;
  Rng drop(1);
  const Var logits = model.forward(tape, s.tensors, feats, drop, false);
  EXPECT_EQ(logits.rows(), s.graph().num_nodes());
  EXPECT_EQ(logits.cols(), 3);
  const auto types = model.infer_types(s.tensors, feats);
  EXPECT_EQ(static_cast<int>(types.size()), s.graph().num_nodes());
  for (const auto& t : types) {
    EXPECT_TRUE(t.dsp == 0.0F || t.dsp == 1.0F);
  }
}

}  // namespace
}  // namespace gnnhls
