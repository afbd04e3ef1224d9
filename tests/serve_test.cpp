// The serving tier's core entry point: QorPredictor::predict_many, the one
// batched forward every ServingScheduler micro-batch runs, must reproduce
// sequential QorPredictor::predict bit for bit (off-the-shelf and the -I
// self-inferred path) and accept an empty batch. The scheduler built on it
// is tested in scheduler_test.cpp.
#include <vector>

#include <gtest/gtest.h>

#include "core/predictor.h"

namespace gnnhls {
namespace {

std::vector<Sample> small_corpus(int n, std::uint64_t seed) {
  SyntheticDatasetConfig dcfg;
  dcfg.kind = GraphKind::kDfg;
  dcfg.num_graphs = n;
  dcfg.seed = seed;
  dcfg.progen.min_ops = 8;
  dcfg.progen.max_ops = 24;
  return build_synthetic_dataset(dcfg);
}

/// One quickly-fitted predictor shared by every test: serving is inference
/// only, so a few epochs on a small corpus exercise the full contract.
struct ServeFixture {
  std::vector<Sample> samples = small_corpus(36, 515);
  SplitIndices split = split_80_10_10(static_cast<int>(samples.size()), 3);
  QorPredictor predictor;

  ServeFixture() : predictor(Approach::kOffTheShelf, model_cfg(), train_cfg()) {
    predictor.fit(samples, split, Metric::kLut, FitOptions{});
  }

  static ModelConfig model_cfg() {
    ModelConfig mc;
    mc.kind = GnnKind::kRgcn;
    mc.hidden = 16;
    mc.layers = 2;
    return mc;
  }
  static TrainConfig train_cfg() {
    TrainConfig tc;
    tc.epochs = 3;
    tc.lr = 1e-2F;
    tc.batch_size = 4;
    tc.seed = 5;
    return tc;
  }
};

ServeFixture& fixture() {
  static ServeFixture* f = new ServeFixture();  // fit once per test binary
  return *f;
}

// ----- core batched entry point -----

TEST(PredictManyTest, BitIdenticalToSequentialPredict) {
  ServeFixture& fx = fixture();
  std::vector<const Sample*> parts;
  for (const Sample& s : fx.samples) parts.push_back(&s);
  const std::vector<double> batched = fx.predictor.predict_many(parts);
  ASSERT_EQ(batched.size(), fx.samples.size());
  for (std::size_t i = 0; i < fx.samples.size(); ++i) {
    EXPECT_EQ(batched[i], fx.predictor.predict(fx.samples[i])) << "sample "
                                                               << i;
  }
}

TEST(PredictManyTest, EmptyInputReturnsEmpty) {
  EXPECT_TRUE(fixture().predictor.predict_many({}).empty());
}

TEST(PredictManyTest, HierarchicalPathBitIdentical) {
  // The -I self-inferred path owns per-sample classifier-annotated feature
  // matrices instead of reading the FeatureCache; the batched union must
  // still reproduce the solo forward bit-for-bit.
  const auto samples = small_corpus(24, 929);
  const SplitIndices split =
      split_80_10_10(static_cast<int>(samples.size()), 3);
  TrainConfig tc = ServeFixture::train_cfg();
  tc.epochs = 2;
  QorPredictor predictor(Approach::kKnowledgeInfused,
                         ServeFixture::model_cfg(), tc);
  predictor.fit(samples, split, Metric::kFf, FitOptions{});
  std::vector<const Sample*> parts;
  for (int i : split.test) parts.push_back(&samples[static_cast<size_t>(i)]);
  const std::vector<double> batched = predictor.predict_many(parts);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    EXPECT_EQ(batched[i], predictor.predict(*parts[i]));
  }
}

}  // namespace
}  // namespace gnnhls
