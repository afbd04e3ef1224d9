// serve/ subsystem tests: the ServingBatcher's determinism contract (served
// predictions bit-identical to sequential QorPredictor::predict), the
// single-request and empty-window paths, concurrent submitters, and clean
// shutdown with in-flight requests.
#include <atomic>
#include <future>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/serving_batcher.h"

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

// ----- ServingBatcher -----

TEST(ServingBatcherTest, ServedPredictionsBitIdenticalToSequential) {
  ServeFixture& fx = fixture();
  ServeConfig sc;
  sc.max_batch = 8;
  sc.batch_window_us = 500;
  ServingBatcher batcher(fx.predictor, sc);

  std::vector<std::future<double>> futures;
  for (const Sample& s : fx.samples) futures.push_back(batcher.submit(s));
  for (std::size_t i = 0; i < fx.samples.size(); ++i) {
    EXPECT_EQ(futures[i].get(), fx.predictor.predict(fx.samples[i]))
        << "sample " << i;
  }
  const ServeStats st = batcher.stats();
  EXPECT_EQ(st.submitted, fx.samples.size());
  EXPECT_EQ(st.completed, fx.samples.size());
  EXPECT_LE(st.max_batch_seen, sc.max_batch);
  EXPECT_EQ(st.flush_full + st.flush_timeout + st.flush_drain, st.batches);
}

TEST(ServingBatcherTest, SingleRequestFlushesOnWindowTimeout) {
  ServeFixture& fx = fixture();
  ServeConfig sc;
  sc.max_batch = 64;  // far above the traffic: only the timer can flush
  sc.batch_window_us = 100;
  ServingBatcher batcher(fx.predictor, sc);
  std::future<double> f = batcher.submit(fx.samples[0]);
  EXPECT_EQ(f.get(), fx.predictor.predict(fx.samples[0]));
  const ServeStats st = batcher.stats();
  EXPECT_EQ(st.batches, 1U);
  EXPECT_EQ(st.flush_timeout, 1U);
  EXPECT_EQ(st.max_batch_seen, 1);
}

TEST(ServingBatcherTest, ZeroWindowServesImmediately) {
  ServeFixture& fx = fixture();
  ServeConfig sc;
  sc.max_batch = 8;
  sc.batch_window_us = 0;  // "never wait" — worker serves whatever is queued
  ServingBatcher batcher(fx.predictor, sc);
  for (int round = 0; round < 3; ++round) {
    std::future<double> f = batcher.submit(fx.samples[0]);
    EXPECT_EQ(f.get(), fx.predictor.predict(fx.samples[0]));
  }
  EXPECT_EQ(batcher.stats().completed, 3U);
}

TEST(ServingBatcherTest, IdleShutdownServesNothing) {
  ServeFixture& fx = fixture();
  ServingBatcher batcher(fx.predictor);
  batcher.shutdown();  // no traffic: worker must exit without a forward
  const ServeStats st = batcher.stats();
  EXPECT_EQ(st.submitted, 0U);
  EXPECT_EQ(st.batches, 0U);
  EXPECT_EQ(st.avg_batch(), 0.0);
}

TEST(ServingBatcherTest, ConcurrentSubmittersAllBitIdentical) {
  ServeFixture& fx = fixture();
  ServeConfig sc;
  sc.max_batch = 8;
  sc.batch_window_us = 300;
  ServingBatcher batcher(fx.predictor, sc);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 12;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int r = 0; r < kPerThread; ++r) {
        const Sample& s =
            fx.samples[static_cast<std::size_t>((t * 7 + r * 3) %
                                                fx.samples.size())];
        if (batcher.submit(s).get() != fx.predictor.predict(s)) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  EXPECT_EQ(mismatches.load(), 0);
  const ServeStats st = batcher.stats();
  EXPECT_EQ(st.submitted, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(st.completed, st.submitted);
}

TEST(ServingBatcherTest, BlockingPredictManyMatchesSequential) {
  ServeFixture& fx = fixture();
  ServingBatcher batcher(fx.predictor);
  std::vector<const Sample*> parts;
  for (int i : fx.split.test) {
    parts.push_back(&fx.samples[static_cast<std::size_t>(i)]);
  }
  const std::vector<double> served = batcher.predict_many(parts);
  ASSERT_EQ(served.size(), parts.size());
  for (std::size_t i = 0; i < parts.size(); ++i) {
    EXPECT_EQ(served[i], fx.predictor.predict(*parts[i]));
  }
  EXPECT_TRUE(batcher.predict_many({}).empty());
}

TEST(ServingBatcherTest, ShutdownDrainsInFlightRequests) {
  ServeFixture& fx = fixture();
  ServeConfig sc;
  sc.max_batch = 4;
  sc.batch_window_us = 50'000;  // long window: requests are queued when
                                // shutdown lands, not yet served
  ServingBatcher batcher(fx.predictor, sc);
  std::vector<std::future<double>> futures;
  for (const Sample& s : fx.samples) futures.push_back(batcher.submit(s));
  batcher.shutdown();
  for (std::size_t i = 0; i < fx.samples.size(); ++i) {
    // Every accepted request is answered, and with the exact sequential
    // value — shutdown changes scheduling, never predictions.
    EXPECT_EQ(futures[i].get(), fx.predictor.predict(fx.samples[i]));
  }
  const ServeStats st = batcher.stats();
  EXPECT_EQ(st.completed, fx.samples.size());
}

TEST(ServingBatcherTest, SubmitAfterShutdownFailsFast) {
  ServeFixture& fx = fixture();
  ServingBatcher batcher(fx.predictor);
  batcher.shutdown();
  batcher.shutdown();  // idempotent
  std::future<double> f = batcher.submit(fx.samples[0]);
  EXPECT_THROW(f.get(), std::runtime_error);
  EXPECT_EQ(batcher.stats().submitted, 0U);
}

TEST(ServingBatcherTest, RejectsBadConfig) {
  ServeFixture& fx = fixture();
  ServeConfig sc;
  sc.max_batch = 0;
  EXPECT_THROW(ServingBatcher(fx.predictor, sc), std::invalid_argument);
  sc.max_batch = 1;
  sc.batch_window_us = -1;
  EXPECT_THROW(ServingBatcher(fx.predictor, sc), std::invalid_argument);
}

}  // namespace
}  // namespace gnnhls
