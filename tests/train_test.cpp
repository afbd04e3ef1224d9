// train/ subsystem tests: sharded-epoch determinism (shards=N bit-identical
// to shards=1, at batch_size 1 and above), concurrent fits bit-identical to
// serial ones, BatchPlan membership stability across epoch rotations,
// one-graph batches that are their member sample, segments that reproduce a
// plain build and keep their cores, sample-owned features (built once,
// shared by copies, concurrent first reads included), and evaluate_mape as
// predict_many chunks.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <iterator>
#include <memory>
#include <numeric>
#include <set>
#include <thread>
#include <utility>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/metrics.h"
#include "core/predictor.h"
#include "dataset/serialize.h"
#include "nn/layers.h"
#include "support/parallel.h"
#include "train/batch_plan.h"
#include "train/trainer.h"

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

/// Restores the default global pool when a test resizes it.
struct PoolGuard {
  explicit PoolGuard(int threads) { ThreadPool::set_global_threads(threads); }
  ~PoolGuard() { ThreadPool::set_global_threads(0); }
};

// ----- sharded training determinism -----

TEST(ShardedTrainingTest, RegressorShardsAreBitIdentical) {
  PoolGuard pool(4);  // real workers so shards actually run concurrently
  const auto samples = small_corpus(40, 2024);
  const SplitIndices split =
      split_80_10_10(static_cast<int>(samples.size()), 9);

  ModelConfig mc;
  mc.kind = GnnKind::kGcn;
  mc.hidden = 16;
  mc.layers = 2;
  mc.dropout = 0.2F;  // exercises the per-(epoch, batch) dropout streams
  TrainConfig tc;
  tc.epochs = 5;
  tc.lr = 1e-2F;
  tc.seed = 11;
  tc.batch_size = 4;
  tc.grad_accum = 2;  // two batches merge into every Adam step

  tc.shards = 1;
  QorPredictor serial(Approach::kOffTheShelf, mc, tc);
  const double serial_val =
      serial.fit(samples, split, Metric::kLut, FitOptions{}).best_val;
  const std::vector<Matrix> serial_params =
      snapshot_parameters(serial.regressor());

  tc.shards = 4;
  QorPredictor sharded(Approach::kOffTheShelf, mc, tc);
  const double sharded_val =
      sharded.fit(samples, split, Metric::kLut, FitOptions{}).best_val;
  const std::vector<Matrix> sharded_params =
      snapshot_parameters(sharded.regressor());

  // Bit-identical: same best-validation MAPE, same final parameters.
  EXPECT_EQ(serial_val, sharded_val);
  ASSERT_EQ(serial_params.size(), sharded_params.size());
  for (std::size_t i = 0; i < serial_params.size(); ++i) {
    EXPECT_TRUE(serial_params[i] == sharded_params[i]) << "parameter " << i;
  }
  // And identical test-set behavior.
  EXPECT_EQ(serial.evaluate_mape(samples, split.test),
            sharded.evaluate_mape(samples, split.test));
}

TEST(ShardedTrainingTest, ClassifierShardsAreBitIdentical) {
  PoolGuard pool(3);
  const auto samples = small_corpus(32, 4711);
  const SplitIndices split =
      split_80_10_10(static_cast<int>(samples.size()), 5);

  ModelConfig mc;
  mc.kind = GnnKind::kGcn;
  mc.hidden = 12;
  mc.layers = 2;
  TrainConfig tc;
  tc.epochs = 4;
  tc.lr = 1e-2F;
  tc.seed = 3;
  tc.batch_size = 4;
  tc.grad_accum = 3;

  tc.shards = 1;
  NodeTypePredictor serial(mc, tc);
  const double serial_acc = serial.fit(samples, split, FitOptions{}).best_val;

  tc.shards = 3;
  NodeTypePredictor sharded(mc, tc);
  const double sharded_acc = sharded.fit(samples, split, FitOptions{}).best_val;

  EXPECT_EQ(serial_acc, sharded_acc);
  const auto a = snapshot_parameters(serial.classifier());
  const auto b = snapshot_parameters(sharded.classifier());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i] == b[i]) << "parameter " << i;
  }
}

TEST(ShardedTrainingTest, ShardCountBeyondBatchesIsClamped) {
  const auto samples = small_corpus(12, 77);
  const SplitIndices split =
      split_80_10_10(static_cast<int>(samples.size()), 1);
  ModelConfig mc;
  mc.kind = GnnKind::kGcn;
  mc.hidden = 8;
  mc.layers = 1;
  TrainConfig tc;
  tc.epochs = 2;
  tc.batch_size = 4;
  tc.grad_accum = 8;  // step span larger than the epoch's batch count
  tc.shards = 64;     // far more shards than batches
  QorPredictor predictor(Approach::kOffTheShelf, mc, tc);
  const double val =
      predictor.fit(samples, split, Metric::kLut, FitOptions{}).best_val;
  EXPECT_TRUE(std::isfinite(val));
}

TEST(ShardedTrainingTest, BatchSizeOneBitIdenticalAcrossShardsAndPools) {
  const auto samples = small_corpus(30, 1357);
  const SplitIndices split =
      split_80_10_10(static_cast<int>(samples.size()), 3);
  ModelConfig mc;
  mc.kind = GnnKind::kGcn;
  mc.hidden = 12;
  mc.layers = 2;
  mc.dropout = 0.2F;
  TrainConfig tc;
  tc.epochs = 3;
  tc.lr = 1e-2F;
  tc.seed = 17;
  tc.batch_size = 1;
  tc.batch_graphs = 8;  // one-graph batches per Adam step

  // -I fits the node classifier and the regressor, both at batch_size 1;
  // -I validation runs through the classifier, so best_val covers both.
  std::vector<Matrix> ref_params;
  double ref_val = 0.0;
  for (int pool : {1, 4}) {
    for (int shards : {1, 2, 4}) {
      PoolGuard guard(pool);
      tc.shards = shards;
      QorPredictor p(Approach::kKnowledgeInfused, mc, tc);
      const FitReport r = p.fit(samples, split, Metric::kLut, FitOptions{});
      EXPECT_EQ(r.steps,
                tc.epochs * static_cast<long>((split.train.size() + 7) / 8));
      const std::vector<Matrix> params = snapshot_parameters(p.regressor());
      if (ref_params.empty()) {
        ref_params = params;
        ref_val = r.best_val;
        // One-sample -I evaluation chunks score exactly like predict().
        std::vector<double> pred, truth;
        for (int i : split.test) {
          const Sample& s = samples[static_cast<std::size_t>(i)];
          pred.push_back(p.predict(s));
          truth.push_back(metric_of(s.truth, Metric::kLut));
        }
        EXPECT_EQ(p.evaluate_mape(samples, split.test), mape(pred, truth));
        continue;
      }
      EXPECT_EQ(r.best_val, ref_val) << "pool " << pool << " shards "
                                     << shards;
      ASSERT_EQ(params.size(), ref_params.size());
      for (std::size_t i = 0; i < params.size(); ++i) {
        EXPECT_TRUE(params[i] == ref_params[i])
            << "pool " << pool << " shards " << shards << " parameter " << i;
      }
    }
  }
}

// evaluate_mape is one path for every approach: consecutive batch_size
// chunks of the index list, each scored by one predict_many call. -I chunks
// run the classifier per sample; multi-graph chunks run as one union.
TEST(EvaluateMapeTest, EqualsPredictManyChunksForEveryApproach) {
  const auto samples = small_corpus(30, 8642);
  const SplitIndices split =
      split_80_10_10(static_cast<int>(samples.size()), 4);
  ModelConfig mc;
  mc.kind = GnnKind::kGcn;
  mc.hidden = 12;
  mc.layers = 2;
  TrainConfig tc;
  tc.epochs = 2;
  tc.lr = 1e-2F;
  tc.seed = 23;
  // Scored over the whole corpus: 30 samples leave a short last chunk.
  std::vector<int> idx(samples.size());
  std::iota(idx.begin(), idx.end(), 0);
  for (Approach a : {Approach::kOffTheShelf, Approach::kKnowledgeInfused}) {
    for (int bs : {1, 4}) {
      tc.batch_size = bs;
      QorPredictor p(a, mc, tc);
      p.fit(samples, split, Metric::kLut, FitOptions{});
      const std::size_t step = static_cast<std::size_t>(bs);
      std::vector<double> pred, truth;
      for (std::size_t pos = 0; pos < idx.size(); pos += step) {
        std::vector<const Sample*> chunk;
        for (std::size_t i = pos; i < std::min(pos + step, idx.size()); ++i) {
          const Sample& s = samples[static_cast<std::size_t>(idx[i])];
          chunk.push_back(&s);
          truth.push_back(metric_of(s.truth, Metric::kLut));
        }
        for (double v : p.predict_many(chunk)) pred.push_back(v);
      }
      const double want = mape(pred, truth);
      for (int pool : {1, 4}) {
        PoolGuard guard(pool);
        EXPECT_EQ(p.evaluate_mape(samples, idx), want)
            << "approach " << static_cast<int>(a) << " batch_size " << bs
            << " pool " << pool;
      }
    }
  }
}

TEST(ConcurrentFitTest, ParallelFitsAreBitIdenticalToSerialFits) {
  // Fits over one corpus, seed and split, run as the table benches run
  // them: on run_parallel threads. The -I predictor builds a classifier and
  // a regressor plan; the two metrics build the same regressor batches.
  PoolGuard pool(2);
  const auto samples = small_corpus(32, 3131);
  const SplitIndices split =
      split_80_10_10(static_cast<int>(samples.size()), 3);
  ModelConfig mc;
  mc.kind = GnnKind::kGcn;
  mc.hidden = 12;
  mc.layers = 2;
  mc.dropout = 0.2F;
  TrainConfig tc;
  tc.epochs = 3;
  tc.lr = 1e-2F;
  tc.seed = 13;
  tc.batch_size = 4;
  tc.shards = 2;
  const std::vector<std::pair<Approach, Metric>> fits = {
      {Approach::kKnowledgeInfused, Metric::kLut},
      {Approach::kOffTheShelf, Metric::kLut},
      {Approach::kOffTheShelf, Metric::kFf}};

  struct Outcome {
    std::vector<Matrix> params;
    double test_mape = 0.0;
  };
  const auto run = [&](int threads) {
    std::vector<Outcome> out(fits.size());
    std::vector<std::function<void()>> jobs;
    for (std::size_t j = 0; j < fits.size(); ++j) {
      jobs.push_back([&, j] {
        QorPredictor p(fits[j].first, mc, tc);
        p.fit(samples, split, fits[j].second, FitOptions{});
        out[j].params = snapshot_parameters(p.regressor());
        out[j].test_mape = p.evaluate_mape(samples, split.test);
      });
    }
    run_parallel(std::move(jobs), threads);
    return out;
  };

  const std::vector<Outcome> serial = run(1);
  const std::vector<Outcome> parallel = run(3);
  for (std::size_t j = 0; j < fits.size(); ++j) {
    EXPECT_EQ(parallel[j].test_mape, serial[j].test_mape) << "fit " << j;
    ASSERT_EQ(parallel[j].params.size(), serial[j].params.size());
    for (std::size_t i = 0; i < serial[j].params.size(); ++i) {
      EXPECT_TRUE(parallel[j].params[i] == serial[j].params[i])
          << "fit " << j << " parameter " << i;
    }
  }
}

// ----- FitOptions / online refit -----

TEST(RefitTest, FitReportCurveAndBestEpoch) {
  const auto samples = small_corpus(30, 515);
  const auto delta = small_corpus(6, 616);
  const SplitIndices split =
      split_80_10_10(static_cast<int>(samples.size()), 2);
  ModelConfig mc;
  mc.kind = GnnKind::kGcn;
  mc.hidden = 12;
  mc.layers = 2;
  TrainConfig tc;
  tc.epochs = 5;
  tc.lr = 1e-2F;
  tc.batch_size = 4;
  // One fit's report against the weights it deployed: `deployed` is the
  // validation score of the kept model, `higher` the score's direction
  // (MAPE lower-is-better, classifier accuracy higher-is-better).
  const auto check = [&](const FitReport& report, double deployed,
                         bool higher) {
    EXPECT_EQ(report.epochs_run, tc.epochs);
    EXPECT_GT(report.steps, 0);
    const std::vector<double>& curve = report.val_curve;
    ASSERT_EQ(curve.size(), static_cast<std::size_t>(tc.epochs));
    ASSERT_GE(report.best_epoch, 0);
    ASSERT_LT(report.best_epoch, tc.epochs);
    EXPECT_EQ(report.best_val,
              higher ? *std::max_element(curve.begin(), curve.end())
                     : *std::min_element(curve.begin(), curve.end()));
    EXPECT_EQ(report.best_val,
              curve[static_cast<std::size_t>(report.best_epoch)]);
    // The fit restored the selected checkpoint: the deployed validation
    // score is the best epoch's.
    EXPECT_EQ(deployed, report.best_val);
    // The curve peaks before the last epoch, so the restore deployed
    // weights other than the final epoch's.
    EXPECT_LT(report.best_epoch, tc.epochs - 1);
  };
  QorPredictor p(Approach::kOffTheShelf, mc, tc);
  FitReport qor;
  {
    SCOPED_TRACE("QorPredictor");
    qor = p.fit(samples, split, Metric::kLut, FitOptions{});
    check(qor, p.evaluate_mape(samples, split.val), false);
  }
  {
    SCOPED_TRACE("NodeTypePredictor");
    // The classifier's larger step makes its accuracy peak before the last
    // epoch, as the regressor's MAPE does at tc.lr.
    TrainConfig cls_tc = tc;
    cls_tc.lr = 5e-2F;
    NodeTypePredictor n(mc, cls_tc);
    const FitReport report = n.fit(samples, split, FitOptions{});
    const NodeClassifierScores val = n.evaluate(samples, split.val);
    check(report, (val.dsp + val.lut + val.ff) / 3.0, true);
  }
  // A refit validates nothing and keeps its last epoch.
  const FitOptions opts = QorPredictor::refit_defaults();
  const FitReport refit = p.refit(delta, opts);
  EXPECT_TRUE(refit.val_curve.empty());
  EXPECT_EQ(refit.best_epoch, -1);
  EXPECT_EQ(refit.epochs_run, opts.epochs);
  EXPECT_GT(refit.steps, 0);
  // A second identical fit reports the same selection.
  QorPredictor again(Approach::kOffTheShelf, mc, tc);
  EXPECT_EQ(again.fit(samples, split, Metric::kLut, FitOptions{}).best_val,
            qor.best_val);
}

TEST(RefitTest, RefitBitIdenticalAcrossShardsAndThreads) {
  const auto samples = small_corpus(36, 808);
  const auto delta = small_corpus(8, 909);  // fresh ground truth to feed back
  // A second round reuses the first delta's retained segment.
  const auto delta2 = small_corpus(6, 1010);
  const SplitIndices split =
      split_80_10_10(static_cast<int>(samples.size()), 4);
  ModelConfig mc;
  mc.kind = GnnKind::kGcn;
  mc.hidden = 16;
  mc.layers = 2;
  mc.dropout = 0.2F;  // dropout streams must survive the refit re-seeding
  TrainConfig tc;
  tc.epochs = 4;
  tc.lr = 1e-2F;
  tc.seed = 21;
  tc.batch_size = 4;
  tc.grad_accum = 2;

  std::vector<Matrix> serial_params;
  double serial_val = 0.0;
  {
    PoolGuard pool(1);
    tc.shards = 1;
    QorPredictor p(Approach::kOffTheShelf, mc, tc);
    p.fit(samples, split, Metric::kLut, FitOptions{});
    p.refit(delta);
    p.refit(delta2);
    serial_params = snapshot_parameters(p.regressor());
    serial_val = p.evaluate_mape(samples, split.test);
  }
  {
    PoolGuard pool(4);
    tc.shards = 4;
    QorPredictor p(Approach::kOffTheShelf, mc, tc);
    p.fit(samples, split, Metric::kLut, FitOptions{});
    p.refit(delta);
    p.refit(delta2);
    const std::vector<Matrix> sharded_params =
        snapshot_parameters(p.regressor());
    ASSERT_EQ(serial_params.size(), sharded_params.size());
    for (std::size_t i = 0; i < serial_params.size(); ++i) {
      EXPECT_TRUE(serial_params[i] == sharded_params[i])
          << "parameter " << i;
    }
    EXPECT_EQ(serial_val, p.evaluate_mape(samples, split.test));
  }
}

TEST(RefitTest, RefitMovesDeterministically) {
  const auto samples = small_corpus(30, 616);
  const auto delta = small_corpus(6, 717);
  const SplitIndices split =
      split_80_10_10(static_cast<int>(samples.size()), 8);
  ModelConfig mc;
  mc.kind = GnnKind::kGcn;
  mc.hidden = 12;
  mc.layers = 2;
  TrainConfig tc;
  tc.epochs = 4;
  tc.lr = 1e-2F;
  tc.seed = 5;
  tc.batch_size = 4;

  auto fit_fresh = [&] {
    auto p = std::make_unique<QorPredictor>(Approach::kOffTheShelf, mc, tc);
    p->fit(samples, split, Metric::kLut, FitOptions{});
    return p;
  };

  auto a = fit_fresh();
  const std::vector<Matrix> before = snapshot_parameters(a->regressor());
  EXPECT_EQ(a->refits(), 0);
  a->refit(delta);
  EXPECT_EQ(a->refits(), 1);
  const std::vector<Matrix> warm1 = snapshot_parameters(a->regressor());
  // The refit actually moved the model.
  bool moved = false;
  for (std::size_t i = 0; i < before.size(); ++i) {
    if (!(before[i] == warm1[i])) moved = true;
  }
  EXPECT_TRUE(moved);

  // Deterministic: an identical fit + refit sequence lands bitwise equal.
  auto b = fit_fresh();
  b->refit(delta);
  const std::vector<Matrix> warm2 = snapshot_parameters(b->regressor());
  ASSERT_EQ(warm1.size(), warm2.size());
  for (std::size_t i = 0; i < warm1.size(); ++i) {
    EXPECT_TRUE(warm1[i] == warm2[i]) << "parameter " << i;
  }
}

TEST(RefitTest, BatchSizeOneRefitRunsThroughSegments) {
  const auto samples = small_corpus(30, 2468);
  const auto delta = small_corpus(5, 1357);
  const SplitIndices split =
      split_80_10_10(static_cast<int>(samples.size()), 7);
  ModelConfig mc;
  mc.kind = GnnKind::kGcn;
  mc.hidden = 12;
  mc.layers = 2;
  TrainConfig tc;
  tc.epochs = 3;
  tc.lr = 1e-2F;
  tc.seed = 9;
  tc.batch_size = 1;
  tc.batch_graphs = 4;

  std::vector<Matrix> ref_params;
  for (int shards : {1, 3}) {
    PoolGuard guard(shards);
    tc.shards = shards;
    QorPredictor p(Approach::kOffTheShelf, mc, tc);
    p.fit(samples, split, Metric::kLut, FitOptions{});
    const FitReport r = p.refit(delta);
    const long per_epoch =
        static_cast<long>((split.train.size() + delta.size() + 3) / 4);
    EXPECT_EQ(r.steps, r.epochs_run * per_epoch);
    // One-sample evaluation chunks score exactly like predict().
    std::vector<double> pred, truth;
    for (int i : split.test) {
      const Sample& s = samples[static_cast<std::size_t>(i)];
      pred.push_back(p.predict(s));
      truth.push_back(metric_of(s.truth, Metric::kLut));
    }
    EXPECT_EQ(p.evaluate_mape(samples, split.test), mape(pred, truth));
    const std::vector<Matrix> params = snapshot_parameters(p.regressor());
    if (ref_params.empty()) {
      ref_params = params;
      continue;
    }
    ASSERT_EQ(params.size(), ref_params.size());
    for (std::size_t i = 0; i < params.size(); ++i) {
      EXPECT_TRUE(params[i] == ref_params[i]) << "parameter " << i;
    }
  }
}

TEST(RefitTest, RefitBeforeFitThrows) {
  ModelConfig mc;
  TrainConfig tc;
  QorPredictor p(Approach::kOffTheShelf, mc, tc);
  EXPECT_THROW(p.refit(small_corpus(2, 1)), std::invalid_argument);
}

TEST(RefitTest, ClassifierFitReportIsReproducible) {
  const auto samples = small_corpus(24, 2222);
  const SplitIndices split =
      split_80_10_10(static_cast<int>(samples.size()), 6);
  ModelConfig mc;
  mc.kind = GnnKind::kGcn;
  mc.hidden = 8;
  mc.layers = 2;
  TrainConfig tc;
  tc.epochs = 3;
  tc.lr = 1e-2F;
  tc.batch_size = 4;
  NodeTypePredictor a(mc, tc);
  const FitReport report = a.fit(samples, split, FitOptions{});
  EXPECT_EQ(report.epochs_run, tc.epochs);
  ASSERT_EQ(report.val_curve.size(), static_cast<std::size_t>(tc.epochs));
  NodeTypePredictor b(mc, tc);
  EXPECT_EQ(b.fit(samples, split, FitOptions{}).best_val, report.best_val);
}

TEST(RefitTest, ClassifierFitWithoutValSplitKeepsLastEpoch) {
  // The -I hierarchy fits its classifier this way: no validation runs, the
  // report's validation fields stay empty, and the weights are the final
  // epoch's — validation never moves the trajectory, so they score the
  // last entry of a validated fit's curve.
  const auto samples = small_corpus(24, 2222);
  const SplitIndices split =
      split_80_10_10(static_cast<int>(samples.size()), 6);
  ModelConfig mc;
  mc.kind = GnnKind::kGcn;
  mc.hidden = 8;
  mc.layers = 2;
  TrainConfig tc;
  tc.epochs = 5;
  tc.lr = 1e-2F;
  tc.batch_size = 4;
  FitOptions opts;
  opts.epochs = 3;
  NodeTypePredictor unvalidated(mc, tc);
  const FitReport report =
      unvalidated.fit(samples, SplitIndices{split.train, {}, {}}, opts);
  EXPECT_TRUE(report.val_curve.empty());
  EXPECT_EQ(report.best_epoch, -1);
  EXPECT_EQ(report.epochs_run, opts.epochs);

  NodeTypePredictor validated(mc, tc);
  const FitReport curve = validated.fit(samples, split, opts);
  ASSERT_EQ(curve.val_curve.size(), 3U);
  const NodeClassifierScores last = unvalidated.evaluate(samples, split.val);
  EXPECT_EQ((last.dsp + last.lut + last.ff) / 3.0, curve.val_curve.back());
}

// ----- BatchPlan rotation -----

TEST(BatchPlanTest, MembershipFixedAcrossEpochRotations) {
  const auto samples = small_corpus(22, 909);
  std::vector<int> train_idx;
  for (int i = 0; i < static_cast<int>(samples.size()); ++i) {
    train_idx.push_back(i);
  }
  BatchPlan plan = BatchPlan::build(
      samples, train_idx, /*batch_size=*/4,
      [](const Sample& s) -> const Matrix& {
        return s.features(Approach::kOffTheShelf);
      },
      [](const Sample& s) {
        return Matrix(1, 1,
                      encode_target(metric_of(s.truth, Metric::kLut),
                                    Metric::kLut));
      },
      Rng(42));
  ASSERT_EQ(plan.batch_size(), 4);
  ASSERT_EQ(plan.num_batches(), 6);  // ceil(22 / 4)

  // Batches partition the training set exactly once.
  std::multiset<int> covered;
  for (int b = 0; b < plan.num_batches(); ++b) {
    const BatchPlan::Item& item = plan.item(b);
    EXPECT_EQ(item.tensors().num_graphs,
              static_cast<int>(item.members().size()));
    EXPECT_EQ(item.features().rows(), item.tensors().num_nodes);
    EXPECT_EQ(item.labels.rows(), item.tensors().num_graphs);
    covered.insert(item.members().begin(), item.members().end());
  }
  EXPECT_EQ(covered.size(), train_idx.size());
  EXPECT_TRUE(std::set<int>(covered.begin(), covered.end()).size() ==
              covered.size());

  // Epoch 0 is the build order; every later epoch is a permutation of the
  // same batch indices — membership never changes, only visit order.
  const std::vector<int> members0 = plan.item(0).members();
  const std::vector<int> epoch0 = plan.next_epoch_batch_order();
  std::vector<int> identity(static_cast<std::size_t>(plan.num_batches()));
  for (std::size_t i = 0; i < identity.size(); ++i) {
    identity[i] = static_cast<int>(i);
  }
  EXPECT_EQ(epoch0, identity);
  bool reshuffled = false;
  for (int epoch = 1; epoch <= 5; ++epoch) {
    std::vector<int> order = plan.next_epoch_batch_order();
    std::vector<int> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, identity);  // a permutation of the fixed batches
    if (order != identity) reshuffled = true;
    EXPECT_EQ(plan.item(0).members(), members0);
  }
  EXPECT_TRUE(reshuffled);  // rotation shuffles order (seed 42, 6 batches)
}

TEST(BatchPlanTest, OneGraphBatchesAreTheirMembers) {
  const auto samples = small_corpus(10, 4242);
  std::vector<int> train_idx;
  for (int i = 0; i < static_cast<int>(samples.size()); ++i) {
    train_idx.push_back(i);
  }
  const auto feature_of = [](const Sample& s) -> const Matrix& {
    return s.features(Approach::kOffTheShelf);
  };
  BatchPlan plan = BatchPlan::build(
      samples, train_idx, /*batch_size=*/1, feature_of,
      [](const Sample& s) {
        return Matrix(1, 1,
                      encode_target(metric_of(s.truth, Metric::kLut),
                                    Metric::kLut));
      },
      Rng(42));
  // No union was assembled.
  for (const BatchCorePtr& core : plan.cores()) EXPECT_EQ(core, nullptr);

  ASSERT_EQ(plan.num_batches(), static_cast<int>(samples.size()));
  for (int b = 0; b < plan.num_batches(); ++b) {
    const BatchPlan::Item& item = plan.item(b);
    ASSERT_EQ(item.members().size(), 1U);
    const Sample& s = samples[static_cast<std::size_t>(item.members()[0])];
    EXPECT_EQ(&item.tensors(), &s.tensors);
    EXPECT_EQ(&item.features(), &feature_of(s));
  }

  // Epoch e visits the samples in the order of the (e+1)-th in-place
  // reshuffle of the training indices under the plan's Rng.
  std::vector<int> per_sample = train_idx;
  Rng rng(42);
  for (int epoch = 0; epoch < 4; ++epoch) {
    rng.shuffle(per_sample);
    const std::vector<int>& order = plan.next_epoch_batch_order();
    std::vector<int> visited;
    for (int b : order) visited.push_back(plan.item(b).members()[0]);
    EXPECT_EQ(visited, per_sample) << "epoch " << epoch;
  }
}

TEST(BatchPlanTest, SegmentReproducesPlainBuildAndKeepsItsCores) {
  const auto samples = small_corpus(30, 5150);
  // 21 samples at batch size 4: five unions and a trailing one-graph batch.
  std::vector<int> idx(21);
  std::iota(idx.begin(), idx.end(), 2);
  const auto feature_of = [](const Sample& s) -> const Matrix& {
    return s.features(Approach::kOffTheShelf);
  };
  const auto label_of = [](const Sample& s) {
    return Matrix(1, 1,
                  encode_target(metric_of(s.truth, Metric::kLut),
                                Metric::kLut));
  };
  const std::uint64_t seed = 77;
  const BatchPlan plain =
      BatchPlan::build(samples, idx, 4, feature_of, label_of, Rng(seed));
  std::vector<BatchPlan::Segment> segments{BatchPlan::Segment{idx, seed, {}}};
  const BatchPlan segmented = BatchPlan::build_segments(
      samples, segments, 4, feature_of, label_of, Rng(99));

  // The segment has build(idx, Rng(seed))'s batches, bit for bit.
  ASSERT_EQ(plain.num_batches(), 6);
  ASSERT_EQ(segmented.num_batches(), plain.num_batches());
  for (int b = 0; b < plain.num_batches(); ++b) {
    const BatchPlan::Item& want = plain.item(b);
    const BatchPlan::Item& got = segmented.item(b);
    EXPECT_EQ(got.members(), want.members()) << "batch " << b;
    EXPECT_EQ(got.tensors().num_nodes, want.tensors().num_nodes);
    EXPECT_EQ(got.tensors().num_graphs, want.tensors().num_graphs);
    EXPECT_EQ(got.tensors().src.size(), want.tensors().src.size());
    EXPECT_EQ(got.tensors().dst.size(), want.tensors().dst.size());
    ASSERT_EQ(got.features().rows(), want.features().rows());
    ASSERT_EQ(got.features().cols(), want.features().cols());
    EXPECT_EQ(std::memcmp(got.features().data(), want.features().data(),
                          want.features().size() * sizeof(float)),
              0)
        << "batch " << b;
    EXPECT_TRUE(got.labels == want.labels);
  }

  // The segment keeps the cores it assembled: a later plan reuses them and
  // assembles only a new segment.
  const std::vector<BatchCorePtr> kept = segments[0].cores;
  EXPECT_EQ(kept, segmented.cores());
  EXPECT_EQ(std::count(kept.begin(), kept.end(), nullptr), 1);
  segments.push_back(BatchPlan::Segment{{0, 1, 23, 24, 25}, 5, {}});
  const BatchPlan grown = BatchPlan::build_segments(
      samples, segments, 4, feature_of, label_of, Rng(99));
  EXPECT_EQ(segments[0].cores, kept);
  ASSERT_EQ(segments[1].cores.size(), 2U);
  EXPECT_NE(segments[1].cores[0], nullptr);
  std::vector<BatchCorePtr> all = kept;
  all.insert(all.end(), segments[1].cores.begin(), segments[1].cores.end());
  EXPECT_EQ(grown.cores(), all);
}

// ----- sample-owned features -----

constexpr Approach kAllApproaches[] = {Approach::kOffTheShelf,
                                       Approach::kKnowledgeInfused,
                                       Approach::kKnowledgeRich};

/// Every feature slot of `s` in a fixed order: one per Approach, then the
/// node-type labels.
std::vector<const Matrix*> slot_addresses(const Sample& s) {
  std::vector<const Matrix*> out;
  for (Approach a : kAllApproaches) out.push_back(&s.features(a));
  out.push_back(&s.node_type_labels());
  return out;
}

TEST(SampleFeaturesTest, FirstReadEqualsColdBuildAndIsKept) {
  const auto samples = small_corpus(2, 31337);

  // The first read and a cold build are the same tensor, bit for bit.
  const Matrix& first = samples[0].features(Approach::kOffTheShelf);
  const Matrix direct =
      InputFeatureBuilder::build(samples[0].graph(), Approach::kOffTheShelf);
  EXPECT_TRUE(first == direct);

  // A later read returns the identical object, not a rebuild.
  EXPECT_EQ(&samples[0].features(Approach::kOffTheShelf), &first);

  // Different approach and different sample are distinct slots.
  const Matrix& rich = samples[0].features(Approach::kKnowledgeRich);
  EXPECT_NE(&rich, &first);
  EXPECT_TRUE(rich == InputFeatureBuilder::build(samples[0].graph(),
                                                 Approach::kKnowledgeRich));
  EXPECT_NE(&samples[1].features(Approach::kOffTheShelf), &first);

  // Node-type labels have their own slot.
  const Matrix& labels = samples[0].node_type_labels();
  EXPECT_TRUE(labels ==
              InputFeatureBuilder::node_type_labels(samples[0].graph()));
  EXPECT_EQ(&samples[0].node_type_labels(), &labels);
}

TEST(SampleFeaturesTest, CopiesShareEverySlotFreshSamplesDoNot) {
  const auto samples = small_corpus(1, 4242);
  const Sample& original = samples[0];
  const std::vector<const Matrix*> own = slot_addresses(original);

  // Copies, copy-assigned samples and moved-into samples are the same
  // sample: every variant is the original's buffer.
  const Sample copy = original;
  EXPECT_EQ(slot_addresses(copy), own);
  Sample assigned = small_corpus(1, 777)[0];
  assigned = original;
  EXPECT_EQ(slot_addresses(assigned), own);
  const Sample moved = std::move(assigned);
  EXPECT_EQ(slot_addresses(moved), own);

  // A separately constructed sample of the same program and a decoded one
  // build their own buffers, with the same bits.
  const auto rebuilt = small_corpus(1, 4242);
  const DecodedSample decoded =
      decode_sample_payload(encode_sample_payload(original));
  ASSERT_TRUE(decoded.ok()) << decoded.message;
  const std::vector<const Sample*> others = {&rebuilt[0],
                                            decoded.sample.get()};
  for (const Sample* other : others) {
    const std::vector<const Matrix*> theirs = slot_addresses(*other);
    for (std::size_t i = 0; i < own.size(); ++i) {
      EXPECT_NE(theirs[i], own[i]) << "slot " << i;
      EXPECT_TRUE(*theirs[i] == *own[i]) << "slot " << i;
    }
  }
}

TEST(SampleFeaturesTest, ConcurrentFirstReadsOnCopiesBuildOnce) {
  constexpr int kThreads = 8;
  const auto samples = small_corpus(1, 2718);
  // One copy per thread, all made before any slot is built.
  const std::vector<Sample> copies(kThreads, samples[0]);
  std::vector<std::vector<const Matrix*>> seen(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      seen[static_cast<std::size_t>(t)] =
          slot_addresses(copies[static_cast<std::size_t>(t)]);
    });
  }
  for (std::thread& th : threads) th.join();

  const std::vector<const Matrix*> own = slot_addresses(samples[0]);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<std::size_t>(t)], own) << "thread " << t;
  }
  for (std::size_t i = 0; i < std::size(kAllApproaches); ++i) {
    EXPECT_TRUE(*own[i] == InputFeatureBuilder::build(samples[0].graph(),
                                                      kAllApproaches[i]));
  }
  EXPECT_TRUE(*own.back() ==
              InputFeatureBuilder::node_type_labels(samples[0].graph()));
}

// ----- parameter snapshots -----

TEST(SnapshotTest, RestoreChecksEveryShapeBeforeWriting) {
  Rng rng(5);
  Linear wide(2, 3, rng);  // W 2x3, b 1x3
  Linear tall(3, 2, rng);  // W 3x2, b 1x2: same count, other shapes
  const std::vector<Matrix> before = snapshot_parameters(tall);
  EXPECT_THROW(restore_parameters(tall, snapshot_parameters(wide)),
               std::invalid_argument);
  const std::vector<Matrix> after = snapshot_parameters(tall);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_TRUE(after[i] == before[i]) << "parameter " << i;
  }

  Linear same(3, 2, rng);
  restore_parameters(same, before);
  const std::vector<Matrix> restored = snapshot_parameters(same);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_TRUE(restored[i] == before[i]) << "parameter " << i;
  }
}

// ----- LeafGradRedirect -----

TEST(LeafGradRedirectTest, RedirectsLeafGradsAndLeavesSharedGradUntouched) {
  Matrix w(2, 2);
  w(0, 0) = 1.0F;
  w(0, 1) = -2.0F;
  w(1, 0) = 0.5F;
  w(1, 1) = 3.0F;
  Parameter param("w", w);
  const Var leaf = param.var();

  // Reference: plain backward accumulates into the leaf's own grad.
  {
    Tape tape;
    const Var x = tape.leaf(Matrix(1, 2, 1.0F));
    tape.backward(tape.sum_all(tape.matmul(x, leaf)));
  }
  const Matrix direct = leaf.grad();
  param.zero_grad();

  // Redirected: grads land in the sink; the shared grad stays zero.
  std::vector<Matrix> sinks;
  {
    LeafGradRedirect redirect({leaf}, sinks);
    Tape tape;
    const Var x = tape.leaf(Matrix(1, 2, 1.0F));
    tape.backward(tape.sum_all(tape.matmul(x, leaf)));
  }
  ASSERT_EQ(sinks.size(), 1U);
  EXPECT_TRUE(sinks[0] == direct);
  EXPECT_EQ(leaf.grad().squared_norm(), 0.0);

  // After the scope ends, accumulation reaches the leaf again.
  {
    Tape tape;
    const Var x = tape.leaf(Matrix(1, 2, 1.0F));
    tape.backward(tape.sum_all(tape.matmul(x, leaf)));
  }
  EXPECT_TRUE(leaf.grad() == direct);
}

}  // namespace
}  // namespace gnnhls
