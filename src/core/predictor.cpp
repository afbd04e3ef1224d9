#include "core/predictor.h"

#include <algorithm>
#include <numeric>

#include "gnn/graph_batch.h"
#include "support/parallel.h"
#include "train/feature_cache.h"

namespace gnnhls {

QorPredictor::QorPredictor(Approach approach, ModelConfig model_cfg,
                           TrainConfig train_cfg, InfusedInference infused)
    : approach_(approach),
      model_cfg_(model_cfg),
      train_cfg_(train_cfg),
      infused_(infused),
      classifier_(model_cfg, train_cfg) {}

bool QorPredictor::pure_inference_features() const {
  return approach_ != Approach::kKnowledgeInfused ||
         infused_ == InfusedInference::kOracle;
}

Matrix QorPredictor::infused_features(const Sample& s) const {
  // Hierarchical inference: self-inferred resource types replace labels.
  // Only the classifier-independent base features are cacheable.
  const Matrix& base =
      FeatureCache::global().features(s, Approach::kOffTheShelf);
  const auto inferred = classifier_.classifier().infer_types(s.tensors, base);
  return InputFeatureBuilder::build(s.graph(), approach_, &inferred);
}

void QorPredictor::init_regressor(std::uint64_t seed) {
  Rng init_rng(seed * 104729 + static_cast<int>(metric_));
  regressor_ = std::make_unique<GraphRegressor>(
      model_cfg_, InputFeatureBuilder::feature_dim(approach_), init_rng);
  adam_state_.reset();
}

BatchPlan::FeatureFn QorPredictor::feature_fn() const {
  return [approach = approach_](const Sample& s) -> const Matrix& {
    return FeatureCache::global().features(s, approach);
  };
}

BatchPlan::LabelFn QorPredictor::label_fn() const {
  return [metric = metric_](const Sample& s) {
    return Matrix(1, 1, encode_target(metric_of(s.truth, metric), metric));
  };
}

Trainer::Hooks QorPredictor::regressor_hooks() const {
  Trainer::Hooks hooks;
  hooks.forward = [&regressor = *regressor_](Tape& tape,
                                             const GraphTensors& gt,
                                             const Matrix& feats, Rng& rng) {
    return regressor.forward(tape, gt, feats, rng, true);
  };
  hooks.loss = [](Tape& tape, const Var& pred, const Matrix& target) {
    // One prediction row per member graph; MSE averages over the batch.
    return tape.mse_loss(pred, target);
  };
  // Validation model selection. NOTE: -I validates through the full
  // hierarchical path (classifier bits), matching deployment.
  hooks.validate = [this] { return evaluate_mape(corpus_, split_.val); };
  return hooks;
}

FitReport QorPredictor::fit(const std::vector<Sample>& samples,
                            const SplitIndices& split, Metric metric,
                            const FitOptions& opts) {
  metric_ = metric;
  GNNHLS_CHECK(!split.train.empty() && !split.val.empty(),
               "fit: empty train/val split");
  tune_malloc_for_tensor_workloads();  // epochs of tape churn ahead
  const std::uint64_t seed = opts.seed != 0 ? opts.seed : train_cfg_.seed;
  const bool warm = opts.warm_start && regressor_ != nullptr;

  if (!warm) {
    if (approach_ == Approach::kKnowledgeInfused &&
        infused_ == InfusedInference::kSelfInferred) {
      // A fresh fit whose empty val split runs no validation, so the last
      // epoch is kept. The hierarchy never warm-starts its classifier, so
      // its Adam moments would only hold memory.
      FitOptions cls_opts;
      cls_opts.seed = seed;
      classifier_.fit(samples, SplitIndices{split.train, {}, {}}, cls_opts);
      classifier_.release_optimizer_state();
    }
    init_regressor(seed);
  }

  // Retain the corpus and split (Sample copies keep their uids, so cached
  // features and batch cores stay shared) for later refit() segments.
  corpus_ = samples;
  split_ = split;
  fit_seed_ = seed;
  refits_ = 0;
  segments_.clear();

  // -I trains on ground-truth type bits (knowledge infusion), so training
  // features are a pure function of (sample, approach) for every approach
  // and come from the FeatureCache. Plan cores depend only on (seed, split,
  // approach) — never on the fitted metric, which lives in the labels — so
  // per-metric refits over the same split share one union assembly through
  // the BatchCoreCache.
  const std::uint64_t order_seed = seed * 31 + 1;
  const std::string key = BatchPlan::share_key(
      "train/reg/a" + std::to_string(static_cast<int>(approach_)), order_seed,
      train_cfg_.batch_size, corpus_, split.train);
  BatchPlan plan =
      BatchPlan::build(corpus_, split.train, train_cfg_.batch_size,
                       feature_fn(), label_fn(), Rng(order_seed), key);
  // Segment 0 of any future refit: the same (idx, seed, key) triple this
  // plan resolved its cores under, so the refit's base segment is a pure
  // BatchCoreCache hit.
  segments_.push_back(BatchPlan::Segment{split.train, order_seed, key});

  Trainer trainer(*regressor_, train_cfg_, regressor_hooks(), seed * 17 + 2);
  return trainer.fit(plan, opts, &adam_state_);
}

FitOptions QorPredictor::refit_defaults() {
  FitOptions opts;
  opts.warm_start = true;
  opts.epochs = 6;
  opts.validation = FitOptions::Validation::kFinalEpoch;
  return opts;
}

FitReport QorPredictor::refit(const std::vector<Sample>& new_samples,
                              const FitOptions& opts) {
  GNNHLS_CHECK(regressor_ != nullptr && !corpus_.empty(), "refit before fit");
  GNNHLS_CHECK(!new_samples.empty(), "refit: no feedback samples");
  tune_malloc_for_tensor_workloads();
  ++refits_;
  const std::uint64_t gen = static_cast<std::uint64_t>(refits_);
  const std::uint64_t seed = opts.seed != 0 ? opts.seed : fit_seed_;

  const int base = static_cast<int>(corpus_.size());
  corpus_.insert(corpus_.end(), new_samples.begin(), new_samples.end());
  std::vector<int> delta_idx(new_samples.size());
  std::iota(delta_idx.begin(), delta_idx.end(), base);

  if (!opts.warm_start) {
    // Cold refit: retrain from a fresh seeded init over the grown corpus
    // (the -I classifier is kept either way — feedback refits sharpen the
    // regressor only).
    init_regressor(seed);
  }

  // The delta becomes its own segment with generation-salted seeds (pure
  // functions of (fit seed, generation): refit trajectories are reproducible
  // but decorrelated across rounds).
  const std::uint64_t seg_seed = seed * 31 + 1 + gen * 0x9E3779B9ULL;
  BatchPlan::Segment seg;
  seg.idx = delta_idx;
  seg.order_seed = seg_seed;
  seg.share_key = BatchPlan::share_key(
      "train/reg/a" + std::to_string(static_cast<int>(approach_)), seg_seed,
      train_cfg_.batch_size, corpus_, delta_idx);
  segments_.push_back(std::move(seg));

  BatchPlan plan = BatchPlan::build_segments(
      corpus_, segments_, train_cfg_.batch_size, feature_fn(), label_fn(),
      Rng(seed * 31 + 11 + gen));

  Trainer trainer(*regressor_, train_cfg_, regressor_hooks(),
                  seed * 17 + 2 + gen * 0x85EBCA6BULL);
  return trainer.fit(plan, opts, &adam_state_);
}

double QorPredictor::predict(const Sample& sample) const {
  return predict_many({&sample})[0];
}

std::vector<double> QorPredictor::predict_many(
    const std::vector<const Sample*>& samples) const {
  GNNHLS_CHECK(regressor_ != nullptr, "predict before fit");
  if (samples.empty()) return {};
  // On the pure path the features point straight into the FeatureCache
  // (zero rebuild, zero copy); the hierarchical -I path runs the classifier
  // per sample and owns its feature matrices for the duration of the call.
  const bool pure = pure_inference_features();
  std::vector<Matrix> owned;
  owned.reserve(pure ? 0 : samples.size());  // fparts points into it
  std::vector<const GraphTensors*> parts;
  std::vector<const Matrix*> fparts;
  parts.reserve(samples.size());
  fparts.reserve(samples.size());
  for (const Sample* s : samples) {
    GNNHLS_CHECK(s != nullptr, "predict_many: null sample");
    if (pure) {
      fparts.push_back(&FeatureCache::global().features(*s, approach_));
    } else {
      owned.push_back(infused_features(*s));
      fparts.push_back(&owned.back());
    }
    parts.push_back(&s->tensors);
  }
  // One sample runs on its own tensors, as BatchPlan runs a one-graph
  // batch: no union to build.
  std::vector<float> encoded;
  if (samples.size() == 1) {
    encoded = regressor_->predict_batch(*parts[0], *fparts[0]);
  } else {
    const GraphBatch batch = GraphBatch::build(parts);
    encoded = regressor_->predict_batch(batch.merged,
                                        GraphBatch::stack_features(fparts));
  }
  std::vector<double> pred;
  pred.reserve(encoded.size());
  for (float e : encoded) pred.push_back(decode_target(e, metric_));
  return pred;
}

double QorPredictor::evaluate_mape(const std::vector<Sample>& samples,
                                   const std::vector<int>& idx) const {
  GNNHLS_CHECK(regressor_ != nullptr, "evaluate before fit");
  // Consecutive batch_size chunks of idx, one predict_many call each, fanned
  // out on the thread pool. Each chunk fills its own slot range and its
  // math does not depend on the pool, so the result is bit-identical to a
  // serial chunk loop at any pool width.
  const std::size_t bs =
      static_cast<std::size_t>(std::max(train_cfg_.batch_size, 1));
  std::vector<double> pred(idx.size()), truth;
  truth.reserve(idx.size());
  for (int i : idx) {
    truth.push_back(
        metric_of(samples[static_cast<std::size_t>(i)].truth, metric_));
  }
  parallel_shards(static_cast<int>((idx.size() + bs - 1) / bs), [&](int c) {
    const std::size_t pos = static_cast<std::size_t>(c) * bs;
    const std::size_t end = std::min(pos + bs, idx.size());
    std::vector<const Sample*> chunk;
    chunk.reserve(end - pos);
    for (std::size_t i = pos; i < end; ++i) {
      chunk.push_back(&samples[static_cast<std::size_t>(idx[i])]);
    }
    const std::vector<double> p = predict_many(chunk);
    std::copy(p.begin(), p.end(), pred.begin() + static_cast<long>(pos));
  });
  return mape(pred, truth);
}

// ----- NodeTypePredictor -----

NodeTypePredictor::NodeTypePredictor(ModelConfig model_cfg,
                                     TrainConfig train_cfg)
    : model_cfg_(model_cfg), train_cfg_(train_cfg) {}

FitReport NodeTypePredictor::fit(const std::vector<Sample>& samples,
                                 const SplitIndices& split,
                                 const FitOptions& opts) {
  tune_malloc_for_tensor_workloads();
  const std::uint64_t seed = opts.seed != 0 ? opts.seed : train_cfg_.seed;
  if (!opts.warm_start || classifier_ == nullptr) {
    Rng init_rng(seed * 7919 + 13);
    classifier_ = std::make_unique<NodeClassifier>(
        model_cfg_, InputFeatureBuilder::feature_dim(Approach::kOffTheShelf),
        init_rng);
    adam_state_.reset();
  }
  TrainConfig tc = train_cfg_;
  tc.seed = seed;
  // Off-the-shelf features and node-type label rows, both served from the
  // FeatureCache. Cores depend only on (membership, off-the-shelf
  // features): the -I hierarchy's classifier fit and a standalone fit
  // share one assembly per (seed, split).
  const std::uint64_t order_seed = seed * 31 + 7;
  BatchPlan plan = BatchPlan::build(
      samples, split.train, tc.batch_size,
      [](const Sample& s) -> const Matrix& {
        return FeatureCache::global().features(s, Approach::kOffTheShelf);
      },
      [](const Sample& s) {
        return FeatureCache::global().node_type_labels(s);
      },
      Rng(order_seed),
      BatchPlan::share_key("train/cls", order_seed, tc.batch_size, samples,
                           split.train));
  Trainer::Hooks hooks;
  hooks.forward = [&classifier = *classifier_](Tape& tape,
                                               const GraphTensors& gt,
                                               const Matrix& feats, Rng& rng) {
    return classifier.forward(tape, gt, feats, rng, true);
  };
  hooks.loss = [](Tape& tape, const Var& logits, const Matrix& labels) {
    return tape.bce_with_logits_loss(logits, labels);
  };
  if (!split.val.empty()) {
    hooks.validate = [&] {
      const NodeClassifierScores val = evaluate(samples, split.val);
      return (val.dsp + val.lut + val.ff) / 3.0;
    };
    hooks.higher_is_better = true;
  }
  Trainer trainer(*classifier_, tc, std::move(hooks), seed * 17 + 3);
  return trainer.fit(plan, opts, &adam_state_);
}

NodeClassifierScores NodeTypePredictor::evaluate(
    const std::vector<Sample>& samples, const std::vector<int>& idx) const {
  GNNHLS_CHECK(classifier_ != nullptr, "evaluate before fit");
  std::array<std::vector<int>, 3> pred, truth;
  for (int i : idx) {
    const Sample& s = samples[static_cast<std::size_t>(i)];
    const Matrix& feats =
        FeatureCache::global().features(s, Approach::kOffTheShelf);
    const auto inferred = classifier_->infer_types(s.tensors, feats);
    const Matrix& labels = FeatureCache::global().node_type_labels(s);
    for (int v = 0; v < s.graph().num_nodes(); ++v) {
      const auto& t = inferred[static_cast<std::size_t>(v)];
      pred[0].push_back(t.dsp > 0.5F);
      pred[1].push_back(t.lut > 0.5F);
      pred[2].push_back(t.ff > 0.5F);
      truth[0].push_back(labels(v, 0) > 0.5F);
      truth[1].push_back(labels(v, 1) > 0.5F);
      truth[2].push_back(labels(v, 2) > 0.5F);
    }
  }
  NodeClassifierScores scores;
  scores.dsp = binary_accuracy(pred[0], truth[0]);
  scores.lut = binary_accuracy(pred[1], truth[1]);
  scores.ff = binary_accuracy(pred[2], truth[2]);
  return scores;
}

}  // namespace gnnhls
