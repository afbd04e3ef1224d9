// QorPredictor — the paper's three prediction approaches behind one API
// (§4, Fig. 2).
//
//   * kOffTheShelf      — GraphRegressor on raw IR-graph features.
//   * kKnowledgeRich    — GraphRegressor on raw features + per-node resource
//                         values from intermediate HLS results.
//   * kKnowledgeInfused — hierarchical: a NodeClassifier is trained first on
//                         node-level resource types; the GraphRegressor
//                         trains on ground-truth type bits ("domain
//                         knowledge is infused by providing labels") and at
//                         inference consumes the classifier's self-inferred
//                         bits — earliest-stage prediction, zero extra
//                         inference inputs.
//
// The paper's training recipe (Adam, fixed epoch budget, minibatch
// accumulation, best-validation-epoch parameter selection) lives in the
// src/train/ subsystem: each fit here builds a BatchPlan over cached feature
// tensors (FeatureCache) and hands the epochs, the validation policy and the
// optimizer checkpoint to the sharded Trainer; this file keeps only model
// construction, the validation score, and inference.
//
// Online refit (model-in-the-loop DSE): fit() retains the corpus, split and
// the selected epoch's optimizer moments; refit(new_samples, opts) then
// appends ground-truth feedback as a new BatchPlan *segment* — the
// predictor keeps every segment's assembled unions, so only the delta is
// assembled — and continues training warm-started from the selected model's
// weights and Adam state. The refit trajectory is a pure function of
// (checkpoint, feedback samples, FitOptions), so it inherits the Trainer's
// bit-identity across thread and shard counts.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/metrics.h"
#include "dataset/dataset.h"
#include "gnn/models.h"
#include "train/fit_options.h"
#include "train/trainer.h"

namespace gnnhls {

/// How the knowledge-infused approach obtains resource-type bits at
/// inference time. kSelfInferred is the paper's deployment path; kOracle
/// feeds ground-truth bits instead and upper-bounds what a perfect
/// node-classifier would buy (used by the hierarchy ablation bench).
enum class InfusedInference { kSelfInferred, kOracle };

// ----- node-level classification (paper Table 3) -----

struct NodeClassifierScores {
  // accuracy per binary task, paper column order
  double dsp = 0.0;
  double lut = 0.0;
  double ff = 0.0;
};

class NodeTypePredictor {
 public:
  NodeTypePredictor(ModelConfig model_cfg, TrainConfig train_cfg);

  /// Trains on samples[split.train] under the given options (seed override,
  /// epoch budget, warm start from the current classifier, validation
  /// policy — kBestEpoch selects by validation mean accuracy, higher
  /// better). FitReport::val_curve carries the per-epoch mean accuracy. An
  /// empty split.val runs no validation: the last epoch is kept and the
  /// report's validation fields stay empty.
  FitReport fit(const std::vector<Sample>& samples, const SplitIndices& split,
                const FitOptions& opts);

  NodeClassifierScores evaluate(const std::vector<Sample>& samples,
                                const std::vector<int>& idx) const;

  /// Frees the optimizer moments fit() keeps for a later warm start, which
  /// then resumes the weights with fresh moments.
  void release_optimizer_state() { adam_state_.reset(); }

  const NodeClassifier& classifier() const {
    GNNHLS_CHECK(classifier_ != nullptr, "classifier before fit");
    return *classifier_;
  }

 private:
  ModelConfig model_cfg_;
  TrainConfig train_cfg_;
  std::unique_ptr<NodeClassifier> classifier_;
  std::optional<AdamState> adam_state_;  // kept epoch's optimizer moments
};

class QorPredictor {
 public:
  QorPredictor(Approach approach, ModelConfig model_cfg, TrainConfig train_cfg,
               InfusedInference infused = InfusedInference::kSelfInferred);

  /// Trains (classifier first for -I, then regressor) on samples[split.train]
  /// for one metric under the given options. Fresh fits (re)initialize the
  /// model from the effective seed (opts.seed, else TrainConfig::seed);
  /// opts.warm_start continues from the current weights + Adam moments when
  /// the model has already been fitted. Validation runs per epoch; the
  /// validation policy decides whether the best epoch's parameters (and
  /// optimizer state) are restored. Retains the corpus and split for
  /// subsequent refit() calls.
  FitReport fit(const std::vector<Sample>& samples, const SplitIndices& split,
                Metric metric, const FitOptions& opts);

  /// Online refit: appends `new_samples` (ground truth gathered since the
  /// last fit/refit, e.g. a DSE round's HLS results) to the retained corpus
  /// as a fresh training segment and continues training. With
  /// opts.warm_start (the default policy) the regressor resumes from the
  /// selected weights + Adam moments; otherwise it re-initializes and
  /// retrains over the grown corpus. The predictor keeps prior segments'
  /// batch unions and builds only the delta's features and unions, so a
  /// refit costs O(delta assembly + epochs), not a from-scratch rebuild.
  /// The -I hierarchy keeps its classifier: feedback refits sharpen the
  /// regressor only. Validation still scores the original split.val.
  FitReport refit(const std::vector<Sample>& new_samples,
                  const FitOptions& opts = refit_defaults());

  /// The refit() policy tuned for DSE feedback rounds: warm start, a small
  /// epoch budget, final-epoch validation (feedback is drawn from the
  /// explored design space, so the original validation split no longer
  /// selects well for it).
  static FitOptions refit_defaults();

  /// Number of refit() calls since the last fresh fit.
  int refits() const { return refits_; }

  /// Decoded QoR prediction for one sample (for -I, runs hierarchical
  /// inference: classifier -> annotated features -> regressor):
  /// predict_many({&sample})[0].
  double predict(const Sample& sample) const;

  /// Batched inference: one regressor forward, decoded predictions returned
  /// in input order. One sample runs on its own tensors (the solo forward);
  /// several run as one GraphBatch disjoint union. Bit-identical to the
  /// solo forward per sample — the union introduces no cross-graph edges and
  /// the segment readout pools each member's rows in the same order as the
  /// single-graph path, so per-member float trajectories are exactly those
  /// of the solo forward (asserted across all 14 encoder kinds in
  /// serve_test/batch_test).
  ///
  /// Thread safety: const and safe to call concurrently from many threads
  /// after fit() returns (forward builds a private tape; feature matrices
  /// come from the internally synchronized FeatureCache). This is the
  /// serving scheduler's one entry point into the model. Callers control
  /// the batch size by slicing: each call is a single forward pass.
  std::vector<double> predict_many(
      const std::vector<const Sample*>& samples) const;

  /// MAPE over an index subset: consecutive batch_size chunks of idx, each
  /// scored by one predict_many call (the inference path, -I classifier
  /// included), fanned out on the global thread pool with every chunk
  /// writing its own slots. Bit-identical to a serial chunk loop at any
  /// pool width. Serves per-epoch and refit validation and test MAPE.
  double evaluate_mape(const std::vector<Sample>& samples,
                       const std::vector<int>& idx) const;

  Approach approach() const { return approach_; }
  Metric metric() const { return metric_; }

  /// Trained regressor (valid after fit; determinism tests snapshot its
  /// parameters).
  const GraphRegressor& regressor() const { return *regressor_; }

 private:
  /// True when inference features are a pure function of the sample (cached
  /// globally); false on the hierarchical self-inferred path, whose
  /// features depend on the trained classifier.
  bool pure_inference_features() const;

  /// Hierarchical (-I self-inferred) inference features: classifier bits
  /// replace the ground-truth type annotations.
  Matrix infused_features(const Sample& s) const;

  /// Fresh seeded regressor init (drops the optimizer checkpoint).
  void init_regressor(std::uint64_t seed);

  /// Per-sample features (FeatureCache; the pure inference features too)
  /// and encoded-target label row, as BatchPlan callbacks.
  BatchPlan::FeatureFn feature_fn() const;
  BatchPlan::LabelFn label_fn() const;

  /// Regressor hooks: forward, batch-mean MSE, and validation MAPE on the
  /// retained split (lower is better).
  Trainer::Hooks regressor_hooks() const;

  Approach approach_;
  ModelConfig model_cfg_;
  TrainConfig train_cfg_;
  InfusedInference infused_;
  Metric metric_ = Metric::kLut;
  NodeTypePredictor classifier_;  // fitted only for -I self-inferred
  std::unique_ptr<GraphRegressor> regressor_;

  // --- refit state (valid after fit) ---
  std::vector<Sample> corpus_;  // training-time samples + appended feedback
  SplitIndices split_;          // indices into corpus_ (val/test stay fixed)
  /// One entry per training segment: [0] the original split.train, then one
  /// per refit delta. Each owns its assembled batch unions (BatchCore), so
  /// they live until the next fresh fit or the predictor's destruction.
  std::vector<BatchPlan::Segment> segments_;
  std::optional<AdamState> adam_state_;  // kept epoch's optimizer moments
  std::uint64_t fit_seed_ = 0;           // effective seed of the last fresh fit
  int refits_ = 0;
};

}  // namespace gnnhls
