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
// src/train/ subsystem: each fit here builds a BatchPlan over the samples'
// own feature tensors (Sample::features) and hands the epochs, the
// validation hook and the optimizer checkpoint to the sharded Trainer; this
// file keeps only model construction, the validation score, and inference.
//
// Online refit (model-in-the-loop DSE): fit() always starts fresh and
// retains the corpus, split and the selected epoch's optimizer moments;
// refit(new_samples, opts) then appends ground-truth feedback as a new
// BatchPlan *segment* — the predictor keeps every segment's assembled
// unions, so only the delta is assembled — and always resumes the kept
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

  /// Trains a freshly initialized classifier on samples[split.train] under
  /// the given options (seed override, epoch budget) and keeps the epoch
  /// with the best validation mean accuracy; FitReport::val_curve carries
  /// the per-epoch mean accuracy. An empty split.val runs no validation:
  /// the last epoch is kept and the report's validation fields stay empty.
  /// The classifier never refits, so no optimizer state outlives the call.
  FitReport fit(const std::vector<Sample>& samples, const SplitIndices& split,
                const FitOptions& opts);

  NodeClassifierScores evaluate(const std::vector<Sample>& samples,
                                const std::vector<int>& idx) const;

  const NodeClassifier& classifier() const {
    GNNHLS_CHECK(classifier_ != nullptr, "classifier before fit");
    return *classifier_;
  }

 private:
  ModelConfig model_cfg_;
  TrainConfig train_cfg_;
  std::unique_ptr<NodeClassifier> classifier_;
};

class QorPredictor {
 public:
  QorPredictor(Approach approach, ModelConfig model_cfg, TrainConfig train_cfg,
               InfusedInference infused = InfusedInference::kSelfInferred);

  /// Trains (classifier first for -I, then regressor) on samples[split.train]
  /// for one metric under the given options. Always starts fresh: the model
  /// is (re)initialized from the effective seed (opts.seed, else
  /// TrainConfig::seed) and Adam from zero moments. Validation MAPE on
  /// split.val runs per epoch, and the best epoch's parameters and optimizer
  /// moments are restored. Retains the corpus and split for subsequent
  /// refit() calls and drops every earlier refit's feedback.
  FitReport fit(const std::vector<Sample>& samples, const SplitIndices& split,
                Metric metric, const FitOptions& opts);

  /// Online refit: appends `new_samples` (ground truth gathered since the
  /// last fit/refit, e.g. a DSE round's HLS results) to the retained corpus
  /// as a fresh training segment and continues training. Always resumes
  /// the kept weights + Adam moments and keeps the last epoch: no
  /// validation runs, because the original split.val no longer represents
  /// the feedback distribution (the report's validation fields stay
  /// empty). The predictor keeps prior segments' batch unions and builds
  /// only the delta's features and unions, so a refit costs O(delta
  /// assembly + epochs), not a from-scratch rebuild. The -I hierarchy keeps
  /// its classifier: feedback refits sharpen the regressor only.
  ///
  /// Feedback accumulates: the corpus and its segments grow by one delta
  /// per refit until the next fit(), so a model reused across explorations
  /// trains each refit over every earlier exploration's feedback and holds
  /// those unions. Call fit() (or use a fresh predictor) to start over.
  FitReport refit(const std::vector<Sample>& new_samples,
                  const FitOptions& opts = refit_defaults());

  /// The refit() options tuned for DSE feedback rounds: a small epoch
  /// budget, the fit's seed.
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
  /// come from Sample::features, built once under a per-slot once_flag).
  /// This is the serving scheduler's one entry point into the model.
  /// Callers control the batch size by slicing: each call is a single
  /// forward pass.
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
  /// True when inference features are a pure function of the sample (held
  /// by the sample); false on the hierarchical self-inferred path, whose
  /// features depend on the trained classifier.
  bool pure_inference_features() const;

  /// Hierarchical (-I self-inferred) inference features: classifier bits
  /// replace the ground-truth type annotations.
  Matrix infused_features(const Sample& s) const;

  /// Fresh seeded regressor init (drops the optimizer checkpoint).
  void init_regressor(std::uint64_t seed);

  /// Per-sample features (Sample::features; the pure inference features too)
  /// and encoded-target label row, as BatchPlan callbacks.
  BatchPlan::FeatureFn feature_fn() const;
  BatchPlan::LabelFn label_fn() const;

  /// Regressor hooks: forward and batch-mean MSE. fit() adds validation
  /// MAPE on the retained split; refit() validates nothing.
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
