// Deep-ensemble QoR prediction with dispersion-based uncertainty.
//
// A QorEnsemble is K QorPredictors that differ ONLY by seed (Lakshminarayanan
// et al.'s deep-ensemble recipe, the standard uncertainty baseline for
// regressors): member k fits with the base seed offset by k, so member 0 is
// bitwise the single predictor a plain fit would have produced, and every
// added member buys disagreement signal.
//
// The ensemble owns fitting and refitting; it does not score. Scoring goes
// through a ModelTable (dse/explorer.h) that registers every member: the
// ModelTable scorers run one batched pass per member and aggregate them into
// ScoreResult{mean, uncertainty} — the uncertainty is the population
// standard deviation of the member predictions, the quantity acquisition
// strategies turn into an exploration bonus: a candidate the members
// disagree on is a candidate the training corpus says little about.
//
// Determinism: member order is fixed, and each member inherits the
// predictor's bit-identity contract — ensemble scores are bit-identical
// across thread counts and serving paths, and an ensemble of one is bitwise
// the wrapped single model.
#pragma once

#include <memory>
#include <vector>

#include "core/predictor.h"

namespace gnnhls {

/// One scored prediction: the (ensemble) mean and a dispersion uncertainty —
/// the population standard deviation over member predictions, exactly 0.0
/// for single-model scorers.
struct ScoreResult {
  double mean = 0.0;
  double uncertainty = 0.0;
};

class QorEnsemble {
 public:
  /// `members` >= 1 predictors sharing (approach, model_cfg, train_cfg);
  /// only their seeds differ (base seed + member index).
  QorEnsemble(Approach approach, ModelConfig model_cfg, TrainConfig train_cfg,
              int members,
              InfusedInference infused = InfusedInference::kSelfInferred);

  /// Fits every member from a fresh init on the same corpus/split/metric;
  /// member k trains with effective seed (opts.seed, else TrainConfig::seed) + k. Returns
  /// member 0's report (bitwise the single-model fit's report).
  FitReport fit(const std::vector<Sample>& samples, const SplitIndices& split,
                Metric metric, const FitOptions& opts = {});

  /// Feeds the same ground-truth delta to every member's refit; each member
  /// resumes its own kept weights and Adam moments with its own seed stream
  /// and keeps its last epoch. Returns member 0's report.
  FitReport refit(const std::vector<Sample>& new_samples,
                  const FitOptions& opts = QorPredictor::refit_defaults());

  int size() const { return static_cast<int>(members_.size()); }
  const QorPredictor& member(int k) const {
    return *members_[static_cast<std::size_t>(k)];
  }
  QorPredictor& member(int k) { return *members_[static_cast<std::size_t>(k)]; }
  Metric metric() const { return members_.front()->metric(); }

 private:
  std::uint64_t base_seed_;  // TrainConfig::seed; member k fits at base + k
  std::vector<std::unique_ptr<QorPredictor>> members_;
};

}  // namespace gnnhls
