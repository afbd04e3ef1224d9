// Model-in-the-loop design-space exploration.
//
// The Explorer turns a DesignSpace into ranked, Pareto-annotated results
// using a trained QoR predictor as the cheap fidelity and the HLS flow as
// the expensive ground truth:
//
//   * lowering: every candidate is lowered to a CDFG + tensors in parallel
//     on the support/parallel.h thread pool (each shard fills its own slot,
//     so results are byte-identical at any pool width);
//   * scoring: ONE batched scorer call per (metric, round) — either a
//     direct QorPredictor::predict_many forward or the async
//     ServingScheduler path; both are bit-identical per the serving
//     contract, asserted by tests/dse_test.cpp;
//   * strategies: `exhaustive` synthesizes every point (the ground-truth
//     sweep DSE exists to avoid); `active_halving` prunes the candidate set
//     by acquisition rank each round and spends part of the top-k synthesis
//     budget DURING pruning: each round's fresh ground truth refits the
//     rank-metric model before the next scoring round, so later pruning
//     decisions come from a sharper predictor at zero extra HLS cost;
//     `successive_halving` is the same loop with no feedback — prune by
//     predicted rank, invoke the HLS flow only on the surviving top-k.
//
// Determinism contract: a DseResult is a pure function of (space, trained
// model, config) — candidate order, predicted values, fronts and the
// halving trace never depend on thread count, scorer path, or scheduling.
// active_halving extends this through the feedback loop: refits inherit the
// Trainer's bit-identity, so the whole active trace is reproducible across
// pool widths and scorer paths given fixed seeds.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/ensemble.h"
#include "core/predictor.h"
#include "dse/design_space.h"
#include "dse/pareto.h"
#include "serve/scheduler.h"

namespace gnnhls {

/// One scored/synthesized candidate. `predicted`/`uncertainty` hold the
/// scorer's decoded mean and dispersion indexed by Metric (0 until that
/// metric is scored; uncertainty stays 0 under single-model scorers);
/// `sample.truth` is valid only when `synthesized`.
struct DseCandidate {
  DesignPoint point;
  Sample sample;
  std::array<double, kNumMetrics> predicted{};
  std::array<double, kNumMetrics> uncertainty{};
  bool synthesized = false;
  double latency_cycles = 0.0;
};

/// How active_halving (and its pruning sorts) ranks candidates.
enum class Acquisition {
  /// Predicted rank-metric mean, lower better — successive halving's rule.
  kPredictedRank,
  /// Lower-confidence-bound style: mean - uncertainty (an LCB with beta
  /// fixed at 1). A candidate the ensemble disagrees on sorts better than
  /// its mean alone would place it, steering part of the synthesis budget
  /// toward informative points. Needs an ensemble scorer to differ from
  /// kPredictedRank.
  kUncertaintyBonus,
};

/// Outcome of one exploration strategy. All index vectors refer to
/// `candidates` (enumeration order) and are sorted ascending (the per-round
/// `fed_back` entries too).
struct DseResult {
  std::vector<DseCandidate> candidates;
  /// Non-dominated set on *true* QoR over the synthesized candidates.
  std::vector<int> front;
  /// Non-dominated set on *predicted* QoR over every candidate.
  std::vector<int> predicted_front;
  /// Synthesized candidate with the best (lowest) true rank_metric;
  /// ties break to the lowest index.
  int best = -1;
  /// Ground-truth HLS flow invocations (the budget DSE minimizes).
  int hls_runs = 0;
  /// Batched scorer invocations / total graphs pushed through them.
  int scorer_calls = 0;
  int scored_graphs = 0;
  /// Candidate-set size after each halving round (exhaustive: one entry).
  std::vector<int> survivors_per_round;

  // --- active-loop trace (populated by active_halving only) ---
  /// Model refits performed (== fed_back.size() == refit_reports.size()).
  int refits = 0;
  /// Candidate indices synthesized early and fed back, one entry per
  /// feedback round, each sorted ascending.
  std::vector<std::vector<int>> fed_back;
  /// What each refit reported: epochs run and optimizer steps. Refits run
  /// no validation, so the validation fields stay empty.
  std::vector<FitReport> refit_reports;
  /// The acquisition strategy that drove pruning and feedback selection.
  Acquisition acquisition = Acquisition::kPredictedRank;
};

/// The (metric -> ensemble members) table every scorer shares: single
/// predictors register one member, ensembles register all of theirs, and
/// each member gets a flat slot id — the model id the serving scheduler
/// keys on. Registration order is scoring order; models are borrowed and
/// must be fitted and outlive the table's users.
class ModelTable {
 public:
  ModelTable() = default;

  /// Registers a single predictor (one member) for `metric`.
  void add(Metric metric, const QorPredictor* model);
  /// Registers every ensemble member for `metric`.
  void add(Metric metric, const QorEnsemble* ensemble);

  bool has(Metric metric) const;
  /// Members registered for `metric`, in registration order. Throws
  /// std::invalid_argument when the metric has no entry.
  const std::vector<const QorPredictor*>& members(Metric metric) const;
  /// Flat slot id of `metric`'s member `k` (index into flat()).
  int flat_id(Metric metric, int k) const;
  /// Every member across all metrics, registration-ordered — the serving
  /// scheduler's model list.
  const std::vector<const QorPredictor*>& flat() const { return flat_; }
  /// Registered metrics in registration order.
  std::vector<Metric> metrics() const;

 private:
  struct Entry {
    Metric metric;
    std::vector<const QorPredictor*> members;
    int flat_offset = 0;
  };
  const Entry* find(Metric metric) const;
  std::vector<Entry> entries_;
  std::vector<const QorPredictor*> flat_;
};

/// Batched prediction source: one call scores one metric over a candidate
/// slice, returning mean + uncertainty per sample. Implementations must be
/// deterministic and safe to call from the exploring thread only.
class Scorer {
 public:
  virtual ~Scorer() = default;
  /// Decoded ScoreResults for `metric`, in input order, via one batched
  /// model entry per ensemble member. Throws if `metric` has no model.
  virtual std::vector<ScoreResult> score(
      Metric metric, const std::vector<const Sample*>& samples) const = 0;
  /// Metrics this scorer can serve, in registration order.
  virtual std::vector<Metric> metrics() const = 0;
};

/// Common scorer implementation over a ModelTable: score() runs one batched
/// prediction pass per registered member (fixed registration order) and
/// aggregates them into ScoreResults — the one ensemble mean/std in the
/// library (double accumulation in member order, population std;
/// single-member metrics score uncertainty 0.0). Derived classes supply
/// only the per-member batched transport.
class ModelScorerBase : public Scorer {
 public:
  std::vector<ScoreResult> score(
      Metric metric,
      const std::vector<const Sample*>& samples) const override;
  std::vector<Metric> metrics() const override { return table_.metrics(); }

 protected:
  explicit ModelScorerBase(ModelTable table);
  /// One batched prediction pass through one member model. `flat_id` is the
  /// member's slot in table().flat() — the serving path's model id; the
  /// direct path can ignore it and call `model` itself.
  virtual std::vector<double> member_predictions(
      int flat_id, const QorPredictor& model,
      const std::vector<const Sample*>& samples) const = 0;
  const ModelTable& table() const { return table_; }

 private:
  ModelTable table_;
};

/// Scores through direct QorPredictor::predict_many calls. Models are
/// borrowed: they must be fitted, and outlive the scorer.
class PredictorScorer : public ModelScorerBase {
 public:
  explicit PredictorScorer(ModelTable table);

 protected:
  std::vector<double> member_predictions(
      int flat_id, const QorPredictor& model,
      const std::vector<const Sample*>& samples) const override;
};

/// Scores through the async serving path: ONE shared-queue
/// ServingScheduler carrying every registered member model (multi-model
/// serving), exercising submit/micro-batch/scatter under DSE load. The
/// shared queue serves all members from a single small worker pool
/// (cfg.workers, default 1), not one worker thread per metric. Values are
/// bit-identical to PredictorScorer by the serving contract. Models are
/// borrowed and must outlive the scorer; active_halving may refit them
/// between score() calls — the scheduler permits quiescent refits (see
/// serve/scheduler.h).
class ServingScorer : public ModelScorerBase {
 public:
  /// `cfg.workers`/`max_batch`/`batch_window_us`/`adaptive_window` apply
  /// to the shared scheduler. DSE scoring must answer every sample on real
  /// worker threads, so a nonzero `max_queue` or `virtual_time` throws
  /// std::invalid_argument; requests carry no deadline.
  explicit ServingScorer(ModelTable table, SchedulerConfig cfg = {});

  /// Scheduler counters (per_model_completed is in table().flat() order).
  SchedStats serving_stats() const { return sched_->stats(); }

 protected:
  std::vector<double> member_predictions(
      int flat_id, const QorPredictor& model,
      const std::vector<const Sample*>& samples) const override;

 private:
  // unique_ptr: ServingScheduler owns worker threads and is not movable.
  std::unique_ptr<ServingScheduler> sched_;
};

/// active_halving's feedback policy.
struct ActiveConfig {
  /// Feedback (synthesize -> refit -> re-score) rounds to interleave with
  /// pruning. 0 reduces active_halving to successive_halving exactly (same
  /// trace, same budget) under kPredictedRank acquisition. Each round
  /// synthesizes max(1, top_k / (feedback_rounds + 1)) candidates early —
  /// spreading the budget so the final round still synthesizes fresh
  /// survivors — and always spends from the SAME top_k budget: total
  /// hls_runs stays successive halving's.
  int feedback_rounds = 1;
  /// Candidate ranking for pruning AND feedback selection.
  Acquisition acquisition = Acquisition::kPredictedRank;
  /// Passed to the model's refit() each feedback round (a small epoch
  /// budget by default). Every refit resumes the model's kept weights and
  /// Adam moments and keeps its last epoch.
  FitOptions refit = QorPredictor::refit_defaults();
};

struct DseConfig {
  /// Axes of the Pareto fronts (order = axis order; duplicates rejected).
  std::vector<Metric> front_metrics = {Metric::kLut, Metric::kFf};
  /// Metric that drives successive-halving pruning and `best`.
  Metric rank_metric = Metric::kLut;
  /// Ground-truth synthesis budget of successive halving (>= 1): pruning
  /// halves the candidate set until at most top_k points survive.
  int top_k = 4;
  /// Model-in-the-loop knobs (active_halving only).
  ActiveConfig active;
  /// Observability knobs (obs/obs_config.h): obs.trace emits
  /// halving_round / score_round / synthesize spans when the process-wide
  /// TraceCollector is active. Execution-only: DseResult is unchanged.
  ObsConfig obs;
};

class Explorer {
 public:
  /// `space` and `scorer` are borrowed and must outlive the explorer. The
  /// scorer must serve every metric in front_metrics + rank_metric.
  /// Construction lowers the whole space once (in parallel shards); both
  /// strategies start from copies of those candidates, and copies share
  /// their Sample features: one feature matrix per candidate per Explorer,
  /// not per run, freed with the last copy (DseResult copies included).
  Explorer(const DesignSpace& space, const Scorer& scorer,
           DseConfig cfg = {});

  /// Scores + synthesizes EVERY candidate; fronts and best are computed
  /// on full ground truth (hls_runs == space.size()).
  DseResult exhaustive() const;

  /// Predictor-guided pruning: score all candidates once, then repeatedly
  /// keep the predicted-best half (never fewer than top_k, ties to the
  /// lower index; with no refit the first scores stand) until at most
  /// top_k survive; only survivors get a ground-truth HLS run. front/best
  /// are computed on the survivors' truth. This is the active loop with no
  /// feedback rounds and kPredictedRank acquisition, whatever cfg.active
  /// says.
  DseResult successive_halving() const;

  /// Refits the rank-metric model on a freshly synthesized feedback delta.
  /// Receives the delta (candidate samples with truth filled in) and
  /// returns the refit's report. MUST update the same model the scorer
  /// reads for rank_metric — the loop's whole point is that the next
  /// score_round sees the sharpened model.
  using RefitFn = std::function<FitReport(const std::vector<Sample>&)>;

  /// Model-in-the-loop pruning at successive halving's exact ground-truth
  /// budget. Per pruning round (cfg.active, while feedback rounds remain):
  /// synthesize the acquisition-best unsynthesized survivors early, feed
  /// their truth to `refit_model`, then re-score the survivors through the
  /// (now sharper) model before the next prune. Survivors are re-scored
  /// once per refit and in no other round: an unchanged model gives
  /// unchanged scores. The final round spends
  /// whatever budget remains on the surviving set; fronts/best are computed
  /// over every synthesized candidate — early-synthesized points keep their
  /// truth even if later pruned. With feedback_rounds == 0 and
  /// kPredictedRank acquisition this is successive_halving exactly, trace
  /// for trace. The full feedback history lands in the DseResult
  /// (refits / fed_back / refit_reports / acquisition).
  DseResult active_halving(const RefitFn& refit_model) const;

  /// Convenience: feeds the delta to model.refit(delta, cfg.active.refit).
  /// The model must be the one the scorer serves for rank_metric (checked
  /// against its fitted metric).
  DseResult active_halving(QorPredictor& model) const;
  DseResult active_halving(QorEnsemble& model) const;

  const DseConfig& config() const { return cfg_; }

 private:
  /// One batched scorer call per metric over candidates[subset].
  void score_round(std::vector<DseCandidate>& candidates,
                   const std::vector<int>& subset,
                   const std::vector<Metric>& metrics, DseResult& r) const;
  /// The halving loop behind both pruning strategies: `feedback_rounds`
  /// synthesize -> refit -> re-score rounds ranked by `acq`. `refit_model`
  /// runs only in feedback rounds, so it may be empty when there are none.
  DseResult halving(const RefitFn& refit_model, int feedback_rounds,
                    Acquisition acq) const;
  /// The sort key one acquisition strategy assigns a candidate (lower is
  /// better). successive_halving always ranks kPredictedRank; active paths
  /// rank cfg.active.acquisition.
  double acquisition_key(const DseCandidate& c, Acquisition acq) const;
  /// `set` sorted by acquisition key, ties to the lower index.
  std::vector<int> by_acquisition(const std::vector<DseCandidate>& candidates,
                                  std::vector<int> set,
                                  Acquisition acq) const;
  /// Ground-truth HLS flow over candidates[subset], in parallel shards.
  void synthesize(std::vector<DseCandidate>& candidates,
                  const std::vector<int>& subset, DseResult& r) const;
  /// All metrics to score: front_metrics + rank_metric, deduplicated.
  std::vector<Metric> scored_metrics() const;
  void finalize(DseResult& r, const std::vector<int>& synthesized) const;

  const DesignSpace& space_;
  const Scorer& scorer_;
  DseConfig cfg_;
  /// Lowered once at construction; strategies copy (copies share each
  /// Sample's features).
  std::vector<DseCandidate> base_candidates_;
};

}  // namespace gnnhls
