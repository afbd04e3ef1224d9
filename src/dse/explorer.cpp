#include "dse/explorer.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "hls/hls_flow.h"
#include "obs/trace.h"
#include "support/check.h"
#include "support/parallel.h"

namespace gnnhls {

// ----- model table -----

void ModelTable::add(Metric metric, const QorPredictor* model) {
  GNNHLS_CHECK(model != nullptr, "ModelTable: null model");
  GNNHLS_CHECK(find(metric) == nullptr, "ModelTable: duplicate metric entry");
  Entry entry;
  entry.metric = metric;
  entry.members.push_back(model);
  entry.flat_offset = static_cast<int>(flat_.size());
  flat_.push_back(model);
  entries_.push_back(std::move(entry));
}

void ModelTable::add(Metric metric, const QorEnsemble* ensemble) {
  GNNHLS_CHECK(ensemble != nullptr, "ModelTable: null ensemble");
  GNNHLS_CHECK(find(metric) == nullptr, "ModelTable: duplicate metric entry");
  Entry entry;
  entry.metric = metric;
  entry.flat_offset = static_cast<int>(flat_.size());
  for (int k = 0; k < ensemble->size(); ++k) {
    entry.members.push_back(&ensemble->member(k));
    flat_.push_back(&ensemble->member(k));
  }
  entries_.push_back(std::move(entry));
}

const ModelTable::Entry* ModelTable::find(Metric metric) const {
  for (const Entry& e : entries_) {
    if (e.metric == metric) return &e;
  }
  return nullptr;
}

bool ModelTable::has(Metric metric) const { return find(metric) != nullptr; }

const std::vector<const QorPredictor*>& ModelTable::members(
    Metric metric) const {
  const Entry* e = find(metric);
  if (e == nullptr) {
    throw std::invalid_argument("ModelTable: no model for metric " +
                                metric_name(metric));
  }
  return e->members;
}

int ModelTable::flat_id(Metric metric, int k) const {
  const Entry* e = find(metric);
  if (e == nullptr) {
    throw std::invalid_argument("ModelTable: no model for metric " +
                                metric_name(metric));
  }
  GNNHLS_CHECK(k >= 0 && k < static_cast<int>(e->members.size()),
               "ModelTable: member index out of range");
  return e->flat_offset + k;
}

std::vector<Metric> ModelTable::metrics() const {
  std::vector<Metric> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.metric);
  return out;
}

// ----- scorers -----

// An empty table is constructible (metrics() is just empty) — the first
// score() against it throws through the ModelTable lookup, preserving the
// pre-redesign Scorer contract.
ModelScorerBase::ModelScorerBase(ModelTable table)
    : table_(std::move(table)) {}

std::vector<ScoreResult> ModelScorerBase::score(
    Metric metric, const std::vector<const Sample*>& samples) const {
  const std::vector<const QorPredictor*>& members = table_.members(metric);
  const std::size_t n = samples.size();
  const std::size_t k_members = members.size();
  // One batched transport pass per member, fixed registration order, then
  // a double-precision mean / population-std aggregation in member order —
  // a single-member metric scores uncertainty 0.0 and means bitwise equal
  // to the model's own predict_many.
  std::vector<std::vector<double>> per_member(k_members);
  for (std::size_t k = 0; k < k_members; ++k) {
    per_member[k] =
        member_predictions(table_.flat_id(metric, static_cast<int>(k)),
                           *members[k], samples);
    GNNHLS_CHECK_EQ(per_member[k].size(), n, "scorer member output size");
  }
  std::vector<ScoreResult> out(n);
  for (std::size_t j = 0; j < n; ++j) {
    double sum = 0.0;
    for (std::size_t k = 0; k < k_members; ++k) sum += per_member[k][j];
    const double mean = sum / static_cast<double>(k_members);
    double sq = 0.0;
    for (std::size_t k = 0; k < k_members; ++k) {
      const double d = per_member[k][j] - mean;
      sq += d * d;
    }
    out[j].mean = mean;
    out[j].uncertainty =
        k_members > 1 ? std::sqrt(sq / static_cast<double>(k_members)) : 0.0;
  }
  return out;
}

PredictorScorer::PredictorScorer(ModelTable table)
    : ModelScorerBase(std::move(table)) {}

std::vector<double> PredictorScorer::member_predictions(
    int /*flat_id*/, const QorPredictor& model,
    const std::vector<const Sample*>& samples) const {
  return model.predict_many(samples);
}

ServingScorer::ServingScorer(ModelTable table, SchedulerConfig cfg)
    : ModelScorerBase(std::move(table)) {
  // score() submits a whole candidate set at once and waits on worker
  // threads: a queue cap would shed part of it, and virtual time has no
  // workers to drain it.
  GNNHLS_CHECK(cfg.max_queue == 0,
               "ServingScorer: max_queue must be 0 (DSE answers every sample)");
  GNNHLS_CHECK(!cfg.virtual_time,
               "ServingScorer: virtual_time has no workers to drain score()");
  std::vector<const QorPredictor*> predictors = this->table().flat();
  sched_ = std::make_unique<ServingScheduler>(std::move(predictors), cfg);
}

std::vector<double> ServingScorer::member_predictions(
    int flat_id, const QorPredictor& /*model*/,
    const std::vector<const Sample*>& samples) const {
  return sched_->predict_many(flat_id, samples);
}

// ----- explorer -----

Explorer::Explorer(const DesignSpace& space, const Scorer& scorer,
                   DseConfig cfg)
    : space_(space), scorer_(scorer), cfg_(std::move(cfg)) {
  GNNHLS_CHECK(!cfg_.front_metrics.empty(),
               "Explorer: front_metrics must not be empty");
  for (std::size_t i = 0; i < cfg_.front_metrics.size(); ++i) {
    for (std::size_t j = i + 1; j < cfg_.front_metrics.size(); ++j) {
      GNNHLS_CHECK(cfg_.front_metrics[i] != cfg_.front_metrics[j],
                   "Explorer: duplicate front metric");
    }
  }
  GNNHLS_CHECK(cfg_.top_k >= 1, "Explorer: top_k must be >= 1");
  const std::vector<Metric> served = scorer_.metrics();
  for (Metric m : scored_metrics()) {
    GNNHLS_CHECK(std::find(served.begin(), served.end(), m) != served.end(),
                 "Explorer: scorer has no model for a required metric");
  }
  // Lower once, after validation: every strategy run starts from copies of
  // these candidates, which share their features (one build per candidate
  // for this explorer's lifetime, however many runs happen).
  const std::vector<DesignPoint> points = space_.enumerate();
  std::vector<Sample> lowered = space_.lower_candidates();
  base_candidates_.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    base_candidates_.push_back(
        DseCandidate{points[i], std::move(lowered[i]), {}, {}, false, 0.0});
  }
}

std::vector<Metric> Explorer::scored_metrics() const {
  std::vector<Metric> metrics = cfg_.front_metrics;
  if (std::find(metrics.begin(), metrics.end(), cfg_.rank_metric) ==
      metrics.end()) {
    metrics.push_back(cfg_.rank_metric);
  }
  return metrics;
}

void Explorer::score_round(std::vector<DseCandidate>& candidates,
                           const std::vector<int>& subset,
                           const std::vector<Metric>& metrics,
                           DseResult& r) const {
  const ObsSpan span(cfg_.obs.trace, "score_round", "dse");
  std::vector<const Sample*> samples;
  samples.reserve(subset.size());
  for (int i : subset) {
    samples.push_back(&candidates[static_cast<std::size_t>(i)].sample);
  }
  for (Metric m : metrics) {
    const std::vector<ScoreResult> pred = scorer_.score(m, samples);
    GNNHLS_CHECK_EQ(pred.size(), subset.size(), "scorer output size");
    for (std::size_t j = 0; j < subset.size(); ++j) {
      DseCandidate& c = candidates[static_cast<std::size_t>(subset[j])];
      c.predicted[static_cast<std::size_t>(m)] = pred[j].mean;
      c.uncertainty[static_cast<std::size_t>(m)] = pred[j].uncertainty;
    }
    ++r.scorer_calls;
    r.scored_graphs += static_cast<int>(subset.size());
  }
}

void Explorer::synthesize(std::vector<DseCandidate>& candidates,
                          const std::vector<int>& subset, DseResult& r) const {
  const ObsSpan span(cfg_.obs.trace, "synthesize", "dse");
  parallel_shards(static_cast<int>(subset.size()), [&](int j) {
    DseCandidate& c =
        candidates[static_cast<std::size_t>(subset[static_cast<std::size_t>(j)])];
    const HlsOutcome outcome = run_hls_flow(c.sample.prog, c.point.hls);
    c.sample.truth = outcome.implemented;
    c.sample.hls_report = outcome.reported;
    c.latency_cycles = outcome.latency_cycles;
    c.synthesized = true;
  });
  r.hls_runs += static_cast<int>(subset.size());
}

namespace {

/// Pareto front restricted to `subset`, mapped back to candidate indices.
/// `value(i, m)` reads axis m of candidate i.
template <typename ValueFn>
std::vector<int> front_over(const std::vector<int>& subset,
                            const std::vector<Metric>& axes, ValueFn value) {
  std::vector<std::vector<double>> rows;
  rows.reserve(subset.size());
  for (int i : subset) {
    std::vector<double> row;
    row.reserve(axes.size());
    for (Metric m : axes) row.push_back(value(i, m));
    rows.push_back(std::move(row));
  }
  std::vector<int> front;
  for (int local : pareto_front(rows)) {
    front.push_back(subset[static_cast<std::size_t>(local)]);
  }
  return front;  // ascending: subset is ascending and pareto_front is too
}

}  // namespace

void Explorer::finalize(DseResult& r,
                        const std::vector<int>& synthesized) const {
  r.front = front_over(synthesized, cfg_.front_metrics, [&](int i, Metric m) {
    return metric_of(r.candidates[static_cast<std::size_t>(i)].sample.truth,
                     m);
  });
  r.predicted_front =
      front_over(all_indices(static_cast<int>(r.candidates.size())),
                 cfg_.front_metrics, [&](int i, Metric m) {
                   return r.candidates[static_cast<std::size_t>(i)]
                       .predicted[static_cast<std::size_t>(m)];
                 });
  for (int i : synthesized) {
    const double v = metric_of(
        r.candidates[static_cast<std::size_t>(i)].sample.truth,
        cfg_.rank_metric);
    if (r.best < 0 ||
        v < metric_of(
                r.candidates[static_cast<std::size_t>(r.best)].sample.truth,
                cfg_.rank_metric)) {
      r.best = i;  // strict < keeps the lowest index on ties
    }
  }
}

DseResult Explorer::exhaustive() const {
  DseResult r;
  r.candidates = base_candidates_;
  const std::vector<int> all =
      all_indices(static_cast<int>(r.candidates.size()));
  score_round(r.candidates, all, scored_metrics(), r);
  r.survivors_per_round.push_back(static_cast<int>(all.size()));
  synthesize(r.candidates, all, r);
  finalize(r, all);
  return r;
}

namespace {

/// Uncertainty weight of Acquisition::kUncertaintyBonus (the LCB beta).
constexpr double kUncertaintyBeta = 1.0;

}  // namespace

double Explorer::acquisition_key(const DseCandidate& c,
                                 Acquisition acq) const {
  const std::size_t m = static_cast<std::size_t>(cfg_.rank_metric);
  if (acq == Acquisition::kUncertaintyBonus) {
    // LCB on a lower-is-better metric: a candidate the members disagree on
    // ranks better than its mean alone — exploration credit.
    return c.predicted[m] - kUncertaintyBeta * c.uncertainty[m];
  }
  return c.predicted[m];
}

std::vector<int> Explorer::by_acquisition(
    const std::vector<DseCandidate>& candidates, std::vector<int> set,
    Acquisition acq) const {
  std::sort(set.begin(), set.end(), [&](int a, int b) {
    const double ka =
        acquisition_key(candidates[static_cast<std::size_t>(a)], acq);
    const double kb =
        acquisition_key(candidates[static_cast<std::size_t>(b)], acq);
    if (ka != kb) return ka < kb;
    return a < b;  // deterministic tie-break: lower index survives
  });
  return set;
}

DseResult Explorer::successive_halving() const {
  // The static baseline always prunes by predicted rank, whatever
  // cfg_.active says — it IS the no-feedback reference.
  return halving(RefitFn{}, 0, Acquisition::kPredictedRank);
}

DseResult Explorer::active_halving(const RefitFn& refit_model) const {
  GNNHLS_CHECK(refit_model != nullptr, "active_halving: null refit fn");
  GNNHLS_CHECK(cfg_.active.feedback_rounds >= 0,
               "active_halving: feedback_rounds must be >= 0");
  return halving(refit_model, cfg_.active.feedback_rounds,
                 cfg_.active.acquisition);
}

DseResult Explorer::halving(const RefitFn& refit_model, int feedback_rounds,
                            Acquisition acq) const {
  DseResult r;
  r.acquisition = acq;
  r.candidates = base_candidates_;
  const int n = static_cast<int>(r.candidates.size());
  std::vector<int> survivors = all_indices(n);
  r.survivors_per_round.push_back(n);
  // Round 0 scores every metric over the full space (predicted_front needs
  // them); a later round re-scores only the rank metric over the survivors,
  // and only when a refit has changed the model since their last score.
  score_round(r.candidates, survivors, scored_metrics(), r);

  // The WHOLE loop spends successive halving's ground-truth budget, no
  // more: early feedback synthesis and the final round draw from one pot,
  // so active vs. static comparisons are budget-equal by construction.
  int budget_left = std::min(n, cfg_.top_k);
  int rounds_left = feedback_rounds;
  const int per_round = std::max(1, cfg_.top_k / (feedback_rounds + 1));

  while (static_cast<int>(survivors.size()) > cfg_.top_k) {
    const ObsSpan round_span(cfg_.obs.trace, "halving_round", "dse");
    const int keep = std::max(
        cfg_.top_k, (static_cast<int>(survivors.size()) + 1) / 2);
    survivors = by_acquisition(r.candidates, std::move(survivors), acq);
    survivors.resize(static_cast<std::size_t>(keep));
    std::sort(survivors.begin(), survivors.end());
    r.survivors_per_round.push_back(keep);
    if (keep > cfg_.top_k && rounds_left > 0 && budget_left > 0) {
      --rounds_left;
      // Feedback: synthesize the acquisition-best unsynthesized survivors
      // early — the points most likely to matter at the end, so the spent
      // budget usually lands inside the final set anyway — and refit on
      // their fresh ground truth.
      std::vector<int> feed;
      const int want = std::min(per_round, budget_left);
      for (int i : by_acquisition(r.candidates, survivors, acq)) {
        if (static_cast<int>(feed.size()) >= want) break;
        if (!r.candidates[static_cast<std::size_t>(i)].synthesized) {
          feed.push_back(i);
        }
      }
      if (!feed.empty()) {
        std::sort(feed.begin(), feed.end());
        synthesize(r.candidates, feed, r);
        budget_left -= static_cast<int>(feed.size());
        std::vector<Sample> delta;
        delta.reserve(feed.size());
        for (int i : feed) {
          delta.push_back(r.candidates[static_cast<std::size_t>(i)].sample);
        }
        {
          const ObsSpan refit_span(cfg_.obs.trace, "refit", "dse");
          r.refit_reports.push_back(refit_model(delta));
        }
        ++r.refits;
        r.fed_back.push_back(std::move(feed));
        // Survivors re-score through the refitted model: THE feedback
        // payoff. A round without a refit keeps their scores: the model is
        // unchanged, and by the predict_many contract so is every value.
        score_round(r.candidates, survivors, {cfg_.rank_metric}, r);
      }
    }
  }

  // Final round: the remaining budget goes to the acquisition-best
  // unsynthesized survivors. Spent + remaining always equals the static
  // budget: every fed-back candidate either survived (saving its cost
  // here) or paid for the information that pruned it.
  std::vector<int> to_synth;
  for (int i : by_acquisition(r.candidates, survivors, acq)) {
    if (static_cast<int>(to_synth.size()) >= budget_left) break;
    if (!r.candidates[static_cast<std::size_t>(i)].synthesized) {
      to_synth.push_back(i);
    }
  }
  std::sort(to_synth.begin(), to_synth.end());
  if (!to_synth.empty()) synthesize(r.candidates, to_synth, r);

  // Ground truth basis = every synthesized candidate: early-synthesized
  // points keep their (already paid for) truth even when later pruned.
  std::vector<int> synthesized;
  for (int i = 0; i < n; ++i) {
    if (r.candidates[static_cast<std::size_t>(i)].synthesized) {
      synthesized.push_back(i);
    }
  }
  finalize(r, synthesized);
  return r;
}

DseResult Explorer::active_halving(QorPredictor& model) const {
  GNNHLS_CHECK(model.metric() == cfg_.rank_metric,
               "active_halving: model fitted for a different metric than "
               "rank_metric");
  return active_halving([&](const std::vector<Sample>& delta) {
    return model.refit(delta, cfg_.active.refit);
  });
}

DseResult Explorer::active_halving(QorEnsemble& model) const {
  GNNHLS_CHECK(model.metric() == cfg_.rank_metric,
               "active_halving: ensemble fitted for a different metric than "
               "rank_metric");
  return active_halving([&](const std::vector<Sample>& delta) {
    return model.refit(delta, cfg_.active.refit);
  });
}

}  // namespace gnnhls
