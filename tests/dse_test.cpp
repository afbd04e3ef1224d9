// dse/ subsystem tests: Pareto-front correctness on hand-built dominance
// cases, deterministic design-space enumeration, and the explorer
// determinism contract — results bit-identical across thread-pool widths
// and across the direct predict_many vs ServingScheduler scoring paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "dse/explorer.h"
#include "suites/variants.h"
#include "support/parallel.h"
#include "train/feature_cache.h"

namespace gnnhls {
namespace {

// ----- pareto.h -----

TEST(ParetoTest, DominatesIsStrict) {
  EXPECT_TRUE(dominates({1.0, 1.0}, {2.0, 2.0}));
  EXPECT_TRUE(dominates({1.0, 2.0}, {1.0, 3.0}));
  EXPECT_FALSE(dominates({1.0, 1.0}, {1.0, 1.0}));  // equal: no dominance
  EXPECT_FALSE(dominates({0.0, 3.0}, {3.0, 0.0}));  // trade-off
  EXPECT_THROW(dominates({1.0}, {1.0, 2.0}), std::invalid_argument);
}

TEST(ParetoTest, HandBuiltFront) {
  // 1 is dominated by 0; 4 duplicates 0 (tie-break keeps the first).
  const std::vector<std::vector<double>> points = {
      {1.0, 1.0}, {2.0, 2.0}, {0.0, 3.0}, {3.0, 0.0}, {1.0, 1.0}};
  EXPECT_EQ(pareto_front(points), (std::vector<int>{0, 2, 3}));
}

TEST(ParetoTest, AllEqualKeepsFirstOnly) {
  const std::vector<std::vector<double>> points = {
      {5.0, 5.0}, {5.0, 5.0}, {5.0, 5.0}};
  EXPECT_EQ(pareto_front(points), (std::vector<int>{0}));
}

TEST(ParetoTest, SingleAxisIsArgmin) {
  const std::vector<std::vector<double>> points = {{3.0}, {1.0}, {2.0}, {1.0}};
  EXPECT_EQ(pareto_front(points), (std::vector<int>{1}));
}

TEST(ParetoTest, EmptyAndSingleton) {
  EXPECT_TRUE(pareto_front({}).empty());
  EXPECT_EQ(pareto_front({{7.0, 7.0}}), (std::vector<int>{0}));
}

// ----- design_space.h -----

TEST(DesignSpaceTest, DeterministicEnumeration) {
  const DesignSpace space = make_kernel_design_space("gemm");
  EXPECT_EQ(space.size(), 12u);  // 4 unroll x 3 bitwidth x 1 clock x 1 unc
  const std::vector<DesignPoint> a = space.enumerate();
  const std::vector<DesignPoint> b = space.enumerate();
  ASSERT_EQ(a.size(), space.size());
  ASSERT_EQ(b.size(), space.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, static_cast<int>(i));
    EXPECT_EQ(a[i].label(), b[i].label());
    EXPECT_EQ(a[i].unroll, b[i].unroll);
    EXPECT_EQ(a[i].bitwidth, b[i].bitwidth);
    EXPECT_EQ(a[i].hls.clock_ns, b[i].hls.clock_ns);
    EXPECT_EQ(a[i].hls.clock_uncertainty, b[i].hls.clock_uncertainty);
  }
  // Labels are unique: every point is a distinct knob combination.
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = i + 1; j < a.size(); ++j) {
      EXPECT_NE(a[i].label(), a[j].label());
    }
  }
}

TEST(DesignSpaceTest, GridGrowthIsDeterministic) {
  const KnobGrid g = grid_with_at_least(40);
  EXPECT_GE(g.size(), 40u);
  const KnobGrid h = grid_with_at_least(40);
  EXPECT_EQ(g.bitwidth, h.bitwidth);
  EXPECT_EQ(g.clock_ns, h.clock_ns);
  EXPECT_THROW(grid_with_at_least(100000), std::invalid_argument);
}

TEST(DesignSpaceTest, CandidateIsPredictionReadyWithoutHls) {
  const DesignSpace space = make_kernel_design_space("fir");
  const std::vector<DesignPoint> points = space.enumerate();
  const Sample s = space.lower_candidate(points[0]);
  EXPECT_GT(s.graph().num_nodes(), 0);
  EXPECT_EQ(s.tensors.num_nodes, s.graph().num_nodes());
  // No HLS flow has run: ground truth is untouched.
  for (Metric m : kAllMetrics) EXPECT_EQ(metric_of(s.truth, m), 0.0);
}

TEST(DesignSpaceTest, UnrollGrowsTheGraph) {
  const DesignSpace space = make_kernel_design_space("stencil");
  DesignPoint narrow, wide;
  narrow.unroll = 1;
  narrow.bitwidth = 16;
  wide.unroll = 8;
  wide.bitwidth = 16;
  EXPECT_LT(space.lower_candidate(narrow).graph().num_nodes(),
            space.lower_candidate(wide).graph().num_nodes());
}

TEST(DesignSpaceTest, UnknownKernelThrows) {
  EXPECT_THROW(make_kernel_design_space("fft"), std::invalid_argument);
  EXPECT_THROW(make_variant("fft", 1, 32), std::invalid_argument);
}

TEST(VariantTest, KnobValidation) {
  EXPECT_THROW(make_gemm_variant(3, 32), std::invalid_argument);  // 3 ∤ 64
  EXPECT_THROW(make_gemm_variant(0, 32), std::invalid_argument);
  EXPECT_THROW(make_fir_variant(1, 1), std::invalid_argument);
  for (const VariantKernel& k : dse_variant_kernels()) {
    const Function f = k.build(2, 16);
    EXPECT_TRUE(f.has_control_flow());  // all variants lower to CDFGs
    EXPECT_NE(f.name.find(k.name), std::string::npos);
  }
}

// ----- explorer.h -----

/// Restores the default pool on scope exit (mirrors train_test).
struct PoolGuard {
  explicit PoolGuard(int threads) { ThreadPool::set_global_threads(threads); }
  ~PoolGuard() { ThreadPool::set_global_threads(0); }
};

struct Trained {
  QorPredictor lut;
  QorPredictor ff;
};

/// Training corpus + configs shared by every model the explorer tests fit
/// (including the fresh per-test models active-loop tests need, since
/// refitting mutates a model in place).
struct TrainSetup {
  std::vector<Sample> corpus;
  SplitIndices split;
  ModelConfig mc;
  TrainConfig tc;
};

const TrainSetup& train_setup() {
  static const TrainSetup* setup = [] {
    auto* s = new TrainSetup;
    SyntheticDatasetConfig dc;
    dc.kind = GraphKind::kCdfg;
    dc.num_graphs = 60;
    dc.seed = 33;
    s->corpus = build_synthetic_dataset(dc);
    s->split = split_80_10_10(static_cast<int>(s->corpus.size()), 3);
    s->mc.kind = GnnKind::kRgcn;
    s->mc.hidden = 16;
    s->mc.layers = 2;
    s->tc.epochs = 6;
    s->tc.lr = 1e-2F;
    s->tc.batch_size = 8;
    return s;
  }();
  return *setup;
}

/// A freshly fitted predictor, bitwise identical on every call — the model
/// active-loop tests hand to active_halving (which refits it in place).
QorPredictor fresh_predictor(Metric metric) {
  const TrainSetup& s = train_setup();
  QorPredictor p(Approach::kOffTheShelf, s.mc, s.tc);
  p.fit(s.corpus, s.split, metric, FitOptions{});
  return p;
}

/// One tiny LUT + FF predictor pair, trained once and shared by all
/// read-only explorer tests (fitting dominates test runtime).
const Trained& trained_predictors() {
  static const Trained* trained = [] {
    const TrainSetup& s = train_setup();
    auto* t = new Trained{QorPredictor(Approach::kOffTheShelf, s.mc, s.tc),
                          QorPredictor(Approach::kOffTheShelf, s.mc, s.tc)};
    t->lut.fit(s.corpus, s.split, Metric::kLut, FitOptions{});
    t->ff.fit(s.corpus, s.split, Metric::kFf, FitOptions{});
    return t;
  }();
  return *trained;
}

/// The (LUT, FF) scoring table the explorer tests rank and front over.
ModelTable lut_ff_table(const QorPredictor& lut, const QorPredictor& ff) {
  ModelTable table;
  table.add(Metric::kLut, &lut);
  table.add(Metric::kFf, &ff);
  return table;
}

PredictorScorer direct_scorer() {
  const Trained& t = trained_predictors();
  return PredictorScorer(lut_ff_table(t.lut, t.ff));
}

DesignSpace small_space() {
  KnobGrid grid;
  grid.unroll = {1, 2};
  grid.bitwidth = {8, 16};
  return make_kernel_design_space("gemm", grid);
}

void expect_identical_results(const DseResult& a, const DseResult& b) {
  ASSERT_EQ(a.candidates.size(), b.candidates.size());
  for (std::size_t i = 0; i < a.candidates.size(); ++i) {
    EXPECT_EQ(a.candidates[i].point.label(), b.candidates[i].point.label());
    EXPECT_EQ(a.candidates[i].predicted, b.candidates[i].predicted);
    EXPECT_EQ(a.candidates[i].uncertainty, b.candidates[i].uncertainty);
    EXPECT_EQ(a.candidates[i].synthesized, b.candidates[i].synthesized);
    EXPECT_EQ(a.candidates[i].latency_cycles, b.candidates[i].latency_cycles);
    for (Metric m : kAllMetrics) {
      EXPECT_EQ(metric_of(a.candidates[i].sample.truth, m),
                metric_of(b.candidates[i].sample.truth, m));
    }
  }
  EXPECT_EQ(a.front, b.front);
  EXPECT_EQ(a.predicted_front, b.predicted_front);
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(a.hls_runs, b.hls_runs);
  EXPECT_EQ(a.survivors_per_round, b.survivors_per_round);
  // Active-loop trace (empty/default for the static strategies).
  EXPECT_EQ(a.refits, b.refits);
  EXPECT_EQ(a.fed_back, b.fed_back);
  EXPECT_EQ(a.acquisition, b.acquisition);
  ASSERT_EQ(a.refit_reports.size(), b.refit_reports.size());
  for (std::size_t i = 0; i < a.refit_reports.size(); ++i) {
    EXPECT_EQ(a.refit_reports[i].epochs_run, b.refit_reports[i].epochs_run);
    EXPECT_EQ(a.refit_reports[i].steps, b.refit_reports[i].steps);
  }
}

TEST(ExplorerTest, ExhaustiveSynthesizesEveryPoint) {
  const DesignSpace space = small_space();
  const PredictorScorer scorer = direct_scorer();
  const Explorer explorer(space, scorer);
  const DseResult r = explorer.exhaustive();
  ASSERT_EQ(r.candidates.size(), space.size());
  EXPECT_EQ(r.hls_runs, static_cast<int>(space.size()));
  EXPECT_EQ(r.survivors_per_round, (std::vector<int>{4}));
  for (const DseCandidate& c : r.candidates) {
    EXPECT_TRUE(c.synthesized);
    EXPECT_GT(metric_of(c.sample.truth, Metric::kLut), 0.0);
    EXPECT_GT(c.predicted[static_cast<std::size_t>(Metric::kLut)], 0.0);
  }
  ASSERT_FALSE(r.front.empty());
  ASSERT_GE(r.best, 0);
  // best is the true rank-metric argmin and sits on the front.
  for (const DseCandidate& c : r.candidates) {
    EXPECT_LE(metric_of(
                  r.candidates[static_cast<std::size_t>(r.best)].sample.truth,
                  Metric::kLut),
              metric_of(c.sample.truth, Metric::kLut));
  }
}

TEST(ExplorerTest, BitIdenticalAcrossThreadCounts) {
  const DesignSpace space = small_space();
  const PredictorScorer scorer = direct_scorer();
  DseResult serial_exh, serial_sh;
  {
    PoolGuard guard(1);
    // Construct inside the guard: candidate lowering happens at
    // construction and must be width-invariant too.
    const Explorer explorer(space, scorer);
    serial_exh = explorer.exhaustive();
    serial_sh = explorer.successive_halving();
  }
  {
    PoolGuard guard(4);
    const Explorer explorer(space, scorer);
    expect_identical_results(serial_exh, explorer.exhaustive());
    expect_identical_results(serial_sh, explorer.successive_halving());
  }
}

// Each Explorer lowers its candidates under fresh uids and scoring caches
// their features; destroying the explorer drops them again, so repeated
// explorations leave the process-wide FeatureCache where it was.
TEST(ExplorerTest, DestroyedExplorerEvictsItsCandidateFeatures) {
  const DesignSpace space = small_space();
  const PredictorScorer scorer = direct_scorer();  // fits, caching its corpus
  const std::size_t before = FeatureCache::global().entries();
  DseResult first;
  for (int round = 0; round < 3; ++round) {
    DseResult r;
    {
      const Explorer explorer(space, scorer);
      r = explorer.successive_halving();
      EXPECT_GT(FeatureCache::global().entries(), before);
    }
    EXPECT_EQ(FeatureCache::global().entries(), before) << "round " << round;
    if (round == 0) {
      first = r;
    } else {
      expect_identical_results(first, r);
    }
  }
}

TEST(ExplorerTest, ServingScorerBitIdenticalToDirect) {
  const Trained& t = trained_predictors();
  const DesignSpace space = small_space();
  const PredictorScorer direct = direct_scorer();
  SchedulerConfig sc;
  sc.max_batch = 3;  // forces uneven micro-batch splits of the 4 candidates
  sc.batch_window_us = 0;
  const ServingScorer serving(lut_ff_table(t.lut, t.ff), sc);
  EXPECT_EQ(serving.metrics(), direct.metrics());
  const Explorer via_direct(space, direct);
  const Explorer via_serving(space, serving);
  expect_identical_results(via_direct.exhaustive(), via_serving.exhaustive());
  expect_identical_results(via_direct.successive_halving(),
                           via_serving.successive_halving());
}

// score() submits every candidate at once and waits on worker threads, so a
// queue cap would shed part of a candidate set (a 30-sample score() with
// max_queue 1 threw "queue over capacity") and virtual time would leave it
// blocked forever: both are rejected up front.
TEST(ExplorerTest, ServingScorerRejectsQueueCap) {
  const Trained& t = trained_predictors();
  SchedulerConfig sc;
  sc.max_queue = 1;
  EXPECT_THROW(ServingScorer(lut_ff_table(t.lut, t.ff), sc),
               std::invalid_argument);
}

TEST(ExplorerTest, ServingScorerRejectsVirtualTime) {
  const Trained& t = trained_predictors();
  SchedulerConfig sc;
  sc.virtual_time = true;
  EXPECT_THROW(ServingScorer(lut_ff_table(t.lut, t.ff), sc),
               std::invalid_argument);
}

TEST(ExplorerTest, HalvingRespectsGroundTruthBudget) {
  const DesignSpace space = make_kernel_design_space("gemm");  // 12 points
  const PredictorScorer scorer = direct_scorer();
  DseConfig cfg;
  cfg.top_k = 3;
  const Explorer explorer(space, scorer, cfg);
  const DseResult r = explorer.successive_halving();
  EXPECT_EQ(r.survivors_per_round, (std::vector<int>{12, 6, 3}));
  EXPECT_EQ(r.hls_runs, 3);
  int synthesized = 0;
  for (const DseCandidate& c : r.candidates) synthesized += c.synthesized;
  EXPECT_EQ(synthesized, 3);
  // The front only contains synthesized survivors, and best is one of them.
  for (int i : r.front) {
    EXPECT_TRUE(r.candidates[static_cast<std::size_t>(i)].synthesized);
  }
  ASSERT_GE(r.best, 0);
  EXPECT_TRUE(r.candidates[static_cast<std::size_t>(r.best)].synthesized);
  // Rounds 0 scored 2 metrics over 12; round 1 re-scored 1 metric over 6.
  EXPECT_EQ(r.scorer_calls, 3);
  EXPECT_EQ(r.scored_graphs, 2 * 12 + 6);
}

TEST(ExplorerTest, HalvingAgreesWithExhaustiveOnPredictions) {
  const DesignSpace space = make_kernel_design_space("gemm");
  const PredictorScorer scorer = direct_scorer();
  DseConfig cfg;
  cfg.top_k = 3;
  const Explorer explorer(space, scorer, cfg);
  const DseResult exh = explorer.exhaustive();
  const DseResult sh = explorer.successive_halving();
  // Predictions and the predicted front are strategy-independent.
  ASSERT_EQ(exh.candidates.size(), sh.candidates.size());
  for (std::size_t i = 0; i < exh.candidates.size(); ++i) {
    EXPECT_EQ(exh.candidates[i].predicted, sh.candidates[i].predicted);
  }
  EXPECT_EQ(exh.predicted_front, sh.predicted_front);
  // Survivors' ground truth matches the exhaustive sweep bit-for-bit.
  for (std::size_t i = 0; i < sh.candidates.size(); ++i) {
    if (!sh.candidates[i].synthesized) continue;
    for (Metric m : kAllMetrics) {
      EXPECT_EQ(metric_of(sh.candidates[i].sample.truth, m),
                metric_of(exh.candidates[i].sample.truth, m));
    }
  }
}

TEST(ExplorerTest, ConfigValidation) {
  const DesignSpace space = small_space();
  const PredictorScorer scorer = direct_scorer();
  DseConfig bad_topk;
  bad_topk.top_k = 0;
  EXPECT_THROW(Explorer(space, scorer, bad_topk), std::invalid_argument);
  DseConfig dup;
  dup.front_metrics = {Metric::kLut, Metric::kLut};
  EXPECT_THROW(Explorer(space, scorer, dup), std::invalid_argument);
  DseConfig unserved;
  unserved.front_metrics = {Metric::kDsp};  // scorer only has LUT + FF
  EXPECT_THROW(Explorer(space, scorer, unserved), std::invalid_argument);
  const PredictorScorer empty_scorer{ModelTable{}};
  EXPECT_THROW(empty_scorer.score(Metric::kLut, {}), std::invalid_argument);
}

// ----- ModelTable -----

TEST(ModelTableTest, RegistrationAndLookup) {
  const Trained& t = trained_predictors();
  ModelTable table;
  EXPECT_FALSE(table.has(Metric::kLut));
  table.add(Metric::kLut, &t.lut);
  EXPECT_TRUE(table.has(Metric::kLut));
  EXPECT_THROW(table.add(Metric::kLut, &t.ff), std::invalid_argument);
  table.add(Metric::kFf, &t.ff);
  EXPECT_EQ(table.flat().size(), 2u);
  EXPECT_EQ(table.members(Metric::kLut),
            (std::vector<const QorPredictor*>{&t.lut}));
  EXPECT_EQ(table.flat_id(Metric::kLut, 0), 0);
  EXPECT_EQ(table.flat_id(Metric::kFf, 0), 1);
  EXPECT_EQ(table.metrics(),
            (std::vector<Metric>{Metric::kLut, Metric::kFf}));
  EXPECT_THROW(table.members(Metric::kDsp), std::invalid_argument);
}

TEST(ModelTableTest, EnsembleRegistersEveryMember) {
  const TrainSetup& s = train_setup();
  const QorEnsemble ensemble(Approach::kOffTheShelf, s.mc, s.tc, 3);
  ModelTable table;
  table.add(Metric::kLut, &ensemble);
  ASSERT_EQ(table.members(Metric::kLut).size(), 3u);
  EXPECT_EQ(table.flat().size(), 3u);
  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(table.members(Metric::kLut)[static_cast<std::size_t>(k)],
              &ensemble.member(k));
    EXPECT_EQ(table.flat_id(Metric::kLut, k), k);
  }
}

// ----- QorEnsemble (scored through the ModelTable scorers) -----

/// A 3-member LUT ensemble, fitted once and shared by the read-only
/// ensemble scoring tests.
const QorEnsemble& trained_ensemble() {
  static const QorEnsemble* ensemble = [] {
    const TrainSetup& s = train_setup();
    auto* e = new QorEnsemble(Approach::kOffTheShelf, s.mc, s.tc, 3);
    e->fit(s.corpus, s.split, Metric::kLut, FitOptions{});
    return e;
  }();
  return *ensemble;
}

/// The validation split of the shared corpus, as scorer input.
std::vector<const Sample*> val_samples() {
  const TrainSetup& s = train_setup();
  std::vector<const Sample*> ptrs;
  for (int i : s.split.val) {
    ptrs.push_back(&s.corpus[static_cast<std::size_t>(i)]);
  }
  return ptrs;
}

/// `ensemble`'s LUT scores through a direct PredictorScorer.
std::vector<ScoreResult> score_ensemble(const QorEnsemble& ensemble,
                                        const std::vector<const Sample*>& ptrs) {
  ModelTable table;
  table.add(Metric::kLut, &ensemble);
  return PredictorScorer(std::move(table)).score(Metric::kLut, ptrs);
}

TEST(EnsembleTest, EnsembleOfOneIsBitwiseTheSingleModel) {
  const TrainSetup& s = train_setup();
  QorPredictor single = fresh_predictor(Metric::kLut);
  QorEnsemble one(Approach::kOffTheShelf, s.mc, s.tc, 1);
  one.fit(s.corpus, s.split, Metric::kLut, FitOptions{});
  const std::vector<const Sample*> ptrs = val_samples();
  std::vector<double> want = single.predict_many(ptrs);
  std::vector<ScoreResult> got = score_ensemble(one, ptrs);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t j = 0; j < got.size(); ++j) {
    EXPECT_EQ(got[j].mean, want[j]);
    EXPECT_EQ(got[j].uncertainty, 0.0);
  }
  // ... and the parity survives an identical refit on the same delta.
  const std::vector<Sample> delta(s.corpus.begin(), s.corpus.begin() + 4);
  single.refit(delta);
  one.refit(delta);
  want = single.predict_many(ptrs);
  got = score_ensemble(one, ptrs);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t j = 0; j < got.size(); ++j) {
    EXPECT_EQ(got[j].mean, want[j]);
    EXPECT_EQ(got[j].uncertainty, 0.0);
  }
}

TEST(EnsembleTest, MembersDisagreeAndAggregateDeterministically) {
  const QorEnsemble& ensemble = trained_ensemble();
  EXPECT_EQ(ensemble.size(), 3);
  EXPECT_EQ(ensemble.metric(), Metric::kLut);
  const std::vector<const Sample*> ptrs = val_samples();
  const std::vector<ScoreResult> scored = score_ensemble(ensemble, ptrs);
  ASSERT_EQ(scored.size(), ptrs.size());
  // Seed-offset members genuinely disagree: dispersion is visible.
  double max_unc = 0.0;
  for (const ScoreResult& r : scored) max_unc = std::max(max_unc, r.uncertainty);
  EXPECT_GT(max_unc, 0.0);
  // The mean sits inside the member envelope.
  for (std::size_t j = 0; j < ptrs.size(); ++j) {
    double lo = std::numeric_limits<double>::infinity(), hi = -lo;
    for (int k = 0; k < 3; ++k) {
      const double v = ensemble.member(k).predict(*ptrs[j]);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    EXPECT_GE(scored[j].mean, lo);
    EXPECT_LE(scored[j].mean, hi);
  }
  // Scoring is a pure function: byte-identical on repeat.
  const std::vector<ScoreResult> again = score_ensemble(ensemble, ptrs);
  for (std::size_t j = 0; j < scored.size(); ++j) {
    EXPECT_EQ(scored[j].mean, again[j].mean);
    EXPECT_EQ(scored[j].uncertainty, again[j].uncertainty);
  }
}

TEST(EnsembleTest, ServingScorerBitIdenticalToDirect) {
  const Trained& t = trained_predictors();
  const QorEnsemble& ensemble = trained_ensemble();
  // A single model first, so the ensemble members sit at flat ids 1..3 of
  // the shared scheduler — the serving path must map them back in order.
  const auto table = [&] {
    ModelTable tab;
    tab.add(Metric::kFf, &t.ff);
    tab.add(Metric::kLut, &ensemble);
    return tab;
  };
  SchedulerConfig sc;
  sc.max_batch = 4;  // forces uneven micro-batch splits of the 6 val graphs
  sc.batch_window_us = 0;
  const PredictorScorer direct(table());
  const ServingScorer serving(table(), sc);
  const std::vector<const Sample*> ptrs = val_samples();
  double max_unc = 0.0;
  for (Metric m : {Metric::kLut, Metric::kFf}) {
    const std::vector<ScoreResult> a = direct.score(m, ptrs);
    const std::vector<ScoreResult> b = serving.score(m, ptrs);
    ASSERT_EQ(a.size(), ptrs.size());
    ASSERT_EQ(b.size(), ptrs.size());
    for (std::size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[j].mean, b[j].mean);
      EXPECT_EQ(a[j].uncertainty, b[j].uncertainty);
      if (m == Metric::kLut) max_unc = std::max(max_unc, a[j].uncertainty);
    }
  }
  EXPECT_GT(max_unc, 0.0);  // the ensemble entry really aggregated
}

// ----- active_halving -----

TEST(ExplorerTest, ActiveWithZeroFeedbackEqualsStatic) {
  const DesignSpace space = make_kernel_design_space("gemm");  // 12 points
  const PredictorScorer scorer = direct_scorer();
  DseConfig cfg;
  cfg.top_k = 3;
  cfg.active.feedback_rounds = 0;
  const Explorer explorer(space, scorer, cfg);
  const DseResult stat = explorer.successive_halving();
  const DseResult active = explorer.active_halving(
      [](const std::vector<Sample>&) -> FitReport {
        ADD_FAILURE() << "refit must not run with feedback_rounds == 0";
        return {};
      });
  expect_identical_results(stat, active);
  EXPECT_EQ(active.refits, 0);
  EXPECT_TRUE(active.fed_back.empty());
}

TEST(ExplorerTest, ActiveHalvingBudgetAndTrace) {
  const Trained& t = trained_predictors();
  QorPredictor lut = fresh_predictor(Metric::kLut);
  const PredictorScorer scorer(lut_ff_table(lut, t.ff));
  const DesignSpace space = make_kernel_design_space("gemm");  // 12 points
  DseConfig cfg;
  cfg.top_k = 3;
  cfg.active.feedback_rounds = 1;
  const Explorer explorer(space, scorer, cfg);
  const DseResult r = explorer.active_halving(lut);
  // Budget-exact: feedback spends from successive halving's pot.
  EXPECT_EQ(r.hls_runs, 3);
  int synthesized = 0;
  for (const DseCandidate& c : r.candidates) synthesized += c.synthesized;
  EXPECT_EQ(synthesized, 3);
  EXPECT_EQ(r.survivors_per_round, (std::vector<int>{12, 6, 3}));
  // Trace: one feedback round of max(1, top_k / 2) = 1 candidate.
  EXPECT_EQ(r.refits, 1);
  EXPECT_EQ(lut.refits(), 1);
  ASSERT_EQ(r.fed_back.size(), 1u);
  EXPECT_EQ(r.fed_back[0].size(), 1u);
  ASSERT_EQ(r.refit_reports.size(), 1u);
  EXPECT_TRUE(r.refit_reports[0].warm_started);
  EXPECT_EQ(r.refit_reports[0].epochs_run,
            QorPredictor::refit_defaults().epochs);
  EXPECT_EQ(r.acquisition, Acquisition::kPredictedRank);
  // Fed-back candidates are synthesized, and their truth counts: front /
  // best are drawn from every synthesized point.
  for (int i : r.fed_back[0]) {
    EXPECT_TRUE(r.candidates[static_cast<std::size_t>(i)].synthesized);
  }
  ASSERT_GE(r.best, 0);
  EXPECT_TRUE(r.candidates[static_cast<std::size_t>(r.best)].synthesized);
  // Single-model scorer: uncertainty stays exactly zero everywhere.
  for (const DseCandidate& c : r.candidates) {
    for (double u : c.uncertainty) EXPECT_EQ(u, 0.0);
  }
}

TEST(ExplorerTest, ActiveBitIdenticalAcrossThreadCounts) {
  const Trained& t = trained_predictors();
  const DesignSpace space = make_kernel_design_space("gemm");
  DseConfig cfg;
  cfg.top_k = 3;
  cfg.active.feedback_rounds = 2;
  DseResult serial;
  {
    PoolGuard guard(1);
    // Fit AND explore inside the guard: the fit, the refits and the
    // scoring rounds must all be width-invariant for the traces to match.
    QorPredictor lut = fresh_predictor(Metric::kLut);
    const PredictorScorer scorer(lut_ff_table(lut, t.ff));
    const Explorer explorer(space, scorer, cfg);
    serial = explorer.active_halving(lut);
  }
  {
    PoolGuard guard(4);
    QorPredictor lut = fresh_predictor(Metric::kLut);
    const PredictorScorer scorer(lut_ff_table(lut, t.ff));
    const Explorer explorer(space, scorer, cfg);
    expect_identical_results(serial, explorer.active_halving(lut));
  }
  EXPECT_GE(serial.refits, 1);
}

TEST(ExplorerTest, ActiveServingScorerBitIdenticalToDirect) {
  const Trained& t = trained_predictors();
  const DesignSpace space = make_kernel_design_space("gemm");
  DseConfig cfg;
  cfg.top_k = 3;
  // Two identically-fitted rank models: each arm refits its own copy.
  QorPredictor lut_direct = fresh_predictor(Metric::kLut);
  QorPredictor lut_serving = fresh_predictor(Metric::kLut);
  const PredictorScorer direct(lut_ff_table(lut_direct, t.ff));
  SchedulerConfig sc;
  sc.max_batch = 5;  // forces uneven micro-batch splits
  sc.batch_window_us = 0;
  const ServingScorer serving(lut_ff_table(lut_serving, t.ff), sc);
  const Explorer via_direct(space, direct, cfg);
  const Explorer via_serving(space, serving, cfg);
  const DseResult a = via_direct.active_halving(lut_direct);
  // The serving arm refits lut_serving between scoring rounds — exactly
  // the quiescent-refit contract serve/scheduler.h documents.
  const DseResult b = via_serving.active_halving(lut_serving);
  expect_identical_results(a, b);
  EXPECT_GE(a.refits, 1);
}

TEST(ExplorerTest, ActiveEnsembleUncertaintyBonus) {
  const Trained& t = trained_predictors();
  const TrainSetup& s = train_setup();
  QorEnsemble ensemble(Approach::kOffTheShelf, s.mc, s.tc, 2);
  ensemble.fit(s.corpus, s.split, Metric::kLut, FitOptions{});
  ModelTable table;
  table.add(Metric::kLut, &ensemble);
  table.add(Metric::kFf, &t.ff);
  const PredictorScorer scorer(std::move(table));
  const DesignSpace space = make_kernel_design_space("gemm");
  DseConfig cfg;
  cfg.top_k = 3;
  cfg.active.acquisition = Acquisition::kUncertaintyBonus;
  const Explorer explorer(space, scorer, cfg);
  const DseResult r = explorer.active_halving(ensemble);
  EXPECT_EQ(r.acquisition, Acquisition::kUncertaintyBonus);
  EXPECT_EQ(r.hls_runs, 3);  // acquisition changes choices, never budget
  EXPECT_GE(r.refits, 1);
  // The ensemble's dispersion reached the candidates' rank metric.
  double max_unc = 0.0;
  for (const DseCandidate& c : r.candidates) {
    max_unc = std::max(
        max_unc, c.uncertainty[static_cast<std::size_t>(Metric::kLut)]);
  }
  EXPECT_GT(max_unc, 0.0);
}

TEST(ExplorerTest, ActiveValidation) {
  const DesignSpace space = small_space();
  const PredictorScorer scorer = direct_scorer();
  const Explorer explorer(space, scorer);
  EXPECT_THROW(explorer.active_halving(Explorer::RefitFn{}),
               std::invalid_argument);
  // Convenience overload rejects a model fitted for a different metric.
  QorPredictor ff = fresh_predictor(Metric::kFf);
  EXPECT_THROW(explorer.active_halving(ff), std::invalid_argument);
  DseConfig bad;
  bad.active.feedback_rounds = -1;
  const Explorer bad_explorer(space, scorer, bad);
  EXPECT_THROW(bad_explorer.active_halving(
                   [](const std::vector<Sample>&) { return FitReport{}; }),
               std::invalid_argument);
}

}  // namespace
}  // namespace gnnhls
