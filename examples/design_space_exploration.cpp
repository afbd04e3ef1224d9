// Design-space exploration on the src/dse/ engine — the use case that
// motivates early QoR prediction (the paper's IronMan lineage): rank and
// prune candidate implementations of a kernel *before* synthesizing them.
//
//   1. Train LUT and FF predictors on generic synthetic CDFG programs.
//   2. Declare a gemm design space: unroll x datapath-bitwidth source knobs
//      (suites/variants.h) on a fixed scheduler config.
//   3. Explore it twice: an exhaustive ground-truth sweep (one HLS run per
//      candidate — the cost DSE exists to avoid) and predictor-guided
//      successive halving (ground truth only for the surviving top-k).
//   4. Compare: Spearman rank fidelity, the LUT/FF Pareto fronts, and the
//      ground-truth budget.
//
// Exit code 1 if the two strategies disagree on the Pareto front or the
// true top-1 at this fixed seed — CI runs this binary as the Release DSE
// quality smoke. (Everything here is deterministic: same seed + space =>
// identical fronts, the dse/ determinism contract.)
//
// Build & run:  ./build/design_space_exploration
#include <iostream>
#include <utility>

#include "dse/explorer.h"
#include "support/table.h"
#include "support/timer.h"

using namespace gnnhls;

namespace {

QorPredictor train_predictor(const std::vector<Sample>& corpus,
                             const SplitIndices& split, Metric metric) {
  ModelConfig mc;
  mc.kind = GnnKind::kRgcn;
  mc.hidden = 32;
  mc.layers = 3;
  TrainConfig tc;
  tc.epochs = 30;
  tc.lr = 1e-2F;
  tc.batch_size = 8;
  QorPredictor predictor(Approach::kOffTheShelf, mc, tc);
  Timer t;
  const double val =
      predictor.fit(corpus, split, metric, FitOptions{}).best_val;
  std::cout << "  " << metric_name(metric) << " predictor: val MAPE "
            << TextTable::pct(val) << " in " << TextTable::num(t.seconds(), 1)
            << "s\n";
  return predictor;
}

std::string front_labels(const DseResult& r, const std::vector<int>& front) {
  std::string out;
  for (int i : front) {
    if (!out.empty()) out += ", ";
    out += r.candidates[static_cast<std::size_t>(i)].point.label();
  }
  return out.empty() ? "(empty)" : out;
}

}  // namespace

int main() {
  // ----- 1. train predictors on generic synthetic CDFGs -----
  std::cout << "== 1. training on 200 synthetic CDFG programs ==\n";
  SyntheticDatasetConfig dc;
  dc.kind = GraphKind::kCdfg;
  dc.num_graphs = 200;
  dc.seed = 21;
  const std::vector<Sample> corpus = build_synthetic_dataset(dc);
  const SplitIndices split =
      split_80_10_10(static_cast<int>(corpus.size()), 5);
  const QorPredictor lut = train_predictor(corpus, split, Metric::kLut);
  const QorPredictor ff = train_predictor(corpus, split, Metric::kFf);
  ModelTable models;
  models.add(Metric::kLut, &lut);
  models.add(Metric::kFf, &ff);
  const PredictorScorer scorer(std::move(models));

  // ----- 2. declare the design space -----
  const DesignSpace space = make_kernel_design_space("gemm");
  DseConfig cfg;
  cfg.front_metrics = {Metric::kLut, Metric::kFf};
  cfg.rank_metric = Metric::kLut;
  cfg.top_k = 6;
  const Explorer explorer(space, scorer, cfg);
  std::cout << "\n== 2. design space: gemm, " << space.size()
            << " candidates (unroll x bitwidth) ==\n";

  // ----- 3. explore: exhaustive sweep vs successive halving -----
  const DseResult exh = explorer.exhaustive();
  const DseResult sh = explorer.successive_halving();

  TextTable table({"variant", "pred LUT", "true LUT", "pred FF", "true FF",
                   "latency", "synthesized by halving"});
  std::vector<double> pred_lut, true_lut;
  for (std::size_t i = 0; i < exh.candidates.size(); ++i) {
    const DseCandidate& c = exh.candidates[i];
    const double p = c.predicted[static_cast<std::size_t>(Metric::kLut)];
    pred_lut.push_back(p);
    true_lut.push_back(metric_of(c.sample.truth, Metric::kLut));
    table.add_row(
        {c.point.label(), TextTable::num(p, 0),
         TextTable::num(metric_of(c.sample.truth, Metric::kLut), 0),
         TextTable::num(
             c.predicted[static_cast<std::size_t>(Metric::kFf)], 0),
         TextTable::num(metric_of(c.sample.truth, Metric::kFf), 0),
         TextTable::num(c.latency_cycles, 0),
         sh.candidates[i].synthesized ? "yes" : "pruned"});
  }
  std::cout << "\n== 3. design space (predictions need no HLS run) ==\n"
            << table.to_string();

  const double rho = spearman_rank_correlation(pred_lut, true_lut);
  std::cout << "\nSpearman rank correlation (predicted vs true LUT): "
            << TextTable::num(rho, 3)
            << "\nground-truth HLS runs: exhaustive " << exh.hls_runs
            << ", successive halving " << sh.hls_runs << "\n";

  // ----- 4. the strategies must agree at this fixed seed -----
  std::cout << "\n== 4. LUT/FF Pareto fronts ==\n"
            << "  exhaustive: " << front_labels(exh, exh.front) << "\n"
            << "  halving:    " << front_labels(sh, sh.front) << "\n";
  if (sh.front != exh.front || sh.best != exh.best) {
    std::cout << "FAIL: successive halving disagrees with the exhaustive "
                 "sweep (front or top-1) at a fixed seed\n";
    return 1;
  }
  std::cout << "successive halving recovered the exhaustive Pareto front and "
               "top-1 with "
            << sh.hls_runs << "/" << exh.hls_runs << " HLS runs.\n";
  return 0;
}
