// Design-space exploration bench: ranking quality and exploration
// throughput of the dse/ engine (the workload the paper's fast QoR
// prediction exists to serve).
//
// Trains LUT + FF predictors on a synthetic CDFG corpus, builds a gemm
// design space of >= --dse-points candidates (unroll x bitwidth x clock
// knobs) and reports:
//
//   * ranking quality — Spearman rank correlation of predicted vs
//     ground-truth QoR over the exhaustive sweep (the fidelity that decides
//     whether the predictor can drive pruning);
//   * successive halving vs exhaustive — ground-truth HLS invocations
//     (budget <= 25% of the sweep via --dse-topk), whether the sweep's
//     true top-1 survives the predictor-guided pruning, and whether the
//     surviving front matches the exhaustive front;
//   * exploration throughput — candidates/sec of a full successive-halving
//     run, sweeping --threads (lowering + synthesis shards on the kernel
//     pool) x --max-batch (micro-batch size of the serving-path scorer).
//
// With --active (and optionally --ensemble=K) the bench also runs the
// model-in-the-loop arm: Explorer::active_halving refits the rank-metric
// model on fed-back HLS ground truth mid-pruning, at successive halving's
// EXACT synthesis budget. The arm is gated: equal hls_runs, post-refit
// Spearman matches/beats the static model's, top-1 recovery no worse, and
// the whole active trace bit-identical across scorer paths and thread
// counts.
//
// Hard gates (exit 1): scoring through the ServingScheduler must be
// bit-identical to direct predict_many (the serving contract), and
// successive halving must respect its ground-truth budget. The
// data-dependent quality checks (Spearman level, top-1 recovery, front
// agreement) are report-only here — examples/design_space_exploration.cpp
// gates front agreement at its fixed seed as the CI quality smoke.
//
// --smoke shrinks everything to a CI-sized run (also used by the Release
// bench-smoke job).
#include <cstring>
#include <memory>

#include "bench_common.h"
#include "core/ensemble.h"
#include "dse/explorer.h"

namespace gnnhls::bench {
namespace {

struct TrainedModels {
  QorPredictor lut;
  QorPredictor ff;

  /// The (LUT, FF) scoring table every arm ranks and fronts over.
  ModelTable table() const {
    ModelTable t;
    t.add(Metric::kLut, &lut);
    t.add(Metric::kFf, &ff);
    return t;
  }
};

TrainedModels train_models(const BenchConfig& cfg,
                           const std::vector<Sample>& corpus) {
  const SplitIndices split =
      split_80_10_10(static_cast<int>(corpus.size()), cfg.seed);
  ModelConfig mc = model_config(cfg);
  mc.kind = GnnKind::kRgcn;
  TrainConfig tc = train_config(cfg);
  TrainedModels models{QorPredictor(Approach::kOffTheShelf, mc, tc),
                       QorPredictor(Approach::kOffTheShelf, mc, tc)};
  Timer t;
  const double lut_val =
      models.lut.fit(corpus, split, Metric::kLut, FitOptions{}).best_val;
  const double ff_val =
      models.ff.fit(corpus, split, Metric::kFf, FitOptions{}).best_val;
  std::cout << "  trained LUT (val MAPE " << TextTable::pct(lut_val)
            << ") + FF (val MAPE " << TextTable::pct(ff_val) << ") in "
            << TextTable::num(t.seconds(), 1) << "s\n";
  return models;
}

double true_of(const DseCandidate& c, Metric m) {
  return metric_of(c.sample.truth, m);
}

double predicted_of(const DseCandidate& c, Metric m) {
  return c.predicted[static_cast<std::size_t>(m)];
}

double rank_quality(const DseResult& exhaustive, Metric m) {
  std::vector<double> predicted, truth;
  for (const DseCandidate& c : exhaustive.candidates) {
    predicted.push_back(predicted_of(c, m));
    truth.push_back(true_of(c, m));
  }
  return spearman_rank_correlation(predicted, truth);
}

bool same_exploration(const DseResult& a, const DseResult& b) {
  if (a.candidates.size() != b.candidates.size()) return false;
  for (std::size_t i = 0; i < a.candidates.size(); ++i) {
    if (a.candidates[i].predicted != b.candidates[i].predicted) return false;
    if (a.candidates[i].uncertainty != b.candidates[i].uncertainty) {
      return false;
    }
    if (a.candidates[i].synthesized != b.candidates[i].synthesized) {
      return false;
    }
  }
  // The active-loop trace must agree too (defaults for static runs).
  return a.front == b.front && a.predicted_front == b.predicted_front &&
         a.best == b.best && a.survivors_per_round == b.survivors_per_round &&
         a.refits == b.refits && a.fed_back == b.fed_back;
}

int run(int argc, const char* const* argv) {
  // --smoke (CI scale) is bench_dse-specific: strip it before the shared
  // parser so it is not reported as an unknown flag.
  std::vector<const char*> args;
  bool smoke = false;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  const auto has_flag = [&args](const std::string& name) {
    for (const char* a : args) {
      if (name == a) return true;  // "--name value" form
      if (std::strncmp(a, name.c_str(), name.size()) == 0 &&
          a[name.size()] == '=') {
        return true;  // "--name=value" form
      }
    }
    return false;
  };
  BenchConfig cfg =
      parse_bench_config(static_cast<int>(args.size()), args.data());
  if (smoke) {
    // A preset, not an override: every explicit flag wins.
    const auto preset = [&has_flag](const char* flag, int& field, int value) {
      if (!has_flag(flag)) field = value;
    };
    preset("--cdfg-graphs", cfg.cdfg_graphs, 48);
    preset("--hidden", cfg.hidden, 16);
    preset("--layers", cfg.layers, 2);
    preset("--epochs", cfg.epochs, 6);
    preset("--batch-size", cfg.batch_size, 8);
    preset("--dse-points", cfg.dse_points, 16);
    preset("--threads", cfg.threads, 2);
  }
  print_header("DSE: model-in-the-loop design-space exploration", cfg);

  std::cout << "\n-- corpus + models --\n";
  const std::vector<Sample> corpus = build_cdfg(cfg);
  print_dataset_line("synthetic CDFG", corpus);
  const TrainedModels models = train_models(cfg, corpus);
  const PredictorScorer direct(models.table());

  const DesignSpace space =
      make_kernel_design_space("gemm", grid_with_at_least(cfg.dse_points));
  const int n = static_cast<int>(space.size());
  // --dse-topk=0 keeps the default budget (and its hard gate below); only
  // a positive override hands budget responsibility to the user.
  const bool explicit_topk = cfg.dse_topk > 0;
  DseConfig dse;
  dse.front_metrics = {Metric::kLut, Metric::kFf};
  dse.rank_metric = Metric::kLut;
  dse.top_k = explicit_topk ? cfg.dse_topk : std::max(1, n / 4);
  const Explorer explorer(space, direct, dse);
  std::cout << "\n-- design space --\n  gemm, " << n
            << " candidates (unroll x bitwidth x clock x uncertainty), "
               "ground-truth budget top-k="
            << dse.top_k << "\n";

  // ----- ranking quality: exhaustive ground truth vs predictions -----
  Timer exh_timer;
  const DseResult exh = explorer.exhaustive();
  const double exh_s = exh_timer.seconds();
  const DseResult sh = explorer.successive_halving();
  std::cout << "\n-- ranking quality (exhaustive sweep, " << exh.hls_runs
            << " HLS runs in " << TextTable::num(exh_s, 2) << "s) --\n";
  TextTable quality({"metric", "Spearman rho (pred vs truth)"});
  for (Metric m : dse.front_metrics) {
    quality.add_row({metric_name(m), TextTable::num(rank_quality(exh, m), 3)});
  }
  std::cout << quality.to_string();

  // ----- successive halving vs exhaustive -----
  std::string trace;
  for (std::size_t i = 0; i < sh.survivors_per_round.size(); ++i) {
    trace += (i ? " -> " : "") + std::to_string(sh.survivors_per_round[i]);
  }
  std::cout << "\n-- successive halving (survivors " << trace << ") --\n  "
            << sh.hls_runs << "/" << exh.hls_runs
            << " ground-truth HLS runs, true front size "
            << exh.front.size() << ", recovered front size " << sh.front.size()
            << "\n";

  ShapeChecks checks;
  // With the default budget (--dse-topk=0 -> points/4) this is a hard
  // structural invariant; an explicit --dse-topk is the user's choice and
  // the check turns report-only.
  const bool budget_ok = sh.hls_runs * 4 <= exh.hls_runs;
  checks.check("halving HLS budget <= 25% of exhaustive", budget_ok);
  checks.check("halving recovers the exhaustive true top-1",
               sh.best == exh.best);
  checks.check("halving front == exhaustive front", sh.front == exh.front);
  checks.check("Spearman(LUT) >= 0.7 at this scale",
               rank_quality(exh, Metric::kLut) >= 0.7);

  // ----- serving-path bit-identity (hard gate) -----
  SchedulerConfig sc;
  sc.max_batch = cfg.max_batch;
  sc.batch_window_us = cfg.batch_window_us;
  const ServingScorer serving(models.table(), sc);
  const Explorer served_explorer(space, serving, dse);
  const bool serving_identical =
      same_exploration(sh, served_explorer.successive_halving());
  checks.check("shared-scheduler scoring bit-identical to predict_many",
               serving_identical);

  BenchJsonLog json_log;
  for (Metric m : dse.front_metrics) {
    json_log.add(std::string("spearman ") + metric_name(m),
                 rank_quality(exh, m), "rho");
  }

  // ----- model-in-the-loop active halving (--active) -----
  bool active_ok = true;  // stays true when the arm is off
  if (cfg.dse_active) {
    const SplitIndices split =
        split_80_10_10(static_cast<int>(corpus.size()), cfg.seed);
    ModelConfig amc = model_config(cfg);
    amc.kind = GnnKind::kRgcn;
    const TrainConfig atc = train_config(cfg);
    DseConfig active_cfg = dse;
    active_cfg.active.feedback_rounds = 1;
    if (cfg.dse_ensemble > 1) {
      active_cfg.active.acquisition = Acquisition::kUncertaintyBonus;
    }
    std::cout << "\n-- active halving (--active, rank-model ensemble K="
              << cfg.dse_ensemble << ", acquisition "
              << (cfg.dse_ensemble > 1 ? "uncertainty-bonus"
                                       : "predicted-rank")
              << ") --\n";

    struct ActiveRun {
      DseResult result;
      double rho = 0.0;   // POST-refit Spearman over the full space
      double wall = 0.0;  // active_halving only (fit excluded)
    };
    // Each run fits its own rank model — refitting mutates it in place —
    // bitwise reproducing the same starting checkpoint at the fixed seed.
    const auto run_active = [&](bool use_serving) {
      QorEnsemble model(Approach::kOffTheShelf, amc, atc, cfg.dse_ensemble);
      model.fit(corpus, split, Metric::kLut, FitOptions{});
      ModelTable table;
      table.add(Metric::kLut, &model);
      table.add(Metric::kFf, &models.ff);
      std::unique_ptr<Scorer> scorer;
      if (use_serving) {
        scorer = std::make_unique<ServingScorer>(std::move(table), sc);
      } else {
        scorer = std::make_unique<PredictorScorer>(std::move(table));
      }
      const Explorer ex(space, *scorer, active_cfg);
      ActiveRun run;
      Timer t;
      run.result = ex.active_halving(model);
      run.wall = t.seconds();
      // Post-refit ranking quality, judged on the exhaustive sweep's
      // ground truth over the WHOLE space (not just survivors).
      std::vector<const Sample*> ptrs;
      std::vector<double> truth;
      for (const DseCandidate& c : exh.candidates) {
        ptrs.push_back(&c.sample);
        truth.push_back(true_of(c, Metric::kLut));
      }
      run.rho = spearman_rank_correlation(model.predict_many(ptrs), truth);
      return run;
    };

    const ActiveRun active = run_active(false);
    const ActiveRun via_sched = run_active(true);
    ThreadPool::set_global_threads(cfg.threads);
    const ActiveRun wide = run_active(false);
    ThreadPool::set_global_threads(1);

    const DseResult& act = active.result;
    std::string atrace;
    for (std::size_t i = 0; i < act.survivors_per_round.size(); ++i) {
      atrace += (i ? " -> " : "") + std::to_string(act.survivors_per_round[i]);
    }
    int fed = 0;
    for (const std::vector<int>& round : act.fed_back) {
      fed += static_cast<int>(round.size());
    }
    std::cout << "  survivors " << atrace << ", " << act.refits
              << " refit(s) on " << fed << " fed-back candidate(s), "
              << act.hls_runs << " HLS runs in "
              << TextTable::num(active.wall, 2) << "s\n";
    const double static_rho = rank_quality(exh, Metric::kLut);
    TextTable duel({"strategy", "Spearman rho (LUT)", "true top-1",
                    "HLS runs"});
    duel.add_row({"static halving", TextTable::num(static_rho, 3),
                  sh.best == exh.best ? "recovered" : "missed",
                  std::to_string(sh.hls_runs)});
    duel.add_row({"active halving", TextTable::num(active.rho, 3),
                  act.best == exh.best ? "recovered" : "missed",
                  std::to_string(act.hls_runs)});
    std::cout << duel.to_string();

    // The active arm's hard gates: budget parity, no quality regression,
    // and the determinism contract extended through the feedback loop.
    const bool equal_budget = act.hls_runs == sh.hls_runs;
    const bool rho_ok = active.rho + 1e-9 >= static_rho;
    const bool top1_ok = sh.best != exh.best || act.best == exh.best;
    const bool paths_ok = same_exploration(act, via_sched.result) &&
                          active.rho == via_sched.rho;
    const bool widths_ok =
        same_exploration(act, wide.result) && active.rho == wide.rho;
    checks.check("active spends exactly the static halving budget",
                 equal_budget);
    checks.check("active Spearman(LUT) matches/beats static after refit",
                 rho_ok);
    checks.check("active top-1 recovery no worse than static", top1_ok);
    checks.check("active trace bit-identical across scorer paths", paths_ok);
    checks.check("active trace bit-identical across thread counts",
                 widths_ok);
    active_ok = equal_budget && rho_ok && top1_ok && paths_ok && widths_ok;

    json_log.add("active spearman LUT", active.rho, "rho");
    json_log.add("active halving",
                 static_cast<double>(n) / active.wall, "cand/s");
  }

  // ----- exploration throughput: --threads x --max-batch -----
  std::cout << "\n-- exploration throughput (full successive-halving runs, "
               "candidates/sec) --\n";
  std::vector<int> thread_counts = {1};
  if (cfg.threads > 1) thread_counts.push_back(cfg.threads);
  std::vector<int> batch_sizes = {1};
  if (cfg.max_batch > 1) batch_sizes.push_back(cfg.max_batch);
  TextTable throughput({"threads", "max-batch", "wall (s)", "cand/s"});
  bool sweep_identical = true;
  for (int threads : thread_counts) {
    ThreadPool::set_global_threads(threads);
    for (int max_batch : batch_sizes) {
      SchedulerConfig row_sc;
      row_sc.max_batch = max_batch;
      row_sc.batch_window_us = cfg.batch_window_us;
      const ServingScorer row_scorer(models.table(), row_sc);
      const Explorer row_explorer(space, row_scorer, dse);
      Timer t;
      const DseResult r = row_explorer.successive_halving();
      const double wall = t.seconds();
      // Every row must reproduce the baseline exploration bit-for-bit —
      // the sweep varies exactly the knobs (pool width, micro-batch size)
      // the determinism contract says are value-neutral.
      if (!same_exploration(sh, r)) sweep_identical = false;
      throughput.add_row(
          {std::to_string(threads), std::to_string(max_batch),
           TextTable::num(wall, 3),
           TextTable::num(static_cast<double>(n) / wall, 1)});
      json_log.add("halving threads=" + std::to_string(threads) +
                       " max-batch=" + std::to_string(max_batch),
                   static_cast<double>(n) / wall, "cand/s");
    }
  }
  ThreadPool::set_global_threads(1);  // bench harness convention
  checks.check("sweep rows bit-identical across threads x max-batch",
               sweep_identical);
  std::cout << throughput.to_string() << "\n";
  write_bench_json(cfg, json_log, "dse");

  checks.summary();
  const bool hard_ok = serving_identical && sweep_identical && active_ok &&
                       (explicit_topk || budget_ok);
  if (!hard_ok) {
    std::cout << "FAIL: a hard DSE invariant (serving/sweep/active "
                 "bit-identity, an active-arm quality gate, or the default "
                 "ground-truth budget) was violated\n";
    return 1;
  }
  std::cout << "hard invariants hold: served scoring bit-identical, "
               "ground-truth budget respected"
            << (cfg.dse_active
                    ? ", active arm at parity budget with no quality "
                      "regression.\n"
                    : ".\n");
  return 0;
}

}  // namespace
}  // namespace gnnhls::bench

int main(int argc, char** argv) { return gnnhls::bench::run(argc, argv); }
