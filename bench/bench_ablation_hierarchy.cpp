// Ablation: where does the knowledge-infused gain come from?
//
// Compares, on the CDFG dataset with an RGCN backbone:
//   base       — off-the-shelf (no resource-type features),
//   -I (self)  — the paper's deployment path (classifier-inferred types),
//   -I (oracle)— ground-truth type bits at inference (what a perfect
//                classifier would give; upper-bounds the hierarchy), and
//   -R         — full resource values.
//
// The gap between self and oracle isolates classifier error; the gap
// between oracle and -R isolates the value of magnitudes over type bits.
#include "bench_common.h"

namespace gnnhls::bench {
namespace {

int run(int argc, const char* const* argv) {
  const BenchConfig cfg = parse_bench_config(argc, argv);
  print_header("Ablation — decomposing the knowledge-infusion gain (RGCN, "
               "CDFG)",
               cfg);

  Timer total;
  const std::vector<Sample> cdfg = build_cdfg(cfg);
  print_dataset_line("CDFG", cdfg);
  const SplitIndices split =
      split_80_10_10(static_cast<int>(cdfg.size()), cfg.seed);

  struct Variant {
    std::string name;
    Approach approach;
    InfusedInference infused;
  };
  const std::vector<Variant> variants = {
      {"base (off-the-shelf)", Approach::kOffTheShelf,
       InfusedInference::kSelfInferred},
      {"-I self-inferred", Approach::kKnowledgeInfused,
       InfusedInference::kSelfInferred},
      {"-I oracle types", Approach::kKnowledgeInfused,
       InfusedInference::kOracle},
      {"-R resource values", Approach::kKnowledgeRich,
       InfusedInference::kSelfInferred},
  };

  double results[4][4] = {};  // [variant][metric]
  std::vector<std::function<void()>> jobs;
  for (std::size_t v = 0; v < variants.size(); ++v) {
    for (int m = 0; m < kNumMetrics; ++m) {
      jobs.push_back([&, v, m] {
        ModelConfig mc = model_config(cfg);
        mc.kind = GnnKind::kRgcn;
        TrainConfig tc = train_config(cfg);
        double best_val = 1e18;
        double picked_test = 0.0;
        for (int r = 0; r < cfg.runs; ++r) {
          tc.seed = cfg.seed + static_cast<std::uint64_t>(r) * 1000003;
          QorPredictor predictor(variants[v].approach, mc, tc,
                                 variants[v].infused);
          const double val =
              predictor.fit(cdfg, split, static_cast<Metric>(m), FitOptions{})
                  .best_val;
          if (val < best_val) {
            best_val = val;
            picked_test = predictor.evaluate_mape(cdfg, split.test);
          }
        }
        results[v][m] = picked_test;
      });
    }
  }
  run_parallel(std::move(jobs), cfg.threads);

  TextTable table({"variant", "DSP", "LUT", "FF", "CP", "mean"});
  BenchJsonLog json_log;
  std::array<double, 4> mean{};
  for (std::size_t v = 0; v < variants.size(); ++v) {
    std::vector<std::string> row{variants[v].name};
    double avg = 0.0;
    for (int m = 0; m < kNumMetrics; ++m) {
      row.push_back(TextTable::pct(results[v][m]));
      avg += results[v][m] / 4.0;
    }
    mean[v] = avg;
    row.push_back(TextTable::pct(avg));
    table.add_row(std::move(row));
    json_log.add(std::string(variants[v].name) + " mean", avg, "mape");
  }
  std::cout << "\n" << table.to_string();
  write_bench_json(cfg, json_log, "ablation_hierarchy");

  ShapeChecks checks;
  checks.check("self-inferred -I improves over base", mean[1] < mean[0]);
  checks.check("oracle types at least as good as self-inferred",
               mean[2] <= mean[1] + 0.01);
  checks.check("resource values (-R) at least as good as oracle bits",
               mean[3] <= mean[2] + 0.01);
  checks.summary();
  std::cout << "total wall time: " << TextTable::num(total.seconds(), 1)
            << "s\n";
  return 0;
}

}  // namespace
}  // namespace gnnhls::bench

int main(int argc, char** argv) { return gnnhls::bench::run(argc, argv); }
