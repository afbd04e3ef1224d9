// Ablation: how much of RGCN's edge does relational information buy?
//
// The paper attributes RGCN/PNA's win to exploiting edge (relational)
// information (§5.2 "the relational information is important in IR
// graphs"). We test this causally by collapsing edge relations:
//   full        — 8 relations (edge type x back-edge flag),
//   type-only   — 4 relations (back-edge flag erased),
//   single      — 1 relation (RGCN degenerates to a directed GCN).
#include "bench_common.h"

namespace gnnhls::bench {
namespace {

/// Regroups the relations of already-built samples.
/// mode 0 = untouched, 1 = erase back-edge flag, 2 = single relation.
std::vector<Sample> collapse_relations(const std::vector<Sample>& samples,
                                       int mode) {
  std::vector<Sample> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) {
    Sample copy = s;
    std::vector<int> rel = s.graph().edge_relation();
    for (int& r : rel) {
      if (mode == 1) r = (r / 2) * 2;  // drop the back-edge bit
      if (mode == 2) r = 0;
    }
    copy.tensors.group_relations(rel);
    out.push_back(std::move(copy));
  }
  return out;
}

int run(int argc, const char* const* argv) {
  const BenchConfig cfg = parse_bench_config(argc, argv);
  print_header("Ablation — relational information in RGCN (CDFG, LUT/FF)",
               cfg);

  Timer total;
  const std::vector<Sample> cdfg = build_cdfg(cfg);
  print_dataset_line("CDFG", cdfg);
  const SplitIndices split =
      split_80_10_10(static_cast<int>(cdfg.size()), cfg.seed);

  const std::vector<std::string> modes = {"full 8 relations",
                                          "edge-type only (4)",
                                          "single relation (1)"};
  // Evaluate on the metrics the paper ties to structure: LUT and FF.
  const std::vector<Metric> metrics = {Metric::kLut, Metric::kFf};
  double results[3][2] = {};

  std::vector<std::vector<Sample>> variants;
  for (int mode = 0; mode < 3; ++mode) {
    variants.push_back(collapse_relations(cdfg, mode));
  }

  std::vector<std::function<void()>> jobs;
  for (int mode = 0; mode < 3; ++mode) {
    for (std::size_t m = 0; m < metrics.size(); ++m) {
      jobs.push_back([&, mode, m] {
        ExperimentSpec spec;
        spec.kind = GnnKind::kRgcn;
        spec.approach = Approach::kOffTheShelf;
        spec.metric = metrics[m];
        spec.model = model_config(cfg);
        spec.train = train_config(cfg);
        spec.protocol = protocol(cfg);
        results[mode][m] = run_regression_experiment(
                               spec, variants[static_cast<std::size_t>(mode)],
                               split)
                               .test_mape;
      });
    }
  }
  run_parallel(std::move(jobs), cfg.threads);

  TextTable table({"relations", "LUT", "FF", "mean"});
  BenchJsonLog json_log;
  std::array<double, 3> mean{};
  for (int mode = 0; mode < 3; ++mode) {
    mean[static_cast<std::size_t>(mode)] =
        (results[mode][0] + results[mode][1]) / 2.0;
    table.add_row({modes[static_cast<std::size_t>(mode)],
                   TextTable::pct(results[mode][0]),
                   TextTable::pct(results[mode][1]),
                   TextTable::pct(mean[static_cast<std::size_t>(mode)])});
    json_log.add(std::string(modes[static_cast<std::size_t>(mode)]) +
                     " mean",
                 mean[static_cast<std::size_t>(mode)], "mape");
  }
  std::cout << "\n" << table.to_string();
  write_bench_json(cfg, json_log, "ablation_relations");

  ShapeChecks checks;
  checks.check("full relations beat a single relation", mean[0] < mean[2]);
  checks.check("edge types alone already help vs single relation",
               mean[1] < mean[2] + 0.01);
  checks.summary();
  std::cout << "total wall time: " << TextTable::num(total.seconds(), 1)
            << "s\n";
  return 0;
}

}  // namespace
}  // namespace gnnhls::bench

int main(int argc, char** argv) { return gnnhls::bench::run(argc, argv); }
