// Quickstart: the full flow of Fig. 1 on a single small design.
//
//   1. Write a behavioral program with the AST builders (Fig. 1b).
//   2. Front-end compile it to an IR graph (Fig. 1c) and inspect the
//      Table-1 node features.
//   3. Run the HLS simulator to get ground-truth QoR (the labels).
//   4. Train an off-the-shelf GNN predictor on a small synthetic corpus.
//   5. Predict the design's QoR from its IR graph alone (Fig. 1d) and
//      compare against ground truth and the HLS report.
//
// Build & run:  ./build/examples/quickstart
#include <iostream>

#include "core/predictor.h"
#include "support/table.h"

using namespace gnnhls;

namespace {

/// A small fixed-point FIR-like kernel: out = sum_i c[i] * window(x).
Function make_demo_program() {
  Function f;
  f.name = "fir4";
  f.params.push_back(Param{"x0", ScalarType{16, true}, 0, false});
  f.params.push_back(Param{"x1", ScalarType{16, true}, 0, false});
  f.params.push_back(Param{"x2", ScalarType{16, true}, 0, false});
  f.params.push_back(Param{"x3", ScalarType{16, true}, 0, false});
  f.body.push_back(decl("t0", ScalarType{32, true},
                        bin(BinOpKind::kMul, var("x0"), lit(37))));
  f.body.push_back(decl("t1", ScalarType{32, true},
                        bin(BinOpKind::kMul, var("x1"), lit(-21))));
  f.body.push_back(decl("t2", ScalarType{32, true},
                        bin(BinOpKind::kMul, var("x2"), lit(98))));
  f.body.push_back(decl("t3", ScalarType{32, true},
                        bin(BinOpKind::kMul, var("x3"), lit(11))));
  f.body.push_back(decl("s0", ScalarType{32, true},
                        bin(BinOpKind::kAdd, var("t0"), var("t1"))));
  f.body.push_back(decl("s1", ScalarType{32, true},
                        bin(BinOpKind::kAdd, var("t2"), var("t3"))));
  f.body.push_back(decl("acc", ScalarType{32, true},
                        bin(BinOpKind::kAdd, var("s0"), var("s1"))));
  f.body.push_back(
      decl("scaled", ScalarType{32, true},
           bin(BinOpKind::kShr, var("acc"), lit(8))));
  f.body.push_back(ret(var("scaled")));
  return f;
}

}  // namespace

int main() {
  std::cout << "== 1. behavioral program ==\n"
            << "fir4(x0..x3) = (37*x0 - 21*x1 + 98*x2 + 11*x3) >> 8\n\n";

  // ----- 2. front-end compilation -> IR graph -----
  const Function program = make_demo_program();
  Sample sample = make_sample(program, GraphKind::kDfg, HlsConfig{},
                              "example/fir4");
  const IrGraph& g = sample.graph();
  std::cout << "== 2. IR graph (DFG) ==\n"
            << "nodes: " << g.num_nodes() << ", edges: " << g.num_edges()
            << "\n\nTable-1 node features (first 10 nodes):\n";
  TextTable features({"node", "opcode", "category", "bitwidth", "start?",
                      "cluster", "const?"});
  for (int i = 0; i < std::min(g.num_nodes(), 10); ++i) {
    const IrNode& n = g.node(i);
    features.add_row({std::to_string(i), std::string(opcode_name(n.opcode)),
                      std::to_string(static_cast<int>(category_of(n.opcode))),
                      std::to_string(n.bitwidth),
                      n.is_start_of_path ? "yes" : "no",
                      std::to_string(n.cluster_group),
                      n.is_const ? "yes" : "no"});
  }
  std::cout << features.to_string() << "\n";

  // ----- 3. ground truth from the HLS simulator -----
  std::cout << "== 3. HLS simulation (labels) ==\n";
  TextTable qor({"source", "DSP", "LUT", "FF", "CP (ns)"});
  qor.add_row({"implemented (truth)", TextTable::num(sample.truth.dsp, 0),
               TextTable::num(sample.truth.lut, 0),
               TextTable::num(sample.truth.ff, 0),
               TextTable::num(sample.truth.cp_ns, 2)});
  qor.add_row({"HLS report", TextTable::num(sample.hls_report.dsp, 0),
               TextTable::num(sample.hls_report.lut, 0),
               TextTable::num(sample.hls_report.ff, 0),
               TextTable::num(sample.hls_report.cp_ns, 2)});
  std::cout << qor.to_string() << "\n";

  // ----- 4. train a predictor on a synthetic corpus -----
  std::cout << "== 4. training off-the-shelf RGCN on 150 synthetic DFGs ==\n";
  SyntheticDatasetConfig dc;
  dc.kind = GraphKind::kDfg;
  dc.num_graphs = 150;
  dc.seed = 42;
  const std::vector<Sample> corpus = build_synthetic_dataset(dc);
  const SplitIndices split =
      split_80_10_10(static_cast<int>(corpus.size()), 7);

  ModelConfig mc;
  mc.kind = GnnKind::kRgcn;
  mc.hidden = 32;
  mc.layers = 3;
  TrainConfig tc;
  tc.epochs = 40;
  tc.lr = 1e-2F;

  TextTable pred_table({"metric", "predicted", "truth", "HLS report"});
  for (Metric m : kAllMetrics) {
    QorPredictor predictor(Approach::kOffTheShelf, mc, tc);
    predictor.fit(corpus, split, m, FitOptions{});
    const double prediction = predictor.predict(sample);
    pred_table.add_row(
        {metric_name(m), TextTable::num(prediction, m == Metric::kCp ? 2 : 0),
         TextTable::num(metric_of(sample.truth, m), m == Metric::kCp ? 2 : 0),
         TextTable::num(metric_of(sample.hls_report, m),
                        m == Metric::kCp ? 2 : 0)});
    std::cout << "  trained " << metric_name(m) << " predictor (val MAPE "
              << TextTable::pct(predictor.evaluate_mape(corpus, split.val))
              << ")\n";
  }

  // ----- 5. predict from the IR graph alone -----
  std::cout << "\n== 5. prediction for fir4 (from the IR graph alone) ==\n"
            << pred_table.to_string()
            << "\nThe predictor never saw fir4 nor any HLS result for it — "
               "this is the paper's earliest-stage prediction.\n";
  return 0;
}
