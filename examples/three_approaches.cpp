// The three prediction strategies of paper Fig. 2, side by side on one
// dataset, with their timeliness/accuracy trade-off made concrete.
//
// Build & run:  ./build/examples/three_approaches
#include <iostream>

#include "core/predictor.h"
#include "support/table.h"
#include "support/timer.h"

using namespace gnnhls;

int main() {
  std::cout <<
      "Three approaches (paper Fig. 2):\n"
      "  (a) off-the-shelf    : IR graph --GNN--> QoR          (earliest)\n"
      "  (b) knowledge-infused: IR graph --GNN--> node types\n"
      "                         IR graph + types --GNN--> QoR  (earliest,\n"
      "                         types self-inferred at inference)\n"
      "  (c) knowledge-rich   : IR graph + per-node resource values from\n"
      "                         intermediate HLS results --GNN--> QoR (late)\n\n";

  SyntheticDatasetConfig dc;
  dc.kind = GraphKind::kCdfg;
  dc.num_graphs = 150;
  dc.seed = 11;
  const std::vector<Sample> corpus = build_synthetic_dataset(dc);
  const SplitIndices split =
      split_80_10_10(static_cast<int>(corpus.size()), 3);
  std::cout << "dataset: " << corpus.size() << " synthetic CDFG programs ("
            << split.train.size() << " train / " << split.val.size()
            << " val / " << split.test.size() << " test)\n\n";

  ModelConfig mc;
  mc.kind = GnnKind::kRgcn;
  mc.hidden = 32;
  mc.layers = 3;
  TrainConfig tc;
  tc.epochs = 40;
  tc.lr = 1e-2F;

  TextTable table({"approach", "needs at inference", "LUT MAPE", "FF MAPE",
                   "train time"});
  const struct {
    Approach approach;
    const char* needs;
  } rows[] = {
      {Approach::kOffTheShelf, "IR graph only"},
      {Approach::kKnowledgeInfused, "IR graph only (types self-inferred)"},
      {Approach::kKnowledgeRich, "IR graph + intermediate HLS results"},
  };

  for (const auto& row : rows) {
    Timer t;
    QorPredictor lut_model(row.approach, mc, tc);
    lut_model.fit(corpus, split, Metric::kLut, FitOptions{});
    QorPredictor ff_model(row.approach, mc, tc);
    ff_model.fit(corpus, split, Metric::kFf, FitOptions{});
    table.add_row({approach_name(row.approach), row.needs,
                   TextTable::pct(lut_model.evaluate_mape(corpus, split.test)),
                   TextTable::pct(ff_model.evaluate_mape(corpus, split.test)),
                   TextTable::num(t.seconds(), 1) + "s"});
  }
  std::cout << table.to_string()
            << "\nExpected ordering (paper Table 4): knowledge-rich <= "
               "knowledge-infused <= off-the-shelf in error, while only "
               "knowledge-rich has to wait for HLS to run.\n";
  return 0;
}
