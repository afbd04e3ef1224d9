// Reproduces the Fig. 1 timeliness argument with google-benchmark micro
// timings of every stage in the prediction flow:
//
//   behavioral program --(front-end compilation)--> IR graph
//                      --(GNN inference)----------> predicted QoR
//   vs.
//   IR graph --(HLS schedule+bind+implement)------> actual QoR
//
// The paper's claim is that front-end extraction + GNN inference runs in
// seconds while Vitis HLS + implementation takes minutes to hours. Our HLS
// is itself a fast simulator, so absolute ratios differ; what this bench
// demonstrates is that prediction cost is flat and tiny while HLS cost
// grows with schedule length (loops x states), i.e. the stage ordering of
// Fig. 1 holds in this substrate too.
#include <benchmark/benchmark.h>

#include "core/predictor.h"
#include "suites/suites.h"

namespace gnnhls {
namespace {

const Function& gemm_function() {
  static const Function f = [] {
    for (auto& p : machsuite_all()) {
      if (p.name == "gemm_ncubed") return std::move(p.func);
    }
    throw std::logic_error("gemm_ncubed missing");
  }();
  return f;
}

void BM_FrontendCompile(benchmark::State& state) {
  const Function& f = gemm_function();
  for (auto _ : state) {
    LoweredProgram p = lower_to_cdfg(f);
    benchmark::DoNotOptimize(p.graph.num_nodes());
  }
}
BENCHMARK(BM_FrontendCompile);

void BM_FeatureExtraction(benchmark::State& state) {
  LoweredProgram p = lower_to_cdfg(gemm_function());
  run_hls_flow(p);
  const GraphTensors gt = GraphTensors::build(p.graph);
  for (auto _ : state) {
    const Matrix feats =
        InputFeatureBuilder::build(p.graph, Approach::kOffTheShelf);
    benchmark::DoNotOptimize(feats.size());
  }
}
BENCHMARK(BM_FeatureExtraction);

void BM_GnnInference(benchmark::State& state) {
  LoweredProgram p = lower_to_cdfg(gemm_function());
  run_hls_flow(p);
  const GraphTensors gt = GraphTensors::build(p.graph);
  const Matrix feats =
      InputFeatureBuilder::build(p.graph, Approach::kOffTheShelf);
  Rng rng(1);
  ModelConfig mc;
  mc.kind = static_cast<GnnKind>(state.range(0));
  mc.hidden = 64;
  mc.layers = 3;
  GraphRegressor model(
      mc, InputFeatureBuilder::feature_dim(Approach::kOffTheShelf), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict_batch(gt, feats)[0]);
  }
  state.SetLabel(gnn_kind_name(mc.kind));
}
BENCHMARK(BM_GnnInference)
    ->Arg(static_cast<int>(GnnKind::kGcn))
    ->Arg(static_cast<int>(GnnKind::kRgcn))
    ->Arg(static_cast<int>(GnnKind::kPna));

void BM_HierarchicalInference(benchmark::State& state) {
  // Knowledge-infused inference = classifier pass + regressor pass; the
  // paper's "zero overhead" claim means no extra *inputs*, and this shows
  // the runtime cost is merely ~2x a single GNN pass.
  LoweredProgram p = lower_to_cdfg(gemm_function());
  run_hls_flow(p);
  const GraphTensors gt = GraphTensors::build(p.graph);
  const Matrix base_feats =
      InputFeatureBuilder::build(p.graph, Approach::kOffTheShelf);
  Rng rng(2);
  ModelConfig mc;
  mc.kind = GnnKind::kRgcn;
  mc.hidden = 64;
  mc.layers = 3;
  NodeClassifier classifier(
      mc, InputFeatureBuilder::feature_dim(Approach::kOffTheShelf), rng);
  GraphRegressor regressor(
      mc, InputFeatureBuilder::feature_dim(Approach::kKnowledgeInfused), rng);
  for (auto _ : state) {
    const auto inferred = classifier.infer_types(gt, base_feats);
    const Matrix feats = InputFeatureBuilder::build(
        p.graph, Approach::kKnowledgeInfused, &inferred);
    benchmark::DoNotOptimize(regressor.predict_batch(gt, feats)[0]);
  }
}
BENCHMARK(BM_HierarchicalInference);

void BM_HlsFlow(benchmark::State& state) {
  const Function& f = gemm_function();
  for (auto _ : state) {
    LoweredProgram p = lower_to_cdfg(f);
    const HlsOutcome o = run_hls_flow(p);
    benchmark::DoNotOptimize(o.implemented.lut);
  }
}
BENCHMARK(BM_HlsFlow);

void BM_HlsFlowAllSuites(benchmark::State& state) {
  // End-to-end "implementation" cost over all 56 real kernels — the labels
  // a user would otherwise have to wait for.
  const auto programs = all_real_world();
  for (auto _ : state) {
    double total_lut = 0.0;
    for (const auto& sp : programs) {
      LoweredProgram p = lower_to_cdfg(sp.func);
      total_lut += run_hls_flow(p).implemented.lut;
    }
    benchmark::DoNotOptimize(total_lut);
  }
}
BENCHMARK(BM_HlsFlowAllSuites)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gnnhls

BENCHMARK_MAIN();
