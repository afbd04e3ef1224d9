// Micro benchmarks of the numerical substrate (google-benchmark):
// matmul kernels vs their serial references, message-passing primitives,
// encoder forward passes, batched vs single-graph training throughput,
// sharded Trainer epochs, HLS stages.
//
// Extra flags handled before google-benchmark sees argv:
//   --threads=N  sizes the kernel thread pool (and the restore default the
//                pool benches fall back to); 0/absent = hardware concurrency
//   --smoke      runs the CI canary subset: Trainer epochs, the union
//                encoder pass (plus its obs twin) and the deterministic
//                kernel benches (segment scatter, blocked matmul, the
//                dY*W^T backward, the Adam step per ISA — whose in-bench
//                bit-identity asserts are the gate)
//   --json=PATH  write results as JSON (google-benchmark's console output
//                stays on stdout); shorthand for --benchmark_out=PATH
//                --benchmark_out_format=json, matching the --json flag of
//                the bench_common harness benches
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/predictor.h"
#include "dataset/dataset.h"
#include "gnn/graph_batch.h"
#include "gnn/models.h"
#include "hls/hls_flow.h"
#include "nn/adam.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "progen/progen.h"
#include "support/parallel.h"
#include "tensor/matrix_kernels.h"
#include "tensor/segment_ops.h"
#include "train/batch_plan.h"
#include "train/feature_cache.h"
#include "train/trainer.h"

namespace gnnhls {
namespace {

// Benchmark what production training gets: heap-recycled large buffers.
const bool kMallocTuned = (tune_malloc_for_tensor_workloads(), true);

// Pool width the benches restore after resizing (set by --threads in main;
// 0 = hardware concurrency).
int g_default_threads = 0;

void BM_Matmul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  const Matrix a = Matrix::randn(n, n, rng);
  const Matrix b = Matrix::randn(n, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul(a, b).data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(64)->Arg(128);

/// Parallel vs scalar matmul: same kernel, thread pool sized per arg.
void BM_MatmulThreads(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  ThreadPool::set_global_threads(threads);
  Rng rng(1);
  const Matrix a = Matrix::randn(n, n, rng);
  const Matrix b = Matrix::randn(n, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul(a, b).data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
  state.SetLabel(std::to_string(threads) + " thread(s)");
  ThreadPool::set_global_threads(g_default_threads);  // restore default
}
BENCHMARK(BM_MatmulThreads)
    ->Args({128, 1})
    ->Args({128, 4})
    ->Args({256, 1})
    ->Args({256, 4})
    ->UseRealTime();

// ----- deterministic kernel benches: serial vs parallel vs blocked -----
// Each bench hard-asserts bit-identity against the serial reference before
// timing anything: a nonzero exit here is the CI gate for the fixed-order
// partition reduction contract, independent of how fast the machine is.

void die_on_mismatch(bool identical, const char* what) {
  if (identical) return;
  std::cerr << "FATAL: " << what
            << " is not bit-identical to the serial reference\n";
  std::exit(1);
}

/// Bit-for-bit equality (Matrix::operator== takes -0 for +0).
bool same_bits(const Matrix& x, const Matrix& y) {
  return x.same_shape(y) &&
         (x.empty() ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0);
}

/// Power-law segment layout: destination 0 owns ~60% of all rows, the rest
/// spread over the remaining segments — the worst case for naive equal-row
/// chunking and therefore the shape worth timing.
struct SegmentBenchData {
  Matrix src;
  std::vector<int> seg;
  int segments;
  SegmentPartition part;
};

const SegmentBenchData& segment_bench_data() {
  static const SegmentBenchData* data = [] {
    auto* d = new SegmentBenchData;
    constexpr int kRows = 32768;
    d->segments = 4096;
    Rng rng(17);
    d->seg.reserve(kRows);
    for (int i = 0; i < kRows; ++i) {
      d->seg.push_back(rng.bernoulli(0.6)
                           ? 0
                           : rng.uniform_int(1, d->segments - 1));
    }
    d->src = Matrix::randn(kRows, 64, rng);
    d->part = SegmentPartition::build(d->seg, d->segments);
    return d;
  }();
  return *data;
}

void BM_SegmentScatterSerial(benchmark::State& state) {
  const SegmentBenchData& d = segment_bench_data();
  Matrix out = Matrix::zeros(d.segments, d.src.cols());
  for (auto _ : state) {
    out.fill(0.0F);
    scatter_add_rows_serial(d.src, d.seg, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(d.src.size()));
}
BENCHMARK(BM_SegmentScatterSerial);

void BM_SegmentScatterPartitioned(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  ThreadPool::set_global_threads(threads);
  const SegmentBenchData& d = segment_bench_data();
  Matrix ref = Matrix::zeros(d.segments, d.src.cols());
  scatter_add_rows_serial(d.src, d.seg, ref);
  Matrix out = Matrix::zeros(d.segments, d.src.cols());
  scatter_add_rows_into(d.src, d.part, out);
  die_on_mismatch(out == ref, "partitioned segment scatter");
  for (auto _ : state) {
    out.fill(0.0F);
    scatter_add_rows_into(d.src, d.part, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(d.src.size()));
  state.SetLabel(std::to_string(threads) + " thread(s)");
  ThreadPool::set_global_threads(g_default_threads);
}
BENCHMARK(BM_SegmentScatterPartitioned)->Arg(1)->Arg(2)->Arg(4)
    ->UseRealTime();

void BM_SegmentGatherBackward(benchmark::State& state) {
  // The gather-grad path: scatter-add of upstream grads through the cached
  // partition (what every message-passing backward pays per layer).
  const int threads = static_cast<int>(state.range(0));
  ThreadPool::set_global_threads(threads);
  const SegmentBenchData& d = segment_bench_data();
  Rng rng(19);
  const Matrix grad = Matrix::randn(static_cast<int>(d.seg.size()),
                                    d.src.cols(), rng);
  Matrix ref = Matrix::zeros(d.segments, d.src.cols());
  scatter_add_rows_serial(grad, d.seg, ref);
  Matrix sink = Matrix::zeros(d.segments, d.src.cols());
  scatter_add_rows_into(grad, d.part, sink);
  die_on_mismatch(sink == ref, "partitioned gather backward");
  for (auto _ : state) {
    sink.fill(0.0F);
    scatter_add_rows_into(grad, d.part, sink);
    benchmark::DoNotOptimize(sink.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(grad.size()));
  state.SetLabel(std::to_string(threads) + " thread(s)");
  ThreadPool::set_global_threads(g_default_threads);
}
BENCHMARK(BM_SegmentGatherBackward)->Arg(1)->Arg(4)->UseRealTime();

/// Blocked/parallel dense matmul vs the unblocked serial reference on the
/// hot [N,hidden]x[hidden,hidden] shape.
void BM_MatmulKernelReference(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int hidden = static_cast<int>(state.range(1));
  Rng rng(1);
  const Matrix a = Matrix::randn(n, hidden, rng);
  const Matrix b = Matrix::randn(hidden, hidden, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul_reference(a, b).data());
  }
  state.SetItemsProcessed(state.iterations() * n * hidden * hidden);
}
BENCHMARK(BM_MatmulKernelReference)->Args({512, 64})->Args({256, 128});

void BM_MatmulKernelBlocked(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int hidden = static_cast<int>(state.range(1));
  const int threads = static_cast<int>(state.range(2));
  ThreadPool::set_global_threads(threads);
  Rng rng(1);
  const Matrix a = Matrix::randn(n, hidden, rng);
  const Matrix b = Matrix::randn(hidden, hidden, rng);
  die_on_mismatch(same_bits(matmul(a, b), matmul_reference(a, b)),
                  "blocked matmul");
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul(a, b).data());
  }
  state.SetItemsProcessed(state.iterations() * n * hidden * hidden);
  state.SetLabel(std::to_string(threads) + " thread(s)");
  ThreadPool::set_global_threads(g_default_threads);
}
BENCHMARK(BM_MatmulKernelBlocked)
    ->Args({512, 64, 1})
    ->Args({512, 64, 4})
    ->Args({256, 128, 1})
    ->Args({256, 128, 4})
    ->UseRealTime();

void BM_MatmulTbKernelReference(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int hidden = static_cast<int>(state.range(1));
  Rng rng(2);
  const Matrix a = Matrix::randn(n, hidden, rng);
  const Matrix b = Matrix::randn(hidden, hidden, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul_transpose_b_reference(a, b).data());
  }
  state.SetItemsProcessed(state.iterations() * n * hidden * hidden);
}
BENCHMARK(BM_MatmulTbKernelReference)->Args({512, 64});

void BM_MatmulTbKernelBlocked(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int hidden = static_cast<int>(state.range(1));
  const int threads = static_cast<int>(state.range(2));
  ThreadPool::set_global_threads(threads);
  Rng rng(2);
  const Matrix a = Matrix::randn(n, hidden, rng);
  const Matrix b = Matrix::randn(hidden, hidden, rng);
  die_on_mismatch(
      same_bits(matmul_transpose_b(a, b), matmul_transpose_b_reference(a, b)),
      "matmul_transpose_b as matmul(a, b^T)");
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul_transpose_b(a, b).data());
  }
  state.SetItemsProcessed(state.iterations() * n * hidden * hidden);
  state.SetLabel(std::to_string(threads) + " thread(s)");
  ThreadPool::set_global_threads(g_default_threads);
}
BENCHMARK(BM_MatmulTbKernelBlocked)
    ->Args({512, 64, 1})
    ->Args({512, 64, 4})
    ->UseRealTime();

/// The input-gradient backward of a linear layer, dX = dY * W^T, at the
/// edge-message shape [E,hidden] and at paper width: dY is masked like a
/// post-ReLU gradient (~60% exact zeros), whose zero terms the kernel
/// skips the way it does in training.
void BM_MatmulTbKernelBackward(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  const int hidden = static_cast<int>(state.range(1));
  const int threads = static_cast<int>(state.range(2));
  ThreadPool::set_global_threads(threads);
  Rng rng(3);
  Matrix dy = Matrix::randn(rows, hidden, rng);
  for (std::size_t i = 0; i < dy.size(); ++i) {
    if (dy.data()[i] < 0.3F) dy.data()[i] = 0.0F;
  }
  const Matrix w = Matrix::randn(hidden, hidden, rng);
  die_on_mismatch(
      same_bits(matmul_transpose_b(dy, w),
                matmul_transpose_b_reference(dy, w)),
      "backward matmul_transpose_b");
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul_transpose_b(dy, w).data());
  }
  state.SetItemsProcessed(state.iterations() * rows * hidden * hidden);
  state.SetLabel(std::to_string(threads) + " thread(s)");
  ThreadPool::set_global_threads(g_default_threads);
}
BENCHMARK(BM_MatmulTbKernelBackward)
    ->Args({4096, 64, 1})
    ->Args({4096, 64, 4})
    ->Args({1024, 300, 1})
    ->Args({1024, 300, 4})
    ->UseRealTime();

/// The three products of a linear layer at a fit graph's shape (86 rows,
/// hidden 64), with 74% exact zeros in the operand the kernel scans — the
/// average share of post-ReLU/dropout activations and gradients in fit:
/// the forward x*W, the input gradient dY*W^T (transpose_b) and the weight
/// gradient x^T*dY (transpose_a). One thread, as perfbench runs its fits.
/// Report-only timings; each product is hard-checked against the serial
/// reference first.
void BM_MatmulKernelFitShape(benchmark::State& state) {
  constexpr int kRows = 86;
  constexpr int kHidden = 64;
  const int op = static_cast<int>(state.range(0));
  ThreadPool::set_global_threads(1);
  Rng rng(4);
  auto post_relu = [&rng] {
    Matrix m = Matrix::randn(kRows, kHidden, rng);
    for (std::size_t i = 0; i < m.size(); ++i) {
      if (rng.bernoulli(0.74)) m.data()[i] = 0.0F;
    }
    return m;
  };
  const Matrix x = post_relu();
  const Matrix dy = post_relu();
  const Matrix w = Matrix::randn(kHidden, kHidden, rng);
  Matrix xt(kHidden, kRows);
  for (int r = 0; r < kRows; ++r) {
    for (int c = 0; c < kHidden; ++c) xt(c, r) = x(r, c);
  }
  const char* const names[] = {"forward", "transpose_b", "transpose_a"};
  auto run = [&] {
    if (op == 0) return matmul(x, w);
    if (op == 1) return matmul_transpose_b(dy, w);
    return matmul_transpose_a(x, dy);
  };
  const Matrix ref = op == 0   ? matmul_reference(x, w)
                     : op == 1 ? matmul_transpose_b_reference(dy, w)
                               : matmul_reference(xt, dy);
  die_on_mismatch(same_bits(run(), ref), names[op]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run().data());
  }
  state.SetItemsProcessed(state.iterations() * kRows * kHidden * kHidden);
  state.SetLabel(names[op]);
  ThreadPool::set_global_threads(g_default_threads);
}
BENCHMARK(BM_MatmulKernelFitShape)->DenseRange(0, 2)->UseRealTime();

/// Registers one row per update variant this host can run (0 = portable,
/// 1 = avx2).
void available_isas(benchmark::internal::Benchmark* b) {
  b->Arg(0);
  if (kernel_isa_available(KernelIsa::kAvx2)) b->Arg(1);
}

/// One Adam step over the parameter shapes of the fit regressor (-I RGCN,
/// hidden 64, 3 layers: perfbench's fit workload) at the Trainer's default
/// decay and clip, by update variant. Each iteration also copies a fixed
/// gradient into place, as backward's accumulation would (a step zeroes
/// the grads, and decaying moments would turn subnormal within a few
/// hundred iterations). Before timing, three steps of the variant are
/// hard-checked against three portable steps: values and both moments bit
/// for bit.
void BM_AdamStep(benchmark::State& state) {
  const KernelIsa isa =
      state.range(0) == 0 ? KernelIsa::kPortable : KernelIsa::kAvx2;
  ModelConfig mc;
  mc.kind = GnnKind::kRgcn;
  mc.hidden = 64;
  mc.layers = 3;
  const int in_dim =
      InputFeatureBuilder::feature_dim(Approach::kKnowledgeInfused);
  // Two models from one seed: the same weights, one per optimizer.
  auto make_model = [&] {
    Rng rng(6);
    return std::make_unique<GraphRegressor>(mc, in_dim, rng);
  };
  const auto ref_model = make_model();
  const auto model = make_model();
  Rng rng(7);
  std::vector<Matrix> grads;
  for (const Parameter* p : model->parameters()) {
    grads.push_back(
        Matrix::randn(p->value().rows(), p->value().cols(), rng, 0.05F));
  }
  auto load_grads = [&grads](const Module& m) {
    for (std::size_t k = 0; k < grads.size(); ++k) {
      m.parameters()[k]->mutable_grad() = grads[k];
    }
  };
  const AdamConfig cfg{.lr = 1e-2F, .weight_decay = 1e-5F, .grad_clip = 5.0F};
  Adam ref_opt(*ref_model, cfg);
  Adam opt(*model, cfg);
  for (int step = 0; step < 3; ++step) {
    load_grads(*ref_model);
    ref_opt.step_isa(KernelIsa::kPortable);
    load_grads(*model);
    opt.step_isa(isa);
  }
  const AdamState ref_state = ref_opt.export_state();
  const AdamState got_state = opt.export_state();
  for (std::size_t k = 0; k < grads.size(); ++k) {
    die_on_mismatch(same_bits(model->parameters()[k]->value(),
                              ref_model->parameters()[k]->value()) &&
                        same_bits(got_state.m[k], ref_state.m[k]) &&
                        same_bits(got_state.v[k], ref_state.v[k]),
                    "Adam step");
  }
  for (auto _ : state) {
    load_grads(*model);
    opt.step_isa(isa);
    benchmark::DoNotOptimize(model->parameters().front()->value().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(model->parameter_count()));
  state.SetLabel(kernel_isa_name(isa));
}
BENCHMARK(BM_AdamStep)->Apply(available_isas)->UseRealTime();

void BM_GatherScatter(benchmark::State& state) {
  LoweredProgram p = lower_to_cdfg(generate_cdfg_program(3));
  run_hls_flow(p);
  const GraphTensors gt = GraphTensors::build(p.graph);
  Rng rng(1);
  const Matrix h = Matrix::randn(gt.num_nodes, 64, rng);
  for (auto _ : state) {
    Tape tape;
    const Var x = tape.leaf(h);
    const Var msgs = tape.gather_rows(x, gt.src);
    benchmark::DoNotOptimize(
        tape.scatter_add_rows(msgs, gt.dst).value().data());
  }
}
BENCHMARK(BM_GatherScatter);

// ----- encoder forward+backward over a batched union -----
// The training step's tape on its steady-state input: one 8-graph disjoint
// union through a 3-layer hidden-64 encoder, forward plus backward (no
// dropout, so every iteration does identical work). Arg 1 sizes the kernel
// pool; the 1-thread rows feed the cross-machine CI comparison.

struct UnionBenchData {
  GraphTensors gt;
  Matrix feats;
};

const UnionBenchData& union_bench_data() {
  static const UnionBenchData* data = [] {
    auto* d = new UnionBenchData;
    std::vector<GraphTensors> tensors;
    std::vector<Matrix> feats;
    for (int i = 0; i < 8; ++i) {
      LoweredProgram p = lower_to_cdfg(
          generate_cdfg_program(static_cast<std::uint64_t>(300 + i)));
      run_hls_flow(p);
      tensors.push_back(GraphTensors::build(p.graph));
      feats.push_back(InputFeatureBuilder::build(p.graph,
                                                 Approach::kOffTheShelf));
    }
    std::vector<const GraphTensors*> parts;
    std::vector<const Matrix*> fparts;
    for (std::size_t i = 0; i < tensors.size(); ++i) {
      parts.push_back(&tensors[i]);
      fparts.push_back(&feats[i]);
    }
    d->gt = GraphBatch::build(parts).merged;
    d->feats = GraphBatch::stack_features(fparts);
    return d;
  }();
  return *data;
}

std::unique_ptr<GnnEncoder> union_bench_encoder(GnnKind kind) {
  Rng rng(2);
  EncoderConfig cfg;
  cfg.in_dim = union_bench_data().feats.cols();
  cfg.hidden = 64;
  cfg.layers = 3;
  return make_encoder(kind, cfg, rng);
}

Matrix union_encoder_pass(const GnnEncoder& enc) {
  const UnionBenchData& d = union_bench_data();
  Tape tape;
  Rng drop(1);
  const Var h = enc.encode(tape, d.gt, tape.leaf(d.feats), drop, false);
  tape.backward(tape.sum_all(h));
  return h.value();
}

std::string union_bench_label(GnnKind kind, int threads) {
  return gnn_kind_name(kind) + ", " + std::to_string(threads) + " thread(s)";
}

void BM_UnionEncoderPass(benchmark::State& state) {
  const auto kind = static_cast<GnnKind>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  ThreadPool::set_global_threads(threads);
  const auto enc = union_bench_encoder(kind);
  for (auto _ : state) {
    benchmark::DoNotOptimize(union_encoder_pass(*enc).data());
  }
  state.SetLabel(union_bench_label(kind, threads));
  ThreadPool::set_global_threads(g_default_threads);
}
BENCHMARK(BM_UnionEncoderPass)
    ->Args({static_cast<int>(GnnKind::kGcn), 1})
    ->Args({static_cast<int>(GnnKind::kRgcn), 1})
    ->UseRealTime();

/// BM_UnionEncoderPass's exact workload plus the per-batch observability
/// work a serving worker pays with obs enabled: a trace span over the
/// forward (gate open, collector armed-but-idle — the steady serving
/// state), one counter increment and one latency-histogram record. CI runs
/// this against BM_UnionEncoderPass through bench_compare.py --pair and
/// fails the smoke job if obs costs more than 5% — the "near-zero when
/// enabled" half of the obs contract (the disabled half is a dead branch).
void BM_UnionEncoderPassObs(benchmark::State& state) {
  const auto kind = static_cast<GnnKind>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  ThreadPool::set_global_threads(threads);
  const auto enc = union_bench_encoder(kind);
  // Private registry: the pair bench must not pollute the global scrape
  // namespace (and repeated benchmark runs would re-register otherwise).
  MetricsRegistry registry;
  Counter* batches = registry.counter("bench_obs_batches_total");
  Histogram* latency = registry.histogram("bench_obs_latency_us");
  TraceCollector& tc = TraceCollector::global();
  for (auto _ : state) {
    const std::int64_t t0 = tc.now_us();
    const ObsSpan span(true, "forward", "bench");
    benchmark::DoNotOptimize(union_encoder_pass(*enc).data());
    batches->add();
    latency->record(static_cast<std::uint64_t>(tc.now_us() - t0));
  }
  state.SetLabel(union_bench_label(kind, threads) + " +obs");
  ThreadPool::set_global_threads(g_default_threads);
}
BENCHMARK(BM_UnionEncoderPassObs)
    ->Args({static_cast<int>(GnnKind::kGcn), 1})
    ->Args({static_cast<int>(GnnKind::kRgcn), 1})
    ->UseRealTime();

void BM_EncoderForward(benchmark::State& state) {
  LoweredProgram p = lower_to_cdfg(generate_cdfg_program(5));
  run_hls_flow(p);
  const GraphTensors gt = GraphTensors::build(p.graph);
  const Matrix feats =
      InputFeatureBuilder::build(p.graph, Approach::kOffTheShelf);
  Rng rng(2);
  EncoderConfig cfg;
  cfg.in_dim = feats.cols();
  cfg.hidden = 64;
  cfg.layers = 3;
  const auto kind = static_cast<GnnKind>(state.range(0));
  const auto enc = make_encoder(kind, cfg, rng);
  Rng drop(1);
  for (auto _ : state) {
    Tape tape;
    benchmark::DoNotOptimize(
        enc->encode(tape, gt, tape.leaf(feats), drop, false).value().data());
  }
  state.SetLabel(gnn_kind_name(kind));
}
BENCHMARK(BM_EncoderForward)->DenseRange(0, kNumGnnKinds - 1);

/// Batched vs single-graph training throughput: one epoch over a fixed
/// 32-graph corpus per iteration, batch_size graphs per tape. items/sec is
/// graphs/sec through forward+backward+step.
void BM_BatchedTrainStep(benchmark::State& state) {
  const int batch_size = static_cast<int>(state.range(0));
  constexpr int kGraphs = 32;

  std::vector<LoweredProgram> progs;
  std::vector<GraphTensors> tensors;
  std::vector<Matrix> feats;
  progs.reserve(kGraphs);
  for (int i = 0; i < kGraphs; ++i) {
    progs.push_back(lower_to_cdfg(
        generate_cdfg_program(static_cast<std::uint64_t>(100 + i))));
    run_hls_flow(progs.back());
    tensors.push_back(GraphTensors::build(progs.back().graph));
    feats.push_back(InputFeatureBuilder::build(progs.back().graph,
                                               Approach::kOffTheShelf));
  }

  // Pre-assemble the batches once: the steady-state cost under test is the
  // batched tape, not union construction (which BM_BatchAssembly covers).
  struct PreBatch {
    GraphBatch batch;
    Matrix features;
    Matrix target;
  };
  std::vector<PreBatch> batches;
  for (int lo = 0; lo < kGraphs; lo += batch_size) {
    const int hi = std::min(lo + batch_size, kGraphs);
    std::vector<const GraphTensors*> parts;
    std::vector<const Matrix*> fparts;
    for (int g = lo; g < hi; ++g) {
      parts.push_back(&tensors[static_cast<std::size_t>(g)]);
      fparts.push_back(&feats[static_cast<std::size_t>(g)]);
    }
    batches.push_back(PreBatch{GraphBatch::build(parts),
                               GraphBatch::stack_features(fparts),
                               Matrix(hi - lo, 1, 5.0F)});
  }

  Rng rng(3);
  ModelConfig mc;
  mc.kind = GnnKind::kGcn;
  mc.hidden = 64;
  mc.layers = 3;
  GraphRegressor model(mc, feats.front().cols(), rng);
  const std::vector<Matrix> initial = snapshot_parameters(model);
  Rng drop(1);
  for (auto _ : state) {
    // Reset to the initial weights and a fresh optimizer outside the timed
    // region so every iteration (and every batch-size variant) times the
    // same workload — a trained model has different activation sparsity,
    // which changes the zero-skipping backward kernels' cost.
    state.PauseTiming();
    restore_parameters(model, initial);
    Adam opt(model, AdamConfig{});
    state.ResumeTiming();
    for (const PreBatch& pb : batches) {
      Tape tape;
      const Var pred =
          model.forward(tape, pb.batch.merged, pb.features, drop, true);
      tape.backward(tape.mse_loss(pred, pb.target));
      opt.step();
    }
  }
  state.SetItemsProcessed(state.iterations() * kGraphs);
  state.SetLabel("batch=" + std::to_string(batch_size));
}
BENCHMARK(BM_BatchedTrainStep)->Arg(1)->Arg(8)->Arg(32)->UseRealTime();

/// Cost of assembling the disjoint union itself.
void BM_BatchAssembly(benchmark::State& state) {
  const int batch_size = static_cast<int>(state.range(0));
  std::vector<LoweredProgram> progs;
  std::vector<GraphTensors> tensors;
  for (int i = 0; i < batch_size; ++i) {
    progs.push_back(lower_to_cdfg(
        generate_cdfg_program(static_cast<std::uint64_t>(200 + i))));
    run_hls_flow(progs.back());
    tensors.push_back(GraphTensors::build(progs.back().graph));
  }
  std::vector<const GraphTensors*> parts;
  for (const auto& t : tensors) parts.push_back(&t);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GraphBatch::build(parts).merged.num_nodes);
  }
  state.SetItemsProcessed(state.iterations() * batch_size);
}
BENCHMARK(BM_BatchAssembly)->Arg(8)->Arg(32);

void BM_TrainStep(benchmark::State& state) {
  LoweredProgram p = lower_to_cdfg(generate_cdfg_program(7));
  run_hls_flow(p);
  const GraphTensors gt = GraphTensors::build(p.graph);
  const Matrix feats =
      InputFeatureBuilder::build(p.graph, Approach::kOffTheShelf);
  Rng rng(3);
  ModelConfig mc;
  mc.kind = GnnKind::kRgcn;
  mc.hidden = 64;
  mc.layers = 3;
  GraphRegressor model(mc, feats.cols(), rng);
  Adam opt(model, AdamConfig{});
  Rng drop(1);
  const Matrix target(1, 1, 5.0F);
  for (auto _ : state) {
    Tape tape;
    const Var pred = model.forward(tape, gt, feats, drop, true);
    tape.backward(tape.mse_loss(pred, target));
    opt.step();
  }
}
BENCHMARK(BM_TrainStep);

// ----- train/ subsystem: sharded epochs over a cached BatchPlan -----

/// Shared 32-graph corpus for the Trainer benches (built once; the HLS flow
/// per sample is setup cost, not the thing under test).
const std::vector<Sample>& trainer_corpus() {
  static const std::vector<Sample>* samples = [] {
    SyntheticDatasetConfig d;
    d.kind = GraphKind::kCdfg;
    d.num_graphs = 32;
    d.seed = 4242;
    return new std::vector<Sample>(build_synthetic_dataset(d));
  }();
  return *samples;
}

std::vector<int> trainer_train_idx() {
  std::vector<int> idx(trainer_corpus().size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = static_cast<int>(i);
  return idx;
}

TrainConfig trainer_bench_config(int shards) {
  TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 8;
  tc.grad_accum = 4;  // 4 batches per Adam step = shard work between barriers
  tc.shards = shards;
  tc.seed = 7;
  return tc;
}

BatchPlan build_trainer_plan(const TrainConfig& tc) {
  return BatchPlan::build(
      trainer_corpus(), trainer_train_idx(), tc.batch_size,
      [](const Sample& s) -> const Matrix& {
        return FeatureCache::global().features(s, Approach::kOffTheShelf);
      },
      [](const Sample& s) {
        return Matrix(1, 1,
                      encode_target(metric_of(s.truth, Metric::kLut),
                                    Metric::kLut));
      },
      Rng(tc.seed * 31 + 1));
}

Trainer::Hooks regressor_hooks(const GraphRegressor& model) {
  Trainer::Hooks hooks;
  hooks.forward = [&model](Tape& tape, const GraphTensors& gt,
                           const Matrix& feats, Rng& rng) {
    return model.forward(tape, gt, feats, rng, true);
  };
  hooks.loss = [](Tape& tape, const Var& pred, const Matrix& target) {
    return tape.mse_loss(pred, target);
  };
  return hooks;
}

GraphRegressor& trainer_bench_model() {
  static GraphRegressor* model = [] {
    Rng rng(3);
    ModelConfig mc;
    mc.kind = GnnKind::kGcn;
    // Small enough that data-pipeline costs (feature build, union assembly,
    // stacking) are a visible fraction of the epoch — the amortization
    // BM_TrainerFirstEpoch vs BM_TrainerEpoch is meant to expose — while
    // the tape still dominates enough for shard scaling to be meaningful.
    mc.hidden = 32;
    mc.layers = 2;
    const int in_dim =
        InputFeatureBuilder::feature_dim(Approach::kOffTheShelf);
    return new GraphRegressor(mc, in_dim, rng);
  }();
  return *model;
}

/// Steady-state epoch throughput on a prebuilt plan, by shard count.
/// shards=N is bit-identical to shards=1 (Trainer contract), so the only
/// difference between the variants is the wall clock — the ISSUE's >= 1.5x
/// at 4 shards target is read straight off items/sec here (needs real
/// cores; a single-core container runs shards inline).
void BM_TrainerEpoch(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  const TrainConfig tc = trainer_bench_config(shards);
  GraphRegressor& model = trainer_bench_model();
  const std::vector<Matrix> initial = snapshot_parameters(model);
  BatchPlan plan = build_trainer_plan(tc);
  const Trainer::Hooks hooks = regressor_hooks(model);
  for (auto _ : state) {
    state.PauseTiming();
    restore_parameters(model, initial);  // same workload every iteration
    state.ResumeTiming();
    Trainer trainer(model, tc, hooks, 99);
    trainer.fit(plan, FitOptions{});
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(trainer_corpus().size()));
  state.SetLabel("shards=" + std::to_string(shards));
}
BENCHMARK(BM_TrainerEpoch)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

/// First-epoch cost: cold FeatureCache + BatchPlan assembly + one epoch —
/// what a fit pays once. Compare against BM_TrainerEpoch (the steady
/// epochs that reuse the plan) to see the amortization: epoch >= 2 must be
/// measurably faster than epoch 1.
void BM_TrainerFirstEpoch(benchmark::State& state) {
  const TrainConfig tc = trainer_bench_config(1);
  GraphRegressor& model = trainer_bench_model();
  const std::vector<Matrix> initial = snapshot_parameters(model);
  const Trainer::Hooks hooks = regressor_hooks(model);
  for (auto _ : state) {
    state.PauseTiming();
    restore_parameters(model, initial);
    FeatureCache::global().clear();  // cold start: features rebuilt
    state.ResumeTiming();
    BatchPlan plan = build_trainer_plan(tc);
    Trainer trainer(model, tc, hooks, 99);
    trainer.fit(plan, FitOptions{});
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(trainer_corpus().size()));
  state.SetLabel("cold cache + plan build");
}
BENCHMARK(BM_TrainerFirstEpoch)->UseRealTime();

void BM_ScheduleProgram(benchmark::State& state) {
  LoweredProgram p = lower_to_cdfg(generate_cdfg_program(11));
  const ResourceLibrary lib;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        schedule_program(p, lib, HlsConfig{}).total_states);
  }
}
BENCHMARK(BM_ScheduleProgram);

void BM_ProgramGeneration(benchmark::State& state) {
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        generate_cdfg_program(seed++).statement_count());
  }
}
BENCHMARK(BM_ProgramGeneration);

}  // namespace
}  // namespace gnnhls

int main(int argc, char** argv) {
  // Strip the gnnhls-side flags before google-benchmark parses argv.
  std::vector<std::string> storage;
  storage.reserve(static_cast<std::size_t>(argc) + 1);
  bool smoke = false;
  int threads = 0;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads = std::atoi(arg.c_str() + 10);
    } else if (arg.rfind("--json=", 0) == 0) {
      storage.push_back("--benchmark_out=" + arg.substr(7));
      storage.push_back("--benchmark_out_format=json");
    } else {
      storage.push_back(arg);
    }
  }
  if (smoke) {
    storage.push_back(
        "--benchmark_filter=BM_Trainer|BM_SegmentScatter|"
        "BM_SegmentGather|BM_MatmulKernel|BM_MatmulTbKernel|BM_AdamStep|"
        "BM_UnionEncoderPass");
  }
  gnnhls::g_default_threads = threads;
  gnnhls::ThreadPool::set_global_threads(threads);
  // Which dense-kernel variant the CPU selected, and the cores the pool can
  // use: both change what the matmul rows mean across hosts.
  benchmark::AddCustomContext(
      "gnnhls_kernel_isa",
      gnnhls::kernel_isa_name(gnnhls::selected_kernel_isa()));
  benchmark::AddCustomContext(
      "gnnhls_cores", std::to_string(std::thread::hardware_concurrency()));

  std::vector<char*> args;
  args.reserve(storage.size());
  for (std::string& s : storage) args.push_back(s.data());
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
