// Batched graph execution engine tests: segment-op gradients, GraphBatch
// disjoint-union round trips across the encoder zoo, thread-pool kernels
// and mini-batched training.
#include <cmath>
#include <cstring>
#include <iostream>
#include <string>

#include <gtest/gtest.h>

#include "core/predictor.h"
#include "dataset/dataset.h"
#include "gnn/graph_batch.h"
#include "gnn/models.h"
#include "grad_check.h"
#include "support/parallel.h"
#include "tensor/matrix_kernels.h"

namespace gnnhls {
namespace {

using testing::expect_gradient_matches;

/// Bit-for-bit equality. Matrix::operator== compares floats, so it takes
/// -0 for +0 (and never matches a NaN); the kernel contract is about bits.
bool same_bits(const Matrix& x, const Matrix& y) {
  return x.same_shape(y) &&
         (x.empty() ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0);
}

Matrix make_test_matrix(int rows, int cols, float scale = 1.0F) {
  Matrix m(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      m(r, c) = scale * (0.31F * static_cast<float>(r) -
                         0.17F * static_cast<float>(c) + 0.05F);
    }
  }
  return m;
}

// ----- segment-op gradients -----

TEST(SegmentOpsTest, ScatterAddRowsForwardAndGrad) {
  const SegmentIndex seg({0, 1, 0, 2, 1}, 3);
  Tape tape;
  const Var a = tape.leaf(make_test_matrix(5, 3));
  const Var out = tape.scatter_add_rows(a, seg);
  ASSERT_EQ(out.rows(), 3);
  ASSERT_EQ(out.cols(), 3);
  for (int j = 0; j < 3; ++j) {
    EXPECT_FLOAT_EQ(out.value()(0, j),
                    a.value()(0, j) + a.value()(2, j));
    EXPECT_FLOAT_EQ(out.value()(1, j),
                    a.value()(1, j) + a.value()(4, j));
    EXPECT_FLOAT_EQ(out.value()(2, j), a.value()(3, j));
  }
  expect_gradient_matches(make_test_matrix(5, 3), [&](Tape& t, const Var& x) {
    const Var s = t.scatter_add_rows(x, seg);
    return t.sum_all(t.mul(s, s));
  });
}

TEST(SegmentOpsTest, SegmentMeanGradAndEmptySegment) {
  const SegmentIndex seg({0, 0, 2, 2, 2}, 3);  // segment 1 empty
  Tape tape;
  const Var a = tape.leaf(make_test_matrix(5, 2));
  const Var out = tape.segment_mean(a, seg);
  ASSERT_EQ(out.rows(), 3);
  EXPECT_FLOAT_EQ(out.value()(1, 0), 0.0F);  // empty segment -> zeros
  EXPECT_FLOAT_EQ(out.value()(0, 1),
                  (a.value()(0, 1) + a.value()(1, 1)) / 2.0F);
  expect_gradient_matches(make_test_matrix(5, 2), [&](Tape& t, const Var& x) {
    const Var s = t.segment_mean(x, seg);
    return t.sum_all(t.mul(s, s));
  });
}

TEST(SegmentOpsTest, GatherRowsBySegmentGrad) {
  const SegmentIndex seg({0, 1, 0, 2, 1, 2}, 3);
  Tape tape;
  const Var a = tape.leaf(make_test_matrix(3, 4));
  const Var out = tape.gather_rows(a, seg);
  ASSERT_EQ(out.rows(), 6);
  for (std::size_t i = 0; i < seg.ids().size(); ++i) {
    for (int j = 0; j < 4; ++j) {
      EXPECT_FLOAT_EQ(out.value()(static_cast<int>(i), j),
                      a.value()(seg[i], j));
    }
  }
  expect_gradient_matches(make_test_matrix(3, 4), [&](Tape& t, const Var& x) {
    const Var b = t.gather_rows(x, seg);
    return t.sum_all(t.mul(b, b));
  });
}

TEST(SegmentOpsTest, SingleSegmentMatchesWholeMatrixOps) {
  const Matrix input = make_test_matrix(7, 3);
  const SegmentIndex seg(std::vector<int>(7, 0), 1);
  Tape tape;
  const Var a = tape.leaf(input);
  const Matrix seg_sum = tape.scatter_add_rows(a, seg).value();
  const Matrix plain_sum = tape.sum_rows(a).value();
  EXPECT_TRUE(seg_sum == plain_sum);  // bitwise: same accumulation order
  const Matrix seg_mean = tape.segment_mean(a, seg).value();
  const Matrix plain_mean = tape.mean_rows(a).value();
  EXPECT_TRUE(seg_mean == plain_mean);
}

TEST(SegmentOpsTest, GatherRejectsOutOfRangeSegment) {
  Tape tape;
  const Var a = tape.leaf(make_test_matrix(2, 2));
  EXPECT_THROW(tape.gather_rows(a, SegmentIndex({0, 2}, a.rows())),
               std::invalid_argument);
  // An index over a different row space is rejected as a whole.
  EXPECT_THROW(tape.gather_rows(a, SegmentIndex({0, 2}, 3)),
               std::invalid_argument);
}

// ----- GraphBatch structure -----

std::vector<Sample> batch_samples() {
  std::vector<Sample> out;
  out.push_back(make_sample(generate_cdfg_program(11), GraphKind::kCdfg,
                            HlsConfig{}, "b0"));
  out.push_back(make_sample(generate_dfg_program(13), GraphKind::kDfg,
                            HlsConfig{}, "b1"));
  out.push_back(make_sample(generate_cdfg_program(29), GraphKind::kCdfg,
                            HlsConfig{}, "b2"));
  return out;
}

TEST(GraphBatchTest, DisjointUnionStructure) {
  const auto samples = batch_samples();
  const GraphBatch batch = GraphBatch::build(
      {&samples[0].tensors, &samples[1].tensors, &samples[2].tensors});
  const GraphTensors& m = batch.merged;

  int nodes = 0;
  int edges = 0;
  for (const auto& s : samples) {
    nodes += s.tensors.num_nodes;
    edges += s.tensors.src.size();
  }
  EXPECT_EQ(m.num_nodes, nodes);
  EXPECT_EQ(m.src.size(), edges);
  EXPECT_EQ(m.num_graphs, 3);
  ASSERT_EQ(batch.node_offset.size(), 4U);
  EXPECT_EQ(batch.node_offset[0], 0);
  EXPECT_EQ(batch.node_offset[3], nodes);

  // Every edge stays inside its member graph's node range.
  for (std::size_t e = 0; e < m.src.ids().size(); ++e) {
    const int gs = m.graph_id[static_cast<std::size_t>(m.src[e])];
    const int gd = m.graph_id[static_cast<std::size_t>(m.dst[e])];
    EXPECT_EQ(gs, gd);
  }
  // graph_id segments follow node_offset.
  for (int g = 0; g < 3; ++g) {
    for (int v = batch.node_offset[static_cast<std::size_t>(g)];
         v < batch.node_offset[static_cast<std::size_t>(g) + 1]; ++v) {
      EXPECT_EQ(m.graph_id[static_cast<std::size_t>(v)], g);
    }
  }
  // Each relation view is the members' views in member order, shifted by
  // node_offset, so the relations still cover every edge exactly once and
  // no relation edge crosses member graphs.
  ASSERT_EQ(m.relations.size(),
            static_cast<std::size_t>(kNumEdgeRelations));
  int rel_total = 0;
  for (std::size_t r = 0; r < m.relations.size(); ++r) {
    const GraphTensors::Relation& rel = m.relations[r];
    ASSERT_EQ(rel.src.size(), rel.dst.size());
    EXPECT_EQ(rel.src.segments(), m.num_nodes);
    EXPECT_EQ(rel.dst.segments(), m.num_nodes);
    std::vector<int> want_src, want_dst;
    for (int g = 0; g < 3; ++g) {
      const auto& member =
          samples[static_cast<std::size_t>(g)].tensors.relations[r];
      const int off = batch.node_offset[static_cast<std::size_t>(g)];
      for (int v : member.src.ids()) want_src.push_back(v + off);
      for (int v : member.dst.ids()) want_dst.push_back(v + off);
    }
    EXPECT_EQ(rel.src.ids(), want_src) << "relation " << r;
    EXPECT_EQ(rel.dst.ids(), want_dst) << "relation " << r;
    for (std::size_t i = 0; i < rel.src.ids().size(); ++i) {
      EXPECT_EQ(m.graph_id[static_cast<std::size_t>(rel.src[i])],
                m.graph_id[static_cast<std::size_t>(rel.dst[i])]);
    }
    rel_total += rel.src.size();
  }
  EXPECT_EQ(rel_total, edges);
  // Per-member PNA averages preserved.
  ASSERT_EQ(m.graph_avg_log_deg.size(), 3U);
  for (int g = 0; g < 3; ++g) {
    EXPECT_FLOAT_EQ(
        m.graph_avg_log_deg[static_cast<std::size_t>(g)],
        samples[static_cast<std::size_t>(g)].tensors.graph_avg_log_deg[0]);
  }
}

TEST(GraphBatchTest, StackFeaturesRoundTrip) {
  const auto samples = batch_samples();
  std::vector<Matrix> feats;
  std::vector<const Matrix*> fparts;
  std::vector<const GraphTensors*> parts;
  for (const auto& s : samples) {
    feats.push_back(
        InputFeatureBuilder::build(s.graph(), Approach::kOffTheShelf));
    parts.push_back(&s.tensors);
  }
  for (const Matrix& f : feats) fparts.push_back(&f);
  const GraphBatch batch = GraphBatch::build(parts);
  const Matrix stacked = GraphBatch::stack_features(fparts);
  ASSERT_EQ(stacked.rows(), batch.num_nodes());
  for (int g = 0; g < batch.num_graphs(); ++g) {
    const Matrix back = batch.member_rows(stacked, g);
    EXPECT_TRUE(back == feats[static_cast<std::size_t>(g)]);
  }
}

// ----- batched == per-graph across the encoder zoo -----

class BatchRoundTripTest : public ::testing::TestWithParam<GnnKind> {};

TEST_P(BatchRoundTripTest, BatchedEncodeMatchesPerGraph) {
  const auto samples = batch_samples();
  Rng rng(17);
  EncoderConfig cfg;
  cfg.in_dim = InputFeatureBuilder::feature_dim(Approach::kOffTheShelf);
  cfg.hidden = 16;
  cfg.layers = 2;
  const auto enc = make_encoder(GetParam(), cfg, rng);

  std::vector<Matrix> feats;
  std::vector<const Matrix*> fparts;
  std::vector<const GraphTensors*> parts;
  for (const auto& s : samples) {
    feats.push_back(
        InputFeatureBuilder::build(s.graph(), Approach::kOffTheShelf));
    parts.push_back(&s.tensors);
  }
  for (const Matrix& f : feats) fparts.push_back(&f);
  const GraphBatch batch = GraphBatch::build(parts);

  Tape batch_tape;
  Rng drop(1);
  const Matrix batched =
      enc->encode(batch_tape, batch.merged,
                  batch_tape.leaf(GraphBatch::stack_features(fparts)), drop,
                  false)
          .value();
  ASSERT_EQ(batched.rows(), batch.num_nodes());

  for (std::size_t g = 0; g < samples.size(); ++g) {
    Tape tape;
    Rng d(1);
    const Matrix single =
        enc->encode(tape, samples[g].tensors, tape.leaf(feats[g]), d, false)
            .value();
    const Matrix member = batch.member_rows(batched, static_cast<int>(g));
    ASSERT_TRUE(single.same_shape(member));
    for (int i = 0; i < single.rows(); ++i) {
      for (int j = 0; j < single.cols(); ++j) {
        EXPECT_NEAR(single(i, j), member(i, j), 1e-4F)
            << gnn_kind_name(GetParam()) << " graph " << g << " node " << i;
      }
    }
  }
}

TEST_P(BatchRoundTripTest, RegressorBatchPredictionsMatchPerGraph) {
  const auto samples = batch_samples();
  Rng rng(23);
  ModelConfig cfg;
  cfg.kind = GetParam();
  cfg.hidden = 16;
  cfg.layers = 2;
  GraphRegressor model(
      cfg, InputFeatureBuilder::feature_dim(Approach::kOffTheShelf), rng);

  std::vector<Matrix> feats;
  std::vector<const Matrix*> fparts;
  std::vector<const GraphTensors*> parts;
  for (const auto& s : samples) {
    feats.push_back(
        InputFeatureBuilder::build(s.graph(), Approach::kOffTheShelf));
    parts.push_back(&s.tensors);
  }
  for (const Matrix& f : feats) fparts.push_back(&f);
  const GraphBatch batch = GraphBatch::build(parts);
  const std::vector<float> batched =
      model.predict_batch(batch.merged, GraphBatch::stack_features(fparts));
  ASSERT_EQ(batched.size(), samples.size());
  for (std::size_t g = 0; g < samples.size(); ++g) {
    const float single = model.predict_batch(samples[g].tensors, feats[g])[0];
    EXPECT_NEAR(batched[g], single, 1e-4F) << gnn_kind_name(GetParam());
  }
}

TEST_P(BatchRoundTripTest, BatchedTrainStepBackpropagates) {
  const auto samples = batch_samples();
  Rng rng(41);
  ModelConfig cfg;
  cfg.kind = GetParam();
  cfg.hidden = 16;
  cfg.layers = 2;
  GraphRegressor model(
      cfg, InputFeatureBuilder::feature_dim(Approach::kOffTheShelf), rng);

  std::vector<Matrix> feats;
  std::vector<const Matrix*> fparts;
  std::vector<const GraphTensors*> parts;
  for (const auto& s : samples) {
    feats.push_back(
        InputFeatureBuilder::build(s.graph(), Approach::kOffTheShelf));
    parts.push_back(&s.tensors);
  }
  for (const Matrix& f : feats) fparts.push_back(&f);
  const GraphBatch batch = GraphBatch::build(parts);
  const Matrix stacked = GraphBatch::stack_features(fparts);
  const Matrix target(batch.num_graphs(), 1, 2.0F);

  Tape tape;
  Rng drop(1);
  const Var pred = model.forward(tape, batch.merged, stacked, drop, true);
  ASSERT_EQ(pred.rows(), batch.num_graphs());
  tape.backward(tape.mse_loss(pred, target));
  int with_grad = 0;
  for (const auto* p : model.parameters()) {
    const double norm = p->var().grad().squared_norm();
    EXPECT_TRUE(std::isfinite(norm));
    if (norm > 0.0) ++with_grad;
  }
  // Gradient must reach most parameter tensors through the batched tape
  // (some relation weights legitimately get none if a relation is absent).
  EXPECT_GT(with_grad, static_cast<int>(model.parameters().size()) / 2)
      << gnn_kind_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, BatchRoundTripTest, ::testing::ValuesIn(all_gnn_kinds()),
    [](const ::testing::TestParamInfo<GnnKind>& info) {
      std::string name = gnn_kind_name(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(BatchRoundTripTest, SingletonBatchIsBitwiseIdentical) {
  const auto samples = batch_samples();
  Rng rng(31);
  ModelConfig cfg;
  cfg.kind = GnnKind::kGcnVirtual;  // exercises the virtual-node path
  cfg.hidden = 16;
  cfg.layers = 2;
  GraphRegressor model(
      cfg, InputFeatureBuilder::feature_dim(Approach::kOffTheShelf), rng);
  const Matrix feats =
      InputFeatureBuilder::build(samples[0].graph(), Approach::kOffTheShelf);
  const GraphBatch batch = GraphBatch::build({&samples[0].tensors});
  const Matrix stacked = GraphBatch::stack_features({&feats});
  EXPECT_EQ(model.predict_batch(batch.merged, stacked),
            model.predict_batch(samples[0].tensors, feats));
}

// ----- thread pool -----

TEST(ThreadPoolTest, ParallelForCoversRangeOnce) {
  ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  pool.parallel_for(0, 1000, 1, [&](int lo, int hi) {
    for (int i = lo; i < hi; ++i) ++hits[static_cast<std::size_t>(i)];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, PropagatesBodyException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 100, 1,
                                 [&](int lo, int) {
                                   if (lo == 0) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  // The pool must stay usable after an exception.
  int sum = 0;
  std::mutex mu;
  pool.parallel_for(0, 10, 1, [&](int lo, int hi) {
    std::lock_guard<std::mutex> lock(mu);
    for (int i = lo; i < hi; ++i) sum += i;
  });
  EXPECT_EQ(sum, 45);
}

TEST(ThreadPoolTest, MatmulBitwiseIdenticalAcrossThreadCounts) {
  Rng rng(5);
  const Matrix a = Matrix::randn(93, 77, rng);
  const Matrix b = Matrix::randn(77, 85, rng);
  const Matrix c = Matrix::randn(93, 41, rng);  // for a^T * c
  ThreadPool::set_global_threads(1);
  const Matrix serial = matmul(a, b);
  const Matrix serial_ta = matmul_transpose_a(a, c);
  ThreadPool::set_global_threads(4);
  const Matrix parallel = matmul(a, b);
  EXPECT_TRUE(same_bits(serial, parallel));
  const Matrix parallel_ta = matmul_transpose_a(a, c);
  EXPECT_TRUE(same_bits(serial_ta, parallel_ta));
  ThreadPool::set_global_threads(0);  // restore default
}

TEST(MatmulTest, SparseOperandMatchesDense) {
  Rng rng(7);
  Matrix a = Matrix::randn(40, 30, rng);
  // Zero out ~70% of a: the kernel skips those terms, the reference adds
  // them, and the two must still agree bit for bit.
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i % 10 < 7) a.data()[i] = 0.0F;
  }
  const Matrix b = Matrix::randn(30, 25, rng);
  const Matrix ref = matmul_reference(a, b);
  for (KernelIsa isa : {KernelIsa::kPortable, KernelIsa::kAvx2}) {
    if (!kernel_isa_available(isa)) continue;
    EXPECT_TRUE(same_bits(matmul_isa(isa, a, b), ref)) << kernel_isa_name(isa);
  }
}

// ----- mini-batched training end to end -----

TEST(BatchedTrainingTest, BatchSizeAboveOneLearns) {
  SyntheticDatasetConfig dcfg;
  dcfg.kind = GraphKind::kDfg;
  dcfg.num_graphs = 64;
  dcfg.seed = 4321;
  dcfg.progen.min_ops = 10;
  dcfg.progen.max_ops = 30;
  const auto samples = build_synthetic_dataset(dcfg);
  const SplitIndices split =
      split_80_10_10(static_cast<int>(samples.size()), 5);

  ModelConfig mc;
  mc.kind = GnnKind::kGcn;
  mc.hidden = 16;
  mc.layers = 2;
  TrainConfig tc;
  tc.epochs = 40;
  tc.lr = 1e-2F;
  tc.seed = 77;
  tc.batch_size = 8;
  QorPredictor predictor(Approach::kOffTheShelf, mc, tc);
  const double val =
      predictor.fit(samples, split, Metric::kLut, FitOptions{}).best_val;
  EXPECT_TRUE(std::isfinite(val));
  EXPECT_LT(predictor.evaluate_mape(samples, split.test), 0.8);
}

// ----- deterministic parallel kernels (fixed-order partition reduction) ----
// The segment kernels and the blocked matmul must be bit-identical to the
// serial reference at every thread-pool width, including on adversarially
// skewed inputs: power-law in-degree (one hub destination owns most edges,
// stressing the edge-count-balanced range splitter), empty segments, and
// degenerate single-node graphs.

/// Restores the default global pool when a test resizes it.
struct KernelPoolGuard {
  explicit KernelPoolGuard(int threads) {
    ThreadPool::set_global_threads(threads);
  }
  ~KernelPoolGuard() { ThreadPool::set_global_threads(0); }
};

constexpr int kKernelThreadCounts[] = {1, 2, 4, 8};

struct SegmentLayout {
  const char* name;
  int segments;
  std::vector<int> seg;
};

std::vector<SegmentLayout> adversarial_layouts() {
  std::vector<SegmentLayout> layouts;
  {
    // Power-law: destination 0 is a hub with ~80% of all rows; the rest
    // spread thinly. Equal-row chunking would serialize on the hub's range.
    SegmentLayout l{"power-law hub", 64, {}};
    Rng rng(11);
    for (int i = 0; i < 4096; ++i) {
      l.seg.push_back(rng.bernoulli(0.8) ? 0 : rng.uniform_int(1, 63));
    }
    layouts.push_back(std::move(l));
  }
  {
    // Every third segment empty, rows hitting only the others.
    SegmentLayout l{"empty segments", 48, {}};
    for (int i = 0; i < 1500; ++i) {
      const int s = (i * 7) % 48;
      l.seg.push_back(s % 3 == 0 ? s + 1 : s);
    }
    layouts.push_back(std::move(l));
  }
  // Single-node graph: one row, one segment.
  layouts.push_back(SegmentLayout{"single node", 1, {0}});
  // Single destination for many rows (complete star).
  layouts.push_back(SegmentLayout{"single segment", 1,
                                  std::vector<int>(777, 0)});
  return layouts;
}

TEST(DeterministicKernelsTest, ScatterAddBitIdenticalAcrossThreadCounts) {
  for (const SegmentLayout& l : adversarial_layouts()) {
    Rng rng(23);
    const Matrix src =
        Matrix::randn(static_cast<int>(l.seg.size()), 48, rng);
    Matrix ref = Matrix::zeros(l.segments, 48);
    scatter_add_rows_serial(src, l.seg, ref);
    const SegmentPartition part = SegmentPartition::build(l.seg, l.segments);
    for (int threads : kKernelThreadCounts) {
      KernelPoolGuard pool(threads);
      Matrix out = Matrix::zeros(l.segments, 48);
      scatter_add_rows_into(src, part, out);
      EXPECT_TRUE(out == ref) << l.name << " @ " << threads << " threads";
    }
  }
}

TEST(DeterministicKernelsTest, SegmentOpGradsBitIdenticalAcrossThreadCounts) {
  for (const SegmentLayout& l : adversarial_layouts()) {
    Rng rng(29);
    const Matrix input =
        Matrix::randn(static_cast<int>(l.seg.size()), 24, rng);
    const SegmentIndex seg(l.seg, l.segments);
    // Forward + backward through scatter, gather and mean at each width;
    // threads=1 is the serial baseline the others must match bitwise.
    Matrix base_value, base_grad;
    for (int threads : kKernelThreadCounts) {
      KernelPoolGuard pool(threads);
      const Parameter param("input", input);
      const Var leaf = param.var();
      Tape tape;
      const Var summed = tape.scatter_add_rows(leaf, seg);
      const Var spread = tape.gather_rows(summed, seg);
      const Var mean = tape.segment_mean(spread, seg);
      const Var loss = tape.sum_all(tape.mul(mean, mean));
      tape.backward(loss);
      if (threads == 1) {
        base_value = mean.value();
        base_grad = leaf.grad();
      } else {
        EXPECT_TRUE(mean.value() == base_value)
            << l.name << " forward @ " << threads << " threads";
        EXPECT_TRUE(leaf.grad() == base_grad)
            << l.name << " grad @ " << threads << " threads";
      }
    }
  }
}

Matrix transposed(const Matrix& m) {
  Matrix t(m.cols(), m.rows());
  for (int r = 0; r < m.rows(); ++r) {
    for (int c = 0; c < m.cols(); ++c) t(c, r) = m(r, c);
  }
  return t;
}

TEST(DeterministicKernelsTest, BlockedMatmulMatchesReference) {
  Rng rng(37);
  // {M, K, N}: a is [M,K]. Shapes around the hot [N,hidden]x[hidden,hidden]
  // profile (86 rows is a fit graph), the [E,64] edge-message shape whose
  // a^T*b is the weight gradient, the N=1 readout score and its K=1
  // backward, the N=3 head output, N=107 (one 64-, 32- and 8-wide column
  // tile plus three single columns), odd M, and empty M and K. The
  // transposed copies see a as [M,K] and bt as [N,K]; the last four shapes
  // put those below, at and across the AVX2 copy's 8x8 blocks, so its block
  // path and both ragged edges run.
  const int shapes[][3] = {{256, 64, 64}, {301, 96, 96}, {5, 3, 2},
                           {63, 300, 300}, {1, 1, 1},   {1536, 64, 64},
                           {300, 64, 1},   {300, 1, 64}, {86, 64, 64},
                           {86, 64, 3},    {77, 64, 107}, {0, 64, 64},
                           {86, 0, 64},    {7, 9, 17},  {8, 8, 8},
                           {9, 17, 7},     {130, 65, 9}};
  // Exact zeros in a, as post-ReLU/dropout activations and gradients have
  // them (fit averages 74%), half of them -0 in one pattern, and whole zero
  // rows.
  struct Zeros {
    const char* name;
    double fraction;
    bool odd_rows;
    bool signed_zeros;
  };
  const Zeros patterns[] = {{"dense", 0.0, false, false},
                            {"50% zeros", 0.5, false, false},
                            {"50% +-0", 0.5, false, true},
                            {"74% zeros", 0.74, false, false},
                            {"zero rows", 0.0, true, false}};
  for (const auto& s : shapes) {
    for (const Zeros& z : patterns) {
      Matrix a = Matrix::randn(s[0], s[1], rng);
      for (int i = 0; i < a.rows(); ++i) {
        for (int k = 0; k < a.cols(); ++k) {
          if ((z.odd_rows && i % 2 == 1) || rng.bernoulli(z.fraction)) {
            a(i, k) = z.signed_zeros && rng.bernoulli(0.5) ? -0.0F : 0.0F;
          }
        }
      }
      const Matrix b = Matrix::randn(s[1], s[2], rng);
      const Matrix bt = Matrix::randn(s[2], s[1], rng);
      const Matrix c = Matrix::randn(s[0], s[2], rng);
      const Matrix ref = matmul_reference(a, b);
      const Matrix ref_tb = matmul_transpose_b_reference(a, bt);
      const Matrix ref_ta = matmul_reference(transposed(a), c);
      for (KernelIsa isa : {KernelIsa::kPortable, KernelIsa::kAvx2}) {
        if (!kernel_isa_available(isa)) {
          std::cout << "[ SKIPPED  ] " << kernel_isa_name(isa)
                    << " kernels: not supported by this CPU\n";
          continue;
        }
        for (int threads : kKernelThreadCounts) {
          KernelPoolGuard pool(threads);
          const std::string where =
              std::to_string(s[0]) + "x" + std::to_string(s[1]) + "x" +
              std::to_string(s[2]) + " " + z.name + " " +
              kernel_isa_name(isa) + " @ " + std::to_string(threads);
          EXPECT_TRUE(same_bits(matmul_isa(isa, a, b), ref)) << where;
          EXPECT_TRUE(same_bits(matmul_transpose_b_isa(isa, a, bt), ref_tb))
              << where << " (transpose_b)";
          EXPECT_TRUE(same_bits(matmul_transpose_a_isa(isa, a, c), ref_ta))
              << where << " (transpose_a)";
        }
      }
      // The public entry points run the selected variant.
      EXPECT_TRUE(same_bits(matmul(a, b), ref));
      EXPECT_TRUE(same_bits(matmul_transpose_b(a, bt), ref_tb));
      EXPECT_TRUE(same_bits(matmul_transpose_a(a, c), ref_ta));
    }
  }
}

TEST(DeterministicKernelsTest, NonzeroListingMatchesReferenceAcrossLanes) {
  Rng rng(41);
  // The row kernel lists each row's nonzero k (8 lanes at a time, then the
  // K % 8 tail, in the AVX2 variant) and runs a row with no zero without
  // the list. K covers a tail-only row, a tail of 7 below and of 1 above
  // whole lane groups, and long rows. N = 107 runs every tile width.
  constexpr int kRows = 27;
  constexpr int kCols = 107;
  struct Pattern {
    const char* name;
    // Rewrites row i of a, K wide, in place.
    void (*apply)(float* row, int i, int K);
  };
  const Pattern patterns[] = {
      // Even rows hold exactly one zero (of either sign), at a lane that
      // moves row to row; odd rows have none, so consecutive rows switch
      // between the listed and the dense path both ways.
      {"one zero in every other row",
       [](float* row, int i, int K) {
         if (i % 2 == 0) row[(i * 5) % K] = i % 4 == 0 ? 0.0F : -0.0F;
       }},
      // Every third row is -0 throughout (nothing listed); the rest keep
      // half their entries.
      {"-0 rows",
       [](float* row, int i, int K) {
         for (int k = 0; k < K; ++k) {
           if (i % 3 == 0 || (k + i) % 2 == 0) row[k] = -0.0F;
         }
       }},
      // One NaN, +inf or -inf per row at a moving lane, every fourth entry
      // a denormal and every fifth a zero. A non-finite a[i][k] is listed,
      // so it meets b exactly as in the reference.
      {"NaN, inf and denormals",
       [](float* row, int i, int K) {
         for (int k = 0; k < K; ++k) {
           if (k % 4 == 1) row[k] = 1e-40F;  // denormal
           if (k % 5 == 3) row[k] = 0.0F;
         }
         const float special[] = {NAN, INFINITY, -INFINITY};
         row[(i * 3) % K] = special[i % 3];
       }},
  };
  for (int K : {7, 31, 33, 52, 700}) {
    for (const Pattern& p : patterns) {
      Matrix a = Matrix::randn(kRows, K, rng);
      for (int i = 0; i < kRows; ++i) p.apply(a.row_ptr(i), i, K);
      const Matrix b = Matrix::randn(K, kCols, rng);
      const Matrix bt = Matrix::randn(kCols, K, rng);
      // transpose_a of a^T scans a's rows again.
      const Matrix at = transposed(a);
      const Matrix ref = matmul_reference(a, b);
      const Matrix ref_tb = matmul_transpose_b_reference(a, bt);
      for (KernelIsa isa : {KernelIsa::kPortable, KernelIsa::kAvx2}) {
        if (!kernel_isa_available(isa)) continue;
        for (int threads : kKernelThreadCounts) {
          KernelPoolGuard pool(threads);
          const std::string where = "K=" + std::to_string(K) + " " + p.name +
                                    " " + kernel_isa_name(isa) + " @ " +
                                    std::to_string(threads);
          EXPECT_TRUE(same_bits(matmul_isa(isa, a, b), ref)) << where;
          EXPECT_TRUE(same_bits(matmul_transpose_b_isa(isa, a, bt), ref_tb))
              << where << " (transpose_b)";
          EXPECT_TRUE(same_bits(matmul_transpose_a_isa(isa, at, b), ref))
              << where << " (transpose_a)";
        }
      }
    }
  }
}

TEST(DeterministicKernelsTest, EncoderForwardBitIdenticalAcrossThreadCounts) {
  // End-to-end: a full batched GCN forward (gathers, scatters, virtual-node
  // segment means, readout) must not depend on the pool width.
  const auto samples = batch_samples();
  std::vector<const GraphTensors*> parts;
  std::vector<const Matrix*> fparts;
  std::vector<Matrix> feats;
  for (const auto& s : samples) {
    feats.push_back(
        InputFeatureBuilder::build(s.graph(), Approach::kOffTheShelf));
  }
  for (std::size_t i = 0; i < samples.size(); ++i) {
    parts.push_back(&samples[i].tensors);
    fparts.push_back(&feats[i]);
  }
  const GraphBatch batch = GraphBatch::build(parts);
  const Matrix stacked = GraphBatch::stack_features(fparts);
  Rng mrng(41);
  ModelConfig mc;
  mc.kind = GnnKind::kGcnVirtual;
  mc.hidden = 32;
  mc.layers = 2;
  const GraphRegressor model(mc, stacked.cols(), mrng);
  std::vector<float> base;
  for (int threads : kKernelThreadCounts) {
    KernelPoolGuard pool(threads);
    const std::vector<float> pred = model.predict_batch(batch.merged, stacked);
    if (threads == 1) {
      base = pred;
    } else {
      EXPECT_EQ(pred, base) << "@ " << threads << " threads";
    }
  }
}

TEST(BatchedTrainingTest, HierarchicalPathTrainsBatched) {
  SyntheticDatasetConfig dcfg;
  dcfg.kind = GraphKind::kDfg;
  dcfg.num_graphs = 32;
  dcfg.seed = 999;
  dcfg.progen.min_ops = 8;
  dcfg.progen.max_ops = 24;
  const auto samples = build_synthetic_dataset(dcfg);
  const SplitIndices split =
      split_80_10_10(static_cast<int>(samples.size()), 3);

  ModelConfig mc;
  mc.kind = GnnKind::kGcn;
  mc.hidden = 12;
  mc.layers = 2;
  TrainConfig tc;
  tc.epochs = 10;
  tc.lr = 1e-2F;
  tc.seed = 7;
  tc.batch_size = 4;
  QorPredictor predictor(Approach::kKnowledgeInfused, mc, tc);
  predictor.fit(samples, split, Metric::kLut, FitOptions{});
  for (int i : split.test) {
    const double p = predictor.predict(samples[static_cast<std::size_t>(i)]);
    EXPECT_TRUE(std::isfinite(p));
  }
}

}  // namespace
}  // namespace gnnhls
