// The message-passing path: gather -> (scale | matmul) -> scatter
// compositions are bit-identical at every thread-pool width on adversarial
// edge layouts (power-law hub, empty segments, single node) and match
// finite differences; a multi-part segment_reduce equals the serial chain
// of per-part reductions and adds it replaces, bit for bit; every encoder's
// outputs and parameter gradients are independent of the pool width, and
// every encoder handles an edgeless graph.
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dataset/dataset.h"
#include "gnn/encoders.h"
#include "gnn/feature_encoder.h"
#include "grad_check.h"
#include "support/parallel.h"
#include "tensor/autograd.h"

namespace gnnhls {
namespace {

/// Restores the default global pool when a test resizes it.
struct PoolGuard {
  explicit PoolGuard(int threads) { ThreadPool::set_global_threads(threads); }
  ~PoolGuard() { ThreadPool::set_global_threads(0); }
};

/// Deterministic dense fill — reproducible across runs without an RNG.
Matrix dense(int rows, int cols, int salt) {
  Matrix m(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      m(r, c) = std::sin(0.37F * static_cast<float>(r * cols + c + salt)) +
                0.05F * static_cast<float>(salt);
    }
  }
  return m;
}

struct Layout {
  const char* name;
  int nodes;
  std::vector<int> src, dst;
};

/// The layouts the fixed-order partition reduction has to survive: a hub
/// whose destination segment dwarfs the rest, segments that are empty on
/// both endpoints (isolated nodes) plus duplicate edges, and the degenerate
/// one-node graph of repeated self loops.
std::vector<Layout> edge_layouts() {
  Layout hub{"power_law_hub", 24, {}, {}};
  for (int u = 1; u < 24; ++u) {  // fan-in: every node feeds the hub
    hub.src.push_back(u);
    hub.dst.push_back(0);
  }
  for (int i = 0; i + 1 < 24; ++i) {  // chain
    hub.src.push_back(i);
    hub.dst.push_back(i + 1);
  }
  for (int u = 1; u <= 12; ++u) {  // fan-out from the hub
    hub.src.push_back(0);
    hub.dst.push_back(u);
  }

  Layout sparse{"empty_segments",
                16,
                {3, 3, 4, 5, 8, 6, 7, 8, 8},
                {4, 4, 5, 3, 3, 6, 8, 8, 8}};

  Layout single{"single_node", 1, {0, 0, 0}, {0, 0, 0}};

  return {hub, sparse, single};
}

std::vector<float> edge_coeffs(std::size_t edges) {
  std::vector<float> coeff(edges);
  for (std::size_t e = 0; e < edges; ++e) {
    coeff[e] = 0.25F * std::sin(0.7F * static_cast<float>(e) + 1.0F);
  }
  return coeff;
}

struct RunResult {
  Matrix out;
  Matrix x_grad;
  Matrix w_grad;  // matmul variant only
};

/// scatter_add(scale_rows(gather(x, src), coeff), dst); empty coeff drops
/// the scale.
Var gather_scatter(Tape& t, const Layout& layout, const Var& x,
                   const std::vector<float>& coeff) {
  Var msgs = t.gather_rows(x, SegmentIndex(layout.src, layout.nodes));
  if (!coeff.empty()) msgs = t.scale_rows(msgs, coeff);
  return t.scatter_add_rows(msgs, SegmentIndex(layout.dst, layout.nodes));
}

/// scatter_add(matmul(gather(x, src), w), dst).
Var gather_matmul_scatter(Tape& t, const Layout& layout, const Var& x,
                          const Var& w) {
  return t.scatter_add_rows(
      t.matmul(t.gather_rows(x, SegmentIndex(layout.src, layout.nodes)), w),
      SegmentIndex(layout.dst, layout.nodes));
}

RunResult run_gather_scatter(const Layout& layout, const Matrix& x,
                             const std::vector<float>& coeff) {
  const Parameter leaf("x", x);
  Tape t;
  const Var out = gather_scatter(t, layout, leaf.var(), coeff);
  t.backward(t.sum_all(t.mul(out, out)));  // nonlinear loss: grads carry out
  return {out.value(), leaf.var().grad(), Matrix()};
}

RunResult run_gather_matmul_scatter(const Layout& layout, const Matrix& x,
                                    const Matrix& w) {
  const Parameter xl("x", x);
  const Parameter wl("w", w);
  Tape t;
  const Var out = gather_matmul_scatter(t, layout, xl.var(), wl.var());
  t.backward(t.sum_all(t.mul(out, out)));
  return {out.value(), xl.var().grad(), wl.var().grad()};
}

// ----- composition-level bit-identity across pool widths -----

TEST(MessagePassingKernelTest, GatherScatterBitIdenticalAcrossThreads) {
  for (const Layout& layout : edge_layouts()) {
    const Matrix x = dense(layout.nodes, 5, 3);
    for (const bool with_coeff : {false, true}) {
      const std::vector<float> coeff =
          with_coeff ? edge_coeffs(layout.src.size()) : std::vector<float>();
      RunResult ref;
      {
        PoolGuard pool(1);
        ref = run_gather_scatter(layout, x, coeff);
      }
      for (const int threads : {2, 4, 8}) {
        PoolGuard pool(threads);
        const std::string ctx = std::string(layout.name) + " coeff=" +
                                (with_coeff ? "y" : "n") + " threads=" +
                                std::to_string(threads);
        const RunResult run = run_gather_scatter(layout, x, coeff);
        EXPECT_TRUE(run.out == ref.out) << ctx;
        EXPECT_TRUE(run.x_grad == ref.x_grad) << ctx;
      }
    }
  }
}

TEST(MessagePassingKernelTest, GatherMatmulScatterBitIdenticalAcrossThreads) {
  for (const Layout& layout : edge_layouts()) {
    const Matrix x = dense(layout.nodes, 6, 7);
    const Matrix w = dense(6, 5, 11);
    RunResult ref;
    {
      PoolGuard pool(1);
      ref = run_gather_matmul_scatter(layout, x, w);
    }
    for (const int threads : {2, 4, 8}) {
      PoolGuard pool(threads);
      const std::string ctx =
          std::string(layout.name) + " threads=" + std::to_string(threads);
      const RunResult run = run_gather_matmul_scatter(layout, x, w);
      EXPECT_TRUE(run.out == ref.out) << ctx;
      EXPECT_TRUE(run.x_grad == ref.x_grad) << ctx;
      EXPECT_TRUE(run.w_grad == ref.w_grad) << ctx;
    }
  }
}

// ----- segment_reduce against the per-part chain it replaces -----

/// One message set of a split layout: its edges' destinations and rows.
struct EdgePart {
  std::vector<int> dst;
  Matrix msgs;
};

/// Splits a layout's edges into a part with no edges (every segment
/// empty), a one-edge part and the rest, in that order.
std::vector<EdgePart> split_edges(const Layout& layout, int cols) {
  std::vector<EdgePart> parts(3);
  parts[1].dst = {layout.dst.front()};
  parts[2].dst.assign(layout.dst.begin() + 1, layout.dst.end());
  for (std::size_t k = 0; k < parts.size(); ++k) {
    parts[k].msgs = dense(static_cast<int>(parts[k].dst.size()), cols,
                          5 + static_cast<int>(k));
  }
  return parts;
}

struct ReduceResult {
  Matrix out;
  std::vector<Matrix> grads;  // one per part
};

/// The chain segment_reduce replaces, built from the serial scatter: per
/// part a scatter-add into zeros and, for a mean, a per-row scale by
/// 1/count (0 for an empty segment); the parts joined by adds in part
/// order. A part's gradient row e is +0 + upstream[dst[e]] * (1/count).
ReduceResult serial_chain(const std::vector<EdgePart>& parts, int segments,
                          bool mean, const Matrix& upstream) {
  const int cols = upstream.cols();
  ReduceResult r;
  for (std::size_t k = 0; k < parts.size(); ++k) {
    const EdgePart& p = parts[k];
    Matrix reduced = Matrix::zeros(segments, cols);
    scatter_add_rows_serial(p.msgs, p.dst, reduced);
    Matrix scaled_up = upstream;
    if (mean) {
      std::vector<int> count(static_cast<std::size_t>(segments), 0);
      for (const int d : p.dst) ++count[static_cast<std::size_t>(d)];
      for (int s = 0; s < segments; ++s) {
        const int c = count[static_cast<std::size_t>(s)];
        const float inv = c > 0 ? 1.0F / static_cast<float>(c) : 0.0F;
        for (int j = 0; j < cols; ++j) {
          reduced(s, j) *= inv;
          scaled_up(s, j) *= inv;
        }
      }
    }
    if (k == 0) {
      r.out = reduced;
    } else {
      for (int s = 0; s < segments; ++s) {
        for (int j = 0; j < cols; ++j) r.out(s, j) += reduced(s, j);
      }
    }
    Matrix grad = Matrix::zeros(p.msgs.rows(), cols);
    for (std::size_t e = 0; e < p.dst.size(); ++e) {
      for (int j = 0; j < cols; ++j) {
        grad(static_cast<int>(e), j) += scaled_up(p.dst[e], j);
      }
    }
    r.grads.push_back(std::move(grad));
  }
  return r;
}

/// One segment_reduce node over the parts; the loss sum(out * upstream)
/// hands the node exactly `upstream` as its gradient.
ReduceResult run_segment_reduce(const std::vector<EdgePart>& parts,
                                int segments, bool mean,
                                const Matrix& upstream) {
  std::vector<std::unique_ptr<Parameter>> leaves;
  std::vector<SegmentPart> inputs;
  for (const EdgePart& p : parts) {
    leaves.push_back(std::make_unique<Parameter>("msgs", p.msgs));
    inputs.push_back({leaves.back()->var(), SegmentIndex(p.dst, segments)});
  }
  Tape t;
  const Var out = t.segment_reduce(inputs, mean);
  t.backward(t.sum_all(t.mul(out, t.leaf(upstream))));
  ReduceResult r{out.value(), {}};
  for (const auto& leaf : leaves) r.grads.push_back(leaf->var().grad());
  return r;
}

/// Bitwise equality: unlike Matrix::operator==, tells -0 from +0.
bool same_bits(const Matrix& a, const Matrix& b) {
  return a.same_shape(b) &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

void expect_same_bits(const ReduceResult& run, const ReduceResult& ref,
                      const std::string& ctx) {
  EXPECT_TRUE(same_bits(run.out, ref.out)) << "forward " << ctx;
  ASSERT_EQ(run.grads.size(), ref.grads.size()) << ctx;
  for (std::size_t k = 0; k < ref.grads.size(); ++k) {
    EXPECT_TRUE(same_bits(run.grads[k], ref.grads[k]))
        << "part " << k << " grad " << ctx;
  }
}

TEST(SegmentReduceTest, PartsBitIdenticalToSerialChainAtEveryWidth) {
  for (const Layout& layout : edge_layouts()) {
    const std::vector<EdgePart> split = split_edges(layout, 5);
    const Matrix upstream = dense(layout.nodes, 5, 19);
    // The empty part first (assigned) and last (added).
    const std::vector<std::vector<EdgePart>> orders = {
        split, {split[2], split[1], split[0]}};
    for (std::size_t o = 0; o < orders.size(); ++o) {
      for (const bool mean : {false, true}) {
        const ReduceResult ref =
            serial_chain(orders[o], layout.nodes, mean, upstream);
        for (const int threads : {1, 2, 4, 8}) {
          PoolGuard pool(threads);
          expect_same_bits(
              run_segment_reduce(orders[o], layout.nodes, mean, upstream),
              ref,
              std::string(layout.name) + " order=" + std::to_string(o) +
                  " mean=" + (mean ? "y" : "n") +
                  " threads=" + std::to_string(threads));
        }
      }
    }
  }
}

TEST(SegmentReduceTest, EmptyLaterPartTurnsUnderflowedMeanIntoPlusZero) {
  // Segment 0's mean (-denorm_min + 0) / 2 rounds to -0; the second part
  // has no edge into segment 0, so the chain adds +0 there.
  const float tiny = -std::numeric_limits<float>::denorm_min();
  Matrix denormal(2, 3);
  for (int j = 0; j < 3; ++j) denormal(0, j) = tiny;
  const EdgePart underflow{{0, 0}, denormal};
  const EdgePart elsewhere{{1}, dense(1, 3, 2)};
  const Matrix upstream = dense(2, 3, 4);

  const ReduceResult alone = run_segment_reduce({underflow}, 2, true, upstream);
  for (int j = 0; j < 3; ++j) {
    EXPECT_EQ(alone.out(0, j), 0.0F);
    EXPECT_TRUE(std::signbit(alone.out(0, j))) << "the mean is -0 alone";
  }
  const std::vector<EdgePart> parts = {underflow, elsewhere};
  const ReduceResult ref = serial_chain(parts, 2, true, upstream);
  for (const int threads : {1, 4}) {
    PoolGuard pool(threads);
    const ReduceResult run = run_segment_reduce(parts, 2, true, upstream);
    for (int j = 0; j < 3; ++j) {
      EXPECT_FALSE(std::signbit(run.out(0, j))) << "threads=" << threads;
    }
    expect_same_bits(run, ref, "threads=" + std::to_string(threads));
  }
}

// ----- gradient checks through the compositions -----

TEST(MessagePassingGradientTest, GatherScatterGradientMatchesFiniteDifference) {
  const Layout layout = edge_layouts()[1];  // empty_segments
  const std::vector<float> coeff = edge_coeffs(layout.src.size());
  testing::expect_gradient_matches(
      dense(layout.nodes, 3, 5), [&](Tape& t, const Var& v) {
        const Var out = gather_scatter(t, layout, v, coeff);
        return t.sum_all(t.mul(out, out));
      });
}

TEST(MessagePassingGradientTest,
     GatherMatmulScatterGradientsMatchFiniteDifference) {
  const Layout layout = edge_layouts()[1];
  const Matrix x = dense(layout.nodes, 3, 13);
  const Matrix w = dense(3, 4, 17);

  // d/dx with the weight held constant.
  testing::expect_gradient_matches(x, [&](Tape& t, const Var& v) {
    const Var out = gather_matmul_scatter(t, layout, v, t.leaf(w));
    return t.sum_all(t.mul(out, out));
  });
  // d/dw with the features held constant.
  testing::expect_gradient_matches(w, [&](Tape& t, const Var& v) {
    const Var out = gather_matmul_scatter(t, layout, t.leaf(x), v);
    return t.sum_all(t.mul(out, out));
  });
}

// ----- encoder-level invariance -----

class EncoderInvarianceTest : public ::testing::TestWithParam<GnnKind> {};

const Sample& invariance_sample() {
  static const Sample sample =
      make_sample(generate_cdfg_program(11), GraphKind::kCdfg, HlsConfig{},
                  "message-passing-test");
  return sample;
}

struct EncRun {
  Matrix out;
  std::vector<Matrix> grads;
};

EncRun run_encoder(GnnKind kind, const GraphTensors& gt, const Matrix& feats) {
  Rng rng(7);
  EncoderConfig cfg;
  cfg.in_dim = InputFeatureBuilder::feature_dim(Approach::kOffTheShelf);
  cfg.hidden = 8;
  cfg.layers = 2;
  const auto enc = make_encoder(kind, cfg, rng);
  Tape tape;
  Rng drop(1);
  const Var h = enc->encode(tape, gt, tape.leaf(feats), drop, false);
  tape.backward(tape.sum_all(tape.mul(h, h)));
  EncRun r;
  r.out = h.value();
  for (const auto* p : enc->parameters()) r.grads.push_back(p->var().grad());
  return r;
}

void expect_same_run(const EncRun& run, const EncRun& ref,
                     const std::string& ctx) {
  EXPECT_TRUE(run.out == ref.out) << ctx;
  ASSERT_EQ(run.grads.size(), ref.grads.size()) << ctx;
  for (std::size_t i = 0; i < ref.grads.size(); ++i) {
    EXPECT_TRUE(run.grads[i] == ref.grads[i]) << "parameter " << i << " "
                                              << ctx;
  }
}

/// A copy of `gt` with every edge removed (self loops of the attention
/// layers kept).
GraphTensors without_edges(GraphTensors gt) {
  const int n = gt.num_nodes;
  gt.src = gt.dst = SegmentIndex({}, n);
  gt.gcn_coeff.clear();
  std::vector<int> self(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) self[static_cast<std::size_t>(i)] = i;
  gt.src_self = gt.dst_self = SegmentIndex(std::move(self), n);
  gt.group_relations({});
  return gt;
}

TEST_P(EncoderInvarianceTest, BitIdenticalAcrossThreads) {
  const Sample& sample = invariance_sample();
  const Matrix feats =
      InputFeatureBuilder::build(sample.graph(), Approach::kOffTheShelf);

  EncRun ref;
  {
    PoolGuard pool(1);
    ref = run_encoder(GetParam(), sample.tensors, feats);
  }
  for (const int threads : {1, 2, 4, 8}) {
    PoolGuard pool(threads);
    expect_same_run(run_encoder(GetParam(), sample.tensors, feats), ref,
                    "threads=" + std::to_string(threads));
  }
}

TEST_P(EncoderInvarianceTest, EdgelessGraphEncodes) {
  const Sample& sample = invariance_sample();
  const Matrix feats =
      InputFeatureBuilder::build(sample.graph(), Approach::kOffTheShelf);
  const GraphTensors edgeless = without_edges(sample.tensors);
  const EncRun run = run_encoder(GetParam(), edgeless, feats);
  EXPECT_EQ(run.out.rows(), edgeless.num_nodes);
  EXPECT_EQ(run.out.cols(), 8);
  for (std::size_t i = 0; i < run.out.size(); ++i) {
    EXPECT_TRUE(std::isfinite(run.out.data()[i]));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, EncoderInvarianceTest, ::testing::ValuesIn(all_gnn_kinds()),
    [](const ::testing::TestParamInfo<GnnKind>& info) {
      std::string name = gnn_kind_name(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace gnnhls
