// The message-passing path: gather -> (scale | matmul) -> scatter
// compositions are bit-identical at every thread-pool width on adversarial
// edge layouts (power-law hub, empty segments, single node) and match
// finite differences; every encoder's outputs and parameter gradients are
// independent of the pool width, and every encoder handles an edgeless
// graph.
#include <cmath>
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
