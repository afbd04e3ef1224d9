#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "grad_check.h"
#include "nn/adam.h"
#include "tensor/autograd.h"
#include "tensor/matrix.h"
#include "tensor/matrix_kernels.h"

namespace gnnhls {
namespace {

using testing::expect_gradient_matches;

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

// ----- Matrix basics -----

TEST(MatrixTest, MatmulMatchesHandComputation) {
  Matrix a(2, 3);
  a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
  a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
  Matrix b(3, 2);
  b(0, 0) = 7; b(0, 1) = 8;
  b(1, 0) = 9; b(1, 1) = 10;
  b(2, 0) = 11; b(2, 1) = 12;
  const Matrix c = matmul(a, b);
  EXPECT_FLOAT_EQ(c(0, 0), 58);
  EXPECT_FLOAT_EQ(c(0, 1), 64);
  EXPECT_FLOAT_EQ(c(1, 0), 139);
  EXPECT_FLOAT_EQ(c(1, 1), 154);
}

TEST(MatrixTest, TransposedMatmulsAgreeWithPlain) {
  Rng rng(3);
  const Matrix a = Matrix::randn(4, 5, rng);
  const Matrix b = Matrix::randn(4, 6, rng);
  // a^T * b via matmul_transpose_a == transpose(a) * b
  Matrix at(5, 4);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 5; ++j) at(j, i) = a(i, j);
  }
  const Matrix direct = matmul(at, b);
  const Matrix fused = matmul_transpose_a(a, b);
  ASSERT_TRUE(direct.same_shape(fused));
  for (int i = 0; i < direct.rows(); ++i) {
    for (int j = 0; j < direct.cols(); ++j) {
      EXPECT_NEAR(direct(i, j), fused(i, j), 1e-5);
    }
  }
}

/// Whether rows `r` of x and y hold the same bits.
bool same_row_bits(const Matrix& x, const Matrix& y, int r) {
  return std::memcmp(x.row_ptr(r), y.row_ptr(r),
                     static_cast<std::size_t>(x.cols()) * sizeof(float)) == 0;
}

TEST(MatrixTest, ZeroTermsSkipNonFiniteOperands) {
  // Row 1 of b holds inf and NaN. Row 0 of a meets it with a zero, row 1
  // with a nonzero. The kernels skip every a[i][k] == 0 term, so row 0 sums
  // only its other terms (as if those b entries were 0) where the reference
  // computes 0 * inf = NaN; row 1 matches the reference bit for bit.
  Matrix a = make_test_matrix(2, 3);
  a(0, 1) = 0.0F;
  a(1, 1) = 2.0F;
  Matrix b = make_test_matrix(3, 4);
  b(1, 0) = INFINITY;
  b(1, 2) = NAN;
  Matrix b_zeroed = b;
  b_zeroed(1, 0) = 0.0F;
  b_zeroed(1, 2) = 0.0F;
  const Matrix ref = matmul_reference(a, b);
  const Matrix skipped = matmul_reference(a, b_zeroed);
  ASSERT_TRUE(std::isnan(ref(0, 0)));
  ASSERT_TRUE(std::isinf(ref(1, 0)));
  ASSERT_TRUE(std::isnan(ref(1, 2)));
  Matrix at(3, 2);  // a^T, for matmul_transpose_a
  Matrix bt(4, 3);  // b^T, for matmul_transpose_b
  for (int k = 0; k < 3; ++k) {
    for (int i = 0; i < 2; ++i) at(k, i) = a(i, k);
    for (int j = 0; j < 4; ++j) bt(j, k) = b(k, j);
  }
  const Matrix ref_tb = matmul_transpose_b_reference(a, bt);
  for (KernelIsa isa : {KernelIsa::kPortable, KernelIsa::kAvx2}) {
    if (!kernel_isa_available(isa)) continue;
    const Matrix outs[] = {matmul_isa(isa, a, b),
                           matmul_transpose_a_isa(isa, at, b),
                           matmul_transpose_b_isa(isa, a, bt)};
    for (const Matrix& out : outs) {
      EXPECT_TRUE(same_row_bits(out, skipped, 0)) << kernel_isa_name(isa);
      EXPECT_TRUE(same_row_bits(out, ref, 1)) << kernel_isa_name(isa);
    }
    EXPECT_TRUE(same_row_bits(outs[2], ref_tb, 1)) << kernel_isa_name(isa);
  }
}

TEST(MatrixTest, ShapeMismatchThrows) {
  Matrix a(2, 3), b(2, 3);
  EXPECT_THROW(matmul(a, b), std::invalid_argument);
  Matrix c(2, 2);
  EXPECT_THROW(c.add_inplace(a), std::invalid_argument);
  // The dimension check runs before any storage is sized.
  EXPECT_THROW(Matrix(-1, 3), std::invalid_argument);
  EXPECT_THROW(Matrix(2, -4), std::invalid_argument);
}

// ----- forward values -----

TEST(AutogradTest, ReluForward) {
  Tape tape;
  Matrix m(1, 4);
  m(0, 0) = -2; m(0, 1) = -0.5; m(0, 2) = 0; m(0, 3) = 3;
  const Var y = tape.relu(tape.leaf(m));
  EXPECT_FLOAT_EQ(y.value()(0, 0), 0);
  EXPECT_FLOAT_EQ(y.value()(0, 3), 3);
}

TEST(AutogradTest, SigmoidForwardRange) {
  Tape tape;
  const Var y = tape.sigmoid(tape.leaf(make_test_matrix(3, 3, 4.0F)));
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_GT(y.value()(i, j), 0.0F);
      EXPECT_LT(y.value()(i, j), 1.0F);
    }
  }
}

TEST(AutogradTest, GatherScatterRoundTrip) {
  Tape tape;
  const Var x = tape.leaf(make_test_matrix(4, 3));
  const SegmentIndex idx({2, 0, 2, 3}, 4);
  const Var g = tape.gather_rows(x, idx);
  ASSERT_EQ(g.rows(), 4);
  EXPECT_FLOAT_EQ(g.value()(0, 1), x.value()(2, 1));
  const Var s = tape.scatter_add_rows(g, idx);
  // Row 2 was gathered twice, so it comes back doubled.
  EXPECT_FLOAT_EQ(s.value()(2, 0), 2.0F * x.value()(2, 0));
  EXPECT_FLOAT_EQ(s.value()(1, 0), 0.0F);  // never targeted
}

TEST(AutogradTest, SegmentMeanHandlesEmptySegments) {
  Tape tape;
  const Var x = tape.leaf(make_test_matrix(3, 2));
  const Var m = tape.segment_mean(x, SegmentIndex({0, 0, 2}, 3));
  EXPECT_FLOAT_EQ(m.value()(0, 0),
                  0.5F * (x.value()(0, 0) + x.value()(1, 0)));
  EXPECT_FLOAT_EQ(m.value()(1, 0), 0.0F);  // empty segment
  EXPECT_FLOAT_EQ(m.value()(2, 1), x.value()(2, 1));
}

TEST(AutogradTest, SegmentMaxMinForward) {
  Tape tape;
  Matrix m(4, 1);
  m(0, 0) = 1; m(1, 0) = 5; m(2, 0) = -3; m(3, 0) = 2;
  const Var x = tape.leaf(m);
  const SegmentIndex seg({0, 0, 1, 1}, 2);
  EXPECT_FLOAT_EQ(tape.segment_max(x, seg).value()(0, 0), 5);
  EXPECT_FLOAT_EQ(tape.segment_max(x, seg).value()(1, 0), 2);
  EXPECT_FLOAT_EQ(tape.segment_min(x, seg).value()(0, 0), 1);
  EXPECT_FLOAT_EQ(tape.segment_min(x, seg).value()(1, 0), -3);
}

TEST(AutogradTest, SegmentSoftmaxSumsToOnePerSegment) {
  Tape tape;
  const Var x = tape.leaf(make_test_matrix(5, 1, 2.0F));
  const Var y = tape.segment_softmax(x, SegmentIndex({0, 0, 0, 1, 1}, 2));
  EXPECT_NEAR(y.value()(0, 0) + y.value()(1, 0) + y.value()(2, 0), 1.0F, 1e-5);
  EXPECT_NEAR(y.value()(3, 0) + y.value()(4, 0), 1.0F, 1e-5);
}

TEST(AutogradTest, ConcatSliceInverse) {
  Tape tape;
  const Var a = tape.leaf(make_test_matrix(3, 2));
  const Var b = tape.leaf(make_test_matrix(3, 4, 2.0F));
  const Var cat = tape.concat_cols({a, b});
  ASSERT_EQ(cat.cols(), 6);
  const Var back = tape.slice_cols(cat, 2, 6);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 4; ++j) {
      EXPECT_FLOAT_EQ(back.value()(i, j), b.value()(i, j));
    }
  }
}

TEST(AutogradTest, BackwardRequiresScalarLoss) {
  Tape tape;
  const Var x = tape.leaf(make_test_matrix(2, 2), true);
  const Var y = tape.relu(x);
  EXPECT_THROW(tape.backward(y), std::invalid_argument);
}

TEST(AutogradTest, BackwardOnConstantThrows) {
  Tape tape;
  const Var x = tape.leaf(make_test_matrix(2, 2), false);
  const Var loss = tape.sum_all(x);
  EXPECT_THROW(tape.backward(loss), std::invalid_argument);
}

TEST(AutogradTest, GradientAccumulatesAcrossTapes) {
  const Parameter p("p", Matrix(1, 1, 2.0F));
  for (int pass = 0; pass < 3; ++pass) {
    Tape tape;
    tape.backward(tape.scale(p.var(), 1.0F));
  }
  EXPECT_FLOAT_EQ(p.var().grad()(0, 0), 3.0F);
}

// ----- node ownership: a Var is a handle into its owner -----

TEST(NodeOwnershipTest, ParameterVarsSurviveVectorReallocation) {
  // Moving a Parameter must not move its node: Vars taken before the
  // vector reallocates still read the values and route the gradients.
  std::vector<Parameter> params;
  std::vector<Var> vars;
  params.emplace_back("p0", Matrix(2, 3, 1.0F));
  vars.push_back(params.back().var());
  const std::size_t first_capacity = params.capacity();
  for (int i = 1; i < 9; ++i) {
    params.emplace_back("p" + std::to_string(i),
                        Matrix(2, 3, static_cast<float>(i + 1)));
    vars.push_back(params.back().var());
  }
  ASSERT_GT(params.capacity(), first_capacity) << "never reallocated";
  Tape tape;
  Var loss = tape.scale(tape.sum_all(vars[0]), 1.0F);
  for (std::size_t i = 1; i < vars.size(); ++i) {
    EXPECT_EQ(vars[i].value()(1, 2), static_cast<float>(i + 1));
    const float weight = static_cast<float>(i + 1);
    loss = tape.add(loss, tape.scale(tape.sum_all(vars[i]), weight));
  }
  tape.backward(loss);
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_EQ(vars[i].node(), params[i].var().node()) << i;
    const Matrix& g = params[i].var().grad();
    for (std::size_t k = 0; k < g.size(); ++k) {
      EXPECT_EQ(g.data()[k], static_cast<float>(i + 1)) << i;
    }
  }
}

TEST(NodeOwnershipTest, LongTapeBackpropsToParameter) {
  // x_{k+1} = 1 * x_k + w over n steps gives x_n = (n + 1) w, so every
  // entry of dsum(x_n)/dw is n + 1 (exact in float). Thousands of nodes
  // recorded after x_0 must not move the nodes the early Vars point at.
  const Parameter w("w", make_test_matrix(2, 3));
  const int n = 5001;
  Tape tape;
  Var x = w.var();
  for (int k = 0; k < n; ++k) x = tape.add(tape.scale(x, 1.0F), w.var());
  ASSERT_GT(tape.size(), 10000U);
  tape.backward(tape.sum_all(x));
  const Matrix& g = w.var().grad();
  for (std::size_t k = 0; k < g.size(); ++k) {
    EXPECT_EQ(g.data()[k], static_cast<float>(n + 1)) << k;
  }
}

// ----- lazy backward: accumulation order, dead branches, redirect -----

TEST(LazyBackwardTest, VarUsedTwiceByOneOp) {
  // x is an op node, so its first contribution is moved into an empty grad
  // and the second is added: add(x, x) must give 2, mul(x, x) 2x per entry
  // (through y = 3 * w, so 6 and 18w at the leaf).
  const Matrix w0 = make_test_matrix(2, 3);
  Parameter wp("w", w0);
  const Var w = wp.var();
  {
    Tape tape;
    const Var x = tape.scale(w, 3.0F);
    tape.backward(tape.sum_all(tape.add(x, x)));
  }
  for (std::size_t i = 0; i < w0.size(); ++i) {
    EXPECT_FLOAT_EQ(w.grad().data()[i], 6.0F);
  }
  wp.zero_grad();
  {
    Tape tape;
    const Var x = tape.scale(w, 3.0F);
    tape.backward(tape.sum_all(tape.mul(x, x)));
  }
  for (std::size_t i = 0; i < w0.size(); ++i) {
    EXPECT_FLOAT_EQ(w.grad().data()[i], 18.0F * w0.data()[i]);
  }
}

TEST(LazyBackwardTest, VarUsedTwiceByOneOpUnderRedirect) {
  // Redirected sinks start empty, so the leaf itself takes the move-in path.
  const Matrix w0 = make_test_matrix(2, 3);
  const Parameter wp("w", w0);
  const Var w = wp.var();
  std::vector<Matrix> sinks;
  {
    LeafGradRedirect redirect({w}, sinks);
    Tape tape;
    tape.backward(tape.sum_all(tape.mul(w, w)));
  }
  ASSERT_TRUE(sinks[0].same_shape(w0));
  for (std::size_t i = 0; i < w0.size(); ++i) {
    EXPECT_FLOAT_EQ(sinks[0].data()[i], 2.0F * w0.data()[i]);
  }
  {
    LeafGradRedirect redirect({w}, sinks);
    Tape tape;
    tape.backward(tape.sum_all(tape.add(w, w)));
  }
  for (std::size_t i = 0; i < w0.size(); ++i) {
    EXPECT_FLOAT_EQ(sinks[0].data()[i], 2.0F);
  }
  EXPECT_EQ(w.grad().squared_norm(), 0.0);
}

TEST(LazyBackwardTest, ElementwiseAndMatmulShareAnInput) {
  // loss = sum(relu(y) + y W) with y = 2x: add() copies its grad to the
  // relu branch and moves it to the matmul, and y's grad collects both.
  // dL/dy[i,k] = [y > 0] + sum_j W[k,j], so dL/dx = 2 * that.
  Matrix x0(2, 2);
  x0(0, 0) = 1.0F; x0(0, 1) = -2.0F;
  x0(1, 0) = -0.5F; x0(1, 1) = 3.0F;
  Matrix w0(2, 2);
  w0(0, 0) = 0.5F; w0(0, 1) = -1.0F;
  w0(1, 0) = 2.0F; w0(1, 1) = 0.25F;
  const Parameter xp("x", x0);
  const Var x = xp.var();
  Tape tape;
  const Var y = tape.scale(x, 2.0F);
  const Var w = tape.leaf(w0);
  tape.backward(
      tape.sum_all(tape.add(tape.relu(y), tape.matmul(y, w))));
  const float row_sum[2] = {0.5F - 1.0F, 2.0F + 0.25F};
  for (int i = 0; i < 2; ++i) {
    for (int k = 0; k < 2; ++k) {
      const float relu_grad = x0(i, k) > 0.0F ? 1.0F : 0.0F;
      EXPECT_FLOAT_EQ(x.grad()(i, k), 2.0F * (relu_grad + row_sum[k]))
          << i << "," << k;
    }
  }
}

TEST(LazyBackwardTest, DeadBranchIsNotBackpropagated) {
  // A branch that never reaches the loss gets no grad, so its backprop
  // never runs: a NaN in it cannot leak into its inputs' grads (a sweep
  // that pushed zeros through it would compute 0 * NaN).
  const Parameter live_p("live", make_test_matrix(2, 2));
  const Parameter dead_p("dead_in", make_test_matrix(2, 2));
  const Var live = live_p.var();
  const Var dead_in = dead_p.var();
  Tape tape;
  const Var nan = tape.leaf(Matrix(2, 2, std::nanf("")));
  const Var dead = tape.mul(tape.sigmoid(dead_in), nan);
  (void)tape.matmul(dead, live);
  tape.backward(tape.sum_all(tape.mul(live, live)));
  EXPECT_EQ(dead_in.grad().squared_norm(), 0.0);
  for (std::size_t i = 0; i < live.value().size(); ++i) {
    EXPECT_FLOAT_EQ(live.grad().data()[i], 2.0F * live.value().data()[i]);
  }
}

TEST(LazyBackwardTest, RedirectLeavesUnreachedSinksEmpty) {
  Parameter used("used", make_test_matrix(2, 3));
  Parameter unused("unused", make_test_matrix(3, 1, 0.5F));
  const std::vector<Var> leaves = {used.var(), unused.var()};
  Adam opt({&used, &unused}, AdamConfig{});
  std::vector<Matrix> sinks(2, Matrix(3, 3, 7.0F));  // stale contents

  const auto run_scope = [&] {
    LeafGradRedirect redirect(leaves, sinks);
    Tape tape;
    const Var y = tape.tanh_act(used.var());
    tape.backward(tape.sum_all(tape.mul(y, y)));
  };
  run_scope();
  ASSERT_EQ(sinks.size(), 2U);
  ASSERT_TRUE(sinks[0].same_shape(used.value()));
  EXPECT_TRUE(sinks[1].empty());
  const Matrix first = sinks[0];

  // Adam::accumulate skips the empty sink: unused's grad stays zero.
  opt.accumulate(sinks);
  EXPECT_TRUE(used.var().grad() == first);
  EXPECT_EQ(unused.var().grad().squared_norm(), 0.0);

  // A second scope over the same sinks starts from empty again.
  run_scope();
  EXPECT_TRUE(sinks[0] == first);
  EXPECT_TRUE(sinks[1].empty());
}

// ----- gradient checks (parameterized over op) -----

struct GradCase {
  std::string name;
  std::function<Var(Tape&, const Var&)> fn;
};

class GradCheckTest : public ::testing::TestWithParam<GradCase> {};

TEST_P(GradCheckTest, MatchesFiniteDifference) {
  expect_gradient_matches(make_test_matrix(4, 3), GetParam().fn);
}

const SegmentIndex kIdx({1, 0, 3, 1, 2}, 4);
const SegmentIndex kSeg({0, 0, 1, 2, 2}, 3);

INSTANTIATE_TEST_SUITE_P(
    Ops, GradCheckTest,
    ::testing::Values(
        GradCase{"relu",
                 [](Tape& t, const Var& x) { return t.sum_all(t.relu(x)); }},
        GradCase{"leaky_relu",
                 [](Tape& t, const Var& x) {
                   return t.sum_all(t.leaky_relu(x, 0.1F));
                 }},
        GradCase{"sigmoid",
                 [](Tape& t, const Var& x) {
                   return t.sum_all(t.sigmoid(x));
                 }},
        GradCase{"tanh",
                 [](Tape& t, const Var& x) {
                   return t.sum_all(t.tanh_act(x));
                 }},
        GradCase{"affine",
                 [](Tape& t, const Var& x) {
                   return t.sum_all(t.affine(x, 1.7F, -0.3F));
                 }},
        GradCase{"mul_self",
                 [](Tape& t, const Var& x) { return t.sum_all(t.mul(x, x)); }},
        GradCase{"add_sub_shared",
                 [](Tape& t, const Var& x) {
                   const Var y = t.tanh_act(x);
                   const Var d = t.sub(t.add(y, y), t.scale(y, 0.5F));
                   return t.sum_all(t.mul(d, y));
                 }},
        GradCase{"sub_self",
                 [](Tape& t, const Var& x) {
                   const Var y = t.sigmoid(x);
                   return t.sum_all(t.mul(t.sub(y, y), x));
                 }},
        GradCase{"add_row_bias",
                 [](Tape& t, const Var& x) {
                   return t.sum_all(t.mul(t.add_row_bias(x, t.mean_rows(x)),
                                          x));
                 }},
        GradCase{"scale_rows",
                 [](Tape& t, const Var& x) {
                   const Var y =
                       t.scale_rows(x, {0.5F, -1.0F, 2.0F, 0.0F});
                   return t.sum_all(t.mul(y, x));
                 }},
        GradCase{"dropout",
                 [](Tape& t, const Var& x) {
                   Rng rng(3);
                   return t.sum_all(t.mul(t.dropout(x, 0.5F, rng, true), x));
                 }},
        GradCase{"elementwise_and_matmul",
                 [](Tape& t, const Var& x) {
                   Matrix w(3, 3);
                   for (int i = 0; i < 3; ++i)
                     for (int j = 0; j < 3; ++j)
                       w(i, j) = 0.3F * static_cast<float>(i - 2 * j);
                   const Var y = t.sigmoid(x);
                   const Var m = t.matmul(y, t.leaf(w));
                   return t.sum_all(t.mul(t.add(t.leaky_relu(y, 0.1F), m), y));
                 }},
        GradCase{"matmul",
                 [](Tape& t, const Var& x) {
                   Tape& tape = t;
                   Matrix w(3, 2);
                   for (int i = 0; i < 3; ++i)
                     for (int j = 0; j < 2; ++j)
                       w(i, j) = 0.2F * static_cast<float>(i - j);
                   return tape.sum_all(tape.matmul(x, tape.leaf(w)));
                 }},
        GradCase{"gather",
                 [](Tape& t, const Var& x) {
                   return t.sum_all(t.mul(t.gather_rows(x, kIdx),
                                          t.gather_rows(x, kIdx)));
                 }},
        GradCase{"scatter_add",
                 [](Tape& t, const Var& x) {
                   const Var g = t.gather_rows(x, kIdx);
                   const Var s = t.scatter_add_rows(g, kSeg);
                   return t.sum_all(t.mul(s, s));
                 }},
        GradCase{"segment_mean",
                 [](Tape& t, const Var& x) {
                   const Var g = t.gather_rows(x, kIdx);
                   const Var s = t.segment_mean(g, kSeg);
                   return t.sum_all(t.mul(s, s));
                 }},
        GradCase{"segment_max",
                 [](Tape& t, const Var& x) {
                   const Var g = t.gather_rows(x, kIdx);
                   return t.sum_all(t.segment_max(g, kSeg));
                 }},
        GradCase{"segment_min",
                 [](Tape& t, const Var& x) {
                   const Var g = t.gather_rows(x, kIdx);
                   return t.sum_all(t.segment_min(g, kSeg));
                 }},
        GradCase{"concat_slice",
                 [](Tape& t, const Var& x) {
                   const Var c = t.concat_cols({x, x});
                   return t.sum_all(t.mul(t.slice_cols(c, 1, 4),
                                          t.slice_cols(c, 2, 5)));
                 }},
        GradCase{"sum_rows_repeat",
                 [](Tape& t, const Var& x) {
                   const Var s = t.mean_rows(x);
                   const Var r = t.repeat_row(s, 4);
                   return t.sum_all(t.mul(r, x));
                 }},
        GradCase{"mul_col_broadcast",
                 [](Tape& t, const Var& x) {
                   const Var col = t.slice_cols(x, 0, 1);
                   return t.sum_all(t.mul_col_broadcast(x, col));
                 }},
        GradCase{"sqrt_eps",
                 [](Tape& t, const Var& x) {
                   return t.sum_all(t.sqrt_eps(t.mul(x, x), 1e-3F));
                 }},
        GradCase{"mse",
                 [](Tape& t, const Var& x) {
                   Matrix target(4, 3, 0.25F);
                   return t.mse_loss(x, target);
                 }},
        GradCase{"bce_logits",
                 [](Tape& t, const Var& x) {
                   Matrix target(4, 3, 1.0F);
                   return t.bce_with_logits_loss(x, target);
                 }},
        GradCase{"segment_softmax",
                 [](Tape& t, const Var& x) {
                   const Var col = t.slice_cols(x, 0, 1);
                   const Var g = t.gather_rows(col, kIdx);
                   const Var sm = t.segment_softmax(g, kSeg);
                   const Var weighted =
                       t.mul_col_broadcast(t.gather_rows(x, kIdx), sm);
                   return t.sum_all(t.mul(weighted, weighted));
                 }}),
    [](const ::testing::TestParamInfo<GradCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace gnnhls
