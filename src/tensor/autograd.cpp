#include "tensor/autograd.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <unordered_map>

namespace gnnhls {

namespace {

template <class Vars>
bool any_requires_grad(const Vars& vars) {
  return std::any_of(vars.begin(), vars.end(),
                     [](const Var& v) { return v.requires_grad(); });
}

/// Active per-thread gradient redirection (see LeafGradRedirect). One frame
/// per thread, installed/removed by the RAII scope on that same thread.
struct RedirectFrame {
  std::unordered_map<const VarNode*, Matrix*> sinks;
};
thread_local RedirectFrame* tl_redirect = nullptr;

/// Destination for gradient accumulation into `n` on this thread: the
/// redirected sink if one is registered, otherwise the node's own grad.
/// Backprop lambdas hoist this lookup out of their element loops.
Matrix& sink(VarNode& n) {
  if (tl_redirect != nullptr) {
    const auto it = tl_redirect->sinks.find(&n);
    if (it != tl_redirect->sinks.end()) return *it->second;
  }
  return n.grad;
}

Matrix& sink_of(const Var& v) { return sink(*v.node()); }

/// The one accumulation rule of the reverse sweep: the first contribution
/// to a sink becomes its buffer (moved in); later contributions are added
/// in place.
void accumulate(const Var& v, Matrix&& contribution) {
  Matrix& s = sink_of(v);
  if (s.empty()) {
    s = std::move(contribution);
  } else {
    s.add_inplace(contribution);
  }
}

/// Hands a node's own grad g to parent v: a copy while `keep` (another
/// parent still reads g), g itself otherwise.
void pass_down(const Var& v, Matrix& g, bool keep) {
  accumulate(v, keep ? Matrix(g) : std::move(g));
}

/// v's sink, zero-filled to v's shape if nothing has reached it yet: for
/// kernels that scatter or reduce into the sink element by element.
Matrix& zeroed_sink(const Var& v) {
  Matrix& s = sink_of(v);
  if (s.empty()) s = Matrix::zeros(v.rows(), v.cols());
  return s;
}

void scale_inplace(Matrix& m, float alpha) {
  float* __restrict d = m.data();
  const std::size_t size = m.size();
  for (std::size_t i = 0; i < size; ++i) d[i] *= alpha;
}

/// m[i,:] *= coeff[i].
void scale_rows_inplace(Matrix& m, const std::vector<float>& coeff) {
  const int cols = m.cols();
  for (int i = 0; i < m.rows(); ++i) {
    const float c = coeff[static_cast<std::size_t>(i)];
    float* __restrict row = m.row_ptr(i);
    // vectorize: scale_rows
    for (int j = 0; j < cols; ++j) row[j] *= c;
  }
}

/// m[i] *= (x[i] > 0 ? 1 : slope). Selecting a constant and multiplying
/// vectorizes; a conditional multiply (or a select over x[i] * slope) does
/// not under the default -ftrapping-math.
void leaky_relu_scale(Matrix& m, const Matrix& x, float slope) {
  float* __restrict d = m.data();
  const float* __restrict xs = x.data();
  const std::size_t size = m.size();
  // vectorize: leaky_relu
  for (std::size_t i = 0; i < size; ++i) {
    const float k = xs[i] > 0.0F ? 1.0F : slope;
    d[i] *= k;
  }
}

/// m[i] *= x[i] over the whole (same-shaped) matrix.
void mul_inplace(Matrix& m, const Matrix& x) {
  float* __restrict d = m.data();
  const float* __restrict xs = x.data();
  const std::size_t size = m.size();
  for (std::size_t i = 0; i < size; ++i) d[i] *= xs[i];
}

}  // namespace

LeafGradRedirect::LeafGradRedirect(const std::vector<Var>& leaves,
                                   std::vector<Matrix>& sinks) {
  GNNHLS_CHECK(tl_redirect == nullptr,
               "LeafGradRedirect: scopes do not nest on a thread");
  // Emptied, not zeroed: a leaf's first contribution in this scope becomes
  // its sink's buffer, and a leaf that receives none keeps none.
  sinks.assign(leaves.size(), Matrix());
  auto frame = std::make_unique<RedirectFrame>();
  frame->sinks.reserve(leaves.size());
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    const Var& leaf = leaves[i];
    GNNHLS_CHECK(leaf.valid(), "LeafGradRedirect: invalid leaf");
    if (!leaf.requires_grad()) continue;
    frame->sinks.emplace(leaf.node(), &sinks[i]);
  }
  tl_redirect = frame.release();
}

LeafGradRedirect::~LeafGradRedirect() {
  delete tl_redirect;
  tl_redirect = nullptr;
}

Var Tape::leaf(Matrix value, bool requires_grad) {
  return Var(&nodes_.emplace_back(std::move(value), requires_grad));
}

Var Tape::record(Matrix value, bool requires_grad, Backprop backprop) {
  VarNode& node = nodes_.emplace_back();
  node.value = std::move(value);
  node.requires_grad = requires_grad;
  if (requires_grad) {
    // Gradient storage is allocated lazily in backward(), so pure inference
    // (predict paths) never pays for gradient buffers.
    node.backprop = std::move(backprop);
  }
  return Var(&node);
}

Var Tape::record(Matrix value, std::initializer_list<Var> inputs,
                 Backprop backprop) {
  return record(std::move(value), any_requires_grad(inputs),
                std::move(backprop));
}

void Tape::backward(const Var& loss) {
  GNNHLS_CHECK(loss.valid() && loss.rows() == 1 && loss.cols() == 1,
               "backward: loss must be a [1,1] Var");
  GNNHLS_CHECK(loss.requires_grad(),
               "backward: loss does not depend on any parameter");
  Matrix& seed = loss.node()->grad;
  if (seed.empty()) seed = Matrix::zeros(1, 1);
  seed(0, 0) += 1.0F;
  for (auto it = nodes_.rbegin(); it != nodes_.rend(); ++it) {
    VarNode& n = *it;
    // An empty grad means no path from the loss reached this node, so its
    // backprop would only add zeros: skip it.
    if (!n.backprop || n.grad.empty()) continue;
    n.backprop(n);
    // The grad is dead once handed down (a backprop may have moved it out
    // or transformed it in place); release it now.
    n.grad = Matrix();
  }
}

// ---------------------------------------------------------------------------
// Dense ops
// ---------------------------------------------------------------------------

Var Tape::matmul(const Var& a, const Var& b) {
  Matrix out = gnnhls::matmul(a.value(), b.value());
  return record(std::move(out), {a, b}, [a, b](VarNode& n) {
    // A product lands in an empty sink as-is; a filled sink keeps
    // product-then-add, so every sum associates as before.
    if (a.requires_grad()) {
      accumulate(a, matmul_transpose_b(n.grad, b.value()));
    }
    if (b.requires_grad()) {
      accumulate(b, matmul_transpose_a(a.value(), n.grad));
    }
  });
}

Var Tape::add(const Var& a, const Var& b) {
  GNNHLS_CHECK(a.value().same_shape(b.value()), "add: shape mismatch");
  Matrix out = a.value();
  out.add_inplace(b.value());
  return record(std::move(out), {a, b}, [a, b](VarNode& n) {
    if (a.requires_grad()) pass_down(a, n.grad, b.requires_grad());
    if (b.requires_grad()) accumulate(b, std::move(n.grad));
  });
}

Var Tape::sub(const Var& a, const Var& b) {
  GNNHLS_CHECK(a.value().same_shape(b.value()), "sub: shape mismatch");
  Matrix out = a.value();
  out.add_scaled_inplace(b.value(), -1.0F);
  return record(std::move(out), {a, b}, [a, b](VarNode& n) {
    if (a.requires_grad()) pass_down(a, n.grad, b.requires_grad());
    if (b.requires_grad()) {
      scale_inplace(n.grad, -1.0F);
      accumulate(b, std::move(n.grad));
    }
  });
}

Var Tape::mul(const Var& a, const Var& b) {
  GNNHLS_CHECK(a.value().same_shape(b.value()), "mul: shape mismatch");
  Matrix out = a.value();
  for (std::size_t i = 0; i < out.size(); ++i) {
    out.data()[i] *= b.value().data()[i];
  }
  return record(std::move(out), {a, b}, [a, b](VarNode& n) {
    // b's contribution (g * a) goes first, on a copy, so n.grad can become
    // a's (g * b) in place. With a == b both are g * a, so the order of the
    // two adds into the shared sink is immaterial.
    if (b.requires_grad()) {
      if (a.requires_grad()) {
        Matrix gb = n.grad;
        mul_inplace(gb, a.value());
        accumulate(b, std::move(gb));
      } else {
        mul_inplace(n.grad, a.value());
        accumulate(b, std::move(n.grad));
      }
    }
    if (a.requires_grad()) {
      mul_inplace(n.grad, b.value());
      accumulate(a, std::move(n.grad));
    }
  });
}

Var Tape::mul_col_broadcast(const Var& a, const Var& b) {
  GNNHLS_CHECK(b.cols() == 1 && b.rows() == a.rows(),
               "mul_col_broadcast: b must be [rows(a),1]");
  Matrix out = a.value();
  for (int i = 0; i < out.rows(); ++i) {
    const float s = b.value()(i, 0);
    float* row = out.row_ptr(i);
    for (int j = 0; j < out.cols(); ++j) row[j] *= s;
  }
  return record(std::move(out), {a, b}, [a, b](VarNode& n) {
    // b's row reduction reads n.grad first; then n.grad becomes a's.
    if (b.requires_grad()) {
      Matrix& gb = zeroed_sink(b);
      for (int i = 0; i < n.grad.rows(); ++i) {
        const float* g = n.grad.row_ptr(i);
        const float* av = a.value().row_ptr(i);
        float acc = 0.0F;
        for (int j = 0; j < n.grad.cols(); ++j) acc += g[j] * av[j];
        gb(i, 0) += acc;
      }
    }
    if (a.requires_grad()) {
      for (int i = 0; i < n.grad.rows(); ++i) {
        const float s = b.value()(i, 0);
        float* g = n.grad.row_ptr(i);
        for (int j = 0; j < n.grad.cols(); ++j) g[j] *= s;
      }
      accumulate(a, std::move(n.grad));
    }
  });
}

Var Tape::add_row_bias(const Var& a, const Var& bias) {
  GNNHLS_CHECK(bias.rows() == 1 && bias.cols() == a.cols(),
               "add_row_bias: bias must be [1,cols(a)]");
  Matrix out = a.value();
  for (int i = 0; i < out.rows(); ++i) {
    float* row = out.row_ptr(i);
    const float* b = bias.value().row_ptr(0);
    for (int j = 0; j < out.cols(); ++j) row[j] += b[j];
  }
  return record(std::move(out), {a, bias}, [a, bias](VarNode& n) {
    // The bias reduction reads n.grad first; then n.grad becomes a's.
    if (bias.requires_grad()) {
      float* gb = zeroed_sink(bias).row_ptr(0);
      for (int i = 0; i < n.grad.rows(); ++i) {
        const float* g = n.grad.row_ptr(i);
        for (int j = 0; j < n.grad.cols(); ++j) gb[j] += g[j];
      }
    }
    if (a.requires_grad()) accumulate(a, std::move(n.grad));
  });
}

Var Tape::affine(const Var& a, float alpha, float beta) {
  Matrix out = a.value();
  for (std::size_t i = 0; i < out.size(); ++i) {
    out.data()[i] = alpha * out.data()[i] + beta;
  }
  return record(std::move(out), {a}, [a, alpha](VarNode& n) {
    if (!a.requires_grad()) return;
    scale_inplace(n.grad, alpha);
    accumulate(a, std::move(n.grad));
  });
}

Var Tape::scale_rows(const Var& a, const std::vector<float>& coeff) {
  GNNHLS_CHECK_EQ(static_cast<int>(coeff.size()), a.rows(),
                  "scale_rows: one coefficient per row required");
  Matrix out = a.value();
  scale_rows_inplace(out, coeff);
  return record(std::move(out), {a}, [a, coeff](VarNode& n) {
    if (!a.requires_grad()) return;
    scale_rows_inplace(n.grad, coeff);
    accumulate(a, std::move(n.grad));
  });
}

// ---------------------------------------------------------------------------
// Nonlinearities
// ---------------------------------------------------------------------------

Var Tape::relu(const Var& a) { return leaky_relu(a, 0.0F); }

Var Tape::leaky_relu(const Var& a, float slope) {
  // Forward and backward are one multiply by the derivative. At x = ±0 the
  // forward's x * slope is x itself for slope >= 0, so this is the plain
  // "x < 0 ? x * slope : x".
  Matrix out = a.value();
  leaky_relu_scale(out, a.value(), slope);
  return record(std::move(out), {a}, [a, slope](VarNode& n) {
    if (!a.requires_grad()) return;
    leaky_relu_scale(n.grad, a.value(), slope);
    accumulate(a, std::move(n.grad));
  });
}

Var Tape::sigmoid(const Var& a) {
  Matrix out = a.value();
  for (std::size_t i = 0; i < out.size(); ++i) {
    out.data()[i] = 1.0F / (1.0F + std::exp(-out.data()[i]));
  }
  return record(std::move(out), {a}, [a](VarNode& n) {
    if (!a.requires_grad()) return;
    const float* __restrict y = n.value.data();
    float* __restrict g = n.grad.data();
    const std::size_t size = n.grad.size();
    for (std::size_t i = 0; i < size; ++i) g[i] = g[i] * y[i] * (1.0F - y[i]);
    accumulate(a, std::move(n.grad));
  });
}

Var Tape::tanh_act(const Var& a) {
  Matrix out = a.value();
  for (std::size_t i = 0; i < out.size(); ++i) {
    out.data()[i] = std::tanh(out.data()[i]);
  }
  return record(std::move(out), {a}, [a](VarNode& n) {
    if (!a.requires_grad()) return;
    const float* __restrict y = n.value.data();
    float* __restrict g = n.grad.data();
    const std::size_t size = n.grad.size();
    for (std::size_t i = 0; i < size; ++i) g[i] *= 1.0F - y[i] * y[i];
    accumulate(a, std::move(n.grad));
  });
}

Var Tape::sqrt_eps(const Var& a, float eps) {
  GNNHLS_CHECK(eps > 0.0F, "sqrt_eps: eps must be positive");
  Matrix out = a.value();
  for (std::size_t i = 0; i < out.size(); ++i) {
    out.data()[i] = std::sqrt(std::max(out.data()[i], 0.0F) + eps);
  }
  return record(std::move(out), {a}, [a](VarNode& n) {
    if (!a.requires_grad()) return;
    const float* __restrict x = a.value().data();
    const float* __restrict y = n.value.data();
    float* __restrict g = n.grad.data();
    const std::size_t size = n.grad.size();
    for (std::size_t i = 0; i < size; ++i) {
      // d sqrt(max(x,0)+eps)/dx = 1/(2*out) for x>0, 0 for x<0.
      g[i] = x[i] <= 0.0F ? 0.0F : g[i] * 0.5F / y[i];
    }
    accumulate(a, std::move(n.grad));
  });
}

// ---------------------------------------------------------------------------
// Structure ops
// ---------------------------------------------------------------------------

Var Tape::gather_rows(const Var& a, const SegmentIndex& idx) {
  GNNHLS_CHECK_EQ(idx.segments(), a.rows(),
                  "gather_rows: index segments must match input rows");
  Matrix out(idx.size(), a.cols());
  gather_rows_into(a.value(), idx.ids(), out);
  return record(std::move(out), {a}, [a, idx](VarNode& n) {
    if (!a.requires_grad()) return;
    // Backward of a gather is a scatter-add: grads from every output row
    // that read source row r accumulate into ga[r], in ascending output-row
    // order (the fixed-order partition reduction rule).
    scatter_add_rows_into(n.grad, idx.partition(), zeroed_sink(a));
  });
}

Var Tape::scatter_add_rows(const Var& a, const SegmentIndex& idx) {
  GNNHLS_CHECK_EQ(idx.size(), a.rows(),
                  "scatter_add_rows: one index per row required");
  Matrix out(idx.segments(), a.cols());
  scatter_add_rows_into(a.value(), idx.partition(), out);
  return record(std::move(out), {a}, [a, idx](VarNode& n) {
    if (!a.requires_grad()) return;
    // Backward of a scatter-add is a gather-add: row-parallel, each input
    // row reads exactly one upstream row.
    gather_add_rows_into(n.grad, idx.ids(), zeroed_sink(a));
  });
}

Var Tape::segment_mean(const Var& a, const SegmentIndex& idx) {
  Var summed = scatter_add_rows(a, idx);
  std::vector<float> inv(static_cast<std::size_t>(idx.segments()));
  for (int s = 0; s < idx.segments(); ++s) {
    const int c = idx.partition().count(s);
    inv[static_cast<std::size_t>(s)] =
        c > 0 ? 1.0F / static_cast<float>(c) : 0.0F;
  }
  return scale_rows(summed, inv);
}

namespace {

/// Shared forward of segment_max / segment_min.
/// sign = +1 for max, -1 for min. Empty segments produce 0.
Matrix segment_extreme_forward(const Matrix& a, const SegmentIndex& idx,
                               float sign,
                               std::vector<int>& arg /*segments*cols*/) {
  GNNHLS_CHECK_EQ(idx.size(), a.rows(),
                  "segment_max/min: one index per row required");
  Matrix out(idx.segments(), a.cols());
  arg.assign(static_cast<std::size_t>(idx.segments()) * a.cols(), -1);
  for (int i = 0; i < idx.size(); ++i) {
    const int s = idx[static_cast<std::size_t>(i)];
    const float* src = a.row_ptr(i);
    for (int j = 0; j < a.cols(); ++j) {
      int& slot = arg[static_cast<std::size_t>(s) * a.cols() + j];
      if (slot < 0 || sign * src[j] > sign * out(s, j)) {
        out(s, j) = src[j];
        slot = i;
      }
    }
  }
  return out;
}

/// Shared backward of segment_max / segment_min: each output element's
/// grad flows to the input row that won it.
std::function<void(VarNode&)> segment_extreme_backward(
    const Var& a, std::shared_ptr<const std::vector<int>> arg) {
  return [a, arg](VarNode& n) {
    if (!a.requires_grad()) return;
    const int cols = a.cols();
    Matrix& ga = zeroed_sink(a);
    for (int s = 0; s < n.grad.rows(); ++s) {
      for (int j = 0; j < cols; ++j) {
        const int src = (*arg)[static_cast<std::size_t>(s) * cols + j];
        if (src >= 0) ga(src, j) += n.grad(s, j);
      }
    }
  };
}

}  // namespace

Var Tape::segment_max(const Var& a, const SegmentIndex& idx) {
  auto arg = std::make_shared<std::vector<int>>();
  Matrix out = segment_extreme_forward(a.value(), idx, 1.0F, *arg);
  return record(std::move(out), {a},
                segment_extreme_backward(a, std::move(arg)));
}

Var Tape::segment_min(const Var& a, const SegmentIndex& idx) {
  auto arg = std::make_shared<std::vector<int>>();
  Matrix out = segment_extreme_forward(a.value(), idx, -1.0F, *arg);
  return record(std::move(out), {a},
                segment_extreme_backward(a, std::move(arg)));
}

Var Tape::segment_softmax(const Var& a, const SegmentIndex& idx) {
  GNNHLS_CHECK(a.cols() == 1, "segment_softmax: input must be [k,1]");
  GNNHLS_CHECK_EQ(idx.size(), a.rows(),
                  "segment_softmax: one index per row required");
  const std::vector<int>& seg = idx.ids();
  std::vector<float> seg_max(static_cast<std::size_t>(idx.segments()),
                             -std::numeric_limits<float>::infinity());
  for (std::size_t i = 0; i < seg.size(); ++i) {
    seg_max[seg[i]] = std::max(seg_max[seg[i]],
                               a.value()(static_cast<int>(i), 0));
  }
  std::vector<float> seg_sum(static_cast<std::size_t>(idx.segments()), 0.0F);
  Matrix out(a.rows(), 1);
  for (std::size_t i = 0; i < seg.size(); ++i) {
    const float e =
        std::exp(a.value()(static_cast<int>(i), 0) - seg_max[seg[i]]);
    out(static_cast<int>(i), 0) = e;
    seg_sum[seg[i]] += e;
  }
  for (std::size_t i = 0; i < seg.size(); ++i) {
    out(static_cast<int>(i), 0) /= seg_sum[seg[i]];
  }
  return record(std::move(out), {a}, [a, idx](VarNode& n) {
    if (!a.requires_grad()) return;
    // d s_i = y_i * (g_i - sum_{j in seg} g_j y_j)
    const std::vector<int>& seg = idx.ids();
    std::vector<float> dot(static_cast<std::size_t>(idx.segments()), 0.0F);
    for (std::size_t i = 0; i < seg.size(); ++i) {
      dot[seg[i]] +=
          n.grad(static_cast<int>(i), 0) * n.value(static_cast<int>(i), 0);
    }
    for (std::size_t i = 0; i < seg.size(); ++i) {
      const float y = n.value(static_cast<int>(i), 0);
      float& g = n.grad(static_cast<int>(i), 0);
      g = y * (g - dot[seg[i]]);
    }
    accumulate(a, std::move(n.grad));
  });
}

// ---------------------------------------------------------------------------
// Shape ops
// ---------------------------------------------------------------------------

Var Tape::concat_cols(const std::vector<Var>& parts) {
  GNNHLS_CHECK(!parts.empty(), "concat_cols: no inputs");
  const int rows = parts.front().rows();
  int total = 0;
  for (const auto& p : parts) {
    GNNHLS_CHECK_EQ(p.rows(), rows, "concat_cols: row count mismatch");
    total += p.cols();
  }
  Matrix out(rows, total);
  int offset = 0;
  for (const auto& p : parts) {
    for (int i = 0; i < rows; ++i) {
      std::copy(p.value().row_ptr(i), p.value().row_ptr(i) + p.cols(),
                out.row_ptr(i) + offset);
    }
    offset += p.cols();
  }
  return record(std::move(out), any_requires_grad(parts), [parts](VarNode& n) {
    int off = 0;
    for (const auto& p : parts) {
      if (p.requires_grad()) {
        Matrix& gmat = zeroed_sink(p);
        for (int i = 0; i < n.grad.rows(); ++i) {
          const float* g = n.grad.row_ptr(i) + off;
          float* gp = gmat.row_ptr(i);
          for (int j = 0; j < p.cols(); ++j) gp[j] += g[j];
        }
      }
      off += p.cols();
    }
  });
}

Var Tape::slice_cols(const Var& a, int begin, int end) {
  GNNHLS_CHECK(0 <= begin && begin < end && end <= a.cols(),
               "slice_cols: bad range");
  Matrix out(a.rows(), end - begin);
  for (int i = 0; i < a.rows(); ++i) {
    std::copy(a.value().row_ptr(i) + begin, a.value().row_ptr(i) + end,
              out.row_ptr(i));
  }
  return record(std::move(out), {a}, [a, begin](VarNode& n) {
    if (!a.requires_grad()) return;
    Matrix& gmat = zeroed_sink(a);
    for (int i = 0; i < n.grad.rows(); ++i) {
      const float* g = n.grad.row_ptr(i);
      float* ga = gmat.row_ptr(i) + begin;
      for (int j = 0; j < n.grad.cols(); ++j) ga[j] += g[j];
    }
  });
}

Var Tape::sum_rows(const Var& a) {
  Matrix out(1, a.cols());
  for (int i = 0; i < a.rows(); ++i) {
    const float* row = a.value().row_ptr(i);
    for (int j = 0; j < a.cols(); ++j) out(0, j) += row[j];
  }
  return record(std::move(out), {a}, [a](VarNode& n) {
    if (!a.requires_grad()) return;
    Matrix& gmat = zeroed_sink(a);
    for (int i = 0; i < a.rows(); ++i) {
      float* ga = gmat.row_ptr(i);
      const float* g = n.grad.row_ptr(0);
      for (int j = 0; j < n.grad.cols(); ++j) ga[j] += g[j];
    }
  });
}

Var Tape::mean_rows(const Var& a) {
  GNNHLS_CHECK(a.rows() > 0, "mean_rows: empty input");
  return scale(sum_rows(a), 1.0F / static_cast<float>(a.rows()));
}

Var Tape::sum_all(const Var& a) {
  Matrix out(1, 1);
  for (std::size_t i = 0; i < a.value().size(); ++i) {
    out(0, 0) += a.value().data()[i];
  }
  return record(std::move(out), {a}, [a](VarNode& n) {
    if (!a.requires_grad()) return;
    accumulate(a, Matrix(a.rows(), a.cols(), n.grad(0, 0)));
  });
}

Var Tape::repeat_row(const Var& a, int n_rows) {
  GNNHLS_CHECK(a.rows() == 1, "repeat_row: input must be [1,m]");
  Matrix out(n_rows, a.cols());
  for (int i = 0; i < n_rows; ++i) {
    std::copy(a.value().row_ptr(0), a.value().row_ptr(0) + a.cols(),
              out.row_ptr(i));
  }
  return record(std::move(out), {a}, [a](VarNode& n) {
    if (!a.requires_grad()) return;
    float* ga = zeroed_sink(a).row_ptr(0);
    for (int i = 0; i < n.grad.rows(); ++i) {
      const float* g = n.grad.row_ptr(i);
      for (int j = 0; j < n.grad.cols(); ++j) ga[j] += g[j];
    }
  });
}

// ---------------------------------------------------------------------------
// Regularization & losses
// ---------------------------------------------------------------------------

Var Tape::dropout(const Var& a, float p, Rng& rng, bool training) {
  if (!training || p <= 0.0F) return a;
  GNNHLS_CHECK(p < 1.0F, "dropout: p must be < 1");
  const float keep = 1.0F - p;
  std::vector<float> mask(a.value().size());
  for (auto& m : mask) m = rng.bernoulli(keep) ? 1.0F / keep : 0.0F;
  Matrix out = a.value();
  for (std::size_t i = 0; i < out.size(); ++i) out.data()[i] *= mask[i];
  return record(std::move(out), {a}, [a, mask](VarNode& n) {
    if (!a.requires_grad()) return;
    float* __restrict g = n.grad.data();
    const std::size_t size = n.grad.size();
    for (std::size_t i = 0; i < size; ++i) g[i] *= mask[i];
    accumulate(a, std::move(n.grad));
  });
}

Var Tape::mse_loss(const Var& pred, const Matrix& target) {
  GNNHLS_CHECK(pred.value().same_shape(target), "mse_loss: shape mismatch");
  const float inv = 1.0F / static_cast<float>(pred.value().size());
  Matrix out(1, 1);
  for (std::size_t i = 0; i < pred.value().size(); ++i) {
    const float d = pred.value().data()[i] - target.data()[i];
    out(0, 0) += d * d * inv;
  }
  return record(std::move(out), {pred}, [pred, target, inv](VarNode& n) {
    if (!pred.requires_grad()) return;
    const float g = n.grad(0, 0);
    Matrix& gp = zeroed_sink(pred);
    for (std::size_t i = 0; i < pred.value().size(); ++i) {
      const float d = pred.value().data()[i] - target.data()[i];
      gp.data()[i] += 2.0F * d * inv * g;
    }
  });
}

Var Tape::bce_with_logits_loss(const Var& logits, const Matrix& targets) {
  GNNHLS_CHECK(logits.value().same_shape(targets),
               "bce_with_logits_loss: shape mismatch");
  const float inv = 1.0F / static_cast<float>(logits.value().size());
  Matrix out(1, 1);
  for (std::size_t i = 0; i < logits.value().size(); ++i) {
    const float x = logits.value().data()[i];
    const float z = targets.data()[i];
    // max(x,0) - x*z + log(1+exp(-|x|))  (numerically stable form)
    out(0, 0) += (std::max(x, 0.0F) - x * z +
                  std::log1p(std::exp(-std::abs(x)))) *
                 inv;
  }
  return record(std::move(out), {logits}, [logits, targets, inv](VarNode& n) {
    if (!logits.requires_grad()) return;
    const float g = n.grad(0, 0);
    Matrix& gl = zeroed_sink(logits);
    for (std::size_t i = 0; i < logits.value().size(); ++i) {
      const float x = logits.value().data()[i];
      const float z = targets.data()[i];
      const float sig = 1.0F / (1.0F + std::exp(-x));
      gl.data()[i] += (sig - z) * inv * g;
    }
  });
}

}  // namespace gnnhls
