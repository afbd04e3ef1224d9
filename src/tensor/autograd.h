// Reverse-mode automatic differentiation over dense matrices.
//
// A Tape records every operation in creation order (which is a topological
// order, since an op can only consume previously created Vars); backward()
// walks it in reverse. Parameters (nn/module.h) are persistent leaves owned
// by nn modules — their gradients accumulate across forward passes until
// the optimizer zeroes them, so minibatching over graphs is a plain
// gradient-accumulation loop.
//
// Ownership: every VarNode has exactly one owner. A Tape owns the nodes it
// records and its leaf()s, at stable addresses, and frees them all when it
// is destroyed; a Parameter owns its persistent node. A Var is a plain,
// trivially copyable handle (a VarNode pointer) and owns nothing: a Var is
// valid while the Tape that recorded it, or the Parameter that owns it, is
// alive. Parameter is the one way to build a leaf that outlives a tape.
// A backprop reaches its inputs through the Var handles it captured, so
// nodes keep no parent edges.
//
// Graph structure enters through four index-based ops: gather_rows (edge
// source lookup), scatter_add_rows (message aggregation), the segment_*
// reductions (per-destination mean/max/min) and segment_softmax (attention),
// each indexed by a SegmentIndex (tensor/segment_ops.h).
// Everything a GNN layer needs is a composition of these and the dense ops.
//
// Gradients are lazy. backward() allocates nothing up front: the first
// contribution to a node's gradient becomes its buffer (a matmul product is
// moved in, an elementwise op hands its own gradient down after
// transforming it in place), later contributions are added in place, and a
// node no contribution reaches is skipped. Compared with summing into
// zero-filled buffers, a moved-in first contribution x differs from 0 + x
// only when x is -0 (0 + -0 is +0). Matrix::operator== compares floats, so
// it treats the two zeros as equal, and no nonzero value depends on the
// difference.
#pragma once

#include <deque>
#include <functional>
#include <initializer_list>
#include <type_traits>
#include <vector>

#include "support/rng.h"
#include "tensor/matrix.h"
#include "tensor/segment_ops.h"

namespace gnnhls {

struct VarNode {
  VarNode() = default;
  /// A leaf (a Parameter's node or a Tape::leaf). One that requires grad
  /// holds a zeroed grad from creation.
  VarNode(Matrix v, bool needs_grad)
      : value(std::move(v)), requires_grad(needs_grad) {
    if (requires_grad) grad = Matrix::zeros(value.rows(), value.cols());
  }

  Matrix value;
  /// Leaves that require grad hold it from creation. An op node's grad
  /// exists only during backward(), from its first contribution until its
  /// backprop has run; after backward() it is unspecified.
  Matrix grad;
  bool requires_grad = false;
  /// Hands this node's grad down into its inputs' grads; may consume it.
  std::function<void(VarNode&)> backprop;
};

/// Non-owning handle to a VarNode (see the file comment for its lifetime).
class Var {
 public:
  Var() = default;
  explicit Var(VarNode* node) : node_(node) {}

  bool valid() const { return node_ != nullptr; }
  const Matrix& value() const { return node_->value; }
  const Matrix& grad() const { return node_->grad; }
  bool requires_grad() const { return node_->requires_grad; }
  int rows() const { return node_->value.rows(); }
  int cols() const { return node_->value.cols(); }
  VarNode* node() const { return node_; }

 private:
  VarNode* node_ = nullptr;
};
static_assert(std::is_trivially_copyable_v<Var>);

/// RAII scope that redirects gradient accumulation for the given persistent
/// leaves (parameters) into caller-owned buffers on the *current thread*.
/// While active, any backward() run on this thread adds the listed leaves'
/// gradients into sinks[i] instead of leaves[i].grad; other threads are
/// untouched, so concurrent per-shard tapes over shared parameters never
/// race on the shared grad matrices. The constructor empties the sinks
/// (sinks.size() becomes leaves.size()): a leaf's first contribution
/// becomes its sink's buffer, and a leaf that receives none (or does not
/// require grad) leaves its sink empty. Each scope is thus an independent
/// accumulator that the trainer merges in a deterministic order (see
/// Adam::accumulate, which skips empty sinks). Scopes do not nest on a
/// thread; sinks must outlive the scope.
class LeafGradRedirect {
 public:
  LeafGradRedirect(const std::vector<Var>& leaves,
                   std::vector<Matrix>& sinks);
  ~LeafGradRedirect();

  LeafGradRedirect(const LeafGradRedirect&) = delete;
  LeafGradRedirect& operator=(const LeafGradRedirect&) = delete;
};

class Tape {
 public:
  Tape() = default;
  /// Vars point into the tape's nodes: a tape neither copies nor moves.
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  /// Tape-scoped constant/input leaf.
  Var leaf(Matrix value, bool requires_grad = false);

  // ----- dense ops -----
  Var matmul(const Var& a, const Var& b);
  Var add(const Var& a, const Var& b);
  Var sub(const Var& a, const Var& b);
  Var mul(const Var& a, const Var& b);  // elementwise
  /// out[i,j] = a[i,j] * b[i,0]  (column-broadcast multiply).
  Var mul_col_broadcast(const Var& a, const Var& b);
  /// out[i,j] = a[i,j] + bias[0,j].
  Var add_row_bias(const Var& a, const Var& bias);
  /// out = alpha * a + beta (elementwise affine with scalars).
  Var affine(const Var& a, float alpha, float beta);
  Var scale(const Var& a, float s) { return affine(a, s, 0.0F); }
  /// out[i,:] = a[i,:] * coeff[i] with constant coefficients (no grad to coeff).
  Var scale_rows(const Var& a, const std::vector<float>& coeff);

  // ----- nonlinearities -----
  Var relu(const Var& a);
  Var leaky_relu(const Var& a, float slope);
  Var sigmoid(const Var& a);
  Var tanh_act(const Var& a);
  /// out = sqrt(max(a, 0) + eps); used for PNA's std aggregator.
  Var sqrt_eps(const Var& a, float eps);

  // ----- structure ops -----
  // The gather/scatter family runs on the deterministic parallel kernels in
  // tensor/segment_ops.h (fixed-order partition reduction: bit-identical to
  // the serial loops at any thread-pool width). Every op takes a
  // SegmentIndex, whose partition drives the scatter side of the forward
  // or the backward; pass the ones GraphTensors holds so a plan is built
  // once per graph, not once per call. A segment op over graph_id (one
  // segment per member graph of a GraphBatch) reduces each member's rows
  // in the same order as sum_rows / mean_rows / repeat_row over that graph
  // alone, which keeps a graph's rows in a union bit-identical to its solo
  // forward.

  /// out[i,:] = a[idx[i],:]; idx.segments() must equal a.rows(). The
  /// backward scatter-accumulates through idx's partition.
  Var gather_rows(const Var& a, const SegmentIndex& idx);
  /// out[idx[i],:] += a[i,:] over idx.segments() output rows.
  Var scatter_add_rows(const Var& a, const SegmentIndex& idx);
  /// out[s,:] = mean_{i: idx[i]==s} a[i,:]; empty segments yield zeros.
  Var segment_mean(const Var& a, const SegmentIndex& idx);
  /// Per-segment elementwise max / min; empty segments yield zeros.
  Var segment_max(const Var& a, const SegmentIndex& idx);
  Var segment_min(const Var& a, const SegmentIndex& idx);
  /// Softmax over the entries of each segment; a must be [k,1].
  Var segment_softmax(const Var& a, const SegmentIndex& idx);

  // ----- shape ops -----
  Var concat_cols(const std::vector<Var>& parts);
  Var slice_cols(const Var& a, int begin, int end);
  Var sum_rows(const Var& a);   // [n,m] -> [1,m]
  Var mean_rows(const Var& a);  // [n,m] -> [1,m]
  Var sum_all(const Var& a);    // [n,m] -> [1,1]
  /// Broadcasts a [1,m] row to [n,m]; backward sums.
  Var repeat_row(const Var& a, int n);

  // ----- regularization & losses -----
  Var dropout(const Var& a, float p, Rng& rng, bool training);
  /// Mean squared error against a constant target; returns [1,1].
  Var mse_loss(const Var& pred, const Matrix& target);
  /// Numerically stable binary cross-entropy on logits; returns [1,1].
  Var bce_with_logits_loss(const Var& logits, const Matrix& targets);

  /// Seeds d(loss)/d(loss)=1 and runs the reverse sweep. loss must be [1,1].
  /// Accumulates into persistent leaves (or their redirected sinks); the
  /// grads of op nodes are unspecified afterwards.
  void backward(const Var& loss);

  std::size_t size() const { return nodes_.size(); }

 private:
  using Backprop = std::function<void(VarNode&)>;

  /// Appends an op node. It requires grad as given or, from an input
  /// list, iff one of the inputs does; only then does it keep its backprop.
  Var record(Matrix value, bool requires_grad, Backprop backprop);
  Var record(Matrix value, std::initializer_list<Var> inputs,
             Backprop backprop);

  /// Creation order; a deque never moves its elements as it grows.
  std::deque<VarNode> nodes_;
};

}  // namespace gnnhls
