// Dense row-major float matrix — the only numeric container in the library.
//
// Node features, messages, weights and gradients are all [rows, cols]
// matrices; graph structure enters through the gather/scatter ops in
// autograd.h rather than through sparse matrix types.
#pragma once

#include <cstddef>
#include <vector>

#include "support/check.h"
#include "support/rng.h"

namespace gnnhls {

class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols, float fill = 0.0F)
      : rows_(checked_dim(rows)), cols_(checked_dim(cols)),
        data_(static_cast<std::size_t>(rows_) * static_cast<std::size_t>(cols_),
              fill) {}

  static Matrix zeros(int rows, int cols) { return Matrix(rows, cols, 0.0F); }

  /// Gaussian init with the given stddev (used by nn layer initializers).
  static Matrix randn(int rows, int cols, Rng& rng, float stddev = 1.0F);

  /// Builds a [n,1] column from a std::vector.
  static Matrix column(const std::vector<float>& values);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& at(int r, int c) {
    return data_[static_cast<std::size_t>(r) * cols_ + c];
  }
  float at(int r, int c) const {
    return data_[static_cast<std::size_t>(r) * cols_ + c];
  }
  float& operator()(int r, int c) { return at(r, c); }
  float operator()(int r, int c) const { return at(r, c); }

  float* row_ptr(int r) { return data_.data() + static_cast<std::size_t>(r) * cols_; }
  const float* row_ptr(int r) const {
    return data_.data() + static_cast<std::size_t>(r) * cols_;
  }
  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  bool same_shape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  void fill(float v) { std::fill(data_.begin(), data_.end(), v); }

  /// In-place accumulate: *this += other (shapes must match).
  void add_inplace(const Matrix& other);
  /// In-place accumulate with scale: *this += alpha * other.
  void add_scaled_inplace(const Matrix& other, float alpha);

  /// Squared Frobenius norm, summed in double in storage order: Adam's
  /// global-norm gradient clip adds these over the parameters.
  double squared_norm() const;

  bool operator==(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_ && data_ == other.data_;
  }

 private:
  /// Validates a dimension before data_ is sized from it.
  static int checked_dim(int d) {
    GNNHLS_CHECK(d >= 0, "negative matrix dimension");
    return d;
  }

  int rows_ = 0;
  int cols_ = 0;
  std::vector<float> data_;
};

/// Opt-in allocator tuning for tensor-churn workloads (training loops):
/// raises glibc's mmap/trim thresholds so large activation/gradient
/// buffers recycle on the heap instead of round-tripping through mmap.
/// Idempotent; a no-op off glibc. Trades resident-set retention for step
/// latency, so it is called from training entry points (QorPredictor::fit,
/// NodeTypePredictor::fit, the bench harness) rather than applied to every
/// linking process; call it yourself if you drive training loops directly
/// through Adam/GraphRegressor.
void tune_malloc_for_tensor_workloads();

/// out = a * b, row-parallel on the global pool. One kernel runs every
/// product: each row of a first lists the k where a[i][k] != 0, then each
/// column tile of out (64, 32 or 8 wide, then single columns) is loaded
/// once, accumulates the listed terms in registers and is stored once. It
/// is vectorized over output columns, as AVX2 when the CPU has it (picked
/// at run time) and the build's baseline ISA otherwise, never with FMA:
/// every element accumulates its terms in ascending k with separately
/// rounded mul and add, so for finite operands the result is bit-identical
/// to matmul_reference at any thread count, on any host.
///
/// Zero terms: a term whose a[i][k] is ±0 is skipped. Against a finite
/// b[k][j] that is exact (a sum that starts at +0 never becomes -0, so
/// adding a ±0 product changes nothing). Against an inf or NaN in row k of
/// b it is not: the reference computes 0 * inf = NaN there, while the kernel
/// leaves out[i][j] the sum of the other terms. A nonzero a[i][k] meets inf
/// or NaN exactly as the reference does.
Matrix matmul(const Matrix& a, const Matrix& b);
/// out = a^T * b, run as matmul(a^T, b) on a transposed copy of a: the same
/// kernel, bit-identical to matmul_reference(a^T, b) for finite operands,
/// skipping the terms whose a[k][i] is ±0.
Matrix matmul_transpose_a(const Matrix& a, const Matrix& b);
/// out = a * b^T, run as matmul(a, b^T) on a transposed copy of b (b is a
/// weight at every call site, so the copy is small). Bit-identical to
/// matmul_transpose_b_reference for finite operands; terms whose a[i][k] is
/// ±0 are skipped as in matmul.
Matrix matmul_transpose_b(const Matrix& a, const Matrix& b);

/// Serial, unblocked, scalar reference kernels (the historical loops). Tests
/// and bench_micro hard-assert the vectorized kernels against these —
/// they are the ground truth of the bit-identity contract, not a fast path.
Matrix matmul_reference(const Matrix& a, const Matrix& b);
Matrix matmul_transpose_b_reference(const Matrix& a, const Matrix& b);

}  // namespace gnnhls
