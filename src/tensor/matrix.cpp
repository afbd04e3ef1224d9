#include "tensor/matrix.h"

#include <algorithm>
#include <atomic>
#include <cstddef>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "support/parallel.h"
#include "tensor/matrix_kernels.h"

namespace gnnhls {

void tune_malloc_for_tensor_workloads() {
  // Once-flag: every fit entry point, the bench harness, and the train/
  // subsystem call this eagerly, so repeated invocations must be a cheap
  // no-op; only the first caller (process-wide, any thread) does work.
  static std::atomic<bool> tuned{false};
  if (tuned.exchange(true, std::memory_order_relaxed)) return;
#if defined(__GLIBC__)
  // Batched training churns multi-hundred-KB activation and gradient
  // buffers on every tape. Above glibc's default 128KB threshold malloc
  // serves them with mmap and returns them to the kernel on free, so each
  // SGD step pays mmap/munmap plus page re-faults — measured ~35% of
  // batched step time. Raising the thresholds keeps those blocks on heap
  // free lists. Process-wide and deliberately opt-in (called from training
  // entry points, not a static initializer): it trades RSS retention for
  // step latency, which only training-shaped workloads want.
  mallopt(M_MMAP_THRESHOLD, 64 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
#endif
}

Matrix Matrix::randn(int rows, int cols, Rng& rng, float stddev) {
  Matrix m(rows, cols);
  for (auto& v : m.data_) v = rng.normal(0.0F, stddev);
  return m;
}

Matrix Matrix::column(const std::vector<float>& values) {
  Matrix m(static_cast<int>(values.size()), 1);
  std::copy(values.begin(), values.end(), m.data_.begin());
  return m;
}

void Matrix::add_inplace(const Matrix& other) {
  GNNHLS_CHECK(same_shape(other), "add_inplace: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Matrix::add_scaled_inplace(const Matrix& other, float alpha) {
  GNNHLS_CHECK(same_shape(other), "add_scaled_inplace: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += alpha * other.data_[i];
  }
}

double Matrix::squared_norm() const {
  double s = 0.0;
  for (float v : data_) s += static_cast<double>(v) * v;
  return s;
}

namespace {

/// Minimum per-chunk flops before a kernel is worth parallelizing: below
/// this, the wakeup costs more than the arithmetic.
constexpr long kMinFlopsPerChunk = 1L << 14;

/// Row grain so that every parallel chunk carries at least
/// kMinFlopsPerChunk worth of inner-loop work.
int row_grain(int inner, int cols) {
  const long flops_per_row = 2L * inner * std::max(cols, 1);
  return static_cast<int>(
      std::max(1L, kMinFlopsPerChunk / std::max(flops_per_row, 1L)));
}

/// Samples up to 1024 strided entries of a and reports the zero fraction.
/// The zero-skip inner loop only pays off on genuinely sparse operands
/// (one-hot feature blocks, post-ReLU gradients); on dense operands the
/// data-dependent branch costs more than the skipped work, so the dense
/// kernel stays branch-free.
bool probe_mostly_zero(const Matrix& a) {
  const std::size_t n = a.size();
  if (n == 0) return false;
  const std::size_t samples = std::min<std::size_t>(n, 1024);
  // Odd stride + wraparound: an even stride can alias with the (typically
  // even) column count and sample a single column, and a stride rounded
  // down would only ever probe a prefix of the data.
  const std::size_t stride = ((n + samples - 1) / samples) | 1;
  std::size_t zeros = 0;
  // Visits (s * stride) % n for s = 0..samples-1, stepping the index
  // instead of dividing per sample: the probe runs on every matmul, and on
  // one-graph operands 1024 divisions are a measurable share of the call.
  std::size_t idx = 0;
  for (std::size_t s = 0; s < samples; ++s) {
    if (a.data()[idx] == 0.0F) ++zeros;
    idx += stride;
    while (idx >= n) idx -= n;
  }
  return zeros * 2 > samples;  // > 50% zeros
}

// Each kernel body below is written once, always inlined, and instantiated
// per instruction set: a plain entry point for the build's baseline target
// and, on x86, one compiled with target("avx2"). The compiler vectorizes the
// axpy loop over output columns for whichever target it lands in. AVX2 does
// not imply FMA, and the library builds this file with -ffp-contract=off (so
// a user -march with FMA cannot contract the baseline variant either): every
// output element still takes one rounded multiply and one rounded add per k
// in ascending-k order, and both variants return the same bits as the
// serial references.
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define GNNHLS_KERNEL_AVX2 1
#endif
#define GNNHLS_ALWAYS_INLINE inline __attribute__((always_inline))

/// y[0..n) += s * x[0..n); y is an output row, never an operand row.
GNNHLS_ALWAYS_INLINE void axpy(float s, const float* __restrict x,
                               float* __restrict y, int n) {
  for (int j = 0; j < n; ++j) y[j] += s * x[j];
}

/// Rows per register tile in the dense matmul: each b-row load feeds this
/// many output rows, cutting b-side memory traffic by the tile height.
constexpr int kMatmulRowTile = 4;
/// k-block size: bounds the b slab streamed per pass so it stays
/// cache-resident while the i-tile's partial sums live in the out rows.
constexpr int kMatmulKTile = 64;

/// out rows [i_lo, i_hi) of a * b. Dense operands run a k-j register-blocked
/// micro-kernel (kblock -> row-tile -> k -> j): every output element still
/// receives its k contributions in ascending-k order, identical to the naive
/// i-k-j loop, so blocking never changes results — it only lets one streamed
/// b-row update kMatmulRowTile output rows and keeps the active b slab hot.
/// Sparse operands skip a's zeros row by row; an exact ±0 term never changes
/// a sum that starts at +0, so the skip is exact for finite b.
GNNHLS_ALWAYS_INLINE void matmul_rows_body(const Matrix& a, const Matrix& b,
                                           Matrix& out, int i_lo, int i_hi,
                                           bool sparse) {
  const int K = a.cols();
  const int N = b.cols();
  if (sparse) {
    for (int i = i_lo; i < i_hi; ++i) {
      const float* arow = a.row_ptr(i);
      float* orow = out.row_ptr(i);
      for (int k = 0; k < K; ++k) {
        if (arow[k] != 0.0F) axpy(arow[k], b.row_ptr(k), orow, N);
      }
    }
    return;
  }
  for (int k0 = 0; k0 < K; k0 += kMatmulKTile) {
    const int k1 = std::min(k0 + kMatmulKTile, K);
    int i = i_lo;
    for (; i + kMatmulRowTile <= i_hi; i += kMatmulRowTile) {
      const float* a0 = a.row_ptr(i);
      const float* a1 = a.row_ptr(i + 1);
      const float* a2 = a.row_ptr(i + 2);
      const float* a3 = a.row_ptr(i + 3);
      float* o0 = out.row_ptr(i);
      float* o1 = out.row_ptr(i + 1);
      float* o2 = out.row_ptr(i + 2);
      float* o3 = out.row_ptr(i + 3);
      for (int k = k0; k < k1; ++k) {
        const float* brow = b.row_ptr(k);
        axpy(a0[k], brow, o0, N);
        axpy(a1[k], brow, o1, N);
        axpy(a2[k], brow, o2, N);
        axpy(a3[k], brow, o3, N);
      }
    }
    for (; i < i_hi; ++i) {  // tail rows of the tile
      const float* arow = a.row_ptr(i);
      float* orow = out.row_ptr(i);
      for (int k = k0; k < k1; ++k) axpy(arow[k], b.row_ptr(k), orow, N);
    }
  }
}

/// out = a^T * b, serial and k-outer. This is the weight-gradient kernel
/// (activations^T x upstream-grad), whose output [in_dim, out_dim] is small
/// and cache-resident while a and b can be tall batched activations: k-outer
/// streams a and b exactly once, where an i-outer parallel variant re-reads
/// all of a column-wise per output row and thrashes L2 as soon as the batch
/// no longer fits. The zero skip pays because a is often post-ReLU.
GNNHLS_ALWAYS_INLINE void transpose_a_body(const Matrix& a, const Matrix& b,
                                           Matrix& out) {
  for (int k = 0; k < a.rows(); ++k) {
    const float* arow = a.row_ptr(k);
    const float* brow = b.row_ptr(k);
    for (int i = 0; i < a.cols(); ++i) {
      if (arow[i] != 0.0F) axpy(arow[i], brow, out.row_ptr(i), b.cols());
    }
  }
}

struct KernelSet {
  void (*matmul_rows)(const Matrix&, const Matrix&, Matrix&, int, int, bool);
  void (*transpose_a)(const Matrix&, const Matrix&, Matrix&);
};

void matmul_rows_portable(const Matrix& a, const Matrix& b, Matrix& out,
                          int i_lo, int i_hi, bool sparse) {
  matmul_rows_body(a, b, out, i_lo, i_hi, sparse);
}
void transpose_a_portable(const Matrix& a, const Matrix& b, Matrix& out) {
  transpose_a_body(a, b, out);
}
constexpr KernelSet kPortableKernels{matmul_rows_portable,
                                     transpose_a_portable};

#if defined(GNNHLS_KERNEL_AVX2)
__attribute__((target("avx2"))) void matmul_rows_avx2(
    const Matrix& a, const Matrix& b, Matrix& out, int i_lo, int i_hi,
    bool sparse) {
  matmul_rows_body(a, b, out, i_lo, i_hi, sparse);
}
__attribute__((target("avx2"))) void transpose_a_avx2(const Matrix& a,
                                                      const Matrix& b,
                                                      Matrix& out) {
  transpose_a_body(a, b, out);
}
constexpr KernelSet kAvx2Kernels{matmul_rows_avx2, transpose_a_avx2};
#endif

const KernelSet& kernel_set(KernelIsa isa) {
  GNNHLS_CHECK(kernel_isa_available(isa),
               "dense kernels: instruction set not available on this host");
#if defined(GNNHLS_KERNEL_AVX2)
  if (isa == KernelIsa::kAvx2) return kAvx2Kernels;
#endif
  return kPortableKernels;
}

}  // namespace

bool kernel_isa_available(KernelIsa isa) {
  if (isa == KernelIsa::kPortable) return true;
#if defined(GNNHLS_KERNEL_AVX2)
  static const bool avx2 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return avx2;
#else
  return false;
#endif
}

KernelIsa selected_kernel_isa() {
  static const KernelIsa isa = kernel_isa_available(KernelIsa::kAvx2)
                                   ? KernelIsa::kAvx2
                                   : KernelIsa::kPortable;
  return isa;
}

const char* kernel_isa_name(KernelIsa isa) {
  return isa == KernelIsa::kAvx2 ? "avx2" : "portable";
}

Matrix matmul_isa(KernelIsa isa, const Matrix& a, const Matrix& b) {
  GNNHLS_CHECK_EQ(a.cols(), b.rows(), "matmul: inner dimension mismatch");
  const KernelSet& kernels = kernel_set(isa);
  Matrix out(a.rows(), b.cols());
  const bool sparse = probe_mostly_zero(a);
  parallel_for(0, a.rows(), row_grain(a.cols(), b.cols()),
               [&](int i_lo, int i_hi) {
    kernels.matmul_rows(a, b, out, i_lo, i_hi, sparse);
  });
  return out;
}

Matrix matmul_transpose_a_isa(KernelIsa isa, const Matrix& a,
                              const Matrix& b) {
  GNNHLS_CHECK_EQ(a.rows(), b.rows(), "matmul_transpose_a: dimension mismatch");
  const KernelSet& kernels = kernel_set(isa);
  Matrix out(a.cols(), b.cols());
  kernels.transpose_a(a, b, out);
  return out;
}

Matrix matmul_transpose_b_isa(KernelIsa isa, const Matrix& a,
                              const Matrix& b) {
  GNNHLS_CHECK_EQ(a.cols(), b.cols(), "matmul_transpose_b: dimension mismatch");
  // Run as matmul(a, b^T). b is a weight at every call site (the dX = dY·W^T
  // backward, the readout score), so the O(K·N) copy is small next to the
  // O(M·K·N) product. Each output element then sums a[i][k]·b[j][k] in
  // ascending k from +0, exactly as the reference's dot product does; the
  // reference's final `+0 + acc` is exact because acc is never -0.
  Matrix bt(b.cols(), b.rows());
  for (int j = 0; j < b.rows(); ++j) {
    const float* brow = b.row_ptr(j);
    for (int k = 0; k < b.cols(); ++k) bt(k, j) = brow[k];
  }
  return matmul_isa(isa, a, bt);
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  return matmul_isa(selected_kernel_isa(), a, b);
}

Matrix matmul_transpose_a(const Matrix& a, const Matrix& b) {
  return matmul_transpose_a_isa(selected_kernel_isa(), a, b);
}

Matrix matmul_transpose_b(const Matrix& a, const Matrix& b) {
  return matmul_transpose_b_isa(selected_kernel_isa(), a, b);
}

Matrix matmul_reference(const Matrix& a, const Matrix& b) {
  GNNHLS_CHECK_EQ(a.cols(), b.rows(),
                  "matmul_reference: inner dimension mismatch");
  Matrix out(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    const float* arow = a.row_ptr(i);
    float* orow = out.row_ptr(i);
    for (int k = 0; k < a.cols(); ++k) {
      const float aik = arow[k];
      const float* brow = b.row_ptr(k);
      for (int j = 0; j < b.cols(); ++j) orow[j] += aik * brow[j];
    }
  }
  return out;
}

Matrix matmul_transpose_b_reference(const Matrix& a, const Matrix& b) {
  GNNHLS_CHECK_EQ(a.cols(), b.cols(),
                  "matmul_transpose_b_reference: dimension mismatch");
  Matrix out(a.rows(), b.rows());
  for (int i = 0; i < a.rows(); ++i) {
    const float* arow = a.row_ptr(i);
    float* orow = out.row_ptr(i);
    for (int j = 0; j < b.rows(); ++j) {
      const float* brow = b.row_ptr(j);
      float acc = 0.0F;
      for (int k = 0; k < a.cols(); ++k) acc += arow[k] * brow[k];
      orow[j] += acc;
    }
  }
  return out;
}

}  // namespace gnnhls
