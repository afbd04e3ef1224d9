#include "tensor/matrix.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "support/parallel.h"
#include "tensor/matrix_kernels.h"

#if defined(GNNHLS_KERNEL_AVX2)
#include <immintrin.h>
#endif

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

// The kernel body below is written once, always inlined, and instantiated
// per instruction set: a plain entry point for the build's baseline target
// and, on x86, one compiled with target("avx2"). The compiler vectorizes the
// tile accumulate loops over output columns for whichever target they land
// in; only the nonzero listing differs, written in AVX2 intrinsics for the
// AVX2 variant.
// AVX2 does not imply FMA, and the library builds this file with
// -ffp-contract=off (so a user -march with FMA cannot contract the baseline
// variant either): every output element still takes one rounded multiply and
// one rounded add per k in ascending-k order, and both variants return the
// same bits as the serial references.
#define GNNHLS_ALWAYS_INLINE inline __attribute__((always_inline))

/// out[0..W) += arow[k] * b[k][0..W) for each listed k, in ascending k. A
/// sparse tile lists k = nz[0..count); a dense one (kDense) runs every k in
/// [0, count) and never reads nz. The tile is loaded from out once, kept in
/// registers for the whole k loop (64 floats are eight AVX2 registers) and
/// stored once. `bcol` is b's row 0 at the tile's first column and `ldb` is
/// b's row stride. The column loops walk pointers rather than an index
/// shared by both operands: that keeps GCC's unroll-and-jam off the nest,
/// which would fuse two k steps into one scalar loop and spill the tile to
/// memory every step.
template <int W, bool kDense>
GNNHLS_ALWAYS_INLINE void accumulate_tile(const float* __restrict arow,
                                          const int* __restrict nz, int count,
                                          const float* __restrict bcol,
                                          std::size_t ldb,
                                          float* __restrict out) {
  float acc[W];
  for (int j = 0; j < W; ++j) acc[j] = out[j];
  if constexpr (kDense) {
    for (int k = 0; k < count; ++k) {
      const float s = arow[k];
      const float* brow = bcol + static_cast<std::size_t>(k) * ldb;
      float* o = acc;
      // vectorize: matmul dense tile accumulate
      for (const float* end = brow + W; brow != end; ++brow, ++o) {
        *o += s * *brow;
      }
    }
  } else {
    for (int n = 0; n < count; ++n) {
      const float s = arow[nz[n]];
      const float* brow = bcol + static_cast<std::size_t>(nz[n]) * ldb;
      float* o = acc;
      // vectorize: matmul tile accumulate
      for (const float* end = brow + W; brow != end; ++brow, ++o) {
        *o += s * *brow;
      }
    }
  }
  for (int j = 0; j < W; ++j) out[j] = acc[j];
}

/// Every column tile of one output row (64, 32 and 8 wide, then single
/// columns) accumulates the row's terms: k = nz[0..count), or every k in
/// [0, count) for a dense row.
template <bool kDense>
GNNHLS_ALWAYS_INLINE void accumulate_row(const float* __restrict arow,
                                         const int* __restrict nz, int count,
                                         const Matrix& b,
                                         float* __restrict orow) {
  const int N = b.cols();
  int j = 0;
  for (; j + 64 <= N; j += 64) {
    accumulate_tile<64, kDense>(arow, nz, count, b.data() + j, N, orow + j);
  }
  if (j + 32 <= N) {
    accumulate_tile<32, kDense>(arow, nz, count, b.data() + j, N, orow + j);
    j += 32;
  }
  for (; j + 8 <= N; j += 8) {
    accumulate_tile<8, kDense>(arow, nz, count, b.data() + j, N, orow + j);
  }
  for (; j < N; ++j) {
    accumulate_tile<1, kDense>(arow, nz, count, b.data() + j, N, orow + j);
  }
}

/// kBit[k] = 1 << k. Reading the bit from a table rather than shifting by
/// k lets the mask loop below vectorize without per-lane variable shifts,
/// which the baseline x86 ISA lacks.
constexpr std::array<std::uint32_t, 32> kBit = [] {
  std::array<std::uint32_t, 32> bits{};
  for (int k = 0; k < 32; ++k) bits[k] = 1U << k;
  return bits;
}();

/// Writes the k where arow[k] != 0 (a NaN counts as nonzero, -0 does not)
/// to nz in ascending order and returns how many there are. Each 32-wide
/// chunk is compared at once into a bit mask whose set bits are then read
/// off lowest first, so a zero costs no work of its own.
GNNHLS_ALWAYS_INLINE int list_nonzeros(const float* __restrict arow, int K,
                                       int* __restrict nz) {
  int count = 0;
  for (int k0 = 0; k0 < K; k0 += 32) {
    const int n = std::min(32, K - k0);
    std::uint32_t mask = 0;
    // vectorize: nonzero mask
    for (int k = 0; k < n; ++k) {
      const std::uint32_t nonzero = arow[k0 + k] != 0.0F;
      mask |= (0U - nonzero) & kBit[k];
    }
    for (; mask != 0; mask &= mask - 1) nz[count++] = k0 + __builtin_ctz(mask);
  }
  return count;
}

/// Row i of a * b into orow, given the k where a[i][k] != 0 in
/// nz[0..count). A row with no zero (count == K) runs the tiles over every k
/// without reading nz. Skipping a zero term is exact for finite b: an output
/// sum starts at +0 and can never become -0, so adding a ±0 product leaves
/// it unchanged.
GNNHLS_ALWAYS_INLINE void matmul_row(const float* __restrict arow,
                                     const int* __restrict nz, int count,
                                     int K, const Matrix& b,
                                     float* __restrict orow) {
  if (count == K) {
    accumulate_row<true>(arow, nz, K, b, orow);
  } else {
    accumulate_row<false>(arow, nz, count, b, orow);
  }
}

using MatmulRowsFn = void (*)(const Matrix&, const Matrix&, Matrix&, int,
                              int);

/// out rows [i_lo, i_hi) of a * b: each row lists its nonzero k, then runs
/// matmul_row.
void matmul_rows_portable(const Matrix& a, const Matrix& b, Matrix& out,
                          int i_lo, int i_hi) {
  const int K = a.cols();
  std::vector<int> nz(static_cast<std::size_t>(K));
  for (int i = i_lo; i < i_hi; ++i) {
    const int count = list_nonzeros(a.row_ptr(i), K, nz.data());
    matmul_row(a.row_ptr(i), nz.data(), count, K, b, out.row_ptr(i));
  }
}

#if defined(GNNHLS_KERNEL_AVX2)
/// lanes[mask] lists the set bits of an 8-bit mask as lane indices, lowest
/// first, with the unused lanes 0; count[mask] is how many bits are set.
struct LaneLists {
  alignas(32) std::int32_t lanes[256][8];
  std::uint8_t count[256];
};
constexpr LaneLists kLaneLists = [] {
  LaneLists l{};
  for (int mask = 0; mask < 256; ++mask) {
    for (int k = 0; k < 8; ++k) {
      if ((mask >> k) & 1) l.lanes[mask][l.count[mask]++] = k;
    }
  }
  return l;
}();

/// list_nonzeros eight lanes at a time: one compare of 8 floats against 0
/// (not-equal or unordered, so NaN is listed and -0 is not), a movemask, and
/// one 8-int store of k0 + the mask's lane list at nz[count]; count then
/// advances by the mask's popcount. The store may write past the listed
/// entries but never past nz[K): count <= k0 and k0 + 8 <= K. The K % 8
/// tail is listed one k at a time.
__attribute__((target("avx2"))) GNNHLS_ALWAYS_INLINE int list_nonzeros_avx2(
    const float* __restrict arow, int K, int* __restrict nz) {
  int count = 0;
  int k0 = 0;
  for (; k0 + 8 <= K; k0 += 8) {
    const int mask = _mm256_movemask_ps(_mm256_cmp_ps(
        _mm256_loadu_ps(arow + k0), _mm256_setzero_ps(), _CMP_NEQ_UQ));
    const __m256i lanes = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(kLaneLists.lanes[mask]));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(nz + count),
                        _mm256_add_epi32(lanes, _mm256_set1_epi32(k0)));
    count += kLaneLists.count[mask];
  }
  for (; k0 < K; ++k0) {
    if (arow[k0] != 0.0F) nz[count++] = k0;
  }
  return count;
}

/// matmul_rows_portable with the 8-lane listing. The row loop is repeated
/// rather than shared through a template: GCC does not inline a
/// target("avx2") function into a baseline-target template instance.
__attribute__((target("avx2"))) void matmul_rows_avx2(const Matrix& a,
                                                      const Matrix& b,
                                                      Matrix& out, int i_lo,
                                                      int i_hi) {
  const int K = a.cols();
  std::vector<int> nz(static_cast<std::size_t>(K));
  for (int i = i_lo; i < i_hi; ++i) {
    const int count = list_nonzeros_avx2(a.row_ptr(i), K, nz.data());
    matmul_row(a.row_ptr(i), nz.data(), count, K, b, out.row_ptr(i));
  }
}
#endif

MatmulRowsFn matmul_rows_kernel(KernelIsa isa) {
  require_kernel_isa(isa);
#if defined(GNNHLS_KERNEL_AVX2)
  if (isa == KernelIsa::kAvx2) return matmul_rows_avx2;
#endif
  return matmul_rows_portable;
}

/// t[c][r] = m[r][c] for the rows [r_lo, r_hi) and columns [c_lo, c_hi)
/// of m, one strided store per element.
void transpose_range(const Matrix& m, Matrix& t, int r_lo, int r_hi, int c_lo,
                     int c_hi) {
  for (int r = r_lo; r < r_hi; ++r) {
    const float* row = m.row_ptr(r);
    for (int c = c_lo; c < c_hi; ++c) t(c, r) = row[c];
  }
}

#if defined(GNNHLS_KERNEL_AVX2)
/// Copies every full 8x8 block of m through registers: eight row loads, an
/// in-register transpose (unpack, shuffle, then 128-bit lane permute) and
/// eight row stores into t. The ragged right columns and bottom rows take
/// transpose_range. Every instruction only moves bits, so t holds exactly
/// what the portable copy writes, -0 and NaN payloads included.
__attribute__((target("avx2"))) void transpose_avx2(const Matrix& m,
                                                    Matrix& t) {
  const int rows = m.rows();
  const int cols = m.cols();
  const int rows8 = rows - rows % 8;
  const int cols8 = cols - cols % 8;
  const std::size_t ldt = static_cast<std::size_t>(rows);
  for (int r = 0; r < rows8; r += 8) {
    for (int c = 0; c < cols8; c += 8) {
      __m256 x[8];
      for (int k = 0; k < 8; ++k) x[k] = _mm256_loadu_ps(m.row_ptr(r + k) + c);
      __m256 lo[4], hi[4];
      for (int k = 0; k < 4; ++k) {
        lo[k] = _mm256_unpacklo_ps(x[2 * k], x[2 * k + 1]);
        hi[k] = _mm256_unpackhi_ps(x[2 * k], x[2 * k + 1]);
      }
      __m256 q[8];
      for (int k = 0; k < 2; ++k) {
        q[4 * k + 0] = _mm256_shuffle_ps(lo[2 * k], lo[2 * k + 1], 0x44);
        q[4 * k + 1] = _mm256_shuffle_ps(lo[2 * k], lo[2 * k + 1], 0xEE);
        q[4 * k + 2] = _mm256_shuffle_ps(hi[2 * k], hi[2 * k + 1], 0x44);
        q[4 * k + 3] = _mm256_shuffle_ps(hi[2 * k], hi[2 * k + 1], 0xEE);
      }
      float* out = t.data() + static_cast<std::size_t>(c) * ldt + r;
      for (int k = 0; k < 4; ++k) {
        _mm256_storeu_ps(out + k * ldt,
                         _mm256_permute2f128_ps(q[k], q[k + 4], 0x20));
        _mm256_storeu_ps(out + (k + 4) * ldt,
                         _mm256_permute2f128_ps(q[k], q[k + 4], 0x31));
      }
    }
  }
  transpose_range(m, t, 0, rows8, cols8, cols);
  transpose_range(m, t, rows8, rows, 0, cols);
}
#endif

/// m^T, copied by the `isa` variant.
Matrix transposed_isa(KernelIsa isa, const Matrix& m) {
  require_kernel_isa(isa);
  Matrix t(m.cols(), m.rows());
#if defined(GNNHLS_KERNEL_AVX2)
  if (isa == KernelIsa::kAvx2) {
    transpose_avx2(m, t);
    return t;
  }
#endif
  transpose_range(m, t, 0, m.rows(), 0, m.cols());
  return t;
}

}  // namespace

void require_kernel_isa(KernelIsa isa) {
  GNNHLS_CHECK(kernel_isa_available(isa),
               "kernels: instruction set not available on this host");
}

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
  const MatmulRowsFn rows = matmul_rows_kernel(isa);
  Matrix out(a.rows(), b.cols());
  parallel_for(0, a.rows(), row_grain(a.cols(), b.cols()),
               [&](int i_lo, int i_hi) { rows(a, b, out, i_lo, i_hi); });
  return out;
}

Matrix matmul_transpose_a_isa(KernelIsa isa, const Matrix& a,
                              const Matrix& b) {
  GNNHLS_CHECK_EQ(a.rows(), b.rows(), "matmul_transpose_a: dimension mismatch");
  // Run as matmul(a^T, b). This is the weight gradient (activations^T x
  // upstream gradient): the O(M·K) copy is small next to the O(M·K·N)
  // product, and it turns a's columns into rows the kernel can scan for
  // zeros.
  return matmul_isa(isa, transposed_isa(isa, a), b);
}

Matrix matmul_transpose_b_isa(KernelIsa isa, const Matrix& a,
                              const Matrix& b) {
  GNNHLS_CHECK_EQ(a.cols(), b.cols(), "matmul_transpose_b: dimension mismatch");
  // Run as matmul(a, b^T). b is a weight at every call site (the dX = dY·W^T
  // backward, the readout score), so the O(K·N) copy is small next to the
  // O(M·K·N) product. Each output element then sums a[i][k]·b[j][k] in
  // ascending k from +0, exactly as the reference's dot product does; the
  // reference's final `+0 + acc` is exact because acc is never -0.
  return matmul_isa(isa, a, transposed_isa(isa, b));
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
