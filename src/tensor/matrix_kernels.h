// Private view of the dense kernels in matrix.cpp, one entry per
// instruction-set variant. Library code calls matmul / matmul_transpose_a /
// matmul_transpose_b from matrix.h, which run the variant picked once from
// the CPU; tests and bench_micro use this header to run each variant
// explicitly and to report which one the host selects.
#pragma once

#include "tensor/matrix.h"

namespace gnnhls {

/// Instruction-set variant of the dense kernels. Every variant runs the same
/// per-element operation sequence (ascending k, separately rounded mul and
/// add, never FMA), so all of them return the same bits.
enum class KernelIsa { kPortable, kAvx2 };

/// The variant matmul and friends dispatch to: kAvx2 when the CPU supports
/// it, kPortable otherwise. Decided once per process.
KernelIsa selected_kernel_isa();
/// Whether this host (and build target) can run `isa`.
bool kernel_isa_available(KernelIsa isa);
/// "portable" or "avx2".
const char* kernel_isa_name(KernelIsa isa);

/// The public kernels with the variant pinned. `isa` must be available.
Matrix matmul_isa(KernelIsa isa, const Matrix& a, const Matrix& b);
Matrix matmul_transpose_a_isa(KernelIsa isa, const Matrix& a, const Matrix& b);
Matrix matmul_transpose_b_isa(KernelIsa isa, const Matrix& a, const Matrix& b);

}  // namespace gnnhls
