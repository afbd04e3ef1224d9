// Private view of the instruction-set dispatch of the dense kernels in
// matrix.cpp and the Adam update in nn/adam.cpp. Library code calls matmul /
// matmul_transpose_a / matmul_transpose_b from matrix.h and Adam::step, which
// run the variant picked once from the CPU; tests and bench_micro use this
// header to run each variant explicitly and to report which one the host
// selects.
#pragma once

#include "tensor/matrix.h"

// x86 builds compile an AVX2 variant of each kernel (a target("avx2")
// function beside the baseline one) whatever the build flags; other targets
// have only the portable variant.
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define GNNHLS_KERNEL_AVX2 1
#endif

namespace gnnhls {

/// Instruction-set variant of the kernels. Every variant runs the same
/// per-element operation sequence (for matmul: ascending k, separately
/// rounded mul and add, never FMA), so all of them return the same bits.
enum class KernelIsa { kPortable, kAvx2 };

/// The variant matmul and friends dispatch to: kAvx2 when the CPU supports
/// it, kPortable otherwise. Decided once per process.
KernelIsa selected_kernel_isa();
/// Whether this host (and build target) can run `isa`.
bool kernel_isa_available(KernelIsa isa);
/// Throws std::invalid_argument unless kernel_isa_available(isa).
void require_kernel_isa(KernelIsa isa);
/// "portable" or "avx2".
const char* kernel_isa_name(KernelIsa isa);

/// The public kernels with the variant pinned. `isa` must be available.
Matrix matmul_isa(KernelIsa isa, const Matrix& a, const Matrix& b);
Matrix matmul_transpose_a_isa(KernelIsa isa, const Matrix& a, const Matrix& b);
Matrix matmul_transpose_b_isa(KernelIsa isa, const Matrix& a, const Matrix& b);

}  // namespace gnnhls
