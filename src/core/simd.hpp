/// \file simd.hpp
/// \brief Portable explicit-SIMD backend for the strided-kernel layer.
///
/// At most one backend per build, selected at configure time by the
/// `VMP_SIMD` CMake option (AUTO picks AVX2 on x86-64 and OFF elsewhere):
///
///   AVX2    x86-64, 256-bit lanes (4 f64), simd.cpp compiled with
///           -mavx2 -ffp-contract=off
///   OFF     no backend: compiled() reports false, and every kernel in
///           core/kernels.hpp is its scalar loop alone
///
/// Only simd.cpp is compiled with wide-vector flags — the rest of the tree
/// stays on the baseline ISA, so enabling SIMD cannot change codegen (and
/// therefore floating-point results) anywhere outside this backend.
///
/// FP-DETERMINISM CONTRACT (see docs/kernels.md): every kernel entry point
/// here is bit-identical to the scalar loop it replaces.  Elementwise
/// kernels (fill/zip/axpy/scale/...) evaluate the same per-element
/// expression with the same operand order and no FMA contraction, and the
/// row-block kernels (fold_rows/dot_rows/axpy_rows) vectorize ACROSS rows
/// or keep each row's chain in registers, so every element sees the exact
/// ascending-index scalar association.
///
/// The backend can also be disabled at runtime (per process) so twin tests
/// and benches can compare SIMD-on vs SIMD-off inside one binary:
/// `set_enabled(false)`, or environment `VMP_SIMD=0|off|OFF` at startup
/// (`1|on|ON`, empty or unset leave it on; any other value makes Cube
/// construction throw — see vmp::env_simd).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace vmp::kern::simd {

/// Elementwise combine codes the zip/fold dispatchers recognize.  The
/// semantics match comm/ops.hpp exactly, including NaN and signed-zero
/// behavior: Max is `a < b ? b : a`, Min is `b < a ? b : a` (compare +
/// blend, never the machine min/max instruction, whose equal/NaN rules
/// differ).
enum class Op2 : int { add = 0, mul = 1, max = 2, min = 3 };

/// True when the AVX2 backend is compiled in.  The build defines
/// VMP_SIMD_BACKEND_AVX2 on the library target and everything linking it
/// (src/CMakeLists.txt).  Each kernel dispatch tests this in its
/// `if constexpr`, so a build without a backend discards every call into
/// the kernels declared below.
#if defined(VMP_SIMD_BACKEND_AVX2)
inline constexpr bool kCompiled = true;
#else
inline constexpr bool kCompiled = false;
#endif

/// kCompiled as a function (the reports and benches print it).
[[nodiscard]] bool compiled();

/// "avx2" or "scalar".
[[nodiscard]] const char* backend();

namespace detail {
/// Single process-wide switch; false forever when compiled() is false.
/// Out-of-line init (simd.cpp) folds in the VMP_SIMD=0|off environment
/// override; the header keeps the hot-path load inline.
extern std::atomic<bool> g_enabled;

/// How a VMP_SIMD value reads — the one rule behind the startup switch
/// (which turns the backend off on Off alone) and vmp::env_simd (which
/// throws on Bad): unset (null), empty, "1", "on" or "ON" are On; "0",
/// "off" or "OFF" are Off; anything else is Bad.
enum class EnvSwitch { On, Off, Bad };
[[nodiscard]] EnvSwitch classify_env(const char* value);
}  // namespace detail

/// Hot-path gate the kernel dispatchers read once per call.
[[nodiscard]] inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Toggle the backend at runtime (no-op toward `true` on a scalar build);
/// returns the previous setting.  Used by the SIMD-on/off twin sweeps.
bool set_enabled(bool on);

// --- elementwise kernels --------------------------------------------------

/// Splat a raw 8/4-byte pattern (kern::fill for any trivially-copyable
/// element of that size routes here through a bit cast).
void fill_u64(void* dst, std::size_t n, std::uint64_t bits);
void fill_u32(void* dst, std::size_t n, std::uint32_t bits);

/// dst[i] = op(dst[i], src[i]); `swapped` evaluates op(src[i], dst[i])
/// instead (the high-rank side of a combining exchange).
void zip_f64(double* dst, const double* src, std::size_t n, Op2 op,
             bool swapped);

/// out[i] = op(a[i], b[i]) into a third range.
void zip_into_f64(const double* a, const double* b, double* out,
                  std::size_t n, Op2 op);

/// y[i] += a · x[i], evaluated exactly as mul-then-add (no FMA), with a
/// first in the mul and the product first in the add.
void axpy_f64(double* y, double a, const double* x, std::size_t n);

/// y[i] += a[t] · x[t·ldx + i] for t = 0 … w−1 in turn (i < n): the w
/// successive axpy_f64 calls of a row-times-panel update, each element's
/// chain in the same order with the same mul-then-add.  The AVX2 backend
/// keeps a slice of y in registers across all w rows instead of loading and
/// storing it once per row.
void axpy_rows_f64(double* y, const double* a, std::size_t w,
                   const double* x, std::size_t ldx, std::size_t n);

/// y[r·ldy + i] += (alpha · c[r]) · x[i] for r < rows, i < n: the rows of
/// a rank-1 update's window in one call, each exactly axpy_f64(y + r·ldy,
/// alpha · c[r], x, n) — alpha first in the scale's mul, then axpy_f64's
/// mul-then-add with the product as the add's first source, scalar tail
/// included.
void rank1_rows_f64(double* y, std::size_t ldy, std::size_t rows,
                    double alpha, const double* c, const double* x,
                    std::size_t n);

/// x[i] *= a.
void scale_f64(double* x, double a, std::size_t n);

// --- row-block kernels (lane-per-row: strict order, still vector) ---------

/// out[r] = op(...op(op(init, blk[r][0]), blk[r][1])...) for each of the
/// lrn rows of a row-major lrn x lcn block: lanes run across rows, each
/// row's chain stays in ascending-column scalar association.
void fold_rows_f64(const double* blk, std::size_t lrn, std::size_t lcn,
                   double init, double* out, Op2 op);

/// out[r] = sum_j blk[r][j] * x[j] with the per-row ascending-j mul-then-add
/// chain of the scalar loop (each lane owns one row).
void dot_rows_f64(const double* blk, std::size_t lrn, std::size_t lcn,
                  const double* x, double* out);

// --- strided data movement -------------------------------------------------

/// dst[i] = src[i * stride] over 8/4-byte elements (type-erased; strides in
/// elements).  Pure data motion, so bit-identity is trivial.
void gather64(const void* src, std::size_t stride, void* dst, std::size_t n);
void gather32(const void* src, std::size_t stride, void* dst, std::size_t n);

/// dst[i * stride] = src[i] over 8/4-byte elements.  (No scatter
/// instruction below AVX-512: the AVX2 backend unrolls scalar stores.)
void scatter64(const void* src, void* dst, std::size_t stride, std::size_t n);
void scatter32(const void* src, void* dst, std::size_t stride, std::size_t n);

}  // namespace vmp::kern::simd
