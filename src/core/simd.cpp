/// \file simd.cpp
/// \brief The one translation unit compiled with wide-vector flags (see
///        src/CMakeLists.txt): the AVX2 backend (-mavx2 -ffp-contract=off).
///        Without a backend (VMP_SIMD=OFF, or AUTO off x86-64) it holds only
///        the runtime switch: the kernels in core/kernels.hpp never call
///        into a backend there.
///
/// The kernels here must keep the exact per-element expression of the
/// scalar loops in core/kernels.hpp: mul then add (never FMA — hence
/// -ffp-contract=off on this file), Max as compare+blend `a < b ? b : a`,
/// Min as `b < a ? b : a` (docs/kernels.md).

#include "core/simd.hpp"

#include <cstdlib>
#include <cstring>

#if defined(VMP_SIMD_BACKEND_AVX2)
#include <immintrin.h>
#endif

namespace vmp::kern::simd {

namespace detail {
std::atomic<bool> g_enabled{kCompiled};

EnvSwitch classify_env(const char* value) {
  if (value == nullptr) return EnvSwitch::On;
  for (const char* on : {"", "1", "on", "ON"})
    if (std::strcmp(value, on) == 0) return EnvSwitch::On;
  for (const char* off : {"0", "off", "OFF"})
    if (std::strcmp(value, off) == 0) return EnvSwitch::Off;
  return EnvSwitch::Bad;
}
}  // namespace detail

namespace {
/// Apply the environment override exactly once, before main() touches the
/// kernels (static init of this TU): VMP_SIMD=0|off|OFF disables the
/// backend (the CMake option of the same name selects what is compiled).
/// Static initialization cannot report a bad value, so it leaves the
/// backend on here; vmp::env_simd (hypercube/machine.cpp) makes Cube
/// construction throw on one.
const bool g_env_applied = [] {
  if (detail::classify_env(std::getenv("VMP_SIMD")) ==
      detail::EnvSwitch::Off)
    detail::g_enabled.store(false);
  return true;
}();
}  // namespace

bool compiled() { return kCompiled; }

const char* backend() {
#if defined(VMP_SIMD_BACKEND_AVX2)
  return "avx2";
#else
  return "scalar";
#endif
}

bool set_enabled(bool on) {
  (void)g_env_applied;
  const bool prev = detail::g_enabled.load();
  detail::g_enabled.store(on && kCompiled);
  return prev;
}

#if defined(VMP_SIMD_BACKEND_AVX2)

namespace {

template <class T>
T load_raw(const void* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

template <class T>
void store_raw(void* p, T v) {
  std::memcpy(p, &v, sizeof(T));
}

// a + b and a · b with `a` as the first source.  When both sources are
// NaN, x86 returns the first one's payload, and GCC commutes a plain add or
// mul (which source comes first depends on register allocation and the
// optimization level at each site), so they are spelled out: a NaN result
// carries the left operand's payload, as comm/ops.hpp's Plus and Multiply
// do.  `b` may stay in memory, as a compiled add or mul's second source.
inline double add_sd(double a, double b) {
  double r;
  asm("vaddsd %2, %1, %0" : "=x"(r) : "x"(a), "xm"(b));
  return r;
}
inline double mul_sd(double a, double b) {
  double r;
  asm("vmulsd %2, %1, %0" : "=x"(r) : "x"(a), "xm"(b));
  return r;
}
inline __m256d add_pd(__m256d a, __m256d b) {
  __m256d r;
  asm("vaddpd %2, %1, %0" : "=x"(r) : "x"(a), "xm"(b));
  return r;
}
inline __m256d mul_pd(__m256d a, __m256d b) {
  __m256d r;
  asm("vmulpd %2, %1, %0" : "=x"(r) : "x"(a), "xm"(b));
  return r;
}

/// op(acc, x) on one element, with the scalar semantics of Op2.
double fold1(double acc, double x, Op2 op) {
  switch (op) {
    case Op2::add: return add_sd(acc, x);
    case Op2::mul: return mul_sd(acc, x);
    case Op2::max: return acc < x ? x : acc;
    case Op2::min: return x < acc ? x : acc;
  }
  return acc;
}

/// The scalar tails of zip_f64 and zip_into_f64, from element i on.
void zip_scalar(double* dst, const double* src, std::size_t i, std::size_t n,
                Op2 op, bool swapped) {
  for (; i < n; ++i)
    dst[i] = swapped ? fold1(src[i], dst[i], op) : fold1(dst[i], src[i], op);
}

void zip_into_scalar(const double* a, const double* b, double* out,
                     std::size_t i, std::size_t n, Op2 op) {
  for (; i < n; ++i) out[i] = fold1(a[i], b[i], op);
}

/// op(a, b) over 4 f64 lanes with the scalar semantics of Op2 (compare +
/// blend for max/min, so equal-value and NaN cases match `?:` exactly).
inline __m256d comb_pd(__m256d a, __m256d b, Op2 op) {
  switch (op) {
    case Op2::add: return add_pd(a, b);
    case Op2::mul: return mul_pd(a, b);
    case Op2::max: return _mm256_blendv_pd(a, b, _mm256_cmp_pd(a, b, _CMP_LT_OQ));
    case Op2::min: return _mm256_blendv_pd(a, b, _mm256_cmp_pd(b, a, _CMP_LT_OQ));
  }
  return a;
}

/// Column j of four consecutive rows of a row-major block (stride lcn).
inline __m256d column_pd(const double* row0, std::size_t lcn, std::size_t j) {
  return _mm256_setr_pd(row0[j], row0[lcn + j], row0[2 * lcn + j],
                        row0[3 * lcn + j]);
}

}  // namespace

void fill_u64(void* dst, std::size_t n, std::uint64_t bits) {
  char* d = static_cast<char*>(dst);
  const __m256i vv = _mm256_set1_epi64x(static_cast<long long>(bits));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(d + i * 8), vv);
  for (; i < n; ++i) store_raw(d + i * 8, bits);
}

void fill_u32(void* dst, std::size_t n, std::uint32_t bits) {
  char* d = static_cast<char*>(dst);
  const __m256i vv = _mm256_set1_epi32(static_cast<int>(bits));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(d + i * 4), vv);
  for (; i < n; ++i) store_raw(d + i * 4, bits);
}

void zip_f64(double* dst, const double* src, std::size_t n, Op2 op,
             bool swapped) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d = _mm256_loadu_pd(dst + i);
    const __m256d s = _mm256_loadu_pd(src + i);
    _mm256_storeu_pd(dst + i, swapped ? comb_pd(s, d, op) : comb_pd(d, s, op));
  }
  zip_scalar(dst, src, i, n, op, swapped);
}

void zip_into_f64(const double* a, const double* b, double* out,
                  std::size_t n, Op2 op) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(out + i, comb_pd(_mm256_loadu_pd(a + i),
                                      _mm256_loadu_pd(b + i), op));
  zip_into_scalar(a, b, out, i, n, op);
}

namespace {
/// One axpy step on a slice c of y: c + a·x, with a first in the mul and
/// the product first in the add, in every build (add_pd, mul_pd).
inline __m256d axpy_step_pd(__m256d c, __m256d av, const double* x) {
  return add_pd(mul_pd(av, _mm256_loadu_pd(x)), c);
}

/// y[i] += a · x[i] with axpy_step_pd's operand order, scalar tail
/// included: the body of axpy_f64 and of each rank1_rows_f64 row.
inline void axpy_row(double* y, double a, const double* x, std::size_t n) {
  const __m256d av = _mm256_set1_pd(a);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(y + i, axpy_step_pd(_mm256_loadu_pd(y + i), av, x + i));
  for (; i < n; ++i) y[i] = add_sd(mul_sd(a, x[i]), y[i]);
}
}  // namespace

void axpy_f64(double* y, double a, const double* x, std::size_t n) {
  axpy_row(y, a, x, n);
}

void axpy_rows_f64(double* y, const double* a, std::size_t w,
                   const double* x, std::size_t ldx, std::size_t n) {
  std::size_t i = 0;
  // 32 columns of y stay in eight accumulators across all w rows.
  for (; i + 32 <= n; i += 32) {
    __m256d c0 = _mm256_loadu_pd(y + i), c1 = _mm256_loadu_pd(y + i + 4),
            c2 = _mm256_loadu_pd(y + i + 8), c3 = _mm256_loadu_pd(y + i + 12),
            c4 = _mm256_loadu_pd(y + i + 16), c5 = _mm256_loadu_pd(y + i + 20),
            c6 = _mm256_loadu_pd(y + i + 24), c7 = _mm256_loadu_pd(y + i + 28);
    for (std::size_t t = 0; t < w; ++t) {
      const __m256d av = _mm256_set1_pd(a[t]);
      const double* xr = x + t * ldx + i;
      c0 = axpy_step_pd(c0, av, xr);
      c1 = axpy_step_pd(c1, av, xr + 4);
      c2 = axpy_step_pd(c2, av, xr + 8);
      c3 = axpy_step_pd(c3, av, xr + 12);
      c4 = axpy_step_pd(c4, av, xr + 16);
      c5 = axpy_step_pd(c5, av, xr + 20);
      c6 = axpy_step_pd(c6, av, xr + 24);
      c7 = axpy_step_pd(c7, av, xr + 28);
    }
    _mm256_storeu_pd(y + i, c0);
    _mm256_storeu_pd(y + i + 4, c1);
    _mm256_storeu_pd(y + i + 8, c2);
    _mm256_storeu_pd(y + i + 12, c3);
    _mm256_storeu_pd(y + i + 16, c4);
    _mm256_storeu_pd(y + i + 20, c5);
    _mm256_storeu_pd(y + i + 24, c6);
    _mm256_storeu_pd(y + i + 28, c7);
  }
  for (; i + 4 <= n; i += 4) {
    __m256d c = _mm256_loadu_pd(y + i);
    for (std::size_t t = 0; t < w; ++t)
      c = axpy_step_pd(c, _mm256_set1_pd(a[t]), x + t * ldx + i);
    _mm256_storeu_pd(y + i, c);
  }
  // Fewer than 4 columns left: axpy_f64's own scalar tail, row by row.
  if (i < n)
    for (std::size_t t = 0; t < w; ++t)
      axpy_f64(y + i, a[t], x + t * ldx + i, n - i);
}

void rank1_rows_f64(double* y, std::size_t ldy, std::size_t rows,
                    double alpha, const double* c, const double* x,
                    std::size_t n) {
  for (std::size_t r = 0; r < rows; ++r, y += ldy)
    axpy_row(y, mul_sd(alpha, c[r]), x, n);
}

void scale_f64(double* x, double a, std::size_t n) {
  const __m256d av = _mm256_set1_pd(a);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(x + i, _mm256_mul_pd(_mm256_loadu_pd(x + i), av));
  for (; i < n; ++i) x[i] *= a;
}

void fold_rows_f64(const double* blk, std::size_t lrn, std::size_t lcn,
                   double init, double* out, Op2 op) {
  std::size_t r = 0;
  for (; r + 4 <= lrn; r += 4) {
    const double* rows = blk + r * lcn;
    __m256d acc = _mm256_set1_pd(init);
    // Each lane owns one row; combining column vectors in ascending j keeps
    // every row's chain in exact scalar order.
    for (std::size_t j = 0; j < lcn; ++j)
      acc = comb_pd(acc, column_pd(rows, lcn, j), op);
    _mm256_storeu_pd(out + r, acc);
  }
  for (; r < lrn; ++r) {
    double acc = init;
    const double* row = blk + r * lcn;
    for (std::size_t j = 0; j < lcn; ++j) acc = fold1(acc, row[j], op);
    out[r] = acc;
  }
}

void dot_rows_f64(const double* blk, std::size_t lrn, std::size_t lcn,
                  const double* x, double* out) {
  std::size_t r = 0;
  for (; r + 4 <= lrn; r += 4) {
    const double* rows = blk + r * lcn;
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t j = 0; j < lcn; ++j) {
      const __m256d xv = _mm256_broadcast_sd(x + j);
      acc = _mm256_add_pd(acc, _mm256_mul_pd(column_pd(rows, lcn, j), xv));
    }
    _mm256_storeu_pd(out + r, acc);
  }
  for (; r < lrn; ++r) {
    double s = 0.0;
    const double* row = blk + r * lcn;
    for (std::size_t j = 0; j < lcn; ++j) s += row[j] * x[j];
    out[r] = s;
  }
}

void gather64(const void* src, std::size_t stride, void* dst, std::size_t n) {
  const char* s = static_cast<const char*>(src);
  char* d = static_cast<char*>(dst);
  const std::size_t sb = stride * 8;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const char* p = s + i * sb;
    const __m256i v = _mm256_set_epi64x(
        static_cast<long long>(load_raw<std::uint64_t>(p + 3 * sb)),
        static_cast<long long>(load_raw<std::uint64_t>(p + 2 * sb)),
        static_cast<long long>(load_raw<std::uint64_t>(p + sb)),
        static_cast<long long>(load_raw<std::uint64_t>(p)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(d + i * 8), v);
  }
  for (; i < n; ++i) store_raw(d + i * 8, load_raw<std::uint64_t>(s + i * sb));
}

void gather32(const void* src, std::size_t stride, void* dst, std::size_t n) {
  const char* s = static_cast<const char*>(src);
  char* d = static_cast<char*>(dst);
  const std::size_t sb = stride * 4;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const char* p = s + i * sb;
    const __m128i v = _mm_set_epi32(
        static_cast<int>(load_raw<std::uint32_t>(p + 3 * sb)),
        static_cast<int>(load_raw<std::uint32_t>(p + 2 * sb)),
        static_cast<int>(load_raw<std::uint32_t>(p + sb)),
        static_cast<int>(load_raw<std::uint32_t>(p)));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(d + i * 4), v);
  }
  for (; i < n; ++i) store_raw(d + i * 4, load_raw<std::uint32_t>(s + i * sb));
}

// AVX2 has no scatter instruction (it arrives with AVX-512), so the stores
// are scalar (vector loads would not help: the stores dominate).
void scatter64(const void* src, void* dst, std::size_t stride,
               std::size_t n) {
  const char* s = static_cast<const char*>(src);
  char* d = static_cast<char*>(dst);
  const std::size_t sb = stride * 8;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    store_raw(d + i * sb, load_raw<std::uint64_t>(s + i * 8));
    store_raw(d + (i + 1) * sb, load_raw<std::uint64_t>(s + (i + 1) * 8));
    store_raw(d + (i + 2) * sb, load_raw<std::uint64_t>(s + (i + 2) * 8));
    store_raw(d + (i + 3) * sb, load_raw<std::uint64_t>(s + (i + 3) * 8));
  }
  for (; i < n; ++i) store_raw(d + i * sb, load_raw<std::uint64_t>(s + i * 8));
}

void scatter32(const void* src, void* dst, std::size_t stride,
               std::size_t n) {
  const char* s = static_cast<const char*>(src);
  char* d = static_cast<char*>(dst);
  const std::size_t sb = stride * 4;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    store_raw(d + i * sb, load_raw<std::uint32_t>(s + i * 4));
    store_raw(d + (i + 1) * sb, load_raw<std::uint32_t>(s + (i + 1) * 4));
    store_raw(d + (i + 2) * sb, load_raw<std::uint32_t>(s + (i + 2) * 4));
    store_raw(d + (i + 3) * sb, load_raw<std::uint32_t>(s + (i + 3) * 4));
  }
  for (; i < n; ++i) store_raw(d + i * sb, load_raw<std::uint32_t>(s + i * 4));
}

#endif  // VMP_SIMD_BACKEND_AVX2

}  // namespace vmp::kern::simd
