// Conformance battery for the strided-kernel layer (core/kernels.hpp) and
// its SIMD backend (core/simd.hpp).
//
// Every kern:: entry point is run against a naive scalar reference across
// element types, strides, aligned and misaligned bases, and the tail
// lengths that stress a W-lane backend (0, 1, W−1, W, W+1, 4W±1, ...), with
// the backend toggled ON and OFF for each case.  Default-mode kernels must
// be BIT-identical to the reference in both configurations — including Max/
// Min over signed zeros and NaNs, where the machine min/max instruction
// would disagree with the repo's compare-select combine.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "comm/ops.hpp"
#include "core/kernels.hpp"
#include "core/simd.hpp"

namespace vmp {
namespace {

// Lengths exercising every tail class for W ∈ {1, 2, 4, 8}: 0, 1, W−1, W,
// W+1, 4W−1, 4W, 4W+1 all appear for each width, plus a large odd size.
const std::vector<std::size_t> kLens = {0,  1,  2,  3,  4,  5,  7,  8, 9,
                                        15, 16, 17, 31, 32, 33, 64, 133};

/// Restore the backend toggle on scope exit.
struct SimdGuard {
  bool prev;
  explicit SimdGuard(bool on) : prev(kern::simd::set_enabled(on)) {}
  ~SimdGuard() { kern::simd::set_enabled(prev); }
};

/// Deterministic pseudo-random stream (SplitMix64).
struct Rng {
  std::uint64_t s;
  explicit Rng(std::uint64_t seed) : s(seed) {}
  std::uint64_t next() {
    s += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double real() {  // in (-8, 8), never denormal-tiny
    return (static_cast<double>(next() >> 11) /
                static_cast<double>(1ULL << 53) -
            0.5) *
           16.0;
  }
};

template <class T>
T rand_elem(Rng& r);
template <>
double rand_elem<double>(Rng& r) {
  return r.real();
}
template <>
float rand_elem<float>(Rng& r) {
  return static_cast<float>(r.real());
}
template <>
std::int32_t rand_elem<std::int32_t>(Rng& r) {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(r.next()));
}
template <>
std::uint64_t rand_elem<std::uint64_t>(Rng& r) {
  return r.next();
}
template <>
std::int16_t rand_elem<std::int16_t>(Rng& r) {
  return static_cast<std::int16_t>(static_cast<std::uint16_t>(r.next()));
}

/// A buffer whose usable span can start one element past a 64-byte-aligned
/// origin, so every kernel is exercised on a misaligned base too.
template <class T>
struct TestBuf {
  std::vector<T> store;
  std::size_t off;
  TestBuf(std::size_t n, bool misalign, Rng& r) : store(n + 1), off(0) {
    for (T& v : store) v = rand_elem<T>(r);
    if (misalign) off = 1;
  }
  std::span<T> span(std::size_t n) { return {store.data() + off, n}; }
};

template <class T>
void expect_bits_eq(std::span<const T> got, std::span<const T> want,
                    const char* what) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::memcmp(&got[i], &want[i], sizeof(T)), 0)
        << what << " diverges at [" << i << "]";
  }
}

/// Run `body(simd_on, misaligned)` over all four configurations.
template <class Body>
void for_each_config(Body body) {
  for (const bool on : {false, true}) {
    for (const bool mis : {false, true}) {
      SimdGuard guard(on);
      body(on, mis);
    }
  }
}

// ---------------------------------------------------------------------------
// fill / copy
// ---------------------------------------------------------------------------

template <class T>
void check_fill(std::uint64_t seed) {
  for_each_config([&](bool on, bool mis) {
    for (const std::size_t n : kLens) {
      Rng r(seed + n);
      TestBuf<T> buf(n, mis, r);
      const T v = rand_elem<T>(r);
      std::vector<T> want(buf.span(n).begin(), buf.span(n).end());
      for (T& x : want) x = v;
      kern::fill(buf.span(n), v);
      expect_bits_eq<T>(buf.span(n), want, on ? "fill simd" : "fill scalar");
    }
  });
}

TEST(Kernels, FillMatchesReferenceAllTypes) {
  check_fill<double>(1);
  check_fill<float>(2);
  check_fill<std::int32_t>(3);
  check_fill<std::uint64_t>(4);
  check_fill<std::int16_t>(5);  // no SIMD path: scalar loop both ways
}

TEST(Kernels, FillPreservesExactBitPatterns) {
  // -0.0 and a signalling-looking NaN must splat bit-exactly.
  for (const double v : {-0.0, std::numeric_limits<double>::quiet_NaN()}) {
    for_each_config([&](bool, bool mis) {
      Rng r(99);
      TestBuf<double> buf(33, mis, r);
      kern::fill(buf.span(33), v);
      for (const double x : buf.span(33)) {
        EXPECT_EQ(std::memcmp(&x, &v, 8), 0);
      }
    });
  }
}

TEST(Kernels, CopyHandlesOverlapBothDirections) {
  for_each_config([&](bool, bool mis) {
    for (const std::size_t n : kLens) {
      if (n == 0) continue;
      Rng r(n * 7 + 1);
      // Forward overlap: dst starts below src (shift left by 3).
      {
        TestBuf<double> buf(n + 3, mis, r);
        std::vector<double> flat(buf.span(n + 3).begin(),
                                 buf.span(n + 3).end());
        std::vector<double> want(flat);
        for (std::size_t i = 0; i < n; ++i) want[i] = flat[i + 3];
        std::span<double> all = buf.span(n + 3);
        kern::copy(std::span<const double>(all.subspan(3, n)), all.first(n));
        expect_bits_eq<double>(all.first(n),
                               std::span<const double>(want).first(n),
                               "copy fwd overlap");
      }
      // Backward overlap: dst starts above src (shift right by 3).
      {
        TestBuf<double> buf(n + 3, mis, r);
        std::vector<double> flat(buf.span(n + 3).begin(),
                                 buf.span(n + 3).end());
        std::vector<double> want(flat);
        for (std::size_t i = n; i-- > 0;) want[i + 3] = flat[i];
        std::span<double> all = buf.span(n + 3);
        kern::copy(std::span<const double>(all.first(n)), all.subspan(3, n));
        expect_bits_eq<double>(all.subspan(3, n),
                               std::span<const double>(want).subspan(3, n),
                               "copy bwd overlap");
      }
    }
  });
}

TEST(Kernels, CopyNonTriviallyCopyableKeepsMemmoveSemantics) {
  // std::string forces the element-by-element directional loops.
  std::vector<std::string> v = {"a", "bb", "ccc", "dddd", "eeeee", "ffffff"};
  std::vector<std::string> fwd(v);
  kern::copy(std::span<const std::string>(fwd.data() + 2, 4),
             std::span<std::string>(fwd.data(), 4));
  EXPECT_EQ(fwd, (std::vector<std::string>{"ccc", "dddd", "eeeee", "ffffff",
                                           "eeeee", "ffffff"}));
  std::vector<std::string> bwd(v);
  kern::copy(std::span<const std::string>(bwd.data(), 4),
             std::span<std::string>(bwd.data() + 2, 4));
  EXPECT_EQ(bwd, (std::vector<std::string>{"a", "bb", "a", "bb", "ccc",
                                           "dddd"}));
}

// ---------------------------------------------------------------------------
// apply / zip family
// ---------------------------------------------------------------------------

TEST(Kernels, ApplyAndApplyIndexedMatchReference) {
  for_each_config([&](bool, bool mis) {
    for (const std::size_t n : kLens) {
      Rng r(n + 11);
      TestBuf<double> buf(n, mis, r);
      std::vector<double> want(buf.span(n).begin(), buf.span(n).end());
      for (double& x : want) x = x * 2.0 + 1.0;
      kern::apply(buf.span(n), [](double x) { return x * 2.0 + 1.0; });
      expect_bits_eq<double>(buf.span(n), want, "apply");

      TestBuf<double> buf2(n, mis, r);
      std::vector<double> want2(buf2.span(n).begin(), buf2.span(n).end());
      const std::size_t g0 = 5, gstep = 3;
      for (std::size_t i = 0; i < n; ++i)
        want2[i] += static_cast<double>(g0 + i * gstep);
      kern::apply_indexed(buf2.span(n), g0, gstep,
                          [](double x, std::size_t g) {
                            return x + static_cast<double>(g);
                          });
      expect_bits_eq<double>(buf2.span(n), want2, "apply_indexed");
    }
  });
}

template <class T, class Op>
void check_zip_family(Op op, std::uint64_t seed) {
  for_each_config([&](bool on, bool mis) {
    for (const std::size_t n : kLens) {
      Rng r(seed + n);
      TestBuf<T> a(n, mis, r), b(n, mis, r), out(n, mis, r);

      std::vector<T> want(a.span(n).begin(), a.span(n).end());
      for (std::size_t i = 0; i < n; ++i)
        want[i] = op.combine(want[i], b.span(n)[i]);
      kern::zip(a.span(n), std::span<const T>(b.span(n)), kern::op_fn(op));
      expect_bits_eq<T>(a.span(n), want, on ? "zip simd" : "zip scalar");

      std::vector<T> want_sw(b.span(n).begin(), b.span(n).end());
      std::vector<T> src_sw(out.span(n).begin(), out.span(n).end());
      for (std::size_t i = 0; i < n; ++i)
        want_sw[i] = op.combine(src_sw[i], want_sw[i]);
      kern::zip_swapped(b.span(n), std::span<const T>(out.span(n)),
                        kern::op_fn(op));
      expect_bits_eq<T>(b.span(n), want_sw, "zip_swapped");

      TestBuf<T> c(n, mis, r), d(n, mis, r), e(n, mis, r);
      std::vector<T> want_into(n);
      for (std::size_t i = 0; i < n; ++i)
        want_into[i] = op.combine(c.span(n)[i], d.span(n)[i]);
      kern::zip_into(std::span<const T>(c.span(n)),
                     std::span<const T>(d.span(n)), e.span(n),
                     kern::op_fn(op));
      expect_bits_eq<T>(e.span(n), want_into, "zip_into");
    }
  });
}

TEST(Kernels, ZipFamilyMatchesReferenceForRecognizedOps) {
  check_zip_family<double>(Plus<double>{}, 21);
  check_zip_family<double>(Multiply<double>{}, 22);
  check_zip_family<double>(Max<double>{}, 23);
  check_zip_family<double>(Min<double>{}, 24);
  check_zip_family<float>(Plus<float>{}, 25);
  check_zip_family<float>(Multiply<float>{}, 26);
  check_zip_family<float>(Max<float>{}, 27);
  check_zip_family<float>(Min<float>{}, 28);
  // Unrecognized (integer) ops take the scalar loop in both configurations.
  check_zip_family<std::uint64_t>(Plus<std::uint64_t>{}, 29);
}

TEST(Kernels, ZipMaxMinKeepCompareSelectSemanticsOnZerosAndNaN) {
  // combine(a, b) = a < b ? b : a picks `a` whenever the compare is false —
  // including a = -0.0 vs b = +0.0 (equal) and any NaN operand.  The
  // machine maxpd would pick differently; the backend must not use it.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> av = {-0.0, +0.0, nan, 1.0, nan, -1.0, -0.0, 5.0};
  const std::vector<double> bv = {+0.0, -0.0, 1.0, nan, nan, -0.0, -1.0, 5.0};
  for (const bool on : {false, true}) {
    SimdGuard guard(on);
    for (const auto op_kind : {0, 1}) {
      std::vector<double> dst(av);
      std::vector<double> want(av);
      if (op_kind == 0) {
        const Max<double> op;
        for (std::size_t i = 0; i < want.size(); ++i)
          want[i] = op.combine(want[i], bv[i]);
        kern::zip(std::span<double>(dst), std::span<const double>(bv),
                  kern::op_fn(op));
      } else {
        const Min<double> op;
        for (std::size_t i = 0; i < want.size(); ++i)
          want[i] = op.combine(want[i], bv[i]);
        kern::zip(std::span<double>(dst), std::span<const double>(bv),
                  kern::op_fn(op));
      }
      expect_bits_eq<double>(std::span<const double>(dst),
                             std::span<const double>(want), "max/min bits");
    }
  }
}

TEST(Kernels, ZipIndexedMatchesReference) {
  for_each_config([&](bool, bool mis) {
    for (const std::size_t n : kLens) {
      Rng r(n + 31);
      TestBuf<double> a(n, mis, r), b(n, mis, r);
      const std::size_t g0 = 2, gstep = 5;
      std::vector<double> want(a.span(n).begin(), a.span(n).end());
      for (std::size_t i = 0; i < n; ++i)
        want[i] = want[i] + b.span(n)[i] * static_cast<double>(g0 + i * gstep);
      kern::zip_indexed(a.span(n), std::span<const double>(b.span(n)), g0,
                        gstep, [](double x, double y, std::size_t g) {
                          return x + y * static_cast<double>(g);
                        });
      expect_bits_eq<double>(a.span(n), want, "zip_indexed");
    }
  });
}

// ---------------------------------------------------------------------------
// axpy / scale
// ---------------------------------------------------------------------------

/// An arithmetic operand from a full-range draw: integers are cut to
/// |v| < 2^15, so that y + a·x and x·a cannot overflow an int32.
template <class T>
T operand(T v) {
  if constexpr (std::is_integral_v<T>) {
    return static_cast<T>(v % (1 << 15));
  } else {
    return v;
  }
}

template <class T>
void fit_operands(TestBuf<T>& b) {
  for (T& v : b.store) v = operand(v);
}

template <class T>
void check_axpy_scale(std::uint64_t seed) {
  for_each_config([&](bool on, bool mis) {
    for (const std::size_t n : kLens) {
      Rng r(seed + n);
      TestBuf<T> y(n, mis, r), x(n, mis, r);
      fit_operands(y);
      fit_operands(x);
      const T alpha = operand(rand_elem<T>(r));
      std::vector<T> want(y.span(n).begin(), y.span(n).end());
      for (std::size_t i = 0; i < n; ++i) want[i] += alpha * x.span(n)[i];
      kern::axpy(y.span(n), alpha, std::span<const T>(x.span(n)));
      expect_bits_eq<T>(y.span(n), want, on ? "axpy simd" : "axpy scalar");

      TestBuf<T> v(n, mis, r);
      fit_operands(v);
      std::vector<T> want_s(v.span(n).begin(), v.span(n).end());
      for (T& e : want_s) e *= alpha;
      kern::scale(v.span(n), alpha);
      expect_bits_eq<T>(v.span(n), want_s, "scale");
    }
  });
}

TEST(Kernels, AxpyAndScaleMatchReference) {
  check_axpy_scale<double>(41);
  check_axpy_scale<float>(42);
  check_axpy_scale<std::int32_t>(43);  // scalar path in both configurations
}

// axpy_rows is w successive axpy calls, one per panel row.  The lengths
// cover every remainder class of the AVX2 body's 32-column block and its
// 4-wide tail; ldx = n + 3 puts the panel rows off the output's alignment.
const std::vector<std::size_t> kRowLens = {0,  1,  3,  4,  5,  31,  32, 33,
                                           35, 36, 63, 64, 65, 133, 384};

/// Run axpy_rows on y and the w-call axpy loop it replaces on a copy; the
/// two must match bit for bit.
void expect_axpy_rows_matches_axpy_loop(std::span<double> y,
                                        std::span<const double> a,
                                        std::span<const double> x,
                                        std::size_t ldx, const char* what) {
  std::vector<double> loop(y.begin(), y.end());
  for (std::size_t t = 0; t < a.size(); ++t)
    kern::axpy(std::span<double>(loop), a[t], x.subspan(t * ldx, y.size()));
  kern::axpy_rows(y, a, x, ldx);
  expect_bits_eq<double>(y, std::span<const double>(loop), what);
}

TEST(Kernels, AxpyRowsMatchesAxpyLoopBitExactly) {
  for_each_config([&](bool on, bool mis) {
    for (const std::size_t n : kRowLens) {
      for (const std::size_t w : {0ul, 1ul, 2ul, 6ul, 17ul}) {
        for (const std::size_t ldx : {n, n + 3}) {
          Rng r(n * 1000 + w * 10 + ldx - n + 151);
          TestBuf<double> y(n, mis, r), a(w, mis, r);
          TestBuf<double> x(w * ldx, mis, r);
          const std::span<const double> xs(x.span(w * ldx));
          // The plain scalar chain, row by row.
          std::vector<double> want(y.span(n).begin(), y.span(n).end());
          for (std::size_t t = 0; t < w; ++t)
            for (std::size_t i = 0; i < n; ++i)
              want[i] += a.span(w)[t] * xs[t * ldx + i];
          expect_axpy_rows_matches_axpy_loop(
              y.span(n), std::span<const double>(a.span(w)), xs, ldx,
              on ? "axpy_rows simd" : "axpy_rows scalar");
          expect_bits_eq<double>(y.span(n), std::span<const double>(want),
                                 "axpy_rows vs scalar chain");
        }
      }
    }
  });
}

TEST(Kernels, AxpyRowsKeepsOperandOrderOnSpecialValues) {
  // Quiet NaNs with distinct payloads (and signs) in y, a and x: when two
  // NaNs meet, the result's payload names the operand the machine took
  // first, so a kernel that multiplies x·a or adds y before the product
  // where axpy does the opposite diverges here.  Signed zeros, infinities
  // (Inf · 0 and Inf − Inf make fresh NaNs) and subnormals ride along.
  const auto nan_with = [](std::uint64_t payload, bool negative) {
    const std::uint64_t bits =
        (negative ? 0xfff8000000000000ULL : 0x7ff8000000000000ULL) | payload;
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
  };
  const double inf = std::numeric_limits<double>::infinity();
  const double sub = std::numeric_limits<double>::denorm_min();
  const double sub_max = std::numeric_limits<double>::min() - sub;
  const std::vector<double> special = {
      nan_with(1, false), nan_with(2, true), nan_with(0x3ff, false),
      nan_with(0x51, true), +0.0, -0.0, inf, -inf, sub, -sub, sub_max,
      -sub_max, 1.0, -2.5, 0.5};
  for_each_config([&](bool on, bool mis) {
    for (const std::size_t n : {5ul, 36ul, 133ul}) {
      const std::size_t w = 6, ldx = n + 3;
      Rng r(n + 161);
      TestBuf<double> y(n, mis, r), a(w, mis, r), x(w * ldx, mis, r);
      // a's NaN payloads differ from every payload in y and x.
      const double as[] = {nan_with(0x1234, false), -0.0, inf,
                           nan_with(0x77, true),    sub,  -2.5};
      std::memcpy(a.span(w).data(), as, sizeof as);
      // Every value meets every other: special[k] sits at varying offsets.
      for (std::size_t i = 0; i < n; ++i)
        y.span(n)[i] = special[(i * 7) % special.size()];
      for (std::size_t j = 0; j < w * ldx; ++j)
        x.span(w * ldx)[j] = special[(j * 3 + j / 11) % special.size()];
      expect_axpy_rows_matches_axpy_loop(
          y.span(n), std::span<const double>(a.span(w)),
          std::span<const double>(x.span(w * ldx)), ldx,
          on ? "axpy_rows specials simd" : "axpy_rows specials scalar");
    }
  });
}

// The rank-1 update's row-block kernel against the per-row axpy loop it
// replaces (alpha · c[r] as Multiply forms it), with the backend on and
// off: random finite values, then NaNs with distinct payloads in the
// block, alpha, c and x, signed zeros and infinities, at every tail length
// 0–3 past the 4-wide body, row strides with and without padding, and
// windows of 0 to 5 rows.
TEST(Kernels, Rank1MatchesThePerRowAxpyLoopBitExactly) {
  const auto nan_with = [](std::uint64_t payload, bool negative) {
    return std::bit_cast<double>(
        (negative ? 0xfff8000000000000ULL : 0x7ff8000000000000ULL) | payload);
  };
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> special = {
      nan_with(1, false), nan_with(2, true), +0.0, -0.0, nan_with(0x3ff, false),
      inf, -inf, 1.0, -2.5, nan_with(0x51, true), 0.5};
  const double alphas[] = {-1.0, -0.0, nan_with(0x1234, false), 2.5};
  for_each_config([&](bool on, bool mis) {
    for (const bool specials : {false, true})
      for (const std::size_t n : {0ul, 1ul, 2ul, 3ul, 4ul, 5ul, 6ul, 7ul, 8ul,
                                  13ul, 36ul, 39ul})
        for (const std::size_t rows : {0ul, 1ul, 2ul, 5ul})
          for (const std::size_t ld : {n, n + 3})
            for (const double alpha : alphas) {
              Rng r(n * 100 + rows * 10 + ld - n + 7);
              const std::size_t len = rows == 0 ? 0 : (rows - 1) * ld + n;
              TestBuf<double> blk(len, mis, r), c(rows, mis, r), x(n, mis, r);
              if (specials) {
                for (std::size_t i = 0; i < len; ++i)
                  blk.span(len)[i] = special[(i * 7) % special.size()];
                for (std::size_t i = 0; i < rows; ++i)
                  c.span(rows)[i] = special[(i * 5 + 4) % special.size()];
                for (std::size_t i = 0; i < n; ++i)
                  x.span(n)[i] = special[(i * 3 + i / 4) % special.size()];
              }
              const std::span<const double> cs(c.span(rows)), xs(x.span(n));
              std::vector<double> loop(blk.span(len).begin(),
                                       blk.span(len).end());
              for (std::size_t t = 0; t < rows; ++t)
                kern::axpy(std::span<double>(loop).subspan(t * ld, n),
                           Multiply<double>{}.combine(alpha, cs[t]), xs);
              kern::rank1(blk.span(len), ld, alpha, cs, xs);
              expect_bits_eq<double>(blk.span(len),
                                     std::span<const double>(loop),
                                     on ? "rank1 simd" : "rank1 scalar");
            }
  });
}

// ---------------------------------------------------------------------------
// fold / dot (strict default) and the row-block kernels
// ---------------------------------------------------------------------------

TEST(Kernels, StrictFoldAndDotAreBitIdenticalAcrossToggle) {
  for (const std::size_t n : kLens) {
    Rng r(n + 51);
    std::vector<double> a(n), b(n);
    for (double& v : a) v = r.real();
    for (double& v : b) v = r.real();

    SimdGuard off(false);
    const double fold_off = kern::fold(std::span<const double>(a), 0.5,
                                       kern::op_fn(Plus<double>{}));
    const double dot_off =
        kern::dot(std::span<const double>(a), std::span<const double>(b));
    {
      SimdGuard onn(true);
      const double fold_on = kern::fold(std::span<const double>(a), 0.5,
                                        kern::op_fn(Plus<double>{}));
      const double dot_on =
          kern::dot(std::span<const double>(a), std::span<const double>(b));
      EXPECT_EQ(std::memcmp(&fold_on, &fold_off, 8), 0);
      EXPECT_EQ(std::memcmp(&dot_on, &dot_off, 8), 0);
    }
    // And both equal the hand-rolled chain.
    double want = 0.5;
    for (const double v : a) want += v;
    EXPECT_EQ(std::memcmp(&fold_off, &want, 8), 0);
    double wdot = 0.0;
    for (std::size_t i = 0; i < n; ++i) wdot += a[i] * b[i];
    EXPECT_EQ(std::memcmp(&dot_off, &wdot, 8), 0);
  }
}

// When the running sum and the next product are both NaN, x86 returns the
// first source's payload, and GCC commutes a plain `s += a·b` differently
// at different call sites.  kern::dot keeps the sum first everywhere, so
// the first NaN's payload survives every later NaN product, with the
// backend on or off.
TEST(Kernels, DotKeepsTheSumFirstWhenNaNsMeet) {
  const auto nan_with = [](std::uint64_t payload, bool negative) {
    return std::bit_cast<double>(
        (negative ? 0xfff8000000000000ULL : 0x7ff8000000000000ULL) | payload);
  };
  const double first = nan_with(0x123, true);
  const std::vector<double> a = {1.5, first, 2.0, nan_with(0x45, false),
                                 -0.0, nan_with(0x6, true)};
  const std::vector<double> b = {2.0, 1.0, nan_with(0x789, false), 1.0,
                                 std::numeric_limits<double>::infinity(), 3.0};
  for (const bool on : {false, true}) {
    SimdGuard g(on);
    const double got =
        kern::dot(std::span<const double>(a), std::span<const double>(b));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(first))
        << (on ? "simd on" : "simd off");
  }
}

// The same rule for the zip family and fold: when two NaNs meet in a Plus
// or Multiply combine, the result carries the left operand's payload — in
// the backend's vector body (n = 4), in its scalar tail (n = 1, and the
// fifth element of n = 5) and with the backend off.  A combining
// all-reduce computes op(low, high) with zip on one side of each pair and
// zip_swapped on the other, so both must agree.
TEST(Kernels, ZipKeepsTheLeftPayloadWhenNaNsMeet) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const double left = std::bit_cast<double>(0x7ff8000000000aaaULL);
  const double right = std::bit_cast<double>(0xfff8000000000bbbULL);
  const auto check = [&](auto op, const char* name) {
    for (const bool on : {false, true}) {
      SimdGuard g(on);
      for (const std::size_t n : {1ul, 4ul, 5ul}) {
        SCOPED_TRACE(std::string(name) + (on ? " simd on" : " simd off") +
                     " n=" + std::to_string(n));
        const std::vector<double> l(n, left), r(n, right);
        std::vector<double> dst = l;
        kern::zip(std::span<double>(dst), std::span<const double>(r),
                  kern::op_fn(op));
        for (const double v : dst) EXPECT_EQ(bits(v), bits(left)) << "zip";
        dst = r;  // dst = op(src, dst) with src = l
        kern::zip_swapped(std::span<double>(dst), std::span<const double>(l),
                          kern::op_fn(op));
        for (const double v : dst)
          EXPECT_EQ(bits(v), bits(left)) << "zip_swapped";
        std::vector<double> out(n);
        kern::zip_into(std::span<const double>(l), std::span<const double>(r),
                       std::span<double>(out), kern::op_fn(op));
        for (const double v : out)
          EXPECT_EQ(bits(v), bits(left)) << "zip_into";
        const double f =
            kern::fold(std::span<const double>(r), left, kern::op_fn(op));
        EXPECT_EQ(bits(f), bits(left)) << "fold";
      }
    }
  };
  check(Plus<double>{}, "Plus");
  check(Multiply<double>{}, "Multiply");
}

template <class Op>
void check_fold_rows(Op op, std::uint64_t seed) {
  for_each_config([&](bool on, bool mis) {
    for (const std::size_t lrn : {0ul, 1ul, 3ul, 4ul, 5ul, 8ul, 9ul, 17ul}) {
      for (const std::size_t lcn : {0ul, 1ul, 3ul, 7ul, 16ul, 33ul}) {
        Rng r(seed + lrn * 64 + lcn);
        TestBuf<double> blk(lrn * lcn, mis, r);
        std::vector<double> out(lrn, -7.0), want(lrn, -7.0);
        const double init = op.identity();
        for (std::size_t lr = 0; lr < lrn; ++lr) {
          double acc = init;
          for (std::size_t j = 0; j < lcn; ++j)
            acc = op.combine(acc, blk.span(lrn * lcn)[lr * lcn + j]);
          want[lr] = acc;
        }
        kern::fold_rows(std::span<const double>(blk.span(lrn * lcn)), lrn,
                        lcn, init, std::span<double>(out), kern::op_fn(op));
        expect_bits_eq<double>(std::span<const double>(out),
                               std::span<const double>(want),
                               on ? "fold_rows simd" : "fold_rows scalar");
      }
    }
  });
}

TEST(Kernels, FoldRowsMatchesPerRowFoldBitExactly) {
  check_fold_rows(Plus<double>{}, 61);
  check_fold_rows(Multiply<double>{}, 62);
  check_fold_rows(Max<double>{}, 63);
  check_fold_rows(Min<double>{}, 64);
}

TEST(Kernels, DotRowsMatchesPerRowChainBitExactly) {
  for_each_config([&](bool on, bool mis) {
    for (const std::size_t lrn : {0ul, 1ul, 3ul, 4ul, 5ul, 8ul, 9ul, 17ul}) {
      for (const std::size_t lcn : {0ul, 1ul, 3ul, 7ul, 16ul, 33ul}) {
        Rng r(lrn * 64 + lcn + 71);
        TestBuf<double> blk(lrn * lcn, mis, r);
        std::vector<double> x(lcn), out(lrn, -7.0), want(lrn, -7.0);
        for (double& v : x) v = r.real();
        for (std::size_t lr = 0; lr < lrn; ++lr) {
          double s = 0.0;
          for (std::size_t j = 0; j < lcn; ++j)
            s += blk.span(lrn * lcn)[lr * lcn + j] * x[j];
          want[lr] = s;
        }
        kern::dot_rows(std::span<const double>(blk.span(lrn * lcn)), lrn,
                       lcn, std::span<const double>(x),
                       std::span<double>(out));
        expect_bits_eq<double>(std::span<const double>(out),
                               std::span<const double>(want),
                               on ? "dot_rows simd" : "dot_rows scalar");
      }
    }
  });
}

TEST(Kernels, FoldWithValueIndexStaysOnScalarPath) {
  // A non-arithmetic accumulator (MaxLoc over ValueIndex) must be untouched
  // by the dispatch layer in either configuration.
  const MaxLoc<double> op;
  std::vector<ValueIndex<double>> xs;
  Rng r(81);
  for (std::int64_t i = 0; i < 37; ++i)
    xs.push_back(ValueIndex<double>{r.real(), i});
  for (const bool on : {false, true}) {
    SimdGuard guard(on);
    ValueIndex<double> want = op.identity();
    for (const auto& v : xs) want = op.combine(want, v);
    const ValueIndex<double> got = kern::fold(
        std::span<const ValueIndex<double>>(xs), op.identity(),
        kern::op_fn(op));
    EXPECT_EQ(got.value, want.value);
    EXPECT_EQ(got.index, want.index);
  }
}

// ---------------------------------------------------------------------------
// gather / scatter
// ---------------------------------------------------------------------------

template <class T>
void check_gather_scatter(std::uint64_t seed) {
  for_each_config([&](bool on, bool mis) {
    for (const std::size_t n : kLens) {
      for (const std::size_t stride : {1ul, 2ul, 3ul, 7ul}) {
        Rng r(seed + n * 8 + stride);
        TestBuf<T> src(n * stride + 1, mis, r);
        TestBuf<T> dst(n, mis, r);
        std::vector<T> want(n);
        for (std::size_t i = 0; i < n; ++i)
          want[i] = src.span(n * stride + 1)[i * stride];
        kern::gather_strided(
            static_cast<const T*>(src.span(n * stride + 1).data()), stride,
            dst.span(n));
        expect_bits_eq<T>(dst.span(n), want,
                          on ? "gather simd" : "gather scalar");

        TestBuf<T> back(n * stride + 1, mis, r);
        std::vector<T> want_b(back.span(n * stride + 1).begin(),
                              back.span(n * stride + 1).end());
        for (std::size_t i = 0; i < n; ++i) want_b[i * stride] = want[i];
        kern::scatter_strided(std::span<const T>(dst.span(n)),
                              back.span(n * stride + 1).data(), stride);
        expect_bits_eq<T>(back.span(n * stride + 1), want_b, "scatter");
      }
    }
  });
}

TEST(Kernels, GatherScatterStridedMatchReference) {
  check_gather_scatter<double>(91);
  check_gather_scatter<float>(92);
  check_gather_scatter<std::int32_t>(93);
  check_gather_scatter<std::uint64_t>(94);
  check_gather_scatter<std::int16_t>(95);  // scalar path both ways
}

TEST(Kernels, ScatterTaggedMatchesReference) {
  struct Item {
    std::size_t tag;
    double value;
  };
  for (const bool on : {false, true}) {
    SimdGuard guard(on);
    Rng r(101);
    std::vector<Item> items;
    const std::size_t n = 29;
    // A permutation of [0, n) as tags.
    std::vector<std::size_t> tags(n);
    for (std::size_t i = 0; i < n; ++i) tags[i] = i;
    for (std::size_t i = n; i-- > 1;)
      std::swap(tags[i], tags[r.next() % (i + 1)]);
    for (std::size_t i = 0; i < n; ++i)
      items.push_back(Item{tags[i], r.real()});
    std::vector<double> dst(n, 0.0), want(n, 0.0);
    for (const Item& it : items) want[it.tag] = it.value;
    kern::scatter_tagged(std::span<const Item>(items),
                         std::span<double>(dst));
    expect_bits_eq<double>(std::span<const double>(dst),
                           std::span<const double>(want), "scatter_tagged");
  }
}

TEST(Kernels, ScanExclusiveMatchesReference) {
  for (const bool on : {false, true}) {
    SimdGuard guard(on);
    for (const std::size_t n : kLens) {
      Rng r(n + 111);
      std::vector<double> x(n), ref(n);
      for (std::size_t i = 0; i < n; ++i) x[i] = ref[i] = r.real();
      double acc = 2.25, want_carry = 2.25;
      for (std::size_t i = 0; i < n; ++i) {
        const double next = want_carry + ref[i];
        ref[i] = want_carry;
        want_carry = next;
      }
      acc = kern::scan_exclusive(std::span<double>(x), acc,
                                 kern::op_fn(Plus<double>{}));
      expect_bits_eq<double>(std::span<const double>(x),
                             std::span<const double>(ref), "scan_exclusive");
      EXPECT_EQ(std::memcmp(&acc, &want_carry, 8), 0);
    }
  }
}

// ---------------------------------------------------------------------------
// Backend surface
// ---------------------------------------------------------------------------

TEST(KernelsSimd, BackendSurfaceIsConsistent) {
  const std::string be = kern::simd::backend();
  EXPECT_TRUE(be == "avx2" || be == "scalar");
  EXPECT_EQ(kern::simd::compiled(), be != "scalar");
  if (!kern::simd::compiled()) {
    // The toggle cannot enable a backend that is not there.
    const bool prev = kern::simd::set_enabled(true);
    EXPECT_FALSE(kern::simd::enabled());
    kern::simd::set_enabled(prev);
  } else {
    SimdGuard guard(true);
    EXPECT_TRUE(kern::simd::enabled());
    EXPECT_TRUE(kern::simd::set_enabled(false));   // returns previous
    EXPECT_FALSE(kern::simd::enabled());
    EXPECT_FALSE(kern::simd::set_enabled(true));
    EXPECT_TRUE(kern::simd::enabled());
  }
}

TEST(KernelsSimd, HeaderConstantMatchesCompiledBackend) {
  // kernels.hpp dispatches on simd::kCompiled as this file sees it, while
  // compiled() reports the backend simd.cpp was built with.  They differ
  // when the backend's compile definition does not reach the targets that
  // link vmprim; every kernel here would then run its scalar loop with the
  // toggle on, and the on/off comparisons above would test nothing.
  EXPECT_EQ(kern::simd::kCompiled, kern::simd::compiled());
}

}  // namespace
}  // namespace vmp
