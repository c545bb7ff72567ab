/// \file kernels.hpp
/// \brief The strided-kernel layer: every local (per-processor) loop in the
///        library funnels through these dozen primitives.
///
/// A simulated processor's local work is one of a handful of shapes — fill,
/// copy, elementwise map/zip, axpy, fold, strided gather/scatter, tag
/// scatter, exclusive scan.  Before this layer each call site hand-rolled
/// its loop; now elementwise.hpp, vector_ops.hpp, scan_ops.hpp, the four
/// primitives and the collectives' pack/unpack all call `vmp::kern`, which
/// gives the compiler one contiguous- or constant-stride loop per shape to
/// vectorise and gives us one place to audit floating-point evaluation
/// order.
///
/// INVARIANT: every kernel evaluates element operations in ascending index
/// order with exactly the same association as the loops it replaced, so
/// results are bit-identical to the pre-slab code.  Simulated charges never
/// originate here — callers charge flops through Cube::compute as before;
/// these are pure host-side loops.
///
/// SIMD: kernels whose element operation the backend recognizes (fixed-size
/// trivially-copyable fills and gathers; double zip/axpy/scale with a
/// `kern::op_fn`-wrapped Plus/Multiply/Max/Min; the row-block fold_rows /
/// dot_rows / axpy_rows / rank1) dispatch to core/simd.hpp when
/// `kern::simd::enabled()`.  Every dispatch is bit-identical to the scalar
/// loop below it — the backend keeps per-element expressions, operand order
/// and (for the row-block kernels) each row's combine chain exactly as
/// written here.  Each dispatch sits in an `if constexpr` that is false
/// unless a wide backend is compiled (`simd::kCompiled`), so a VMP_SIMD=OFF
/// build runs these scalar loops and nothing else.  See docs/kernels.md.
///
/// Indexed kernels exploit that both embeddings (Block, Cyclic) are affine
/// in the local slot: global = g0 + s·gstep (see AxisMap::global_begin).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>

#include "comm/ops.hpp"
#include "core/simd.hpp"

namespace vmp::kern {

/// Transparent functor over a comm/ops.hpp reduction op: calls
/// `op.combine(a, b)` and carries the op's type so the kernel dispatchers
/// can recognize the vectorizable ones.  Call sites that used to wrap ops
/// in ad-hoc lambdas (`[&](a, b) { return op.combine(a, b); }`) pass
/// `kern::op_fn(op)` instead — behaviour is identical, recognition is free.
template <class Op>
struct OpFn {
  Op op;
  template <class A, class B>
  [[nodiscard]] auto operator()(const A& a, const B& b) const {
    return op.combine(a, b);
  }
};

template <class Op>
[[nodiscard]] OpFn<Op> op_fn(Op op) {
  return OpFn<Op>{op};
}

namespace detail {

/// True when a wide backend is compiled and every T is (const) double: the
/// condition under which a kernel may call an f64 backend entry point.
template <class... Ts>
inline constexpr bool wide_f64 =
    simd::kCompiled && (std::is_same_v<std::remove_cv_t<Ts>, double> && ...);

/// Map a comm op type to the backend's combine code.  Only the four
/// arithmetic ops over double vectorize; everything else (MinLoc,
/// LogicalAnd, user functors, float, ...) stays on the scalar loops.
template <class Op>
struct op2_of {
  static constexpr bool known = false;
};
template <> struct op2_of<Plus<double>> {
  static constexpr bool known = true;
  static constexpr simd::Op2 code = simd::Op2::add;
};
template <> struct op2_of<Multiply<double>> {
  static constexpr bool known = true;
  static constexpr simd::Op2 code = simd::Op2::mul;
};
template <> struct op2_of<Max<double>> {
  static constexpr bool known = true;
  static constexpr simd::Op2 code = simd::Op2::max;
};
template <> struct op2_of<Min<double>> {
  static constexpr bool known = true;
  static constexpr simd::Op2 code = simd::Op2::min;
};

/// Recognition of an OpFn-wrapped vectorizable op.
template <class F>
struct fn_op2 {
  static constexpr bool known = false;
};
template <class Op>
struct fn_op2<OpFn<Op>> : op2_of<Op> {};

/// True when functor F is a recognized op and every span involved holds
/// double (and a wide backend is compiled).
template <class F, class... Ts>
inline constexpr bool vectorizable =
    fn_op2<std::decay_t<F>>::known && wide_f64<Ts...>;

template <class F>
inline constexpr simd::Op2 op2_code = fn_op2<std::decay_t<F>>::code;

/// Fixed-size trivially-copyable elements move through the type-erased
/// 8/4-byte backend entry points (when a wide backend is compiled).
template <class T>
inline constexpr bool word64 = simd::kCompiled &&
    std::is_trivially_copyable_v<std::remove_cv_t<T>> && sizeof(T) == 8;
template <class T>
inline constexpr bool word32 = simd::kCompiled &&
    std::is_trivially_copyable_v<std::remove_cv_t<T>> && sizeof(T) == 4;

template <class T>
std::uint64_t bits64(const T& v) {
  std::uint64_t b;
  std::memcpy(&b, &v, 8);
  return b;
}
template <class T>
std::uint32_t bits32(const T& v) {
  std::uint32_t b;
  std::memcpy(&b, &v, 4);
  return b;
}

}  // namespace detail

/// dst[i] = v for all i.
template <typename T>
void fill(std::span<T> dst, const T& v) {
  if constexpr (detail::word64<T>) {
    if (simd::enabled()) {
      simd::fill_u64(dst.data(), dst.size(), detail::bits64(v));
      return;
    }
  } else if constexpr (detail::word32<T>) {
    if (simd::enabled()) {
      simd::fill_u32(dst.data(), dst.size(), detail::bits32(v));
      return;
    }
  }
  for (T& x : dst) x = v;
}

/// dst[i] = src[i]; ranges may overlap (memmove semantics) so the slab's
/// in-arena shifts (prepend/append) can reuse it.
template <typename U, typename T>
void copy(std::span<U> src, std::span<T> dst) {
  static_assert(std::is_same_v<std::remove_const_t<U>, T>,
                "copy spans must have the same element type");
  if (src.empty()) return;
  if constexpr (std::is_trivially_copyable_v<T>) {
    std::memmove(dst.data(), src.data(), src.size() * sizeof(T));
  } else {
    if (dst.data() <= src.data()) {
      for (std::size_t i = 0; i < src.size(); ++i) dst[i] = src[i];
    } else {
      for (std::size_t i = src.size(); i-- > 0;) dst[i] = src[i];
    }
  }
}

/// x[i] = f(x[i]) in place.
template <typename T, typename F>
void apply(std::span<T> x, F&& f) {
  for (T& v : x) v = f(v);
}

/// x[s] = f(x[s], g0 + s·gstep): in-place map that also sees the element's
/// global index, reconstructed from the affine (base, step) of the axis map.
template <typename T, typename F>
void apply_indexed(std::span<T> x, std::size_t g0, std::size_t gstep, F&& f) {
  std::size_t g = g0;
  for (T& v : x) {
    v = f(v, g);
    g += gstep;
  }
}

/// dst[i] = f(dst[i], src[i]).
template <typename T, typename U, typename F>
void zip(std::span<T> dst, std::span<U> src, F&& f) {
  if constexpr (detail::vectorizable<F, T, U>) {
    if (simd::enabled()) {
      simd::zip_f64(dst.data(), src.data(), dst.size(), detail::op2_code<F>,
                    /*swapped=*/false);
      return;
    }
  }
  for (std::size_t i = 0; i < dst.size(); ++i) dst[i] = f(dst[i], src[i]);
}

/// dst[i] = f(src[i], dst[i]) — same shape as zip with the operand order
/// flipped.  The combining collectives need this on the high-rank side,
/// where the remote contribution is the op's left argument (order matters
/// for Max/Min on equal values and signed zeros).
template <typename T, typename U, typename F>
void zip_swapped(std::span<T> dst, std::span<U> src, F&& f) {
  if constexpr (detail::vectorizable<F, T, U>) {
    if (simd::enabled()) {
      simd::zip_f64(dst.data(), src.data(), dst.size(), detail::op2_code<F>,
                    /*swapped=*/true);
      return;
    }
  }
  for (std::size_t i = 0; i < dst.size(); ++i) dst[i] = f(src[i], dst[i]);
}

/// out[i] = f(a[i], b[i]) into a third range.
template <typename U, typename V, typename T, typename F>
void zip_into(std::span<U> a, std::span<V> b, std::span<T> out,
              F&& f) {
  if constexpr (detail::vectorizable<F, U, V, T>) {
    if (simd::enabled()) {
      simd::zip_into_f64(a.data(), b.data(), out.data(), out.size(),
                         detail::op2_code<F>);
      return;
    }
  }
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = f(a[i], b[i]);
}

/// dst[s] = f(dst[s], src[s], g0 + s·gstep).
template <typename T, typename U, typename F>
void zip_indexed(std::span<T> dst, std::span<U> src, std::size_t g0,
                 std::size_t gstep, F&& f) {
  std::size_t g = g0;
  for (std::size_t i = 0; i < dst.size(); ++i) {
    dst[i] = f(dst[i], src[i], g);
    g += gstep;
  }
}

/// y[i] += a · x[i] — the rank-1 update's row kernel.
template <typename T, typename U>
void axpy(std::span<T> y, const T& a, std::span<U> x) {
  if constexpr (detail::wide_f64<T, U>) {
    if (simd::enabled()) {
      simd::axpy_f64(y.data(), a, x.data(), y.size());
      return;
    }
  }
  for (std::size_t i = 0; i < y.size(); ++i) y[i] += a * x[i];
}

/// y[i] += a[t] · x[t·ldx + i] for t = 0 … a.size()−1 in turn — one output
/// row plus a run of scaled panel rows (the GEMM and vecmat inner loops).
/// Bit-identical to calling `axpy(y, a[t], x.subspan(t·ldx, y.size()))`
/// for each t, which is what the scalar path does; the backend keeps a
/// slice of y in registers across the rows instead.
template <typename T, typename V, typename U>
void axpy_rows(std::span<T> y, std::span<V> a, std::span<U> x,
               std::size_t ldx) {
  if constexpr (detail::wide_f64<T, V, U>) {
    if (simd::enabled()) {
      simd::axpy_rows_f64(y.data(), a.data(), a.size(), x.data(), ldx,
                          y.size());
      return;
    }
  }
  for (std::size_t t = 0; t < a.size(); ++t)
    axpy(y, a[t], x.subspan(t * ldx, y.size()));
}

/// blk[r·ld + i] += (alpha · c[r]) · x[i] for r < c.size(), i < x.size():
/// the rows of a rank-1 update's window in a row-major block of row stride
/// ld.  Bit-identical to calling `axpy(blk.subspan(r·ld, x.size()),
/// alpha · c[r], x)` for each r, with Multiply's alpha-first scale, which
/// is what the scalar path does; the backend runs every row in one call.
template <typename T, typename V, typename U>
void rank1(std::span<T> blk, std::size_t ld, const T& alpha, std::span<V> c,
           std::span<U> x) {
  if constexpr (detail::wide_f64<T, V, U>) {
    if (simd::enabled()) {
      simd::rank1_rows_f64(blk.data(), ld, c.size(), alpha, c.data(),
                           x.data(), x.size());
      return;
    }
  }
  const Multiply<std::remove_const_t<T>> mul;
  for (std::size_t r = 0; r < c.size(); ++r)
    axpy(blk.subspan(r * ld, x.size()), mul.combine(alpha, c[r]), x);
}

/// x[i] *= a.
template <typename T>
void scale(std::span<T> x, const T& a) {
  if constexpr (detail::wide_f64<T>) {
    if (simd::enabled()) {
      simd::scale_f64(x.data(), a, x.size());
      return;
    }
  }
  for (T& v : x) v *= a;
}

/// Left fold in ascending index order: combine(...combine(init, x[0])...).
/// A single chain cannot be vectorized without reassociating it, so this
/// stays a scalar loop on every backend.
template <typename U, typename Acc, typename F>
[[nodiscard]] Acc fold(std::span<U> x, Acc init, F&& combine) {
  Acc acc = init;
  for (const auto& v : x) acc = combine(acc, v);
  return acc;
}

/// Ascending-order dot product: sum += a[i] · b[i].  Scalar on every
/// backend, like fold.  The add is Plus's, so in f64 the sum is its first
/// source at every call site.
template <typename U, typename V>
[[nodiscard]] std::remove_const_t<U> dot(std::span<U> a, std::span<V> b) {
  const Plus<std::remove_const_t<U>> plus;
  std::remove_const_t<U> s{};
  for (std::size_t i = 0; i < a.size(); ++i) s = plus.combine(s, a[i] * b[i]);
  return s;
}

/// Row-block left fold: out[r] = fold(row r, init, combine) over the lrn
/// rows of a row-major lrn×lcn block.  Same per-row association as calling
/// `fold` row by row — the backend vectorizes ACROSS rows (one lane per
/// row, columns in ascending order), so the vector path is bit-identical.
template <typename U, typename Acc, typename F>
void fold_rows(std::span<U> blk, std::size_t lrn, std::size_t lcn,
               Acc init, std::span<Acc> out, F&& combine) {
  if constexpr (detail::vectorizable<F, U, Acc>) {
    if (simd::enabled()) {
      simd::fold_rows_f64(blk.data(), lrn, lcn, init, out.data(),
                          detail::op2_code<F>);
      return;
    }
  }
  for (std::size_t r = 0; r < lrn; ++r) {
    Acc acc = init;
    const U* row = blk.data() + r * lcn;
    for (std::size_t j = 0; j < lcn; ++j) acc = combine(acc, row[j]);
    out[r] = acc;
  }
}

/// Row-block dot: out[r] = Σ_j blk[r][j] · x[j], each row's chain in
/// ascending-j mul-then-add order (the matvec_fused inner loop).  The
/// backend's lane-per-row layout keeps it bit-identical to the scalar loop.
template <typename U, typename V, typename T>
void dot_rows(std::span<U> blk, std::size_t lrn, std::size_t lcn,
              std::span<V> x, std::span<T> out) {
  if constexpr (detail::wide_f64<U, V, T>) {
    if (simd::enabled()) {
      simd::dot_rows_f64(blk.data(), lrn, lcn, x.data(), out.data());
      return;
    }
  }
  for (std::size_t r = 0; r < lrn; ++r) {
    T s{};
    const U* row = blk.data() + r * lcn;
    for (std::size_t j = 0; j < lcn; ++j) s += row[j] * x[j];
    out[r] = s;
  }
}

/// CSR per-row fold: out[r] = combine(... combine(init, vals[b]) ..., the
/// row's stored values in ascending stored (= ascending column) order,
/// rows r = 0..lrn-1 with vals segmented by rowptr.  The sparse analogue
/// of fold_rows: skipping unstored slots is the only difference, so for
/// Plus over finite data the result is bit-identical to the dense fold of
/// the densified tile (adding ±0.0 to a finite accumulator preserves its
/// bits).  Gather-bound with data-dependent trip counts — stays a scalar
/// loop on every backend.
template <typename U, typename Acc, typename F>
void fold_sparse(std::span<const std::uint32_t> rowptr, std::span<U> vals,
                 std::size_t lrn, Acc init, std::span<Acc> out, F&& combine) {
  for (std::size_t r = 0; r < lrn; ++r) {
    Acc acc = init;
    for (std::uint32_t k = rowptr[r]; k < rowptr[r + 1]; ++k)
      acc = combine(acc, vals[k]);
    out[r] = acc;
  }
}

/// CSR column fold: out[colind[k]] = combine(out[colind[k]], vals[k]) for
/// k ascending over ALL stored entries.  Because colind is ascending within
/// each row and rows are visited top to bottom, each output column sees its
/// entries in ascending-row order — the same association as the dense
/// column fold restricted to stored slots.  `out` must be pre-seeded with
/// the fold identity.  Scalar on every backend (indexed scatter-accumulate).
template <typename U, typename Acc, typename F>
void fold_sparse_cols(std::span<const std::uint32_t> colind, std::span<U> vals,
                      std::span<Acc> out, F&& combine) {
  for (std::size_t k = 0; k < vals.size(); ++k)
    out[colind[k]] = combine(out[colind[k]], vals[k]);
}

/// CSR row-block dot: out[r] = Σ_k vals[k] · x[colind[k]] over row r's
/// stored entries in ascending stored order — the spmv_fused inner loop,
/// sparse analogue of dot_rows.  For finite data the skipped terms of the
/// dense chain are 0.0 · x[j] = ±0.0, which leave a finite accumulator's
/// bits unchanged, so this is bit-identical to dot_rows on the densified
/// tile.  Gather-bound; scalar on every backend.
template <typename U, typename V, typename T>
void dot_sparse(std::span<const std::uint32_t> rowptr,
                std::span<const std::uint32_t> colind, std::span<U> vals,
                std::size_t lrn, std::span<V> x, std::span<T> out) {
  for (std::size_t r = 0; r < lrn; ++r) {
    T s{};
    for (std::uint32_t k = rowptr[r]; k < rowptr[r + 1]; ++k)
      s += vals[k] * x[colind[k]];
    out[r] = s;
  }
}

/// dst[i] = src[i · stride] — e.g. extracting one matrix column from a
/// row-major tile (stride = local row width).
template <typename T>
void gather_strided(const T* src, std::size_t stride, std::span<T> dst) {
  if constexpr (detail::word64<T>) {
    if (simd::enabled()) {
      simd::gather64(src, stride, dst.data(), dst.size());
      return;
    }
  } else if constexpr (detail::word32<T>) {
    if (simd::enabled()) {
      simd::gather32(src, stride, dst.data(), dst.size());
      return;
    }
  }
  for (std::size_t i = 0; i < dst.size(); ++i) dst[i] = src[i * stride];
}

/// dst[i · stride] = src[i] — the inverse of gather_strided.
template <typename U, typename T>
void scatter_strided(std::span<U> src, T* dst, std::size_t stride) {
  static_assert(std::is_same_v<std::remove_const_t<U>, T>,
                "scatter spans must have the same element type");
  if constexpr (detail::word64<T>) {
    if (simd::enabled()) {
      simd::scatter64(src.data(), dst, stride, src.size());
      return;
    }
  } else if constexpr (detail::word32<T>) {
    if (simd::enabled()) {
      simd::scatter32(src.data(), dst, stride, src.size());
      return;
    }
  }
  for (std::size_t i = 0; i < src.size(); ++i) dst[i * stride] = src[i];
}

/// dst[items[i].tag] = items[i].value — the routed-message unpack shared by
/// transpose, swap, permute, sort and binary shift.  Item is any type with
/// `.tag` and `.value` members (comm/route.hpp's RouteItem).  Tags are a
/// permutation with no exploitable stride, so this stays a scalar loop on
/// every backend.
template <typename Item, typename T>
void scatter_tagged(std::span<Item> items, std::span<T> dst) {
  for (const Item& it : items) dst[it.tag] = it.value;
}

/// In-place exclusive scan with carry-in; returns the carry-out
/// (combine-fold of carry and every element).  Evaluation order matches
/// scan_ops.hpp's original per-piece loop exactly:
///   next = combine(acc, x); x = acc; acc = next.
template <typename T, typename F>
[[nodiscard]] T scan_exclusive(std::span<T> x, T carry, F&& combine) {
  T acc = carry;
  for (T& v : x) {
    const T next = combine(acc, v);
    v = acc;
    acc = next;
  }
  return acc;
}

}  // namespace vmp::kern
