/// \file vector_ops.hpp
/// \brief Elementwise, fold and search operations on distributed vectors.
///
/// Elementwise operations are purely local.  Folds and located searches
/// (argmin/argmax) do a local pass plus a one-element all-reduce over the
/// vector's partitioned subcube family, and return a host-visible result —
/// mirroring how the CM front end read back scalars such as pivot values.
///
/// A Rows or Cols vector keeps every piece on each processor of a grid row
/// or column (DistVector).  Every pass here runs once per piece, on the
/// piece's holder (detail::PieceCopies), and the holder hands its result to
/// the other replicas in the same step: a map's holder copies its piece
/// into their tiles, a fold's holder writes its value into their one-
/// element tiles, so the all-reduce after it combines what the machine
/// holds.  The charge is the lockstep machine's, as if every replica had
/// computed its own copy.  This relies on a piece's replicas agreeing on
/// entry, which every library operation leaves true; a piece lost with its
/// node must go through remap_off_failed (embed/realign.hpp) before the
/// next vector operation.
#pragma once

#include <limits>

#include "comm/collectives.hpp"
#include "core/kernels.hpp"
#include "comm/ops.hpp"
#include "embed/dist_vector.hpp"

namespace vmp {

namespace detail {

/// Where the copies of each piece of a vector live, and which one computes
/// it.  Replica j of processor q's piece is (q & keep) + j·stride, for j
/// below the replica count (Rows: the processors of q's grid row; Cols: of
/// its grid column; Linear: q alone).  The piece's HOLDER is the replica
/// whose rank in replicated_over() equals the piece's rank mod the replica
/// count — the grid diagonal, so holders spread over the grid rows and with
/// them over the team's lanes:
///   Rows:   pcol == prow mod pcols,  i.e. (q >> gc) & (pcols−1) == q & (pcols−1)
///   Cols:   prow == pcol mod prows,  i.e. (q >> gc) & (prows−1) ==
///                                         q & (pcols−1) & (prows−1)
///   Linear: every processor.
/// (Cols masks pcol by both extents: q & (prows−1) alone would pick up row
/// bits when prows > pcols.)
class PieceCopies {
 public:
  template <class T>
  explicit PieceCopies(const DistVector<T>& v) {
    const Grid& g = v.grid();
    const proc_t cmask = g.pcols() - 1;
    const proc_t rmask = g.prows() - 1;
    shift_ = g.col_dims();
    switch (v.align()) {
      case Align::Linear:
        break;
      case Align::Rows:
        hi_ = cmask;
        lo_ = cmask;
        keep_ = ~cmask;
        count_ = g.pcols();
        break;
      case Align::Cols:
        hi_ = rmask;
        lo_ = cmask & rmask;
        keep_ = cmask;
        stride_ = g.pcols();
        count_ = g.prows();
        break;
    }
  }

  /// True if q computes its piece.
  [[nodiscard]] bool holds(proc_t q) const {
    return ((q >> shift_) & hi_) == (q & lo_);
  }

  /// fn(r) for every replica r of q's piece other than q.
  template <class F>
  void each_other(proc_t q, F&& fn) const {
    proc_t r = q & keep_;
    for (proc_t j = 0; j < count_; ++j, r += stride_)
      if (r != q) fn(r);
  }

 private:
  int shift_ = 0;
  proc_t hi_ = 0, lo_ = 0;
  proc_t keep_ = ~proc_t{0};
  proc_t stride_ = 1;
  proc_t count_ = 1;
};

/// One compute step charged (max_flops, total_flops): `fn(q)` maps q's
/// piece of v in place on each holder, which then copies the piece into
/// its other replicas.  Their own bodies return at once, so every tile has
/// one writer in the step.
template <class T, class Fn>
void each_piece(DistVector<T>& v, std::uint64_t max_flops,
                std::uint64_t total_flops, Fn fn) {
  const PieceCopies copies(v);
  DistBuffer<T>& data = v.data();
  v.grid().cube().compute(max_flops, total_flops, [&](proc_t q) {
    if (!copies.holds(q)) return;
    fn(q);
    const std::span<const T> piece = data.tile(q);
    copies.each_other(q, [&](proc_t r) { kern::copy(piece, data.tile(r)); });
  });
}

/// One compute step charged (max_flops, total_flops): each holder q of a
/// piece of v folds it to `fn(q)` and writes the value into the one-element
/// tile of `out` on every replica of the piece, q included.  The holder's
/// own slot is looked up before the fold, so the fold's accumulator lives
/// across no call (GCC otherwise keeps it on the stack inside the loop).
template <class T, class U, class Fn>
void each_piece_to(const DistVector<T>& v, DistBuffer<U>& out,
                   std::uint64_t max_flops, std::uint64_t total_flops,
                   Fn fn) {
  const PieceCopies copies(v);
  v.grid().cube().compute(max_flops, total_flops, [&](proc_t q) {
    if (!copies.holds(q)) return;
    U& mine = out.tile(q)[0];
    mine = fn(q);
    copies.each_other(q, [&](proc_t r) { out.tile(r)[0] = mine; });
  });
}

}  // namespace detail

/// v[g] = f(v[g]) for every element; one flop per element.
template <class T, class F>
void vec_apply(DistVector<T>& v, F f) {
  detail::each_piece(v, max_local_len(v.grid().cube(), v.data()), v.n(),
                     [&](proc_t q) { kern::apply(v.data().tile(q), f); });
}

/// v[g] = f(v[g], g) with the global index; one flop per element.
template <class T, class F>
void vec_apply_indexed(DistVector<T>& v, F f) {
  detail::each_piece(
      v, max_local_len(v.grid().cube(), v.data()), v.n(), [&](proc_t q) {
        const std::uint32_t r = v.rank_of(q);
        kern::apply_indexed(v.data().tile(q), v.map().global_begin(r),
                            v.map().global_step(), f);
      });
}

/// a[g] = f(a[g], b[g]); operands must be identically embedded.
template <class T, class F>
void vec_zip(DistVector<T>& a, const DistVector<T>& b, F f) {
  VMP_REQUIRE(a.aligned_with(b), "vec_zip operands must be aligned");
  detail::each_piece(a, max_local_len(a.grid().cube(), a.data()), a.n(),
                     [&](proc_t q) {
                       kern::zip(a.data().tile(q), b.data().tile(q), f);
                     });
}

/// a[g] = f(a[g], b[g], g) with the global index.
template <class T, class F>
void vec_zip_indexed(DistVector<T>& a, const DistVector<T>& b, F f) {
  VMP_REQUIRE(a.aligned_with(b), "vec_zip_indexed operands must be aligned");
  detail::each_piece(
      a, max_local_len(a.grid().cube(), a.data()), a.n(), [&](proc_t q) {
        const std::uint32_t r = a.rank_of(q);
        kern::zip_indexed(a.data().tile(q), b.data().tile(q),
                          a.map().global_begin(r), a.map().global_step(), f);
      });
}

/// y += alpha · x; two flops per element.  Same charge and the same
/// per-element expression (y + alpha·x, mul then add) as the vec_zip lambda
/// it replaced — routed through kern::axpy so the backend can vectorize it.
template <class T>
void vec_axpy(DistVector<T>& y, T alpha, const DistVector<T>& x) {
  VMP_REQUIRE(y.aligned_with(x), "vec_axpy operands must be aligned");
  detail::each_piece(y, max_local_len(y.grid().cube(), y.data()), y.n(),
                     [&](proc_t q) {
                       kern::axpy(y.data().tile(q), alpha, x.data().tile(q));
                     });
}

/// v *= alpha (evaluated x·alpha, as the vec_apply lambda did).
template <class T>
void vec_scale(DistVector<T>& v, T alpha) {
  detail::each_piece(v, max_local_len(v.grid().cube(), v.data()), v.n(),
                     [&](proc_t q) { kern::scale(v.data().tile(q), alpha); });
}

/// v[g] = value for every g in [lo, hi) (other elements untouched).
template <class T>
void vec_fill_range(DistVector<T>& v, std::size_t lo, std::size_t hi,
                    const T& value) {
  VMP_REQUIRE(lo <= hi && hi <= v.n(), "bad fill range");
  vec_apply_indexed(v, [&](const T& x, std::size_t g) {
    return (g >= lo && g < hi) ? value : x;
  });
}

/// Fold all elements to one host-visible scalar.
template <class T, class Op>
[[nodiscard]] T vec_fold(const DistVector<T>& v, Op op) {
  Cube& cube = v.grid().cube();
  DistBuffer<T> acc(cube, 1);
  detail::each_piece_to(v, acc, max_local_len(cube, v.data()), v.n(),
                        [&](proc_t q) {
                          return kern::fold(v.data().tile(q), op.identity(),
                                            kern::op_fn(op));
                        });
  allreduce(cube, acc, v.partitioned_over(), op);
  return acc.tile(0)[0];
}

/// Dot product of two identically-embedded vectors (local multiply-add in
/// ascending index order, one-element all-reduce).
template <class T>
[[nodiscard]] T dot(const DistVector<T>& a, const DistVector<T>& b) {
  VMP_REQUIRE(a.aligned_with(b), "dot operands must be aligned");
  Cube& cube = a.grid().cube();
  DistBuffer<T> acc(cube, 1);
  const std::size_t mx = max_local_len(cube, a.data());
  detail::each_piece_to(a, acc, 2 * mx, 2 * a.n(), [&](proc_t q) {
    return kern::dot(a.data().tile(q), b.data().tile(q));
  });
  allreduce(cube, acc, a.partitioned_over(), Plus<T>{});
  return acc.tile(0)[0];
}

namespace detail {

/// The located search behind vec_argmin_key / vec_argmax_key: one local
/// pass combining {key, index} with `Op` (MinLoc or MaxLoc), skipping
/// elements whose key is `excluded`, then a one-element all-reduce.  Each
/// piece is indexed affinely (global_begin(r) + s·global_step()), bounds
/// checked once per piece.
template <class Op, class T, class KeyFn>
[[nodiscard]] ValueIndex<double> vec_locate(const DistVector<T>& v, KeyFn key,
                                            double excluded) {
  Cube& cube = v.grid().cube();
  const Op op;
  const AxisMap& map = v.map();
  DistBuffer<ValueIndex<double>> acc(cube, 1);
  each_piece_to(v, acc, max_local_len(cube, v.data()), v.n(), [&](proc_t q) {
    const std::uint32_t r = v.rank_of(q);
    const std::span<const T> piece = v.piece(q);
    VMP_REQUIRE(piece.size() <= map.size(r), "local slot out of range");
    const std::size_t step = map.global_step();
    std::size_t g = map.global_begin(r);
    ValueIndex<double> best = op.identity();
    for (std::size_t s = 0; s < piece.size(); ++s, g += step) {
      const double k = key(piece[s], g);
      if (k == excluded) continue;
      best = op.combine(best,
                        ValueIndex<double>{k, static_cast<std::int64_t>(g)});
    }
    return best;
  });
  allreduce(cube, acc, v.partitioned_over(), op);
  return acc.tile(0)[0];
}

}  // namespace detail

/// Locate the element minimizing key(value, g); elements whose key is
/// +infinity are excluded.  Returns {key, index}, index == -1 when every
/// element was excluded.  One local pass plus a one-element all-reduce.
template <class T, class KeyFn>
[[nodiscard]] ValueIndex<double> vec_argmin_key(const DistVector<T>& v,
                                                KeyFn key) {
  return detail::vec_locate<MinLoc<double>>(
      v, key, std::numeric_limits<double>::infinity());
}

/// Locate the element maximizing key(value, g); -infinity keys excluded.
template <class T, class KeyFn>
[[nodiscard]] ValueIndex<double> vec_argmax_key(const DistVector<T>& v,
                                                KeyFn key) {
  return detail::vec_locate<MaxLoc<double>>(
      v, key, -std::numeric_limits<double>::infinity());
}

/// Read one element back to the host, charging one one-element message (the
/// front-end fetch of a pivot value).
template <class T>
[[nodiscard]] T vec_fetch(const DistVector<T>& v, std::size_t g) {
  VMP_REQUIRE(g < v.n(), "index out of range");
  v.grid().cube().clock().charge_comm_step(1, 1, 1);
  return v.at(g);
}

/// Write one element into every replica from the host, charging one
/// one-element message (the front-end storing a computed scalar).
template <class T>
void vec_store(DistVector<T>& v, std::size_t g, const T& value) {
  VMP_REQUIRE(g < v.n(), "index out of range");
  v.grid().cube().clock().charge_comm_step(1, 1, 1);
  v.set(g, value);
}

}  // namespace vmp
