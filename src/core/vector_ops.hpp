/// \file vector_ops.hpp
/// \brief Elementwise, fold and search operations on distributed vectors.
///
/// Elementwise operations are purely local (replicas update identically in
/// lockstep).  Folds and located searches (argmin/argmax) do a local pass
/// plus a one-element all-reduce over the vector's partitioned subcube
/// family, and return a host-visible result — mirroring how the CM front
/// end read back scalars such as pivot values.
#pragma once

#include <limits>

#include "comm/collectives.hpp"
#include "core/kernels.hpp"
#include "comm/ops.hpp"
#include "embed/dist_vector.hpp"

namespace vmp {

/// v[g] = f(v[g]) for every element; one flop per element.
template <class T, class F>
void vec_apply(DistVector<T>& v, F f) {
  const std::size_t mx = max_local_len(v.grid().cube(), v.data());
  v.grid().cube().compute(mx, v.n(), [&](proc_t q) {
    kern::apply(v.data().tile(q), f);
  });
}

/// v[g] = f(v[g], g) with the global index; one flop per element.
template <class T, class F>
void vec_apply_indexed(DistVector<T>& v, F f) {
  const std::size_t mx = max_local_len(v.grid().cube(), v.data());
  v.grid().cube().compute(mx, v.n(), [&](proc_t q) {
    const std::uint32_t r = v.rank_of(q);
    kern::apply_indexed(v.data().tile(q), v.map().global_begin(r),
                        v.map().global_step(), f);
  });
}

/// a[g] = f(a[g], b[g]); operands must be identically embedded.
template <class T, class F>
void vec_zip(DistVector<T>& a, const DistVector<T>& b, F f) {
  VMP_REQUIRE(a.aligned_with(b), "vec_zip operands must be aligned");
  const std::size_t mx = max_local_len(a.grid().cube(), a.data());
  a.grid().cube().compute(mx, a.n(), [&](proc_t q) {
    kern::zip(a.data().tile(q), b.data().tile(q), f);
  });
}

/// a[g] = f(a[g], b[g], g) with the global index.
template <class T, class F>
void vec_zip_indexed(DistVector<T>& a, const DistVector<T>& b, F f) {
  VMP_REQUIRE(a.aligned_with(b), "vec_zip_indexed operands must be aligned");
  const std::size_t mx = max_local_len(a.grid().cube(), a.data());
  a.grid().cube().compute(mx, a.n(), [&](proc_t q) {
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
  const std::size_t mx = max_local_len(y.grid().cube(), y.data());
  y.grid().cube().compute(mx, y.n(), [&](proc_t q) {
    kern::axpy(y.data().tile(q), alpha, x.data().tile(q));
  });
}

/// v *= alpha (evaluated x·alpha, as the vec_apply lambda did).
template <class T>
void vec_scale(DistVector<T>& v, T alpha) {
  const std::size_t mx = max_local_len(v.grid().cube(), v.data());
  v.grid().cube().compute(mx, v.n(), [&](proc_t q) {
    kern::scale(v.data().tile(q), alpha);
  });
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
  Grid& grid = v.grid();
  Cube& cube = grid.cube();
  DistBuffer<T> acc(cube, 1);
  const std::size_t mx = max_local_len(cube, v.data());
  cube.compute(mx, v.n(), [&](proc_t q) {
    acc.tile(q)[0] =
        kern::fold(v.data().tile(q), op.identity(), kern::op_fn(op));
  });
  allreduce(cube, acc, v.partitioned_over(), op);
  return acc.tile(0)[0];
}

/// Dot product of two identically-embedded vectors (local multiply-add in
/// ascending index order, one-element all-reduce).
template <class T>
[[nodiscard]] T dot(const DistVector<T>& a, const DistVector<T>& b) {
  VMP_REQUIRE(a.aligned_with(b), "dot operands must be aligned");
  Grid& grid = a.grid();
  Cube& cube = grid.cube();
  DistBuffer<T> acc(cube, 1);
  const std::size_t mx = max_local_len(cube, a.data());
  cube.compute(2 * mx, 2 * a.n(), [&](proc_t q) {
    acc.tile(q)[0] = kern::dot(a.data().tile(q), b.data().tile(q));
  });
  allreduce(cube, acc, a.partitioned_over(), Plus<T>{});
  return acc.tile(0)[0];
}

namespace detail {

/// The located search behind vec_argmin_key / vec_argmax_key: one local
/// pass combining {key, index} with `Op` (MinLoc or MaxLoc), skipping
/// elements whose key is `excluded`, then a one-element all-reduce.  Each
/// piece is indexed affinely (global_begin(r) + s·global_step()), bounds
/// checked once per processor.
template <class Op, class T, class KeyFn>
[[nodiscard]] ValueIndex<double> vec_locate(const DistVector<T>& v, KeyFn key,
                                            double excluded) {
  Cube& cube = v.grid().cube();
  const Op op;
  const AxisMap& map = v.map();
  DistBuffer<ValueIndex<double>> acc(cube, 1);
  const std::size_t mx = max_local_len(cube, v.data());
  cube.compute(mx, v.n(), [&](proc_t q) {
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
    acc.tile(q)[0] = best;
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
