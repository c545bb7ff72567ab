/// \file naive.hpp
/// \brief Naive implementations of the primitives: one general-router
///        packet per matrix element, no alignment, no message combining.
///
/// This is the baseline the paper's optimized primitives beat "by almost an
/// order of magnitude": every element of the operand travels as its own
/// packet through the store-and-forward router (comm/router.hpp), paying
/// the full router start-up on every hop, and vectors stay in the Linear
/// host embedding so nothing is ever replicated or aligned.  Results are
/// bit-identical to the optimized primitives for sum-reductions up to
/// floating-point association; correctness tests compare against them.
///
/// Distribute, extract, insert and the sum-reduction each have one body in
/// `detail::`, which takes the axis as a flag (`row`: the vector runs along
/// a matrix row); the named row and column forms, and naive_matvec's two
/// phases, call it.
#pragma once

#include <cmath>

#include "comm/ops.hpp"
#include "comm/router.hpp"
#include "embed/dist_matrix.hpp"
#include "embed/dist_vector.hpp"
#include "obs/trace.hpp"

namespace vmp {

/// Owner processor of global index g in a Linear vector.
[[nodiscard]] inline proc_t v_owner(const DistVector<double>& v,
                                    std::size_t g) {
  return static_cast<proc_t>(v.map().owner(g));
}

namespace detail {

using Injection = std::vector<std::vector<Packet>>;

/// Route `inject` (one packet list per source) through the general router
/// into `tiles`: a packet's tag is its slot in its destination's tile,
/// which it overwrites, or accumulates into when `add` is set.
inline void naive_route(Cube& cube, Injection inject,
                        DistBuffer<double>& tiles, bool add) {
  NaiveRouter(cube).run(std::move(inject),
                        [&](proc_t dst, std::uint64_t tag, double x) {
                          double& slot = tiles.tile(dst)[tag];
                          if (add)
                            slot += x;
                          else
                            slot = x;
                        });
}

/// out[i][j] = v[j] (`row`: v is copied into each of `m` rows) or v[i]
/// (into each of `m` columns), on `grid` — one packet per matrix element,
/// from the Linear owner of the vector element to the block owner of
/// (i, j).
[[nodiscard]] inline DistMatrix<double> naive_distribute(
    Grid& grid, const DistVector<double>& v, std::size_t m,
    MatrixLayout layout, bool row) {
  DistMatrix<double> out(grid, row ? m : v.n(), row ? v.n() : m, layout);
  const AxisMap& along = row ? out.colmap() : out.rowmap();
  Injection inject(grid.cube().procs());
  grid.cube().each_proc([&](proc_t q) {
    const std::uint32_t part = row ? grid.pcol(q) : grid.prow(q);
    const std::size_t lrn = out.lrows(q), lcn = out.lcols(q);
    const std::size_t n_along = row ? lcn : lrn, n_across = row ? lrn : lcn;
    for (std::size_t a = 0; a < n_along; ++a) {
      const std::size_t g = along.global(part, a);
      const proc_t src = v.map().owner(g);
      const double value = v.at(g);
      for (std::size_t b = 0; b < n_across; ++b)
        inject[src].push_back(
            Packet{q, row ? b * lcn + a : a * lcn + b, value});
    }
  });
  naive_route(grid.cube(), std::move(inject), out.data(), false);
  return out;
}

/// out[g] = sum of A's elements in column g (`row`) or row g, result
/// Linear — one packet per matrix element to the Linear owner of g,
/// accumulated on arrival.
[[nodiscard]] inline DistVector<double> naive_reduce_sum(
    const DistMatrix<double>& A, bool row) {
  Grid& grid = A.grid();
  DistVector<double> out(grid, row ? A.ncols() : A.nrows(), Align::Linear);
  Injection inject(grid.cube().procs());
  grid.cube().each_proc([&](proc_t q) {
    const std::uint32_t R = grid.prow(q), C = grid.pcol(q);
    const std::size_t lrn = A.lrows(q), lcn = A.lcols(q);
    const std::span<const double> blk = A.block(q);
    for (std::size_t lr = 0; lr < lrn; ++lr)
      for (std::size_t lc = 0; lc < lcn; ++lc) {
        const std::size_t g =
            row ? A.colmap().global(C, lc) : A.rowmap().global(R, lr);
        inject[q].push_back(
            Packet{v_owner(out, g), out.map().local(g), blk[lr * lcn + lc]});
      }
  });
  naive_route(grid.cube(), std::move(inject), out.data(), true);
  return out;
}

/// out = row k (`row`) or column k of A, result Linear — one packet per
/// element of the line, from its block owner to the Linear owner.
[[nodiscard]] inline DistVector<double> naive_extract(
    const DistMatrix<double>& A, std::size_t k, bool row) {
  Grid& grid = A.grid();
  DistVector<double> out(grid, row ? A.ncols() : A.nrows(), Align::Linear);
  const AxisMap& across = row ? A.rowmap() : A.colmap();
  const AxisMap& along = row ? A.colmap() : A.rowmap();
  const std::uint32_t owner = across.owner(k);
  const std::size_t lk = across.local(k);
  Injection inject(grid.cube().procs());
  grid.cube().each_proc([&](proc_t q) {
    if ((row ? grid.prow(q) : grid.pcol(q)) != owner) return;
    const std::uint32_t part = row ? grid.pcol(q) : grid.prow(q);
    const std::size_t lcn = A.lcols(q);
    const std::size_t n_along = row ? lcn : A.lrows(q);
    const std::span<const double> blk = A.block(q);
    for (std::size_t a = 0; a < n_along; ++a) {
      const std::size_t g = along.global(part, a);
      inject[q].push_back(Packet{v_owner(out, g), out.map().local(g),
                                 blk[row ? lk * lcn + a : a * lcn + lk]});
    }
  });
  naive_route(grid.cube(), std::move(inject), out.data(), false);
  return out;
}

/// Row k (`row`) or column k of A = v, v Linear — one packet per element
/// of v, from its Linear owner to the block owner of its matrix slot.
inline void naive_insert(DistMatrix<double>& A, std::size_t k, bool row,
                         const DistVector<double>& v) {
  Grid& grid = A.grid();
  const AxisMap& across = row ? A.rowmap() : A.colmap();
  const AxisMap& along = row ? A.colmap() : A.rowmap();
  const std::uint32_t owner = across.owner(k);
  const std::size_t lk = across.local(k);
  Injection inject(grid.cube().procs());
  for (std::size_t g = 0; g < v.n(); ++g) {
    const std::uint32_t part = along.owner(g);
    const std::uint32_t C = row ? part : owner;
    const std::size_t lcn = A.colmap().size(C);
    const std::size_t slot =
        row ? lk * lcn + along.local(g) : along.local(g) * lcn + lk;
    inject[v.map().owner(g)].push_back(
        Packet{grid.at(row ? owner : part, C), slot, v.at(g)});
  }
  naive_route(grid.cube(), std::move(inject), A.data(), false);
}

}  // namespace detail

/// out[i][j] = v[j] — one packet per matrix element, from the Linear owner
/// of v[j] to the block owner of (i, j).
[[nodiscard]] inline DistMatrix<double> naive_distribute_rows(
    const DistVector<double>& v, std::size_t nrows, MatrixLayout layout = {}) {
  VMP_REQUIRE(v.align() == Align::Linear,
              "naive primitives use Linear vectors");
  VMP_TRACE(v.grid().cube(), "naive_distribute_rows");
  return detail::naive_distribute(v.grid(), v, nrows, layout, true);
}

/// out[j] = sum_i A[i][j], result Linear — one packet per matrix element to
/// the Linear owner of index j, accumulated on arrival.
[[nodiscard]] inline DistVector<double> naive_reduce_cols_sum(
    const DistMatrix<double>& A) {
  VMP_TRACE(A.grid().cube(), "naive_reduce_cols_sum");
  return detail::naive_reduce_sum(A, true);
}

/// out[j] = A[i][j], result Linear — one packet per row element.
[[nodiscard]] inline DistVector<double> naive_extract_row(
    const DistMatrix<double>& A, std::size_t i) {
  VMP_REQUIRE(i < A.nrows(), "row index out of range");
  VMP_TRACE(A.grid().cube(), "naive_extract_row");
  return detail::naive_extract(A, i, true);
}

/// A[i][j] = v[j] for one row i, v Linear — one packet per element.
inline void naive_insert_row(DistMatrix<double>& A, std::size_t i,
                             const DistVector<double>& v) {
  VMP_REQUIRE(i < A.nrows(), "row index out of range");
  VMP_REQUIRE(v.align() == Align::Linear && v.n() == A.ncols(),
              "naive_insert_row needs a Linear vector of length ncols");
  VMP_TRACE(A.grid().cube(), "naive_insert_row");
  detail::naive_insert(A, i, true, v);
}

/// out[i][j] = v[i] — the column-direction twin of naive_distribute_rows.
[[nodiscard]] inline DistMatrix<double> naive_distribute_cols(
    const DistVector<double>& v, std::size_t ncols, MatrixLayout layout = {}) {
  VMP_REQUIRE(v.align() == Align::Linear,
              "naive primitives use Linear vectors");
  VMP_TRACE(v.grid().cube(), "naive_distribute_cols");
  return detail::naive_distribute(v.grid(), v, ncols, layout, false);
}

/// out[i] = A[i][j] for one column j, result Linear.
[[nodiscard]] inline DistVector<double> naive_extract_col(
    const DistMatrix<double>& A, std::size_t j) {
  VMP_REQUIRE(j < A.ncols(), "column index out of range");
  VMP_TRACE(A.grid().cube(), "naive_extract_col");
  return detail::naive_extract(A, j, false);
}

/// A[i][j] = v[i] for one column j, v Linear.
inline void naive_insert_col(DistMatrix<double>& A, std::size_t j,
                             const DistVector<double>& v) {
  VMP_REQUIRE(j < A.ncols(), "column index out of range");
  VMP_REQUIRE(v.align() == Align::Linear && v.n() == A.nrows(),
              "naive_insert_col needs a Linear vector of length nrows");
  VMP_TRACE(A.grid().cube(), "naive_insert_col");
  detail::naive_insert(A, j, false, v);
}

/// Located max-|value| over v[lo..n): every candidate element travels to
/// processor 0 as its own packet and is folded on arrival, then the result
/// is fetched by the front end — the naive reduction pattern.
[[nodiscard]] inline ValueIndex<double> naive_argmax_abs(
    const DistVector<double>& v, std::size_t lo) {
  VMP_REQUIRE(v.align() == Align::Linear, "naive primitives use Linear vectors");
  Grid& grid = v.grid();
  Cube& cube = grid.cube();
  VMP_TRACE(cube, "naive_argmax_abs");
  std::vector<std::vector<Packet>> inject(cube.procs());
  for (std::size_t g = lo; g < v.n(); ++g)
    inject[v.map().owner(g)].push_back(Packet{0, g, v.at(g)});
  const MaxLoc<double> op;
  ValueIndex<double> best = op.identity();
  NaiveRouter router(cube);
  router.run(std::move(inject), [&](proc_t, std::uint64_t tag, double x) {
    best = op.combine(
        best, ValueIndex<double>{std::abs(x), static_cast<std::int64_t>(tag)});
  });
  cube.clock().charge_comm_step(1, 1, 1);  // front-end fetch of the result
  return best;
}

/// Exchange rows i and j through the general router, one packet per element.
inline void naive_swap_rows(DistMatrix<double>& A, std::size_t i,
                            std::size_t j) {
  VMP_REQUIRE(i < A.nrows() && j < A.nrows(), "row index out of range");
  if (i == j) return;
  Grid& grid = A.grid();
  Cube& cube = grid.cube();
  VMP_TRACE(cube, "naive_swap_rows");
  std::vector<std::vector<Packet>> inject(cube.procs());
  for (std::size_t g = 0; g < A.ncols(); ++g) {
    const proc_t qi = A.owner(i, g);
    const proc_t qj = A.owner(j, g);
    const std::size_t slot_i =
        A.rowmap().local(i) * A.lcols(qi) + A.colmap().local(g);
    const std::size_t slot_j =
        A.rowmap().local(j) * A.lcols(qj) + A.colmap().local(g);
    inject[qi].push_back(Packet{qj, slot_j, A.data().tile(qi)[slot_i]});
    inject[qj].push_back(Packet{qi, slot_i, A.data().tile(qj)[slot_j]});
  }
  detail::naive_route(cube, std::move(inject), A.data(), false);
}

/// y = A·x with x and y Linear: x is routed element-by-element to every
/// matrix element that needs it, products are routed element-by-element to
/// y's owners — the fully naive virtual-processor-per-element picture.
[[nodiscard]] inline DistVector<double> naive_matvec(
    const DistMatrix<double>& A, const DistVector<double>& x) {
  VMP_REQUIRE(x.align() == Align::Linear && x.n() == A.ncols(),
              "naive_matvec needs a Linear vector of length ncols");
  Cube& cube = A.grid().cube();
  VMP_TRACE(cube, "naive_matvec");
  // Phase 1: fetch x[j] into every element position (i, j).
  DistMatrix<double> X =
      detail::naive_distribute(A.grid(), x, A.nrows(), A.layout(), true);
  // Local products (every virtual processor multiplies its element).
  cube.compute(X.max_block(), X.nrows() * X.ncols(), [&](proc_t q) {
    const std::span<double> xv = X.data().tile(q);
    const std::span<const double> av = A.data().tile(q);
    for (std::size_t t = 0; t < xv.size(); ++t) xv[t] *= av[t];
  });
  // Phase 2: route every product to the Linear owner of its row index.
  return detail::naive_reduce_sum(X, false);
}

}  // namespace vmp
