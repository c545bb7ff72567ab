/// \file elementwise.hpp
/// \brief Local (communication-free) elementwise operations on distributed
///        matrices, including the rank-1 update that the paper's Gaussian
///        elimination and simplex algorithms are built around.
#pragma once

#include "comm/collectives.hpp"
#include "core/kernels.hpp"
#include "embed/dist_matrix.hpp"
#include "embed/dist_vector.hpp"

namespace vmp {

/// A[i][j] = f(A[i][j]) for every element; one flop per element.
template <class T, class F>
void mat_apply(DistMatrix<T>& A, F f) {
  A.grid().cube().compute(A.max_block(), A.nrows() * A.ncols(), [&](proc_t q) {
    kern::apply(A.data().tile(q), f);
  });
}

/// A[i][j] = f(A[i][j], i, j) with global indices; one flop per element.
template <class T, class F>
void mat_apply_indexed(DistMatrix<T>& A, F f) {
  Grid& grid = A.grid();
  grid.cube().compute(A.max_block(), A.nrows() * A.ncols(), [&](proc_t q) {
    const std::uint32_t R = grid.prow(q), C = grid.pcol(q);
    const std::size_t lrn = A.lrows(q), lcn = A.lcols(q);
    std::span<T> blk = A.block(q);
    const std::size_t c0 = A.colmap().global_begin(C);
    const std::size_t cstep = A.colmap().global_step();
    for (std::size_t lr = 0; lr < lrn; ++lr) {
      const std::size_t i = A.rowmap().global(R, lr);
      kern::apply_indexed(blk.subspan(lr * lcn, lcn), c0, cstep,
                          [&](const T& x, std::size_t j) { return f(x, i, j); });
    }
  });
}

/// A[i][j] = f(A[i][j], B[i][j]); operands must be identically embedded.
template <class T, class F>
void mat_zip(DistMatrix<T>& A, const DistMatrix<T>& B, F f) {
  VMP_REQUIRE(A.aligned_with(B), "mat_zip operands must be aligned");
  A.grid().cube().compute(A.max_block(), A.nrows() * A.ncols(), [&](proc_t q) {
    kern::zip(A.data().tile(q), B.data().tile(q), f);
  });
}

/// Elementwise product C = A ∘ B (the multiply step of the paper's
/// primitive-composed matrix-vector product).
template <class T>
[[nodiscard]] DistMatrix<T> hadamard(const DistMatrix<T>& A,
                                     const DistMatrix<T>& B) {
  VMP_REQUIRE(A.aligned_with(B), "hadamard operands must be aligned");
  DistMatrix<T> C(A.grid(), A.nrows(), A.ncols(), A.layout());
  A.grid().cube().compute(A.max_block(), A.nrows() * A.ncols(), [&](proc_t q) {
    kern::zip_into(A.data().tile(q), B.data().tile(q), C.data().tile(q),
                   kern::op_fn(Multiply<T>{}));
  });
  return C;
}

/// Y += alpha · X; two flops per element.
template <class T>
void mat_axpy(DistMatrix<T>& Y, T alpha, const DistMatrix<T>& X) {
  VMP_REQUIRE(Y.aligned_with(X), "mat_axpy operands must be aligned");
  Y.grid().cube().compute(2 * Y.max_block(), 2 * Y.nrows() * Y.ncols(),
                          [&](proc_t q) {
                            kern::axpy(Y.data().tile(q), alpha,
                                       X.data().tile(q));
                          });
}

/// The rank-1 update A[i][j] += alpha · c[i] · r[j], with c Rows-aligned
/// and r Cols-aligned.  Thanks to the replicated vector embeddings every
/// processor already holds exactly the pieces of c and r its block needs:
/// NO communication, 2·m/p time — the reason the paper's Gaussian
/// elimination and simplex inner loops are processor-time optimal.
template <class T>
void rank1_update(DistMatrix<T>& A, T alpha, const DistVector<T>& c,
                  const DistVector<T>& r) {
  VMP_REQUIRE(c.align() == Align::Rows && c.part() == A.layout().rows &&
                  c.n() == A.nrows(),
              "rank1_update: c must be Rows-aligned with A");
  VMP_REQUIRE(r.align() == Align::Cols && r.part() == A.layout().cols &&
                  r.n() == A.ncols(),
              "rank1_update: r must be Cols-aligned with A");
  A.grid().cube().compute(
      2 * A.max_block(), 2 * A.nrows() * A.ncols(), [&](proc_t q) {
        kern::rank1(A.block(q), A.lcols(q), alpha, c.piece(q), r.piece(q));
      });
}

/// Ranged rank-1 update: A[i][j] += alpha · c[i] · r[j] only for
/// i ≥ row_lo, j ≥ col_lo.  Each processor touches (and is charged for)
/// only its slice of the active window, so with the Cyclic layout the cost
/// shrinks with the window — the load-balance property the paper's
/// Gaussian elimination relies on.  With the Block layout some processors
/// still own the whole window and the charged maximum stays large.
template <class T>
void rank1_update_range(DistMatrix<T>& A, T alpha, const DistVector<T>& c,
                        const DistVector<T>& r, std::size_t row_lo,
                        std::size_t col_lo) {
  VMP_REQUIRE(c.align() == Align::Rows && c.part() == A.layout().rows &&
                  c.n() == A.nrows(),
              "rank1_update_range: c must be Rows-aligned with A");
  VMP_REQUIRE(r.align() == Align::Cols && r.part() == A.layout().cols &&
                  r.n() == A.ncols(),
              "rank1_update_range: r must be Cols-aligned with A");
  Grid& grid = A.grid();
  std::uint64_t max_flops = 0, total_flops = 0;
  grid.cube().each_proc([&](proc_t q) {
    const std::size_t ar =
        A.lrows(q) - A.rowmap().first_local_at_or_after(grid.prow(q), row_lo);
    const std::size_t ac =
        A.lcols(q) - A.colmap().first_local_at_or_after(grid.pcol(q), col_lo);
    const std::uint64_t f = 2ull * ar * ac;
    max_flops = std::max(max_flops, f);
    total_flops += f;
  });
  grid.cube().compute(max_flops, total_flops, [&](proc_t q) {
    const std::size_t lr0 =
        A.rowmap().first_local_at_or_after(grid.prow(q), row_lo);
    const std::size_t lc0 =
        A.colmap().first_local_at_or_after(grid.pcol(q), col_lo);
    const std::size_t lrn = A.lrows(q), lcn = A.lcols(q);
    if (lr0 == lrn) return;
    // The window's rows, from (lr0, lc0) on, one kernel call.
    kern::rank1(A.block(q).subspan(lr0 * lcn + lc0), lcn, alpha,
                c.piece(q).subspan(lr0), r.piece(q).subspan(lc0));
  });
}

/// Read one matrix element back to the host, charging one one-element
/// message (the front-end fetch of a diagonal pivot, say).
template <class T>
[[nodiscard]] T mat_fetch(const DistMatrix<T>& A, std::size_t i,
                          std::size_t j) {
  VMP_REQUIRE(i < A.nrows() && j < A.ncols(), "index out of range");
  A.grid().cube().clock().charge_comm_step(1, 1, 1);
  return A.at(i, j);
}

/// Fold every element of A to a single host-visible scalar (local fold,
/// then a one-element all-reduce over the whole cube).
template <class T, class Op>
[[nodiscard]] T mat_fold(const DistMatrix<T>& A, Op op) {
  Grid& grid = A.grid();
  Cube& cube = grid.cube();
  DistBuffer<T> acc(cube, 1);
  cube.compute(A.max_block(), A.nrows() * A.ncols(), [&](proc_t q) {
    acc.tile(q)[0] =
        kern::fold(A.data().tile(q), op.identity(), kern::op_fn(op));
  });
  allreduce(cube, acc, grid.whole(), op);
  return acc.tile(0)[0];
}

}  // namespace vmp
