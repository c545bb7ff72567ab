#include "algorithms/spmv.hpp"

#include "comm/collectives.hpp"
#include "core/kernels.hpp"
#include "core/sparse_primitives.hpp"
#include "obs/trace.hpp"

namespace vmp {

DistVector<double> spmv(const DistSparseMatrix<double>& A,
                        const DistVector<double>& x) {
  detail::require_line("spmv", A, Axis::Row, x);
  VMP_TRACE(A.grid().cube(), "spmv");
  const DistSparseMatrix<double> X = distribute_like(A, x, Axis::Row);
  const DistSparseMatrix<double> P = hadamard(A, X);
  return reduce(P, Axis::Row, Plus<double>{});
}

DistVector<double> spmv_fused(const DistSparseMatrix<double>& A,
                              const DistVector<double>& x) {
  detail::require_line("spmv_fused", A, Axis::Row, x);
  Grid& grid = A.grid();
  Cube& cube = grid.cube();
  VMP_TRACE(cube, "spmv_fused");
  DistVector<double> y(grid, A.nrows(), Align::Rows, A.layout().rows);
  cube.compute(2 * A.max_tile_nnz(), 2 * A.nnz(), [&](proc_t q) {
    const std::size_t lrn = A.lrows(q);
    kern::dot_sparse(A.tile_rowptr(q), A.tile_colind(q), A.tile_vals(q), lrn,
                     x.piece(q), y.data().tile(q).first(lrn));
  });
  allreduce_auto(cube, y.data(), grid.within_row(), Plus<double>{});
  return y;
}

}  // namespace vmp
