#include "algorithms/matvec.hpp"

#include "comm/collectives.hpp"
#include "core/elementwise.hpp"
#include "core/kernels.hpp"
#include "core/primitives.hpp"
#include "obs/trace.hpp"

namespace vmp {

DistVector<double> matvec(const DistMatrix<double>& A,
                          const DistVector<double>& x) {
  detail::require_line("matvec", A, Axis::Row, x);
  VMP_TRACE(A.grid().cube(), "matvec");
  const DistMatrix<double> X = distribute(x, Axis::Row, A.nrows(), A.layout().rows);
  const DistMatrix<double> P = hadamard(A, X);
  return reduce(P, Axis::Row, Plus<double>{});
}

DistVector<double> matvec_fused(const DistMatrix<double>& A,
                                const DistVector<double>& x) {
  detail::require_line("matvec_fused", A, Axis::Row, x);
  Grid& grid = A.grid();
  Cube& cube = grid.cube();
  VMP_TRACE(cube, "matvec_fused");
  DistVector<double> y(grid, A.nrows(), Align::Rows, A.layout().rows);
  cube.compute(2 * A.max_block(), 2 * A.nrows() * A.ncols(), [&](proc_t q) {
    const std::size_t lrn = A.lrows(q), lcn = A.lcols(q);
    const std::span<const double> blk = A.block(q);
    const std::span<const double> xp = x.piece(q);
    const std::span<double> yp = y.data().tile(q);
    kern::dot_rows(blk.first(lrn * lcn), lrn, lcn, xp.first(lcn),
                   yp.first(lrn));
  });
  allreduce_auto(cube, y.data(), grid.within_row(), Plus<double>{});
  return y;
}

DistVector<double> vecmat(const DistVector<double>& x,
                          const DistMatrix<double>& A) {
  detail::require_line("vecmat", A, Axis::Col, x);
  VMP_TRACE(A.grid().cube(), "vecmat");
  const DistMatrix<double> X = distribute(x, Axis::Col, A.ncols(), A.layout().cols);
  const DistMatrix<double> P = hadamard(A, X);
  return reduce(P, Axis::Col, Plus<double>{});
}

DistVector<double> vecmat_fused(const DistVector<double>& x,
                                const DistMatrix<double>& A) {
  detail::require_line("vecmat_fused", A, Axis::Col, x);
  Grid& grid = A.grid();
  Cube& cube = grid.cube();
  VMP_TRACE(cube, "vecmat_fused");
  DistVector<double> y(grid, A.ncols(), Align::Cols, A.layout().cols);
  cube.compute(2 * A.max_block(), 2 * A.nrows() * A.ncols(), [&](proc_t q) {
    const std::size_t lrn = A.lrows(q), lcn = A.lcols(q);
    const std::span<const double> blk = A.block(q);
    const std::span<const double> xp = x.piece(q);
    const std::span<double> yp = y.data().tile(q);
    kern::fill(yp.first(lcn), 0.0);
    kern::axpy_rows(yp.first(lcn), xp.first(lrn), blk, lcn);
  });
  allreduce_auto(cube, y.data(), grid.within_col(), Plus<double>{});
  return y;
}

}  // namespace vmp
