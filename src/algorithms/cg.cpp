#include "algorithms/cg.hpp"

#include <cmath>

#include "algorithms/matvec.hpp"
#include "algorithms/spmv.hpp"
#include "core/kernels.hpp"
#include "core/sparse_primitives.hpp"
#include "core/vector_ops.hpp"
#include "embed/realign.hpp"

namespace vmp {

namespace {

// The one storage-dependent step of a CG iteration: y = A·p, Cols in,
// Rows out.  Both spellings charge through the same cost model, so the
// templated loop below runs the identical operation sequence on either
// backend.
DistVector<double> apply_fused(const DistMatrix<double>& A,
                               const DistVector<double>& p) {
  return matvec_fused(A, p);
}
DistVector<double> apply_fused(const DistSparseMatrix<double>& A,
                               const DistVector<double>& p) {
  return spmv_fused(A, p);
}

template <class Mat>
CgResult cg_impl(const Mat& A, std::span<const double> b, CgOptions opts) {
  VMP_REQUIRE(A.nrows() == A.ncols(), "CG needs a square (SPD) matrix");
  const std::size_t n = A.nrows();
  VMP_REQUIRE(b.size() == n, "rhs length mismatch");
  Grid& grid = A.grid();
  const Part cpart = A.layout().cols;
  const std::size_t max_iters = opts.max_iters == 0 ? n : opts.max_iters;

  // x, r, p all live Cols-aligned; A·p comes back Rows-aligned and is
  // realigned once per iteration (a charged embedding change).
  DistVector<double> x(grid, n, Align::Cols, cpart);
  DistVector<double> r(grid, n, Align::Cols, cpart);
  r.load(b);
  DistVector<double> p = r;

  const double b2 = dot(r, r);
  CgResult out;
  if (b2 == 0.0) {
    out.x.assign(n, 0.0);
    out.converged = true;
    return out;
  }
  double rs = b2;
  const double target2 = opts.tol * opts.tol * b2;

  for (std::size_t it = 0; it < max_iters; ++it) {
    const DistVector<double> Ap_rows = apply_fused(A, p);
    const DistVector<double> Ap = realign(Ap_rows, Align::Cols, cpart);
    const double pAp = dot(p, Ap);
    VMP_REQUIRE(pAp > 0.0, "matrix is not positive definite");
    const double alpha = rs / pAp;
    vec_axpy(x, alpha, p);
    vec_axpy(r, -alpha, Ap);
    const double rs_next = dot(r, r);
    out.iterations = it + 1;
    if (rs_next <= target2) {
      rs = rs_next;
      out.converged = true;
      break;
    }
    const double beta = rs_next / rs;
    rs = rs_next;
    // p = r + beta·p
    vec_scale(p, beta);
    vec_axpy(p, 1.0, r);
  }
  out.residual_norm = std::sqrt(rs);
  out.x = x.to_host();
  return out;
}

template <class Mat>
CgResult cg_jacobi_impl(const Mat& A, std::span<const double> b,
                        CgOptions opts) {
  VMP_REQUIRE(A.nrows() == A.ncols(), "CG needs a square (SPD) matrix");
  const std::size_t n = A.nrows();
  VMP_REQUIRE(b.size() == n, "rhs length mismatch");
  Grid& grid = A.grid();
  const Part cpart = A.layout().cols;
  const std::size_t max_iters = opts.max_iters == 0 ? n : opts.max_iters;

  DistVector<double> invdiag = extract_diagonal(A);
  vec_apply(invdiag, [](double x) {
    VMP_REQUIRE(x > 0.0, "Jacobi preconditioner needs a positive diagonal");
    return 1.0 / x;
  });

  DistVector<double> x(grid, n, Align::Cols, cpart);
  DistVector<double> r(grid, n, Align::Cols, cpart);
  r.load(b);
  DistVector<double> z = r;
  vec_zip(z, invdiag, [](double a, double m) { return a * m; });
  DistVector<double> p = z;

  const double b2 = dot(r, r);
  CgResult out;
  if (b2 == 0.0) {
    out.x.assign(n, 0.0);
    out.converged = true;
    return out;
  }
  double rz = dot(r, z);
  const double target2 = opts.tol * opts.tol * b2;

  for (std::size_t it = 0; it < max_iters; ++it) {
    const DistVector<double> Ap_rows = apply_fused(A, p);
    const DistVector<double> Ap = realign(Ap_rows, Align::Cols, cpart);
    const double pAp = dot(p, Ap);
    VMP_REQUIRE(pAp > 0.0, "matrix is not positive definite");
    const double alpha = rz / pAp;
    vec_axpy(x, alpha, p);
    vec_axpy(r, -alpha, Ap);
    const double rr = dot(r, r);
    out.iterations = it + 1;
    if (rr <= target2) {
      out.residual_norm = std::sqrt(rr);
      out.converged = true;
      out.x = x.to_host();
      return out;
    }
    z = r;
    vec_zip(z, invdiag, [](double a, double m) { return a * m; });
    const double rz_next = dot(r, z);
    const double beta = rz_next / rz;
    rz = rz_next;
    vec_scale(p, beta);
    vec_axpy(p, 1.0, z);
  }
  out.residual_norm = std::sqrt(dot(r, r));
  out.x = x.to_host();
  return out;
}

/// The diagonal as a Cols-aligned vector; an unstored sparse diagonal
/// entry reads as zero.
template <class Mat>
DistVector<double> diagonal_impl(const Mat& A) {
  VMP_REQUIRE(A.nrows() == A.ncols(), "diagonal of a square matrix only");
  Grid& grid = A.grid();
  Cube& cube = grid.cube();
  DistVector<double> diag(grid, A.ncols(), Align::Cols, A.layout().cols);
  cube.compute(detail::max_piece(A.colmap()), A.ncols(), [&](proc_t q) {
    const std::uint32_t R = grid.prow(q), C = grid.pcol(q);
    const std::span<double> piece = diag.data().tile(q);
    kern::fill(piece, 0.0);
    for (std::size_t lc = 0; lc < A.lcols(q); ++lc) {
      const std::size_t j = A.colmap().global(C, lc);
      if (A.rowmap().owner(j) != R) continue;  // diagonal not in my tile
      piece[lc] = detail::Tiles<Mat>::get(A, q, A.rowmap().local(j), lc);
    }
  });
  // Each column's diagonal entry exists on exactly one grid row: a sum
  // all-reduce replicates it to the rest.
  allreduce_auto(cube, diag.data(), grid.within_col(), Plus<double>{});
  return diag;
}

}  // namespace

CgResult conjugate_gradient(const DistMatrix<double>& A,
                            std::span<const double> b, CgOptions opts) {
  return cg_impl(A, b, opts);
}

CgResult conjugate_gradient(const DistSparseMatrix<double>& A,
                            std::span<const double> b, CgOptions opts) {
  return cg_impl(A, b, opts);
}

CgResult conjugate_gradient_jacobi(const DistMatrix<double>& A,
                                   std::span<const double> b, CgOptions opts) {
  return cg_jacobi_impl(A, b, opts);
}

CgResult conjugate_gradient_jacobi(const DistSparseMatrix<double>& A,
                                   std::span<const double> b, CgOptions opts) {
  return cg_jacobi_impl(A, b, opts);
}

DistVector<double> extract_diagonal(const DistMatrix<double>& A) {
  return diagonal_impl(A);
}

DistVector<double> extract_diagonal(const DistSparseMatrix<double>& A) {
  return diagonal_impl(A);
}

}  // namespace vmp
