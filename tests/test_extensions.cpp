// Tests: matrix transposition, primitive-built matrix multiply, the
// conjugate-gradient solver, and the fully-naive Gaussian elimination.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "algorithms/cg.hpp"
#include "algorithms/gauss.hpp"
#include "algorithms/matmul.hpp"
#include "algorithms/serial/lu.hpp"
#include "core/transpose.hpp"
#include "util/workloads.hpp"
#include "param_printers.hpp"

namespace vmp {
namespace {

// ---------------------------------------------------------------------------
// transpose
// ---------------------------------------------------------------------------

struct TCase {
  int gr, gc;
  std::size_t nrows, ncols;
  MatrixLayout layout;
};

void PrintTo(const TCase& c, std::ostream* os) {
  *os << "grid " << c.gr << "x" << c.gc << " " << c.nrows << "x" << c.ncols
      << " ";
  PrintTo(c.layout, os);
}

class TransposeSweep : public ::testing::TestWithParam<TCase> {};

TEST_P(TransposeSweep, MatchesHostTranspose) {
  const TCase c = GetParam();
  Cube cube(c.gr + c.gc, CostParams::cm2());
  Grid grid(cube, c.gr, c.gc);
  const std::vector<double> host = random_matrix(c.nrows, c.ncols, 90);
  DistMatrix<double> A(grid, c.nrows, c.ncols, c.layout);
  A.load(host);
  const DistMatrix<double> B = transpose(A);
  EXPECT_EQ(B.nrows(), c.ncols);
  EXPECT_EQ(B.ncols(), c.nrows);
  EXPECT_EQ(B.layout().rows, c.layout.cols);
  EXPECT_EQ(B.layout().cols, c.layout.rows);
  const std::vector<double> got = B.to_host();
  for (std::size_t i = 0; i < c.nrows; ++i)
    for (std::size_t j = 0; j < c.ncols; ++j)
      EXPECT_EQ(got[j * c.nrows + i], host[i * c.ncols + j]);
}

TEST_P(TransposeSweep, DoubleTransposeIsIdentity) {
  const TCase c = GetParam();
  Cube cube(c.gr + c.gc, CostParams::cm2());
  Grid grid(cube, c.gr, c.gc);
  const std::vector<double> host = random_matrix(c.nrows, c.ncols, 91);
  DistMatrix<double> A(grid, c.nrows, c.ncols, c.layout);
  A.load(host);
  EXPECT_EQ(transpose(transpose(A)).to_host(), host);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TransposeSweep,
    ::testing::Values(TCase{0, 0, 3, 5, MatrixLayout::blocked()},
                      TCase{1, 1, 8, 8, MatrixLayout::blocked()},
                      TCase{2, 2, 13, 17, MatrixLayout::blocked()},
                      TCase{2, 2, 13, 17, MatrixLayout::cyclic()},
                      TCase{3, 1, 9, 20, MatrixLayout::cyclic()},
                      TCase{1, 3, 20, 9,
                            MatrixLayout{Part::Cyclic, Part::Block}},
                      TCase{2, 3, 1, 16, MatrixLayout::blocked()}));

// ---------------------------------------------------------------------------
// matmul
// ---------------------------------------------------------------------------

class MatmulSweep : public ::testing::TestWithParam<TCase> {};

TEST_P(MatmulSweep, MatchesHostGemm) {
  const TCase c = GetParam();
  Cube cube(c.gr + c.gc, CostParams::cm2());
  Grid grid(cube, c.gr, c.gc);
  const std::size_t n = c.nrows, k = c.ncols, m = c.nrows + 2;
  const std::vector<double> ha = random_matrix(n, k, 92);
  const std::vector<double> hb = random_matrix(k, m, 93);
  DistMatrix<double> A(grid, n, k, c.layout);
  DistMatrix<double> B(grid, k, m,
                       MatrixLayout{c.layout.cols, c.layout.rows});
  A.load(ha);
  B.load(hb);
  const DistMatrix<double> C = matmul(A, B);
  const std::vector<double> got = C.to_host();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < m; ++j) {
      double want = 0;
      for (std::size_t t = 0; t < k; ++t) want += ha[i * k + t] * hb[t * m + j];
      EXPECT_NEAR(got[i * m + j], want, 1e-11 * (1 + std::abs(want)));
    }
}

TEST_P(MatmulSweep, RejectsMismatchedInner) {
  const TCase c = GetParam();
  Cube cube(c.gr + c.gc, CostParams::cm2());
  Grid grid(cube, c.gr, c.gc);
  DistMatrix<double> A(grid, 4, 5, c.layout);
  DistMatrix<double> B(grid, 6, 4, c.layout);
  EXPECT_THROW((void)matmul(A, B), ContractError);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MatmulSweep,
    ::testing::Values(TCase{0, 0, 4, 6, MatrixLayout::blocked()},
                      TCase{1, 1, 8, 8, MatrixLayout::blocked()},
                      TCase{2, 2, 12, 9, MatrixLayout::blocked()},
                      TCase{2, 2, 12, 9, MatrixLayout::cyclic()},
                      TCase{2, 1, 7, 11, MatrixLayout::cyclic()},
                      TCase{1, 2, 11, 7, MatrixLayout::blocked()}));

// ---------------------------------------------------------------------------
// conjugate gradient
// ---------------------------------------------------------------------------

class CgSweep : public ::testing::TestWithParam<
                    std::tuple<int, int, std::size_t, MatrixLayout>> {};

TEST_P(CgSweep, SolvesSpdSystems) {
  const auto [gr, gc, n, layout] = GetParam();
  Cube cube(gr + gc, CostParams::cm2());
  Grid grid(cube, gr, gc);
  const HostMatrix H = spd_matrix(n, 94);
  const std::vector<double> b = random_vector(n, 95);
  DistMatrix<double> A(grid, n, n, layout);
  A.load(H.data());
  const CgResult res = conjugate_gradient(A, b, {1e-11, 0});
  ASSERT_TRUE(res.converged) << "n=" << n << " iters=" << res.iterations;
  double resid = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < n; ++j) s += H(i, j) * res.x[j];
    resid = std::max(resid, std::abs(s - b[i]));
  }
  EXPECT_LT(resid, 1e-7);
  // CG terminates in at most n steps in exact arithmetic.
  EXPECT_LE(res.iterations, n);
}

TEST_P(CgSweep, AgreesWithDirectSolve) {
  const auto [gr, gc, n, layout] = GetParam();
  Cube cube(gr + gc, CostParams::cm2());
  Grid grid(cube, gr, gc);
  HostMatrix H = spd_matrix(n, 96);
  const std::vector<double> b = random_vector(n, 97);
  DistMatrix<double> A(grid, n, n, layout);
  A.load(H.data());
  const CgResult res = conjugate_gradient(A, b, {1e-12, 0});
  const std::vector<double> direct = serial::gauss_solve(H, b);
  ASSERT_TRUE(res.converged);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(res.x[i], direct[i], 1e-6 * (1 + std::abs(direct[i])));
}

TEST(Cg, ZeroRhsReturnsZero) {
  Cube cube(2, CostParams::cm2());
  Grid grid(cube, 1, 1);
  DistMatrix<double> A(grid, 6, 6);
  A.load(spd_matrix(6, 98).data());
  const std::vector<double> b(6, 0.0);
  const CgResult res = conjugate_gradient(A, b);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 0u);
  for (double x : res.x) EXPECT_EQ(x, 0.0);
}

TEST(Cg, IndefiniteMatrixRejected) {
  Cube cube(2, CostParams::cm2());
  Grid grid(cube, 1, 1);
  const std::size_t n = 4;
  std::vector<double> host(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) host[i * n + i] = -1.0;
  DistMatrix<double> A(grid, n, n);
  A.load(host);
  const std::vector<double> b(n, 1.0);
  EXPECT_THROW((void)conjugate_gradient(A, b), ContractError);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CgSweep,
    ::testing::Values(
        std::tuple{0, 0, 12ul, MatrixLayout::blocked()},
        std::tuple{1, 1, 16ul, MatrixLayout::blocked()},
        std::tuple{2, 2, 24ul, MatrixLayout::blocked()},
        std::tuple{2, 2, 25ul, MatrixLayout::cyclic()},
        std::tuple{3, 1, 18ul, MatrixLayout::blocked()},
        std::tuple{1, 3, 18ul, MatrixLayout::cyclic()}));

// ---------------------------------------------------------------------------
// naive Gaussian elimination
// ---------------------------------------------------------------------------

TEST(NaiveGauss, FactorsExactlyLikeThePrimitiveVersion) {
  Cube cube(4, CostParams::cm2());
  Grid grid(cube, 2, 2);
  const std::size_t n = 12;
  const HostMatrix H = diag_dominant_matrix(n, 99);

  DistMatrix<double> A1(grid, n, n, MatrixLayout::cyclic());
  A1.load(H.data());
  const DistLuResult fast = lu_factor(A1);

  DistMatrix<double> A2(grid, n, n, MatrixLayout::cyclic());
  A2.load(H.data());
  const DistLuResult naive = lu_factor_naive(A2);

  ASSERT_FALSE(fast.singular);
  ASSERT_FALSE(naive.singular);
  EXPECT_EQ(naive.perm, fast.perm);
  const std::vector<double> f = A1.to_host(), nv = A2.to_host();
  for (std::size_t t = 0; t < f.size(); ++t)
    EXPECT_NEAR(nv[t], f[t], 1e-12 * (1 + std::abs(f[t]))) << "t=" << t;
}

TEST(NaiveGauss, SolvesCorrectly) {
  Cube cube(4, CostParams::cm2());
  Grid grid(cube, 2, 2);
  const std::size_t n = 10;
  const HostMatrix H = diag_dominant_matrix(n, 100);
  const std::vector<double> b = random_vector(n, 101);
  DistMatrix<double> A(grid, n, n, MatrixLayout::cyclic());
  A.load(H.data());
  const DistLuResult lu = lu_factor_naive(A);
  ASSERT_FALSE(lu.singular);
  const std::vector<double> x = lu_solve(A, lu, b);
  for (std::size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < n; ++j) s += H(i, j) * x[j];
    EXPECT_NEAR(s, b[i], 1e-9);
  }
}

TEST(NaiveGauss, MuchSlowerThanPrimitives) {
  Cube cube(4, CostParams::cm2());
  Grid grid(cube, 2, 2);
  const std::size_t n = 16;
  const HostMatrix H = diag_dominant_matrix(n, 102);

  DistMatrix<double> A1(grid, n, n, MatrixLayout::cyclic());
  A1.load(H.data());
  cube.clock().reset();
  (void)lu_factor(A1);
  const double t_fast = cube.clock().now_us();

  DistMatrix<double> A2(grid, n, n, MatrixLayout::cyclic());
  A2.load(H.data());
  cube.clock().reset();
  (void)lu_factor_naive(A2);
  const double t_naive = cube.clock().now_us();

  EXPECT_GT(t_naive / t_fast, 8.0)
      << "naive=" << t_naive << " fast=" << t_fast;
}

}  // namespace
}  // namespace vmp
