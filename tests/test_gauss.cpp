// Integration tests: distributed Gaussian elimination vs the serial LU
// reference — identical pivot sequences, matching factors, small residuals.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "algorithms/gauss.hpp"
#include "algorithms/serial/lu.hpp"
#include "util/workloads.hpp"
#include "param_printers.hpp"

namespace vmp {
namespace {

struct GeCase {
  int gr, gc;
  std::size_t n;
  MatrixLayout layout;
  std::uint64_t seed;
};

void PrintTo(const GeCase& c, std::ostream* os) {
  *os << "grid " << c.gr << "x" << c.gc << " n" << c.n << " ";
  PrintTo(c.layout, os);
  *os << " seed" << c.seed;
}

class GaussSweep : public ::testing::TestWithParam<GeCase> {
 protected:
  void SetUp() override {
    const GeCase c = GetParam();
    cube = std::make_unique<Cube>(c.gr + c.gc, CostParams::cm2());
    grid = std::make_unique<Grid>(*cube, c.gr, c.gc);
    H = diag_dominant_matrix(c.n, c.seed);
    A = std::make_unique<DistMatrix<double>>(*grid, c.n, c.n, c.layout);
    A->load(H.data());
  }

  std::unique_ptr<Cube> cube;
  std::unique_ptr<Grid> grid;
  HostMatrix H;
  std::unique_ptr<DistMatrix<double>> A;
};

TEST_P(GaussSweep, FactorMatchesSerialExactly) {
  const GeCase c = GetParam();
  HostMatrix Hcopy = H;
  const serial::LuResult sref = serial::lu_factor(Hcopy);
  const DistLuResult dref = lu_factor(*A);
  ASSERT_FALSE(sref.singular);
  ASSERT_FALSE(dref.singular);
  EXPECT_EQ(dref.perm, sref.perm) << "identical pivot sequences expected";
  const std::vector<double> got = A->to_host();
  for (std::size_t i = 0; i < c.n; ++i)
    for (std::size_t j = 0; j < c.n; ++j)
      EXPECT_NEAR(got[i * c.n + j], Hcopy(i, j),
                  1e-12 * (1 + std::abs(Hcopy(i, j))))
          << "element (" << i << "," << j << ")";
}

TEST_P(GaussSweep, SolveHasSmallResidual) {
  const GeCase c = GetParam();
  const std::vector<double> b = random_vector(c.n, c.seed + 1);
  const std::vector<double> x = gauss_solve(*A, b);
  // residual ||Ax - b||_inf against the ORIGINAL matrix
  double resid = 0;
  for (std::size_t i = 0; i < c.n; ++i) {
    double s = 0;
    for (std::size_t j = 0; j < c.n; ++j) s += H(i, j) * x[j];
    resid = std::max(resid, std::abs(s - b[i]));
  }
  EXPECT_LT(resid, 1e-9) << "n=" << c.n;
}

TEST_P(GaussSweep, SolveMatchesSerialSolve) {
  const GeCase c = GetParam();
  const std::vector<double> b = random_vector(c.n, c.seed + 2);
  HostMatrix Hcopy = H;
  const std::vector<double> want = serial::gauss_solve(Hcopy, b);
  const std::vector<double> got = gauss_solve(*A, b);
  for (std::size_t i = 0; i < c.n; ++i)
    EXPECT_NEAR(got[i], want[i], 1e-9 * (1 + std::abs(want[i])));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GaussSweep,
    ::testing::Values(GeCase{0, 0, 8, MatrixLayout::cyclic(), 1},
                      GeCase{1, 1, 8, MatrixLayout::cyclic(), 2},
                      GeCase{2, 2, 16, MatrixLayout::cyclic(), 3},
                      GeCase{2, 2, 17, MatrixLayout::cyclic(), 4},
                      GeCase{2, 2, 17, MatrixLayout::blocked(), 5},
                      GeCase{3, 1, 12, MatrixLayout::cyclic(), 6},
                      GeCase{1, 3, 12, MatrixLayout::blocked(), 7},
                      GeCase{2, 3, 20, MatrixLayout::cyclic(), 8},
                      GeCase{2, 2, 3, MatrixLayout::cyclic(), 9}));

TEST(Gauss, SingularMatrixIsDetected) {
  Cube cube(4, CostParams::cm2());
  Grid grid(cube, 2, 2);
  const std::size_t n = 8;
  std::vector<double> host = random_matrix(n, n, 77);
  // Make row 5 a copy of row 2: rank deficient.
  for (std::size_t j = 0; j < n; ++j) host[5 * n + j] = host[2 * n + j];
  DistMatrix<double> A(grid, n, n, MatrixLayout::cyclic());
  A.load(host);
  const DistLuResult lu = lu_factor(A);
  EXPECT_TRUE(lu.singular);
  // Serial agrees.
  HostMatrix H(n, n, host);
  EXPECT_TRUE(serial::lu_factor(H).singular);
}

TEST(Gauss, PivotingIsExercised) {
  // A matrix whose natural order would divide by ~zero without pivoting.
  Cube cube(2, CostParams::cm2());
  Grid grid(cube, 1, 1);
  const std::size_t n = 4;
  std::vector<double> host = {0.0, 2.0, 1.0, 3.0,  //
                              4.0, 1.0, 0.0, 1.0,  //
                              1.0, 0.5, 3.0, 2.0,  //
                              2.0, 1.0, 1.0, 0.0};
  DistMatrix<double> A(grid, n, n, MatrixLayout::cyclic());
  A.load(host);
  const DistLuResult lu = lu_factor(A);
  ASSERT_FALSE(lu.singular);
  EXPECT_NE(lu.perm[0], 0u) << "row 0 has a zero pivot; a swap must happen";
  const std::vector<double> b = {1, 2, 3, 4};
  const std::vector<double> x = lu_solve(A, lu, b);
  HostMatrix H(n, n, host);
  for (std::size_t i = 0; i < n; ++i) {
    double s = 0;
    for (std::size_t j = 0; j < n; ++j) s += H(i, j) * x[j];
    EXPECT_NEAR(s, b[i], 1e-10);
  }
}

TEST(Gauss, NonSquareRejected) {
  Cube cube(2, CostParams::cm2());
  Grid grid(cube, 1, 1);
  DistMatrix<double> A(grid, 4, 5);
  EXPECT_THROW((void)lu_factor(A), ContractError);
}

TEST(Gauss, CyclicBeatsBlockedInSimulatedTime) {
  // The cyclic embedding keeps all processor rows busy as the active
  // window shrinks; blocked idles them — cyclic must win for n >> grid.
  Cube cube(4, CostParams::cm2());
  Grid grid(cube, 2, 2);
  const std::size_t n = 32;
  const HostMatrix H = diag_dominant_matrix(n, 91);

  DistMatrix<double> Ac(grid, n, n, MatrixLayout::cyclic());
  Ac.load(H.data());
  cube.clock().reset();
  (void)lu_factor(Ac);
  const double t_cyclic = cube.clock().now_us();

  DistMatrix<double> Ab(grid, n, n, MatrixLayout::blocked());
  Ab.load(H.data());
  cube.clock().reset();
  (void)lu_factor(Ab);
  const double t_blocked = cube.clock().now_us();

  EXPECT_LT(t_cyclic, t_blocked);
}

}  // namespace
}  // namespace vmp
