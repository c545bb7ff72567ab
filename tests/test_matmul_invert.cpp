// Tests: SUMMA block-panel matmul and Gauss-Jordan inversion, plus the
// brute-force LP oracle cross-check of both simplex solvers.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "algorithms/invert.hpp"
#include "algorithms/matmul.hpp"
#include "algorithms/serial/simplex.hpp"
#include "algorithms/simplex.hpp"
#include "lp_oracle.hpp"
#include "util/workloads.hpp"
#include "param_printers.hpp"

namespace vmp {
namespace {

// ---------------------------------------------------------------------------
// SUMMA
// ---------------------------------------------------------------------------

class SummaSweep : public ::testing::TestWithParam<
                       std::tuple<int, int, std::size_t, std::size_t,
                                  std::size_t>> {};

TEST_P(SummaSweep, MatchesHostGemmAndRank1Version) {
  const auto [gr, gc, n, k, m] = GetParam();
  Cube cube(gr + gc, CostParams::cm2());
  Grid grid(cube, gr, gc);
  const std::vector<double> ha = random_matrix(n, k, 311);
  const std::vector<double> hb = random_matrix(k, m, 312);
  DistMatrix<double> A(grid, n, k);
  DistMatrix<double> B(grid, k, m);
  A.load(ha);
  B.load(hb);
  const std::vector<double> got = matmul_summa(A, B).to_host();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < m; ++j) {
      double want = 0;
      for (std::size_t t = 0; t < k; ++t) want += ha[i * k + t] * hb[t * m + j];
      EXPECT_NEAR(got[i * m + j], want, 1e-11 * (1 + std::abs(want)))
          << i << "," << j;
    }
}

TEST_P(SummaSweep, CheaperThanRank1ForLargeMatrices) {
  const auto [gr, gc, n, k, m] = GetParam();
  if (n < 32 || gr + gc < 2) GTEST_SKIP();
  Cube cube(gr + gc, CostParams::cm2());
  Grid grid(cube, gr, gc);
  DistMatrix<double> A(grid, n, k);
  DistMatrix<double> B(grid, k, m);
  A.load(random_matrix(n, k, 313));
  B.load(random_matrix(k, m, 314));
  cube.clock().reset();
  (void)matmul(A, B);
  const double t_rank1 = cube.clock().now_us();
  cube.clock().reset();
  (void)matmul_summa(A, B);
  const double t_summa = cube.clock().now_us();
  EXPECT_LT(t_summa, t_rank1)
      << "panel broadcasts must amortize the per-column start-ups";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SummaSweep,
    ::testing::Values(std::tuple{0, 0, 5ul, 7ul, 6ul},
                      std::tuple{1, 1, 8ul, 8ul, 8ul},
                      std::tuple{2, 2, 12ul, 10ul, 9ul},
                      std::tuple{2, 2, 32ul, 32ul, 32ul},
                      std::tuple{2, 1, 9ul, 17ul, 5ul},
                      std::tuple{1, 2, 5ul, 17ul, 9ul},
                      std::tuple{3, 3, 40ul, 24ul, 16ul}));

TEST(Summa, CyclicReductionAxisRejected) {
  Cube cube(2, CostParams::cm2());
  Grid grid(cube, 1, 1);
  DistMatrix<double> A(grid, 4, 4, MatrixLayout::cyclic());
  DistMatrix<double> B(grid, 4, 4, MatrixLayout::cyclic());
  EXPECT_THROW((void)matmul_summa(A, B), ContractError);
}

// ---------------------------------------------------------------------------
// Gauss-Jordan inversion
// ---------------------------------------------------------------------------

class InvertSweep : public ::testing::TestWithParam<
                        std::tuple<int, int, std::size_t, MatrixLayout>> {};

TEST_P(InvertSweep, ProductWithInverseIsIdentity) {
  const auto [gr, gc, n, layout] = GetParam();
  Cube cube(gr + gc, CostParams::cm2());
  Grid grid(cube, gr, gc);
  const HostMatrix H = diag_dominant_matrix(n, 321);
  DistMatrix<double> A(grid, n, n, layout);
  A.load(H.data());
  const InvertResult inv = invert(A);
  ASSERT_FALSE(inv.singular);
  const std::vector<double> hi = inv.inverse.to_host();
  // host check: H · H⁻¹ = I
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0;
      for (std::size_t t = 0; t < n; ++t) s += H(i, t) * hi[t * n + j];
      EXPECT_NEAR(s, i == j ? 1.0 : 0.0, 1e-8) << i << "," << j;
    }
}

TEST_P(InvertSweep, OriginalMatrixIsUntouched) {
  const auto [gr, gc, n, layout] = GetParam();
  Cube cube(gr + gc, CostParams::cm2());
  Grid grid(cube, gr, gc);
  const HostMatrix H = diag_dominant_matrix(n, 322);
  DistMatrix<double> A(grid, n, n, layout);
  A.load(H.data());
  (void)invert(A);
  EXPECT_EQ(A.to_host(), H.data());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, InvertSweep,
    ::testing::Values(std::tuple{0, 0, 6ul, MatrixLayout::blocked()},
                      std::tuple{1, 1, 8ul, MatrixLayout::blocked()},
                      std::tuple{2, 2, 12ul, MatrixLayout::blocked()},
                      std::tuple{2, 2, 13ul, MatrixLayout::cyclic()},
                      std::tuple{2, 1, 9ul, MatrixLayout::cyclic()},
                      std::tuple{2, 2, 1ul, MatrixLayout::blocked()}));

TEST(Invert, SingularDetected) {
  Cube cube(4, CostParams::cm2());
  Grid grid(cube, 2, 2);
  const std::size_t n = 6;
  std::vector<double> host = random_matrix(n, n, 323);
  for (std::size_t j = 0; j < n; ++j) host[4 * n + j] = 2.0 * host[1 * n + j];
  DistMatrix<double> A(grid, n, n);
  A.load(host);
  EXPECT_TRUE(invert(A).singular);
}

TEST(Invert, InverseOfIdentityIsIdentity) {
  Cube cube(2, CostParams::cm2());
  Grid grid(cube, 1, 1);
  const std::size_t n = 5;
  std::vector<double> host(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) host[i * n + i] = 1.0;
  DistMatrix<double> A(grid, n, n);
  A.load(host);
  const InvertResult inv = invert(A);
  ASSERT_FALSE(inv.singular);
  EXPECT_EQ(inv.inverse.to_host(), host);
}

// ---------------------------------------------------------------------------
// Simplex vs the brute-force oracle (independent ground truth).
// ---------------------------------------------------------------------------

class OracleSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OracleSweep, BothSolversMatchBruteForce) {
  const std::uint64_t seed = GetParam();
  const LpProblem lp = random_feasible_lp(4, 3, seed);
  const testing::OracleResult want = testing::brute_force_lp(lp);
  ASSERT_TRUE(want.feasible);

  const LpSolution serial = serial::simplex_solve(lp);
  ASSERT_EQ(serial.status, LpStatus::Optimal);
  EXPECT_NEAR(serial.objective, want.objective,
              1e-8 * (1 + std::abs(want.objective)));

  Cube cube(4, CostParams::cm2());
  Grid grid(cube, 2, 2);
  const LpSolution dist = simplex_solve(grid, lp);
  ASSERT_EQ(dist.status, LpStatus::Optimal);
  EXPECT_NEAR(dist.objective, want.objective,
              1e-8 * (1 + std::abs(want.objective)));
}

TEST_P(OracleSweep, Phase1ProblemsMatchBruteForce) {
  const std::uint64_t seed = GetParam();
  const LpProblem lp = random_phase1_lp(3, 3, seed);
  const testing::OracleResult want = testing::brute_force_lp(lp);
  ASSERT_TRUE(want.feasible);
  const LpSolution serial = serial::simplex_solve(lp);
  ASSERT_EQ(serial.status, LpStatus::Optimal);
  EXPECT_NEAR(serial.objective, want.objective,
              1e-7 * (1 + std::abs(want.objective)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleSweep,
                         ::testing::Range<std::uint64_t>(1000, 1012));

}  // namespace
}  // namespace vmp
