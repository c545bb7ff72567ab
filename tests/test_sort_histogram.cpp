// Tests: distributed bitonic sort, histogram by all-to-all reduction, and
// Jacobi-preconditioned CG.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "algorithms/cg.hpp"
#include "algorithms/histogram.hpp"
#include "algorithms/sort.hpp"
#include "util/workloads.hpp"
#include "param_printers.hpp"

namespace vmp {
namespace {

class SortSweep : public ::testing::TestWithParam<
                      std::tuple<int, int, std::size_t, std::uint64_t>> {};

TEST_P(SortSweep, MatchesStdSort) {
  const auto [gr, gc, n, seed] = GetParam();
  Cube cube(gr + gc, CostParams::cm2());
  Grid grid(cube, gr, gc);
  std::vector<double> host = random_vector(n, seed);
  DistVector<double> v(grid, n, Align::Linear);
  v.load(host);
  vec_sort(v);
  std::sort(host.begin(), host.end());
  EXPECT_EQ(v.to_host(), host);
}

TEST_P(SortSweep, DuplicatesAndPresortedInputs) {
  const auto [gr, gc, n, seed] = GetParam();
  Cube cube(gr + gc, CostParams::cm2());
  Grid grid(cube, gr, gc);
  // Heavy duplication.
  std::vector<double> host(n);
  SplitMix64 rng(seed);
  for (double& x : host) x = static_cast<double>(rng.below(4));
  DistVector<double> v(grid, n, Align::Linear);
  v.load(host);
  vec_sort(v);
  std::sort(host.begin(), host.end());
  EXPECT_EQ(v.to_host(), host);

  // Already sorted and reverse sorted stay/become sorted.
  std::vector<double> asc(n), desc(n);
  for (std::size_t g = 0; g < n; ++g) {
    asc[g] = static_cast<double>(g);
    desc[g] = static_cast<double>(n - g);
  }
  v.load(asc);
  vec_sort(v);
  EXPECT_EQ(v.to_host(), asc);
  v.load(desc);
  vec_sort(v);
  std::sort(desc.begin(), desc.end());
  EXPECT_EQ(v.to_host(), desc);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SortSweep,
    ::testing::Values(std::tuple{0, 0, 10ul, 1ull}, std::tuple{1, 0, 9ul, 2ull},
                      std::tuple{1, 1, 16ul, 3ull},
                      std::tuple{2, 2, 64ul, 4ull},
                      std::tuple{2, 2, 65ul, 5ull},   // non-divisible
                      std::tuple{3, 2, 37ul, 6ull},   // n close to p
                      std::tuple{3, 3, 23ul, 7ull},   // n < p·mx padding
                      std::tuple{2, 3, 1000ul, 8ull},
                      std::tuple{2, 2, 1ul, 9ull}));

TEST(Sort, EmptyVectorIsFine) {
  Cube cube(2, CostParams::cm2());
  Grid grid(cube, 1, 1);
  DistVector<double> v(grid, 0, Align::Linear);
  EXPECT_NO_THROW(vec_sort(v));
}

TEST(Sort, NonLinearRejected) {
  Cube cube(2, CostParams::cm2());
  Grid grid(cube, 1, 1);
  DistVector<double> v(grid, 8, Align::Cols);
  EXPECT_THROW(vec_sort(v), ContractError);
}

TEST(Sort, ScalesWithProcessors) {
  const std::size_t n = 4096;
  const std::vector<double> host = random_vector(n, 10);
  const auto run = [&](int d) {
    Cube cube(d, CostParams::cm2());
    Grid grid = Grid::square(cube);
    DistVector<double> v(grid, n, Align::Linear);
    v.load(host);
    cube.clock().reset();
    vec_sort(v);
    return cube.clock().now_us();
  };
  EXPECT_LT(run(6), run(0));
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

class HistSweep : public ::testing::TestWithParam<
                      std::tuple<int, int, std::size_t, std::size_t, Align>> {
};

TEST_P(HistSweep, MatchesHostCounts) {
  const auto [gr, gc, n, bins, align] = GetParam();
  Cube cube(gr + gc, CostParams::cm2());
  Grid grid(cube, gr, gc);
  const std::vector<double> host = random_vector(n, 21);
  DistVector<double> v(grid, n, align);
  v.load(host);
  const std::vector<std::uint64_t> got = histogram(v, bins, -1.0, 1.0);
  ASSERT_EQ(got.size(), bins);
  std::vector<std::uint64_t> want(bins, 0);
  for (double x : host) {
    double t = (x + 1.0) / 2.0 * static_cast<double>(bins);
    std::size_t b = t <= 0 ? 0 : static_cast<std::size_t>(t);
    if (b >= bins) b = bins - 1;
    ++want[b];
  }
  EXPECT_EQ(got, want);
  std::uint64_t total = 0;
  for (std::uint64_t x : got) total += x;
  EXPECT_EQ(total, n);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HistSweep,
    ::testing::Combine(::testing::Values(0, 2), ::testing::Values(0, 2),
                       ::testing::Values<std::size_t>(1, 100, 1000),
                       ::testing::Values<std::size_t>(1, 4, 16),
                       ::testing::Values(Align::Linear, Align::Cols)));

TEST(Histogram, OutOfRangeClampsToEndBins) {
  Cube cube(2, CostParams::cm2());
  Grid grid(cube, 1, 1);
  DistVector<double> v(grid, 4, Align::Linear);
  v.load(std::vector<double>{-100.0, 0.25, 0.75, 100.0});
  const std::vector<std::uint64_t> got = histogram(v, 2, 0.0, 1.0);
  EXPECT_EQ(got[0], 2u);  // -100 clamps low
  EXPECT_EQ(got[1], 2u);  // 100 clamps high
}

TEST(Histogram, BadArgsRejected) {
  Cube cube(2, CostParams::cm2());
  Grid grid(cube, 1, 1);
  DistVector<double> v(grid, 4, Align::Linear);
  EXPECT_THROW((void)histogram(v, 0, 0.0, 1.0), ContractError);
  EXPECT_THROW((void)histogram(v, 4, 1.0, 1.0), ContractError);
}

// ---------------------------------------------------------------------------
// Preconditioned CG
// ---------------------------------------------------------------------------

TEST(PcgJacobi, DiagonalExtractionMatchesHost) {
  Cube cube(4, CostParams::cm2());
  Grid grid(cube, 2, 2);
  const std::size_t n = 13;
  const HostMatrix H = spd_matrix(n, 31);
  DistMatrix<double> A(grid, n, n);
  A.load(H.data());
  const std::vector<double> d = extract_diagonal(A).to_host();
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(d[i], H(i, i));
}

TEST(PcgJacobi, SolvesAndBeatsPlainCgOnBadlyScaledSystems) {
  Cube cube(4, CostParams::cm2());
  Grid grid(cube, 2, 2);
  const std::size_t n = 24;
  // Badly scaled SPD: diagonal spans five orders of magnitude.
  HostMatrix H = spd_matrix(n, 32);
  for (std::size_t i = 0; i < n; ++i) {
    const double s = std::pow(10.0, static_cast<double>(i % 6));
    for (std::size_t j = 0; j < n; ++j) {
      H(i, j) *= s;
      H(j, i) = H(i, j);
    }
    H(i, i) *= s;
  }
  // Re-symmetrize by averaging and re-dominate the diagonal.
  for (std::size_t i = 0; i < n; ++i) {
    double off = 0;
    for (std::size_t j = 0; j < n; ++j)
      if (j != i) {
        H(i, j) = 0.5 * (H(i, j) + H(j, i));
        H(j, i) = H(i, j);
        off += std::abs(H(i, j));
      }
    H(i, i) = off + 1.0 + std::abs(H(i, i));
  }
  const std::vector<double> b = random_vector(n, 33);
  DistMatrix<double> A(grid, n, n);
  A.load(H.data());

  const CgResult plain = conjugate_gradient(A, b, {1e-10, 4 * n});
  const CgResult pcg = conjugate_gradient_jacobi(A, b, {1e-10, 4 * n});
  ASSERT_TRUE(pcg.converged);
  // Same solution.
  double resid = 0;
  for (std::size_t i = 0; i < n; ++i) {
    double s = 0;
    for (std::size_t j = 0; j < n; ++j) s += H(i, j) * pcg.x[j];
    resid = std::max(resid, std::abs(s - b[i]));
  }
  EXPECT_LT(resid, 1e-5);
  if (plain.converged) {
    EXPECT_LE(pcg.iterations, plain.iterations)
        << "Jacobi preconditioning should not hurt a diagonally scaled "
           "system";
  }
}

TEST(PcgJacobi, MatchesPlainCgOnWellScaledSystems) {
  Cube cube(2, CostParams::cm2());
  Grid grid(cube, 1, 1);
  const std::size_t n = 16;
  const HostMatrix H = spd_matrix(n, 34);
  const std::vector<double> b = random_vector(n, 35);
  DistMatrix<double> A(grid, n, n);
  A.load(H.data());
  const CgResult plain = conjugate_gradient(A, b, {1e-11, 0});
  const CgResult pcg = conjugate_gradient_jacobi(A, b, {1e-11, 0});
  ASSERT_TRUE(plain.converged);
  ASSERT_TRUE(pcg.converged);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(pcg.x[i], plain.x[i], 1e-6 * (1 + std::abs(plain.x[i])));
}

}  // namespace
}  // namespace vmp
