// Tests: element shifts, permutations, and the PCR tridiagonal solver
// against the serial Thomas algorithm.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>

#include "algorithms/serial/tridiag.hpp"
#include "algorithms/tridiag.hpp"
#include "core/permute.hpp"
#include "util/workloads.hpp"
#include "param_printers.hpp"

namespace vmp {
namespace {

class ShiftSweepV : public ::testing::TestWithParam<
                        std::tuple<int, int, std::size_t, Align,
                                   std::ptrdiff_t>> {};

TEST_P(ShiftSweepV, MatchesHostShift) {
  const auto [gr, gc, n, align, offset] = GetParam();
  Cube cube(gr + gc, CostParams::cm2());
  Grid grid(cube, gr, gc);
  const std::vector<double> host = random_vector(n, 401);
  DistVector<double> v(grid, n, align);
  v.load(host);
  const DistVector<double> w = vec_shift(v, offset, -7.0);
  const std::vector<double> got = w.to_host();
  for (std::size_t g = 0; g < n; ++g) {
    const std::ptrdiff_t src = static_cast<std::ptrdiff_t>(g) + offset;
    const double want =
        (src >= 0 && src < static_cast<std::ptrdiff_t>(n))
            ? host[static_cast<std::size_t>(src)]
            : -7.0;
    EXPECT_EQ(got[g], want) << "g=" << g << " offset=" << offset;
  }
  EXPECT_TRUE(w.replicas_consistent());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ShiftSweepV,
    ::testing::Combine(::testing::Values(0, 1, 2), ::testing::Values(0, 2),
                       ::testing::Values<std::size_t>(1, 9, 32),
                       ::testing::Values(Align::Linear, Align::Cols,
                                         Align::Rows),
                       ::testing::Values<std::ptrdiff_t>(-5, -1, 0, 1, 3,
                                                         100)));

TEST(Permute, ScattersByPermutation) {
  Cube cube(4, CostParams::cm2());
  Grid grid(cube, 2, 2);
  const std::size_t n = 23;
  const std::vector<double> host = random_vector(n, 402);
  DistVector<double> v(grid, n, Align::Linear);
  v.load(host);
  // Reversal permutation.
  std::vector<std::size_t> perm(n);
  for (std::size_t g = 0; g < n; ++g) perm[g] = n - 1 - g;
  const DistVector<double> w = vec_permute(v, perm);
  const std::vector<double> got = w.to_host();
  for (std::size_t g = 0; g < n; ++g) EXPECT_EQ(got[n - 1 - g], host[g]);
}

TEST(Permute, RandomPermutationRoundTrips) {
  Cube cube(4, CostParams::cm2());
  Grid grid(cube, 2, 2);
  const std::size_t n = 40;
  const std::vector<double> host = random_vector(n, 403);
  DistVector<double> v(grid, n, Align::Cols);
  v.load(host);
  std::vector<std::size_t> perm(n), inv(n);
  std::iota(perm.begin(), perm.end(), 0u);
  SplitMix64 rng(404);
  for (std::size_t g = n; g-- > 1;)
    std::swap(perm[g], perm[rng.below(g + 1)]);
  for (std::size_t g = 0; g < n; ++g) inv[perm[g]] = g;
  const DistVector<double> w = vec_permute(v, perm);
  const DistVector<double> back = vec_permute(w, inv);
  EXPECT_EQ(back.to_host(), host);
}

TEST(Permute, NonBijectionRejected) {
  Cube cube(2, CostParams::cm2());
  Grid grid(cube, 1, 1);
  DistVector<double> v(grid, 4, Align::Linear);
  const std::size_t bad[] = {0, 1, 1, 3};
  EXPECT_THROW((void)vec_permute(v, std::span<const std::size_t>(bad)),
               ContractError);
}

// ---------------------------------------------------------------------------
// Tridiagonal PCR
// ---------------------------------------------------------------------------

struct TriCase {
  int gr, gc;
  std::size_t n;
  std::uint64_t seed;
};

void PrintTo(const TriCase& c, std::ostream* os) {
  *os << "grid " << c.gr << "x" << c.gc << " n" << c.n << " seed" << c.seed;
}

class TridiagSweep : public ::testing::TestWithParam<TriCase> {
 protected:
  void make_system(std::size_t n, std::uint64_t seed) {
    SplitMix64 rng(seed);
    a.assign(n, 0.0);
    b.assign(n, 0.0);
    c.assign(n, 0.0);
    d.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      if (i > 0) a[i] = rng.uniform(-1.0, 1.0);
      if (i + 1 < n) c[i] = rng.uniform(-1.0, 1.0);
      b[i] = std::abs(a[i]) + std::abs(c[i]) + rng.uniform(1.0, 2.0);
      d[i] = rng.uniform(-1.0, 1.0);
    }
  }
  std::vector<double> a, b, c, d;
};

TEST_P(TridiagSweep, MatchesThomasAlgorithm) {
  const TriCase t = GetParam();
  make_system(t.n, t.seed);
  Cube cube(t.gr + t.gc, CostParams::cm2());
  Grid grid(cube, t.gr, t.gc);
  const std::vector<double> got = tridiag_solve_pcr(grid, a, b, c, d);
  const std::vector<double> want = serial::tridiag_solve(a, b, c, d);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < t.n; ++i)
    EXPECT_NEAR(got[i], want[i], 1e-9 * (1 + std::abs(want[i]))) << i;
}

TEST_P(TridiagSweep, ResidualIsSmall) {
  const TriCase t = GetParam();
  make_system(t.n, t.seed + 1);
  Cube cube(t.gr + t.gc, CostParams::cm2());
  Grid grid(cube, t.gr, t.gc);
  const std::vector<double> x = tridiag_solve_pcr(grid, a, b, c, d);
  for (std::size_t i = 0; i < t.n; ++i) {
    double s = b[i] * x[i];
    if (i > 0) s += a[i] * x[i - 1];
    if (i + 1 < t.n) s += c[i] * x[i + 1];
    EXPECT_NEAR(s, d[i], 1e-9) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TridiagSweep,
    ::testing::Values(TriCase{0, 0, 1, 1}, TriCase{0, 0, 7, 2},
                      TriCase{1, 1, 16, 3}, TriCase{2, 2, 16, 4},
                      TriCase{2, 2, 33, 5}, TriCase{3, 1, 64, 6},
                      TriCase{1, 3, 100, 7}, TriCase{3, 3, 128, 8}));

TEST(Tridiag, BadBoundaryRejected) {
  Cube cube(2, CostParams::cm2());
  Grid grid(cube, 1, 1);
  std::vector<double> a = {1.0, 1.0}, b = {2.0, 2.0}, c = {1.0, 0.0},
                      d = {1.0, 1.0};
  EXPECT_THROW((void)tridiag_solve_pcr(grid, a, b, c, d), ContractError);
}

TEST(Tridiag, ScalesWithProcessors) {
  const std::size_t n = 1024;
  std::vector<double> a(n, -1.0), b(n, 4.0), c(n, -1.0), d(n, 1.0);
  a[0] = c[n - 1] = 0.0;
  const auto run = [&](int dim) {
    Cube cube(dim, CostParams::cm2());
    Grid grid = Grid::square(cube);
    cube.clock().reset();
    (void)tridiag_solve_pcr(grid, a, b, c, d);
    return cube.clock().now_us();
  };
  EXPECT_LT(run(6), run(0));
}

}  // namespace
}  // namespace vmp
