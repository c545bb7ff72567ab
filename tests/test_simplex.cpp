// Integration tests: distributed simplex vs the serial reference — same
// pivots, same optima — plus known-answer, unbounded, infeasible and
// Phase-I problems.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "algorithms/serial/simplex.hpp"
#include "algorithms/simplex.hpp"
#include "util/workloads.hpp"
#include "param_printers.hpp"

namespace vmp {
namespace {

void expect_same_solution(const LpSolution& got, const LpSolution& want) {
  ASSERT_EQ(got.status, want.status);
  if (want.status != LpStatus::Optimal) return;
  EXPECT_EQ(got.iterations, want.iterations)
      << "distributed and serial must take identical pivot sequences";
  EXPECT_NEAR(got.objective, want.objective,
              1e-9 * (1 + std::abs(want.objective)));
  ASSERT_EQ(got.x.size(), want.x.size());
  for (std::size_t j = 0; j < want.x.size(); ++j)
    EXPECT_NEAR(got.x[j], want.x[j], 1e-8 * (1 + std::abs(want.x[j])));
}

void check_feasible(const LpProblem& lp, const LpSolution& sol,
                    double eps = 1e-7) {
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  for (std::size_t j = 0; j < lp.nvars; ++j) EXPECT_GE(sol.x[j], -eps);
  for (std::size_t i = 0; i < lp.ncons; ++i) {
    double dot = 0;
    for (std::size_t j = 0; j < lp.nvars; ++j)
      dot += lp.A[i * lp.nvars + j] * sol.x[j];
    EXPECT_LE(dot, lp.b[i] + eps * (1 + std::abs(lp.b[i]))) << "row " << i;
  }
  double obj = 0;
  for (std::size_t j = 0; j < lp.nvars; ++j) obj += lp.c[j] * sol.x[j];
  EXPECT_NEAR(obj, sol.objective, 1e-7 * (1 + std::abs(obj)));
}

TEST(SerialSimplex, TextbookKnownAnswer) {
  // max 3x + 5y  s.t.  x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → (2, 6), z = 36.
  LpProblem lp;
  lp.nvars = 2;
  lp.ncons = 3;
  lp.c = {3, 5};
  lp.A = {1, 0, 0, 2, 3, 2};
  lp.b = {4, 12, 18};
  const LpSolution sol = serial::simplex_solve(lp);
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_NEAR(sol.objective, 36.0, 1e-9);
  EXPECT_NEAR(sol.x[0], 2.0, 1e-9);
  EXPECT_NEAR(sol.x[1], 6.0, 1e-9);
}

TEST(SerialSimplex, UnboundedDetected) {
  LpProblem lp;
  lp.nvars = 2;
  lp.ncons = 1;
  lp.c = {1, 1};
  lp.A = {1, -1};
  lp.b = {1};
  EXPECT_EQ(serial::simplex_solve(lp).status, LpStatus::Unbounded);
}

TEST(SerialSimplex, InfeasibleDetected) {
  // x ≤ -1 with x ≥ 0 is infeasible.
  LpProblem lp;
  lp.nvars = 1;
  lp.ncons = 1;
  lp.c = {1};
  lp.A = {1};
  lp.b = {-1};
  EXPECT_EQ(serial::simplex_solve(lp).status, LpStatus::Infeasible);
}

TEST(SerialSimplex, KleeMintyReachesTheKnownOptimum) {
  for (std::size_t d = 2; d <= 6; ++d) {
    const LpProblem lp = klee_minty(d);
    const LpSolution sol = serial::simplex_solve(lp);
    ASSERT_EQ(sol.status, LpStatus::Optimal) << "d=" << d;
    EXPECT_NEAR(sol.objective, std::pow(5.0, double(d)),
                1e-9 * std::pow(5.0, double(d)));
  }
}

TEST(SerialSimplex, Phase1LowerBoundsRespected) {
  const LpProblem lp = random_phase1_lp(6, 4, 2024);
  const LpSolution sol = serial::simplex_solve(lp);
  check_feasible(lp, sol);
  EXPECT_GT(sol.phase1_iterations, 0u);
}

struct DistCase {
  int gr, gc;
  std::size_t ncons, nvars;
  std::uint64_t seed;
  MatrixLayout layout;
};

void PrintTo(const DistCase& c, std::ostream* os) {
  *os << "grid " << c.gr << "x" << c.gc << " " << c.ncons << "x" << c.nvars
      << " seed" << c.seed << " ";
  PrintTo(c.layout, os);
}

class SimplexSweep : public ::testing::TestWithParam<DistCase> {};

TEST_P(SimplexSweep, MatchesSerialPivotForPivot) {
  const DistCase c = GetParam();
  Cube cube(c.gr + c.gc, CostParams::cm2());
  Grid grid(cube, c.gr, c.gc);
  const LpProblem lp = random_feasible_lp(c.ncons, c.nvars, c.seed);
  const LpSolution want = serial::simplex_solve(lp);
  const LpSolution got = simplex_solve(grid, lp, {}, c.layout);
  expect_same_solution(got, want);
  check_feasible(lp, got);
}

TEST_P(SimplexSweep, BlandRuleAgreesWithSerial) {
  const DistCase c = GetParam();
  Cube cube(c.gr + c.gc, CostParams::cm2());
  Grid grid(cube, c.gr, c.gc);
  const LpProblem lp = random_feasible_lp(c.ncons, c.nvars, c.seed + 7);
  SimplexOptions opts;
  opts.rule = PivotRule::Bland;
  const LpSolution want = serial::simplex_solve(lp, opts);
  const LpSolution got = simplex_solve(grid, lp, opts, c.layout);
  expect_same_solution(got, want);
}

TEST_P(SimplexSweep, Phase1ProblemsAgreeWithSerial) {
  const DistCase c = GetParam();
  Cube cube(c.gr + c.gc, CostParams::cm2());
  Grid grid(cube, c.gr, c.gc);
  const LpProblem lp = random_phase1_lp(c.ncons, c.nvars, c.seed + 13);
  const LpSolution want = serial::simplex_solve(lp);
  const LpSolution got = simplex_solve(grid, lp, {}, c.layout);
  expect_same_solution(got, want);
  if (want.status == LpStatus::Optimal) check_feasible(lp, got);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SimplexSweep,
    ::testing::Values(
        DistCase{0, 0, 4, 3, 100, MatrixLayout::cyclic()},
        DistCase{1, 1, 5, 4, 101, MatrixLayout::cyclic()},
        DistCase{2, 2, 8, 6, 102, MatrixLayout::cyclic()},
        DistCase{2, 2, 8, 6, 103, MatrixLayout::blocked()},
        DistCase{3, 1, 10, 7, 104, MatrixLayout::cyclic()},
        DistCase{1, 3, 7, 10, 105, MatrixLayout::cyclic()},
        DistCase{2, 3, 12, 9, 106, MatrixLayout::cyclic()}));

TEST(DistSimplex, UnboundedDetected) {
  Cube cube(4, CostParams::cm2());
  Grid grid(cube, 2, 2);
  LpProblem lp;
  lp.nvars = 2;
  lp.ncons = 1;
  lp.c = {1, 1};
  lp.A = {1, -1};
  lp.b = {1};
  EXPECT_EQ(simplex_solve(grid, lp).status, LpStatus::Unbounded);
}

TEST(DistSimplex, InfeasibleDetected) {
  Cube cube(4, CostParams::cm2());
  Grid grid(cube, 2, 2);
  LpProblem lp;
  lp.nvars = 1;
  lp.ncons = 2;
  lp.c = {1};
  lp.A = {1, -1};
  lp.b = {1, -3};  // x ≤ 1 and x ≥ 3
  EXPECT_EQ(simplex_solve(grid, lp).status, LpStatus::Infeasible);
}

TEST(DistSimplex, KleeMintyMatchesSerial) {
  Cube cube(4, CostParams::cm2());
  Grid grid(cube, 2, 2);
  const LpProblem lp = klee_minty(5);
  const LpSolution want = serial::simplex_solve(lp);
  const LpSolution got = simplex_solve(grid, lp);
  expect_same_solution(got, want);
}

TEST(DistSimplex, SimulatedTimeScalesDownWithProcessors) {
  const LpProblem lp = random_feasible_lp(24, 20, 555);
  // Scaling claim is stated for the paper machine: pin the hypercube
  // preset so the CI mesh leg's routing contention can't flip it.
  Cube::Options opts;
  opts.topology = TopologyKind::Hypercube;
  double t_small = 0, t_large = 0;
  {
    Cube cube(0, CostParams::cm2(), opts);
    Grid grid(cube, 0, 0);
    const LpSolution s = simplex_solve(grid, lp);
    ASSERT_EQ(s.status, LpStatus::Optimal);
    t_small = cube.clock().now_us();
  }
  {
    Cube cube(6, CostParams::cm2(), opts);
    Grid grid(cube, 3, 3);
    const LpSolution s = simplex_solve(grid, lp);
    ASSERT_EQ(s.status, LpStatus::Optimal);
    t_large = cube.clock().now_us();
  }
  EXPECT_LT(t_large, t_small) << "64 processors must beat 1";
}

}  // namespace
}  // namespace vmp
