// Tests of the simulated-time accounting itself: decomposition identities,
// model-driven algorithm auto-selection, threading invariance for whole
// algorithms, and the charging contracts the documentation promises.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "algorithms/gauss.hpp"
#include "algorithms/simplex.hpp"
#include "comm/collectives.hpp"
#include "core/primitives.hpp"
#include "core/vector_ops.hpp"
#include "embed/realign.hpp"
#include "util/workloads.hpp"

namespace vmp {
namespace {

TEST(Accounting, TimeDecomposesIntoCommComputeRouterHost) {
  Cube cube(4, CostParams::cm2());
  Grid grid(cube, 2, 2);
  DistMatrix<double> A(grid, 32, 32, MatrixLayout::cyclic());
  A.load(random_matrix(32, 32, 1));
  const std::vector<double> b = random_vector(32, 2);
  (void)gauss_solve(A, b);
  cube.clock().charge_us(3.5);  // explicit front-end latency
  const SimClock& c = cube.clock();
  EXPECT_NEAR(c.now_us(),
              c.comm_us() + c.compute_us() + c.router_us() + c.host_us(),
              1e-9 * c.now_us());
  EXPECT_GT(c.comm_us(), 0.0);
  EXPECT_GT(c.compute_us(), 0.0);
  EXPECT_EQ(c.router_us(), 0.0) << "optimized path never uses the router";
  EXPECT_DOUBLE_EQ(c.host_us(), 3.5);
}

TEST(Accounting, ChargeUsLandsInTheHostBucketNotElsewhere) {
  Cube cube(2, CostParams::unit());
  SimClock& c = cube.clock();
  c.charge_us(7.25);
  EXPECT_DOUBLE_EQ(c.now_us(), 7.25);
  EXPECT_DOUBLE_EQ(c.host_us(), 7.25);
  EXPECT_DOUBLE_EQ(c.comm_us(), 0.0);
  EXPECT_DOUBLE_EQ(c.compute_us(), 0.0);
  EXPECT_DOUBLE_EQ(c.router_us(), 0.0);
  c.reset();
  EXPECT_DOUBLE_EQ(c.host_us(), 0.0);
  EXPECT_DOUBLE_EQ(c.now_us(), 0.0);
}

TEST(Accounting, SimTimerReportsPerScopeDeltas) {
  Cube cube(4, CostParams::cm2());
  Grid grid(cube, 2, 2);
  DistMatrix<double> A(grid, 32, 32);
  A.load(random_matrix(32, 32, 14));
  (void)reduce_rows(A, Plus<double>{});  // pre-existing charges

  const SimTimer timer(cube.clock());
  const SimStats before = cube.clock().stats();
  (void)reduce_rows(A, Plus<double>{});
  const SimSpan span = timer.span();
  EXPECT_GT(span.us, 0.0);
  EXPECT_NEAR(span.us,
              span.comm_us + span.compute_us + span.router_us + span.host_us,
              1e-9 * span.us);
  const SimStats delta = timer.stats_delta();
  EXPECT_EQ(delta.comm_steps,
            cube.clock().stats().comm_steps - before.comm_steps);
  EXPECT_GT(delta.messages, 0u);
  EXPECT_GT(delta.flops_charged, 0u);
  EXPECT_EQ(delta.router_hops, 0u);
}

TEST(Accounting, SimulatedTimeIsMonotone) {
  Cube cube(4, CostParams::cm2());
  Grid grid(cube, 2, 2);
  DistMatrix<double> A(grid, 16, 16);
  A.load(random_matrix(16, 16, 3));
  double last = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    (void)reduce_rows(A, Plus<double>{});
    EXPECT_GT(cube.clock().now_us(), last);
    last = cube.clock().now_us();
  }
}

TEST(Accounting, FreeCommMakesCollectivesArithmeticOnly) {
  Cube cube(4, CostParams::free_comm());
  Grid grid(cube, 2, 2);
  DistMatrix<double> A(grid, 32, 32);
  A.load(random_matrix(32, 32, 4));
  (void)reduce_rows(A, Plus<double>{});
  EXPECT_EQ(cube.clock().comm_us(), 0.0);
  EXPECT_GT(cube.clock().compute_us(), 0.0);
}

// ---------------------------------------------------------------------------
// Model-driven auto-selection never loses to either fixed variant.
// ---------------------------------------------------------------------------

class AutoSelect : public ::testing::TestWithParam<
                       std::tuple<int, std::size_t, int>> {
 protected:
  static CostParams preset(int which) {
    return which == 0 ? CostParams::cm2() : CostParams::ipsc();
  }
  // The *_auto selectors evaluate the CUBE closed forms; pin the
  // hypercube preset so the CI mesh leg can't skew the measured sides.
  static Cube::Options pin_hypercube() {
    Cube::Options o;
    o.topology = TopologyKind::Hypercube;
    return o;
  }
};

TEST_P(AutoSelect, BroadcastAutoMatchesTheCheaperVariant) {
  const auto [d, n, which] = GetParam();
  Cube cube(d, preset(which), pin_hypercube());
  const SubcubeSet sc = SubcubeSet::contiguous(0, d);
  const auto run = [&](auto fn) {
    DistBuffer<double> buf(cube);
    buf.assign(0, random_vector(n, 5));
    cube.clock().reset();
    fn(buf);
    return cube.clock().now_us();
  };
  const double t_bin = run([&](auto& b) { broadcast(cube, b, sc, 0); });
  const double t_sag = run([&](auto& b) {
    broadcast_sag(cube, b, sc, 0, [n](proc_t) { return n; });
  });
  const double t_auto = run([&](auto& b) {
    broadcast_auto(cube, b, sc, 0, [n](proc_t) { return n; });
  });
  EXPECT_LE(t_auto, std::min(t_bin, t_sag) + 1e-9)
      << "auto must pick the cheaper algorithm (bin=" << t_bin
      << " sag=" << t_sag << ")";
}

TEST_P(AutoSelect, AllreduceAutoMatchesTheCheaperVariant) {
  const auto [d, n, which] = GetParam();
  Cube cube(d, preset(which), pin_hypercube());
  const SubcubeSet sc = SubcubeSet::contiguous(0, d);
  const auto run = [&](auto fn) {
    DistBuffer<double> buf(cube);
    cube.each_proc([&](proc_t q) { buf.assign(q, random_vector(n, q)); });
    cube.clock().reset();
    fn(buf);
    return cube.clock().now_us();
  };
  const double t_rd =
      run([&](auto& b) { allreduce(cube, b, sc, Plus<double>{}); });
  const double t_rsag =
      run([&](auto& b) { allreduce_rsag(cube, b, sc, Plus<double>{}); });
  const double t_auto =
      run([&](auto& b) { allreduce_auto(cube, b, sc, Plus<double>{}); });
  EXPECT_LE(t_auto, std::min(t_rd, t_rsag) + 1e-9)
      << "rd=" << t_rd << " rsag=" << t_rsag;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AutoSelect,
    ::testing::Combine(::testing::Values(2, 4, 6),
                       ::testing::Values<std::size_t>(1, 8, 64, 1024, 8192),
                       ::testing::Values(0, 1)));

// Every all-reduce backend returns the doubling's bits, so a sum does not
// depend on the backend the cost parameters select.  On a 6-cube the three
// presets pick different backends for allreduce_auto over the whole cube
// (cm2 and unit at n = 8, cm2 and ipsc at n = 64), and for reduce on an
// 8 × 8 grid (unit against the other two at n = 64).
TEST(AutoSelectResults, SumsHaveTheSameBitsOnEveryPreset) {
  for (const std::size_t n : {std::size_t{8}, std::size_t{64},
                              std::size_t{1024}}) {
    std::vector<std::vector<double>> results;
    for (const CostParams& cp :
         {CostParams::cm2(), CostParams::ipsc(), CostParams::unit()}) {
      Cube cube(6, cp);
      std::vector<double> out;
      DistBuffer<double> buf(cube);
      cube.each_proc([&](proc_t q) { buf.assign(q, random_vector(n, 90 + q)); });
      allreduce_auto(cube, buf, SubcubeSet::contiguous(0, 6), Plus<double>{});
      cube.each_proc([&](proc_t q) {
        const std::vector<double> tile = buf.host_vec(q);
        out.insert(out.end(), tile.begin(), tile.end());
      });
      Grid grid(cube, 3, 3);
      DistMatrix<double> A(grid, n, n);
      A.load(random_matrix(n, n, 91));
      for (const Axis ax : {Axis::Row, Axis::Col}) {
        const std::vector<double> sums = reduce(A, ax, Plus<double>{}).to_host();
        out.insert(out.end(), sums.begin(), sums.end());
      }
      results.push_back(out);
    }
    for (std::size_t i = 1; i < results.size(); ++i) {
      ASSERT_EQ(results[i].size(), results[0].size());
      EXPECT_EQ(std::memcmp(results[i].data(), results[0].data(),
                            results[0].size() * sizeof(double)),
                0)
          << "n=" << n << ": preset " << i << " differs from cm2";
    }
  }
}

// ---------------------------------------------------------------------------
// Host threading changes neither results nor simulated time, even for
// whole applications.
// ---------------------------------------------------------------------------

TEST(Threading, GaussianEliminationIsThreadInvariant) {
  const std::size_t n = 24;
  const HostMatrix H = diag_dominant_matrix(n, 6);
  const std::vector<double> b = random_vector(n, 7);
  const auto run = [&](unsigned threads) {
    Cube cube(4, CostParams::cm2(), Cube::Options{threads});
    Grid grid(cube, 2, 2);
    DistMatrix<double> A(grid, n, n, MatrixLayout::cyclic());
    A.load(H.data());
    const std::vector<double> x = gauss_solve(A, b);
    return std::pair{x, cube.clock().now_us()};
  };
  const auto [x1, t1] = run(1);
  const auto [x3, t3] = run(3);
  EXPECT_EQ(x1, x3);
  EXPECT_DOUBLE_EQ(t1, t3);
}

TEST(Threading, SimplexIsThreadInvariant) {
  const LpProblem lp = random_feasible_lp(12, 9, 8);
  const auto run = [&](unsigned threads) {
    Cube cube(4, CostParams::cm2(), Cube::Options{threads});
    Grid grid(cube, 2, 2);
    const LpSolution s = simplex_solve(grid, lp);
    return std::tuple{s.status, s.objective, s.iterations,
                      cube.clock().now_us()};
  };
  EXPECT_EQ(run(1), run(4));
}

// ---------------------------------------------------------------------------
// Charging contracts.
// ---------------------------------------------------------------------------

TEST(Charging, HostIoIsFree) {
  Cube cube(4, CostParams::cm2());
  Grid grid(cube, 2, 2);
  DistMatrix<double> A(grid, 16, 16);
  A.load(random_matrix(16, 16, 9));
  (void)A.to_host();
  (void)A.at(3, 3);
  DistVector<double> v(grid, 16, Align::Cols);
  v.load(random_vector(16, 10));
  (void)v.to_host();
  EXPECT_EQ(cube.clock().now_us(), 0.0);
}

TEST(Charging, RealignmentIsNeverFreeAcrossEmbeddings) {
  Cube cube(4, CostParams::cm2());
  Grid grid(cube, 2, 2);
  DistVector<double> v(grid, 20, Align::Linear);
  v.load(random_vector(20, 11));
  const double t0 = cube.clock().now_us();
  const DistVector<double> c = realign(v, Align::Cols);
  EXPECT_GT(cube.clock().now_us(), t0);
  const double t1 = cube.clock().now_us();
  (void)realign(c, Align::Cols);  // same embedding: free copy
  EXPECT_EQ(cube.clock().now_us(), t1);
}

TEST(Charging, FetchAndStoreAreOneMessageEach) {
  Cube cube(4, CostParams::unit());
  Grid grid(cube, 2, 2);
  DistVector<double> v(grid, 8, Align::Cols);
  v.load(random_vector(8, 12));
  (void)vec_fetch(v, 3);
  EXPECT_DOUBLE_EQ(cube.clock().now_us(), 2.0);  // τ + 1·t_c
  vec_store(v, 3, 1.0);
  EXPECT_DOUBLE_EQ(cube.clock().now_us(), 4.0);
}

}  // namespace
}  // namespace vmp
