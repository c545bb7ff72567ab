// Tests: distributed vector prefix scans (plain and segmented) against
// straight-line host references.
#include <gtest/gtest.h>

#include <memory>

#include "core/scan_ops.hpp"
#include "util/workloads.hpp"
#include "param_printers.hpp"

namespace vmp {
namespace {

class VecScan : public ::testing::TestWithParam<
                    std::tuple<int, int, std::size_t, Align>> {
 protected:
  void SetUp() override {
    const auto [gr, gc, n, align] = GetParam();
    cube = std::make_unique<Cube>(gr + gc, CostParams::cm2());
    grid = std::make_unique<Grid>(*cube, gr, gc);
    host = random_vector(n, 301);
    v = std::make_unique<DistVector<double>>(*grid, n, align);
    v->load(host);
  }
  std::unique_ptr<Cube> cube;
  std::unique_ptr<Grid> grid;
  std::vector<double> host;
  std::unique_ptr<DistVector<double>> v;
};

TEST_P(VecScan, ExclusiveSumMatchesHost) {
  vec_scan_exclusive(*v, Plus<double>{});
  const std::vector<double> got = v->to_host();
  double acc = 0.0;
  for (std::size_t g = 0; g < host.size(); ++g) {
    EXPECT_NEAR(got[g], acc, 1e-12 * (1 + std::abs(acc))) << "g=" << g;
    acc += host[g];
  }
  EXPECT_TRUE(v->replicas_consistent());
}

TEST_P(VecScan, InclusiveSumMatchesHost) {
  vec_scan_inclusive(*v, Plus<double>{});
  const std::vector<double> got = v->to_host();
  double acc = 0.0;
  for (std::size_t g = 0; g < host.size(); ++g) {
    acc += host[g];
    EXPECT_NEAR(got[g], acc, 1e-12 * (1 + std::abs(acc)));
  }
}

TEST_P(VecScan, ExclusiveMaxMatchesHost) {
  vec_scan_exclusive(*v, Max<double>{});
  const std::vector<double> got = v->to_host();
  double acc = std::numeric_limits<double>::lowest();
  for (std::size_t g = 0; g < host.size(); ++g) {
    EXPECT_EQ(got[g], acc);
    acc = std::max(acc, host[g]);
  }
}

TEST_P(VecScan, SegmentedSumRestartsAtFlags) {
  const auto [gr, gc, n, align] = GetParam();
  DistVector<std::uint8_t> flags(*grid, n, align);
  std::vector<std::uint8_t> hf(n, 0);
  for (std::size_t g = 0; g < n; g += 3) hf[g] = 1;  // segments of three
  flags.load(hf);
  vec_scan_exclusive_segmented(*v, flags, Plus<double>{});
  const std::vector<double> got = v->to_host();
  double acc = 0.0;
  for (std::size_t g = 0; g < n; ++g) {
    if (hf[g]) acc = 0.0;
    EXPECT_NEAR(got[g], acc, 1e-12 * (1 + std::abs(acc))) << "g=" << g;
    acc += host[g];
  }
}

TEST_P(VecScan, SegmentedWithNoFlagsEqualsPlainScan) {
  const auto [gr, gc, n, align] = GetParam();
  DistVector<std::uint8_t> flags(*grid, n, align);  // all zero
  DistVector<double> w = *v;
  vec_scan_exclusive_segmented(*v, flags, Plus<double>{});
  vec_scan_exclusive(w, Plus<double>{});
  EXPECT_EQ(v->to_host(), w.to_host());
}

TEST_P(VecScan, SegmentedWithAllFlagsIsAllIdentity) {
  const auto [gr, gc, n, align] = GetParam();
  DistVector<std::uint8_t> flags(*grid, n, align);
  flags.load(std::vector<std::uint8_t>(n, 1));
  vec_scan_exclusive_segmented(*v, flags, Plus<double>{});
  for (double x : v->to_host()) EXPECT_EQ(x, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, VecScan,
    ::testing::Combine(::testing::Values(0, 1, 2), ::testing::Values(0, 1, 2),
                       ::testing::Values<std::size_t>(1, 2, 16, 33, 64),
                       ::testing::Values(Align::Linear, Align::Cols,
                                         Align::Rows)));

TEST(VecScan, CyclicPartitionRejected) {
  Cube cube(4, CostParams::cm2());
  Grid grid(cube, 2, 2);
  DistVector<double> v(grid, 16, Align::Cols, Part::Cyclic);
  EXPECT_THROW(vec_scan_exclusive(v, Plus<double>{}), ContractError);
}

TEST(VecScan, MisalignedFlagsRejected) {
  Cube cube(4, CostParams::cm2());
  Grid grid(cube, 2, 2);
  DistVector<double> v(grid, 16, Align::Cols);
  DistVector<std::uint8_t> flags(grid, 16, Align::Rows);
  EXPECT_THROW(vec_scan_exclusive_segmented(v, flags, Plus<double>{}),
               ContractError);
}

TEST(VecScan, ScanIsProcessorTimeReasonable) {
  // Scan must cost O(n/p + lg p), not O(n): compare p=1 vs p=256.
  const std::size_t n = 4096;
  const auto run = [&](int d) {
    // Processor-time bound with cube constants: pin the hypercube preset
    // (mesh contention at p=256 erodes the modeled speedup).
    Cube::Options opts;
    opts.topology = TopologyKind::Hypercube;
    Cube cube(d, CostParams::cm2(), opts);
    Grid grid = Grid::square(cube);
    DistVector<double> v(grid, n, Align::Linear);
    v.load(random_vector(n, 302));
    cube.clock().reset();
    vec_scan_exclusive(v, Plus<double>{});
    return cube.clock().now_us();
  };
  const double t1 = run(0);
  const double t256 = run(8);
  // With n/p = 16 the lg p start-ups dominate; the win is bounded by
  // n·t_a / (lg p·τ) ≈ 5 here — require a clear multiple-x speedup.
  EXPECT_GT(t1 / t256, 4.0);
}

}  // namespace
}  // namespace vmp
