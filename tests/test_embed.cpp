// Unit tests: processor grid, axis maps, distributed containers and
// embedding changes (realign).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "embed/axis_map.hpp"
#include "embed/dist_matrix.hpp"
#include "embed/dist_vector.hpp"
#include "embed/grid.hpp"
#include "embed/realign.hpp"
#include "util/workloads.hpp"
#include "param_printers.hpp"

namespace vmp {
namespace {

TEST(Grid, CoordinatesRoundTrip) {
  Cube cube(5, CostParams::unit());
  Grid grid(cube, 3, 2);
  EXPECT_EQ(grid.prows(), 8u);
  EXPECT_EQ(grid.pcols(), 4u);
  for (proc_t q = 0; q < cube.procs(); ++q) {
    EXPECT_EQ(grid.at(grid.prow(q), grid.pcol(q)), q);
    EXPECT_LT(grid.prow(q), grid.prows());
    EXPECT_LT(grid.pcol(q), grid.pcols());
  }
}

TEST(Grid, SubcubeFamiliesMatchCoordinates) {
  Cube cube(5, CostParams::unit());
  Grid grid(cube, 2, 3);
  const SubcubeSet rows = grid.within_row();
  const SubcubeSet cols = grid.within_col();
  for (proc_t q = 0; q < cube.procs(); ++q) {
    EXPECT_EQ(rows.rank(q), grid.pcol(q));
    EXPECT_EQ(cols.rank(q), grid.prow(q));
    // Peers in within_row share the grid row.
    for (std::uint32_t r = 0; r < rows.size(); ++r)
      EXPECT_EQ(grid.prow(rows.with_rank(q, r)), grid.prow(q));
    for (std::uint32_t r = 0; r < cols.size(); ++r)
      EXPECT_EQ(grid.pcol(cols.with_rank(q, r)), grid.pcol(q));
  }
}

TEST(Grid, SquareSplit) {
  Cube cube(5, CostParams::unit());
  Grid grid = Grid::square(cube);
  EXPECT_EQ(grid.row_dims() + grid.col_dims(), 5);
  EXPECT_LE(std::abs(grid.row_dims() - grid.col_dims()), 1);
}

TEST(Grid, RejectsBadSplit) {
  Cube cube(4, CostParams::unit());
  EXPECT_THROW(Grid(cube, 1, 2), ContractError);
  EXPECT_THROW(Grid(cube, 5, 0), ContractError);
}

class AxisMapSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint32_t,
                                                 Part>> {};

TEST_P(AxisMapSweep, GlobalLocalRoundTrip) {
  const auto [n, P, kind] = GetParam();
  const AxisMap map(n, P, kind);
  std::size_t total = 0;
  for (std::uint32_t r = 0; r < P; ++r) {
    for (std::size_t s = 0; s < map.size(r); ++s) {
      const std::size_t g = map.global(r, s);
      EXPECT_EQ(map.owner(g), r);
      EXPECT_EQ(map.local(g), s);
    }
    total += map.size(r);
  }
  EXPECT_EQ(total, n);
}

TEST_P(AxisMapSweep, LoadBalancedWithinOne) {
  const auto [n, P, kind] = GetParam();
  const AxisMap map(n, P, kind);
  std::size_t mn = n + 1, mx = 0;
  for (std::uint32_t r = 0; r < P; ++r) {
    mn = std::min(mn, map.size(r));
    mx = std::max(mx, map.size(r));
  }
  EXPECT_LE(mx - mn, 1u);  // both embeddings are load-balanced
}

// size(r) and global_begin(r) come from n / parts and n % parts stored at
// construction; they must equal the partition formulas they replaced, and
// first_local_at_or_after must stay the first slot at or past lo.
TEST(AxisMap, SizeAndBeginMatchThePartitionFormulas) {
  for (const std::uint32_t parts : {1u, 2u, 3u, 5u, 8u, 64u})
    for (std::size_t n = 0; n <= 300; ++n) {
      const AxisMap block(n, parts, Part::Block);
      const AxisMap cyclic(n, parts, Part::Cyclic);
      for (std::uint32_t r = 0; r < parts; ++r) {
        ASSERT_EQ(block.size(r), block_size(n, parts, r))
            << "n=" << n << " parts=" << parts << " r=" << r;
        ASSERT_EQ(cyclic.size(r), cyclic_size(n, parts, r))
            << "n=" << n << " parts=" << parts << " r=" << r;
        ASSERT_EQ(block.global_begin(r), block_begin(n, parts, r))
            << "n=" << n << " parts=" << parts << " r=" << r;
        for (const AxisMap* map : {&block, &cyclic})
          for (std::size_t lo = 0; lo <= n; lo += 7) {
            const std::size_t s = map->first_local_at_or_after(r, lo);
            ASSERT_LE(s, map->size(r));
            if (s < map->size(r)) ASSERT_GE(map->global(r, s), lo);
            if (s > 0) ASSERT_LT(map->global(r, s - 1), lo);
          }
      }
    }
}

// first_local_at_or_after against its formula at every lower bound, past
// the end included: Block counts from the block start, Cyclic takes
// ⌈(lo − r) / parts⌉, which the map shifts for power-of-two part counts and
// divides for the others.
TEST(AxisMap, FirstLocalAtOrAfterMatchesTheFormulaAtEveryBound) {
  for (const std::uint32_t parts : {1u, 2u, 3u, 5u, 8u, 64u})
    for (std::size_t n = 0; n <= 200; ++n) {
      const AxisMap block(n, parts, Part::Block);
      const AxisMap cyclic(n, parts, Part::Cyclic);
      for (std::uint32_t r = 0; r < parts; ++r) {
        const std::size_t b0 = block_begin(n, parts, r);
        for (std::size_t lo = 0; lo <= n + parts; ++lo) {
          const std::size_t want_block =
              lo <= b0 ? 0 : std::min(block.size(r), lo - b0);
          const std::size_t want_cyclic =
              lo <= r ? 0
                      : std::min(cyclic.size(r), (lo - r + parts - 1) / parts);
          ASSERT_EQ(block.first_local_at_or_after(r, lo), want_block)
              << "Block n=" << n << " parts=" << parts << " r=" << r
              << " lo=" << lo;
          ASSERT_EQ(cyclic.first_local_at_or_after(r, lo), want_cyclic)
              << "Cyclic n=" << n << " parts=" << parts << " r=" << r
              << " lo=" << lo;
        }
      }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AxisMapSweep,
    ::testing::Combine(::testing::Values<std::size_t>(0, 1, 3, 8, 17, 64, 100),
                       ::testing::Values<std::uint32_t>(1, 2, 4, 8),
                       ::testing::Values(Part::Block, Part::Cyclic)));

struct EmbedCase {
  int gr, gc;
  std::size_t nrows, ncols;
  MatrixLayout layout;
};

void PrintTo(const EmbedCase& c, std::ostream* os) {
  *os << "grid " << c.gr << "x" << c.gc << " " << c.nrows << "x" << c.ncols
      << " ";
  PrintTo(c.layout, os);
}

class MatrixEmbed : public ::testing::TestWithParam<EmbedCase> {
 protected:
  void SetUp() override {
    const EmbedCase c = GetParam();
    cube = std::make_unique<Cube>(c.gr + c.gc, CostParams::unit());
    grid = std::make_unique<Grid>(*cube, c.gr, c.gc);
  }
  std::unique_ptr<Cube> cube;
  std::unique_ptr<Grid> grid;
};

TEST_P(MatrixEmbed, LoadStoreRoundTrip) {
  const EmbedCase c = GetParam();
  const std::vector<double> host = random_matrix(c.nrows, c.ncols, 7);
  DistMatrix<double> A(*grid, c.nrows, c.ncols, c.layout);
  A.load(host);
  EXPECT_EQ(A.to_host(), host);
}

TEST_P(MatrixEmbed, ElementAccessMatchesHost) {
  const EmbedCase c = GetParam();
  const std::vector<double> host = random_matrix(c.nrows, c.ncols, 8);
  DistMatrix<double> A(*grid, c.nrows, c.ncols, c.layout);
  A.load(host);
  for (std::size_t i = 0; i < c.nrows; i += 3)
    for (std::size_t j = 0; j < c.ncols; j += 2)
      EXPECT_EQ(A.at(i, j), host[i * c.ncols + j]);
}

TEST_P(MatrixEmbed, LoadBalanced) {
  const EmbedCase c = GetParam();
  DistMatrix<double> A(*grid, c.nrows, c.ncols, c.layout);
  std::size_t total = 0;
  cube->each_proc([&](proc_t q) {
    EXPECT_LE(A.lrows(q) * A.lcols(q), A.max_block());
    total += A.lrows(q) * A.lcols(q);
  });
  EXPECT_EQ(total, c.nrows * c.ncols);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MatrixEmbed,
    ::testing::Values(
        EmbedCase{0, 0, 5, 7, MatrixLayout::blocked()},
        EmbedCase{1, 1, 4, 4, MatrixLayout::blocked()},
        EmbedCase{2, 2, 16, 16, MatrixLayout::blocked()},
        EmbedCase{2, 2, 17, 13, MatrixLayout::blocked()},
        EmbedCase{2, 2, 17, 13, MatrixLayout::cyclic()},
        EmbedCase{3, 1, 9, 33, MatrixLayout::cyclic()},
        EmbedCase{1, 3, 33, 9, MatrixLayout{Part::Block, Part::Cyclic}},
        EmbedCase{2, 3, 6, 40, MatrixLayout{Part::Cyclic, Part::Block}},
        EmbedCase{3, 3, 2, 3, MatrixLayout::blocked()}));

class VectorEmbed : public ::testing::TestWithParam<
                        std::tuple<int, int, std::size_t, Align, Part>> {};

TEST_P(VectorEmbed, LoadStoreRoundTripAndReplicas) {
  const auto [gr, gc, n, align, part] = GetParam();
  if (align == Align::Linear && part == Part::Cyclic) GTEST_SKIP();
  Cube cube(gr + gc, CostParams::unit());
  Grid grid(cube, gr, gc);
  const std::vector<double> host = random_vector(n, 11);
  DistVector<double> v(grid, n, align, part);
  v.load(host);
  EXPECT_EQ(v.to_host(), host);
  EXPECT_TRUE(v.replicas_consistent());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, VectorEmbed,
    ::testing::Combine(::testing::Values(0, 1, 2), ::testing::Values(0, 1, 2),
                       ::testing::Values<std::size_t>(1, 5, 16, 33),
                       ::testing::Values(Align::Linear, Align::Cols,
                                         Align::Rows),
                       ::testing::Values(Part::Block, Part::Cyclic)));

class RealignSweep : public ::testing::TestWithParam<
                         std::tuple<Align, Part, Align, Part>> {};

TEST_P(RealignSweep, PreservesContentAndCharges) {
  const auto [a0, p0, a1, p1] = GetParam();
  if (a0 == Align::Linear && p0 == Part::Cyclic) GTEST_SKIP();
  if (a1 == Align::Linear && p1 == Part::Cyclic) GTEST_SKIP();
  Cube cube(4, CostParams::unit());
  Grid grid(cube, 2, 2);
  const std::size_t n = 29;
  const std::vector<double> host = random_vector(n, 13);
  DistVector<double> v(grid, n, a0, p0);
  v.load(host);
  const DistVector<double> w = realign(v, a1, p1);
  EXPECT_EQ(w.align(), a1);
  EXPECT_EQ(w.to_host(), host);
  EXPECT_TRUE(w.replicas_consistent());
  if (!(a0 == a1 && p0 == p1)) {
    EXPECT_GT(cube.clock().now_us(), 0.0)
        << "an embedding change must cost simulated time";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RealignSweep,
    ::testing::Combine(::testing::Values(Align::Linear, Align::Cols,
                                         Align::Rows),
                       ::testing::Values(Part::Block, Part::Cyclic),
                       ::testing::Values(Align::Linear, Align::Cols,
                                         Align::Rows),
                       ::testing::Values(Part::Block, Part::Cyclic)));

}  // namespace
}  // namespace vmp
