// Unit tests for the slab arena behind DistBuffer: tile offset and
// alignment invariants, span aliasing (disjoint tiles, full coverage),
// move semantics (O(1) arena transfer), tile relabeling (permute_tiles and
// what lays the tiles out in processor order again), pool recycling across
// construct/destroy cycles, and the host round-trip copies built on the
// strided kernels (DistVector/DistMatrix load → to_host).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include "comm/collectives.hpp"
#include "comm/dist_buffer.hpp"
#include "embed/dist_matrix.hpp"
#include "embed/dist_vector.hpp"
#include "embed/grid.hpp"
#include "util/workloads.hpp"

namespace vmp {
namespace {

template <class T>
[[nodiscard]] std::uintptr_t addr(std::span<T> s) {
  return reinterpret_cast<std::uintptr_t>(s.data());
}

// ---------------------------------------------------------------------------
// Tile offsets and alignment
// ---------------------------------------------------------------------------

TEST(Slab, TilesAre64ByteAlignedAtUniformStride) {
  Cube cube(3, CostParams::unit());
  DistBuffer<double> buf(cube, 7);
  ASSERT_GE(buf.stride(), 7u);
  // The stride quantum keeps every tile on a 64-byte boundary.
  const std::size_t quantum = 64 / std::gcd(sizeof(double), std::size_t{64});
  EXPECT_EQ(buf.stride() % quantum, 0u);
  for (proc_t q = 0; q < cube.procs(); ++q) {
    EXPECT_EQ(addr(buf.tile(q)) % 64, 0u) << "tile " << q << " misaligned";
    EXPECT_EQ(buf.len(q), 7u);
  }
  // Tiles sit at base + q·stride: consecutive tiles are exactly one stride
  // apart in the same arena.
  for (proc_t q = 0; q + 1 < cube.procs(); ++q)
    EXPECT_EQ(addr(buf.tile(q + 1)) - addr(buf.tile(q)),
              buf.stride() * sizeof(double));
}

TEST(Slab, OddSizedElementTypeKeepsTileAlignment) {
  Cube cube(2, CostParams::unit());
  DistBuffer<RouteItem<double>> items(cube, 3);
  for (proc_t q = 0; q < cube.procs(); ++q)
    EXPECT_EQ(addr(items.tile(q)) % 64, 0u) << "tile " << q;
  EXPECT_EQ(items.stride() * sizeof(RouteItem<double>) % 64, 0u);
}

// ---------------------------------------------------------------------------
// Span aliasing: disjoint tiles, no cross-talk, growth preserves contents
// ---------------------------------------------------------------------------

TEST(Slab, TileSpansAreDisjointAndCoverDistinctRanges) {
  Cube cube(3, CostParams::unit());
  DistBuffer<int> buf(cube, 5);
  for (proc_t q = 0; q < cube.procs(); ++q) {
    const std::span<int> t = buf.tile(q);
    for (std::size_t s = 0; s < t.size(); ++s)
      t[s] = static_cast<int>(q * 100 + s);
  }
  // Ranges must not overlap...
  for (proc_t a = 0; a < cube.procs(); ++a)
    for (proc_t b = static_cast<proc_t>(a + 1); b < cube.procs(); ++b) {
      const std::uintptr_t alo = addr(buf.tile(a));
      const std::uintptr_t ahi = alo + buf.len(a) * sizeof(int);
      const std::uintptr_t blo = addr(buf.tile(b));
      EXPECT_TRUE(ahi <= blo || blo + buf.len(b) * sizeof(int) <= alo)
          << "tiles " << a << " and " << b << " overlap";
    }
  // ...and writes through one tile must not leak into another.
  for (proc_t q = 0; q < cube.procs(); ++q)
    for (std::size_t s = 0; s < buf.len(q); ++s)
      EXPECT_EQ(buf.tile(q)[s], static_cast<int>(q * 100 + s));
}

TEST(Slab, GrowthPreservesEveryTileAndDoublesGeometrically) {
  Cube cube(2, CostParams::unit());
  DistBuffer<double> buf(cube);
  for (proc_t q = 0; q < cube.procs(); ++q)
    for (int s = 0; s < 3; ++s) buf.push_back(q, q * 10.0 + s);
  const std::size_t stride0 = buf.stride();
  // Force several reallocations through one tile; the others must survive.
  for (int s = 3; s < 200; ++s) buf.push_back(0, 0.0 + s);
  EXPECT_GE(buf.stride(), 200u);
  EXPECT_GT(buf.stride(), stride0);
  for (proc_t q = 1; q < cube.procs(); ++q) {
    ASSERT_EQ(buf.len(q), 3u);
    for (std::size_t s = 0; s < 3; ++s)
      EXPECT_EQ(buf.tile(q)[s], q * 10.0 + s);
  }
  for (std::size_t s = 0; s < 200; ++s)
    EXPECT_EQ(buf.tile(0)[s], static_cast<double>(s));
}

// ---------------------------------------------------------------------------
// Move semantics and copies
// ---------------------------------------------------------------------------

TEST(Slab, MoveTransfersTheArenaWithoutCopying) {
  Cube cube(2, CostParams::unit());
  DistBuffer<double> a(cube, 16);
  for (proc_t q = 0; q < cube.procs(); ++q)
    for (std::size_t s = 0; s < 16; ++s)
      a.tile(q)[s] = q * 1000.0 + static_cast<double>(s);
  const std::uintptr_t arena = addr(a.tile(0));

  DistBuffer<double> b(std::move(a));
  EXPECT_EQ(addr(b.tile(0)), arena) << "move must not reallocate";
  EXPECT_EQ(a.procs(), 0u) << "moved-from buffer is empty";

  DistBuffer<double> c;
  c = std::move(b);
  EXPECT_EQ(addr(c.tile(0)), arena);
  for (proc_t q = 0; q < cube.procs(); ++q)
    for (std::size_t s = 0; s < 16; ++s)
      EXPECT_EQ(c.tile(q)[s], q * 1000.0 + static_cast<double>(s));
}

TEST(Slab, SwapExchangesArenasInConstantTime) {
  Cube cube(2, CostParams::unit());
  DistBuffer<int> a(cube, 4);
  DistBuffer<int> b(cube, 8);
  a.tile(1)[0] = 7;
  b.tile(1)[0] = 9;
  const std::uintptr_t pa = addr(a.tile(0)), pb = addr(b.tile(0));
  a.swap(b);
  EXPECT_EQ(addr(a.tile(0)), pb);
  EXPECT_EQ(addr(b.tile(0)), pa);
  EXPECT_EQ(a.len(1), 8u);
  EXPECT_EQ(a.tile(1)[0], 9);
  EXPECT_EQ(b.tile(1)[0], 7);
}

TEST(Slab, CopyIsDeepAndIndependent) {
  Cube cube(2, CostParams::unit());
  DistBuffer<double> a(cube, 6);
  for (proc_t q = 0; q < cube.procs(); ++q)
    for (std::size_t s = 0; s < 6; ++s) a.tile(q)[s] = q + 0.5 * s;
  DistBuffer<double> b(a);
  EXPECT_NE(addr(b.tile(0)), addr(a.tile(0))) << "copy must own its arena";
  b.tile(0)[0] = -1.0;
  EXPECT_EQ(a.tile(0)[0], 0.0) << "copies must not alias";
  for (proc_t q = 0; q < cube.procs(); ++q)
    for (std::size_t s = 1; s < 6; ++s) EXPECT_EQ(b.tile(q)[s], a.tile(q)[s]);
}

// ---------------------------------------------------------------------------
// permute_tiles: tiles change owners through the slot table, bytes stay put
// ---------------------------------------------------------------------------

/// A buffer with ragged tiles (tile 0 and tile 3 empty) of distinct values.
[[nodiscard]] DistBuffer<double> ragged_buffer(Cube& cube) {
  DistBuffer<double> buf(cube);
  buf.reserve_each(9);
  for (proc_t q = 0; q < cube.procs(); ++q)
    for (std::size_t s = 0; s < (std::size_t{q} * 5) % 9; ++s)
      buf.push_back(q, q * 100.0 + static_cast<double>(s));
  return buf;
}

/// Every tile's contents, in processor order.
[[nodiscard]] std::vector<std::vector<double>> tiles_of(
    const DistBuffer<double>& buf) {
  std::vector<std::vector<double>> t;
  for (proc_t q = 0; q < buf.procs(); ++q) t.push_back(buf.host_vec(q));
  return t;
}

/// A permutation of the 8 processors with no fixed point.
const std::vector<proc_t> kTo = {5, 0, 7, 1, 6, 2, 3, 4};

TEST(Slab, PermuteTilesMovesOwnershipNotBytes) {
  Cube cube(3, CostParams::cm2());
  DistBuffer<double> buf = ragged_buffer(cube);
  const std::vector<std::vector<double>> before = tiles_of(buf);
  std::vector<std::uintptr_t> ptr;
  for (proc_t q = 0; q < cube.procs(); ++q) ptr.push_back(addr(buf.tile(q)));
  const std::size_t stride = buf.stride();
  const SimStats st0 = cube.clock().stats();

  buf.permute_tiles(kTo);
  for (proc_t q = 0; q < cube.procs(); ++q) {
    EXPECT_EQ(addr(buf.tile(kTo[q])), ptr[q]) << "tile " << q << " moved";
    EXPECT_EQ(buf.host_vec(kTo[q]), before[q]);
  }
  EXPECT_EQ(buf.stride(), stride);
  EXPECT_EQ(cube.clock().stats(), st0) << "a relabeling touched the pool";

  // Tiles keep their capacity under their new owner: appending within the
  // stride writes into the tile's own arena slot.
  buf.push_back(kTo[0], -1.0);
  EXPECT_EQ(addr(buf.tile(kTo[0])), ptr[0]);
  EXPECT_EQ(buf.tile(kTo[0]).back(), -1.0);
  EXPECT_EQ(buf.stride(), stride);

  // The inverse permutation brings every tile home.
  buf.resize(kTo[0], before[0].size());
  std::vector<proc_t> inv(cube.procs());
  for (proc_t q = 0; q < cube.procs(); ++q) inv[kTo[q]] = q;
  buf.permute_tiles(inv);
  EXPECT_EQ(tiles_of(buf), before);
  for (proc_t q = 0; q < cube.procs(); ++q)
    EXPECT_EQ(addr(buf.tile(q)), ptr[q]);
}

TEST(Slab, PermuteTilesRejectsANonBijectionAndLeavesTheBuffer) {
  Cube cube(3, CostParams::cm2());
  DistBuffer<double> buf = ragged_buffer(cube);
  const std::vector<std::vector<double>> before = tiles_of(buf);
  std::vector<proc_t> twice = kTo;
  twice[6] = twice[2];  // two tiles for processor 7
  EXPECT_THROW(buf.permute_tiles(twice), ContractError);
  std::vector<proc_t> outside = kTo;
  outside[4] = cube.procs();
  EXPECT_THROW(buf.permute_tiles(outside), ContractError);
  EXPECT_THROW(buf.permute_tiles(std::span<const proc_t>(kTo).first(7)),
               ContractError);
  EXPECT_EQ(tiles_of(buf), before);
  buf.permute_tiles(kTo);
  EXPECT_THROW(buf.permute_tiles(twice), ContractError);
  for (proc_t q = 0; q < cube.procs(); ++q)
    EXPECT_EQ(buf.host_vec(kTo[q]), before[q]);
}

/// True when the tiles sit at base + q·stride in processor order.
[[nodiscard]] bool in_processor_order(DistBuffer<double>& buf) {
  for (proc_t q = 0; q + 1 < buf.procs(); ++q)
    if (addr(buf.tile(q + 1)) - addr(buf.tile(q)) !=
        buf.stride() * sizeof(double))
      return false;
  return true;
}

TEST(Slab, GrowthAndCopiesOfAPermutedBufferRestoreProcessorOrder) {
  Cube cube(3, CostParams::cm2());
  DistBuffer<double> buf = ragged_buffer(cube);
  buf.permute_tiles(kTo);
  ASSERT_FALSE(in_processor_order(buf));
  const std::vector<std::vector<double>> permuted = tiles_of(buf);

  DistBuffer<double> copy(buf);
  EXPECT_TRUE(in_processor_order(copy));
  EXPECT_EQ(tiles_of(copy), permuted);

  DistBuffer<double> assigned(cube, 3);
  assigned = buf;
  EXPECT_TRUE(in_processor_order(assigned));
  EXPECT_EQ(tiles_of(assigned), permuted);
  EXPECT_FALSE(in_processor_order(buf)) << "copying changed the source";

  // Growth past the stride re-lays the arena in processor order; later
  // permutations start again from there.
  const std::size_t stride = buf.stride();
  buf.reserve_each(stride + 1);
  EXPECT_GT(buf.stride(), stride);
  EXPECT_TRUE(in_processor_order(buf));
  EXPECT_EQ(tiles_of(buf), permuted);
  buf.permute_tiles(kTo);
  for (proc_t q = 0; q < cube.procs(); ++q)
    EXPECT_EQ(buf.host_vec(kTo[q]), permuted[q]);
}

TEST(Slab, SwapAndMoveCarryThePermutedLayout) {
  Cube cube(3, CostParams::cm2());
  DistBuffer<double> a = ragged_buffer(cube);
  a.permute_tiles(kTo);
  const std::vector<std::vector<double>> tiles = tiles_of(a);
  std::vector<std::uintptr_t> ptr;
  for (proc_t q = 0; q < cube.procs(); ++q) ptr.push_back(addr(a.tile(q)));

  DistBuffer<double> b(std::move(a));
  DistBuffer<double> c(cube, 2);
  c.swap(b);
  EXPECT_EQ(tiles_of(c), tiles);
  for (proc_t q = 0; q < cube.procs(); ++q)
    EXPECT_EQ(addr(c.tile(q)), ptr[q]) << "tile " << q;
  DistBuffer<double> d;
  d = std::move(c);
  EXPECT_EQ(tiles_of(d), tiles);
  for (proc_t q = 0; q < cube.procs(); ++q) EXPECT_EQ(addr(d.tile(q)), ptr[q]);
  EXPECT_EQ(b.len(0), 2u) << "swap handed b the other buffer's tiles";
}

TEST(Slab, PermuteTilesInsideATeamStepIsRejected) {
  Cube cube(3, CostParams::cm2());
  DistBuffer<double> buf = ragged_buffer(cube);
  const std::vector<std::vector<double>> before = tiles_of(buf);
  // Like slab growth, a relabeling rewrites state every lane reads.
  EXPECT_THROW(cube.compute(1, [&](proc_t q) {
                 if (q == 0) buf.permute_tiles(kTo);
               }),
               ContractError);
  EXPECT_THROW(cube.compute(1, [&](proc_t q) {
                 if (q == 0) buf.reserve_each(buf.stride() + 1);
               }),
               ContractError);
  EXPECT_EQ(tiles_of(buf), before);
}

// ---------------------------------------------------------------------------
// Pool recycling across construct/destroy cycles
// ---------------------------------------------------------------------------

TEST(Slab, ArenaReturnsToThePoolAndIsRecycled) {
  Cube cube(3, CostParams::cm2());
  { DistBuffer<double> warm(cube, 256); }  // first arena: a pool miss
  const SimStats warm_stats = cube.clock().stats();
  EXPECT_GT(warm_stats.slab_allocs, 0u);
  EXPECT_GT(warm_stats.slab_bytes, 0u);

  // Same-shaped objects constructed after destruction must be served
  // entirely from the free list: no new misses, no new slab allocations.
  for (int it = 0; it < 8; ++it) {
    DistBuffer<double> buf(cube, 256);
    buf.tile(0)[0] = static_cast<double>(it);
  }
  const SimStats after = cube.clock().stats();
  EXPECT_EQ(after.pool_misses, warm_stats.pool_misses);
  EXPECT_EQ(after.slab_allocs, warm_stats.slab_allocs);
  EXPECT_EQ(after.slab_bytes, warm_stats.slab_bytes);
  EXPECT_GT(after.pool_hits, warm_stats.pool_hits);
}

TEST(Slab, SlabAllocsCountArenasNotStagingScratch) {
  Cube cube(2, CostParams::cm2());
  const std::uint64_t slabs0 = cube.clock().stats().slab_allocs;
  DistBuffer<double> buf(cube, 32);
  EXPECT_GT(cube.clock().stats().slab_allocs, slabs0);
  const std::uint64_t slabs1 = cube.clock().stats().slab_allocs;
  // An exchange allocates staging scratch (pool misses on a cold pool) but
  // no slab arenas.
  cube.exchange<double>(
      0, [&](proc_t q) { return std::span<const double>(buf.tile(q)); },
      [&](proc_t, std::span<const double>) {});
  EXPECT_EQ(cube.clock().stats().slab_allocs, slabs1);
}

// ---------------------------------------------------------------------------
// Host round trips through the strided copy kernels (satellite of the slab
// refactor: to_host is contiguous/strided block copies, not per-element
// owner lookups)
// ---------------------------------------------------------------------------

class RoundTripSweep
    : public ::testing::TestWithParam<std::tuple<Align, Part, std::size_t>> {};

TEST_P(RoundTripSweep, VectorLoadToHostIsIdentity) {
  const auto [align, part, n] = GetParam();
  if (align == Align::Linear && part == Part::Cyclic) GTEST_SKIP();
  Cube cube(4, CostParams::unit());
  Grid grid = Grid::square(cube);
  DistVector<double> v(grid, n, align, part);
  const std::vector<double> host = random_vector(n, 31);
  v.load(host);
  EXPECT_TRUE(v.replicas_consistent());
  EXPECT_EQ(v.to_host(), host);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RoundTripSweep,
    ::testing::Combine(::testing::Values(Align::Linear, Align::Cols,
                                         Align::Rows),
                       ::testing::Values(Part::Block, Part::Cyclic),
                       ::testing::Values(0ul, 1ul, 13ul, 64ul, 100ul)));

class MatrixRoundTripSweep
    : public ::testing::TestWithParam<
          std::tuple<MatrixLayout, std::size_t, std::size_t>> {};

TEST_P(MatrixRoundTripSweep, MatrixLoadToHostIsIdentity) {
  const auto [layout, m, n] = GetParam();
  Cube cube(4, CostParams::unit());
  Grid grid = Grid::square(cube);
  DistMatrix<double> A(grid, m, n, layout);
  const std::vector<double> host = random_matrix(m, n, 47);
  A.load(host);
  EXPECT_EQ(A.to_host(), host);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MatrixRoundTripSweep,
    ::testing::Combine(::testing::Values(MatrixLayout::blocked(),
                                         MatrixLayout::cyclic(),
                                         MatrixLayout{Part::Block,
                                                      Part::Cyclic}),
                       ::testing::Values(1ul, 9ul, 32ul),
                       ::testing::Values(1ul, 17ul, 32ul)));

}  // namespace
}  // namespace vmp
