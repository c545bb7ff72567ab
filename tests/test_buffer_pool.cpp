// BufferPool and the machine's pooled staging slots: block reuse, bucket
// rounding, statistics plumbing into SimClock, and the zero-allocation
// guarantee on a steady-state exchange hot loop.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "comm/shift.hpp"
#include "core/primitives.hpp"
#include "embed/dist_matrix.hpp"
#include "embed/dist_vector.hpp"
#include "hypercube/buffer_pool.hpp"
#include "hypercube/machine.hpp"
#include "util/workloads.hpp"

namespace vmp {
namespace {

TEST(BufferPool, BucketRoundingIsPowerOfTwoWithFloor) {
  // Everything at or below the floor shares the 64-byte bucket.
  EXPECT_EQ(BufferPool::bucket_bytes(1), 64u);
  EXPECT_EQ(BufferPool::bucket_bytes(63), 64u);
  EXPECT_EQ(BufferPool::bucket_bytes(64), 64u);
  // Above the floor: the smallest enclosing power of two.
  EXPECT_EQ(BufferPool::bucket_bytes(65), 128u);
  EXPECT_EQ(BufferPool::bucket_bytes(128), 128u);
  EXPECT_EQ(BufferPool::bucket_bytes(129), 256u);
  EXPECT_EQ(BufferPool::bucket_bytes(1000), 1024u);
  EXPECT_EQ(BufferPool::bucket_bytes(1 << 20), 1u << 20);
  EXPECT_EQ(BufferPool::bucket_bytes((1 << 20) + 1), 1u << 21);
  // Zero-byte requests never touch the pool.
  EXPECT_EQ(BufferPool::bucket_bytes(0), 0u);
}

TEST(BufferPool, ReusesReleasedBlocksOfTheSameBucket) {
  BufferPool pool;
  void* first = nullptr;
  {
    const BufferPool::Block b = pool.acquire(100);
    first = b.data();
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(b.size(), 128u);  // bucket capacity, not the request
  }
  EXPECT_EQ(pool.free_blocks(), 1u);
  {
    // Any size in the same bucket recycles the identical storage.
    const BufferPool::Block b = pool.acquire(65);
    EXPECT_EQ(b.data(), first);
  }
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(pool.heap_bytes(), 128u);
}

TEST(BufferPool, ZeroByteAcquireIsEmptyAndUncounted) {
  BufferPool pool;
  const BufferPool::Block b = pool.acquire(0);
  EXPECT_EQ(b.data(), nullptr);
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(pool.hits(), 0u);
  EXPECT_EQ(pool.misses(), 0u);
}

TEST(BufferPool, StatsFlowIntoTheOwningClock) {
  SimClock clock(CostParams::unit());
  BufferPool pool(&clock);
  { const auto a = pool.acquire(100); }  // miss: 128-byte bucket
  { const auto b = pool.acquire(100); }  // hit
  const SimStats& st = clock.stats();
  EXPECT_EQ(st.pool_misses, 1u);
  EXPECT_EQ(st.pool_hits, 1u);
  EXPECT_EQ(st.alloc_bytes, 128u);
}

TEST(BufferPool, TrimReleasesFreeBlocks) {
  BufferPool pool;
  { const auto a = pool.acquire(4096); }
  EXPECT_EQ(pool.free_blocks(), 1u);
  pool.trim();
  EXPECT_EQ(pool.free_blocks(), 0u);
  // The next acquire is a fresh miss.
  { const auto a = pool.acquire(4096); }
  EXPECT_EQ(pool.misses(), 2u);
}

TEST(PooledStaging, SteadyStateExchangeLoopNeverTouchesTheHeap) {
  Cube cube(4, CostParams::cm2());
  DistBuffer<double> buf(cube, 64);
  cube.each_proc([&](proc_t q) {
    for (std::size_t t = 0; t < 64; ++t)
      buf.tile(q)[t] = static_cast<double>(q * 64 + t);
  });
  // Warm pass: every staging slot grows to its bucket capacity once.
  cube.exchange<double>(0, [&](proc_t q) { return std::span<const double>(buf.tile(q)); },
                        [&](proc_t, std::span<const double>) {});
  cube.clock().reset();
  for (int it = 0; it < 16; ++it)
    for (int d = 0; d < cube.dim(); ++d)
      cube.exchange<double>(
          d, [&](proc_t q) { return std::span<const double>(buf.tile(q)); },
          [&](proc_t, std::span<const double>) {});
  const SimStats& st = cube.clock().stats();
  EXPECT_EQ(st.pool_misses, 0u) << "steady-state exchange allocated";
  EXPECT_EQ(st.alloc_bytes, 0u);
  EXPECT_GT(st.pool_hits, 0u);
}

TEST(PooledStaging, SteadyStateGrayShiftLoopNeverTouchesTheHeap) {
  // The Gray shift is one relay round, staged through the round core's
  // persistent per-processor slots (no per-call DistBuffer copy, whose
  // length vector would hit the heap every shift): after one warm pass, a
  // repeated-shift loop at any mix of strides must be 100% pool hits.
  Cube cube(4, CostParams::cm2());
  const SubcubeSet sc = SubcubeSet::contiguous(0, 4);
  DistBuffer<double> buf(cube, 64);
  cube.each_proc([&](proc_t q) {
    for (std::size_t t = 0; t < 64; ++t)
      buf.tile(q)[t] = static_cast<double>(q * 64 + t);
  });
  shift_blocks(cube, buf, sc, 1, RingOrder::Gray);  // warm: lease bucket
  cube.clock().reset();
  for (int it = 0; it < 16; ++it) {
    shift_blocks(cube, buf, sc, 1, RingOrder::Gray);
    shift_blocks(cube, buf, sc, 5, RingOrder::Gray);
    shift_blocks(cube, buf, sc, -6, RingOrder::Gray);
  }
  const SimStats& st = cube.clock().stats();
  EXPECT_EQ(st.pool_misses, 0u) << "steady-state shift loop allocated";
  EXPECT_EQ(st.alloc_bytes, 0u);
  EXPECT_GT(st.pool_hits, 0u);
}

TEST(PooledStaging, SteadyStatePrimitiveLoopIsAllPoolHits) {
  Cube cube(4, CostParams::cm2());
  Grid grid = Grid::square(cube);
  const std::size_t n = 48;
  DistMatrix<double> A(grid, n, n);
  A.load(random_matrix(n, n, 7));
  // Warm pass: the collectives behind reduce/extract grow the slots once.
  (void)reduce(A, Axis::Row, Plus<double>{});
  (void)extract(A, Axis::Row, n / 2);
  cube.clock().reset();
  for (int it = 0; it < 8; ++it) {
    (void)reduce(A, Axis::Row, Plus<double>{});
    (void)extract(A, Axis::Row, n / 2);
  }
  const SimStats& st = cube.clock().stats();
  EXPECT_EQ(st.pool_misses, 0u)
      << "primitive hot loop allocated " << st.alloc_bytes << " bytes";
  EXPECT_GT(st.pool_hits, 0u);
}

TEST(PooledStaging, GrowingPayloadsMissOnceThenHitForever) {
  Cube cube(3, CostParams::cm2());
  // Payloads that double each round: each size class misses at most once
  // per slot; repeats of a size already seen are pure hits.
  std::vector<std::vector<double>> payload(cube.procs());
  std::uint64_t misses_after_first_sweep = 0;
  for (int round = 0; round < 2; ++round) {
    for (std::size_t elems = 8; elems <= 512; elems *= 2) {
      for (proc_t q = 0; q < cube.procs(); ++q)
        payload[q].assign(elems, static_cast<double>(q));
      cube.exchange<double>(
          0, [&](proc_t q) { return std::span<const double>(payload[q]); },
          [&](proc_t, std::span<const double>) {});
    }
    if (round == 0) misses_after_first_sweep = cube.clock().stats().pool_misses;
  }
  EXPECT_GT(misses_after_first_sweep, 0u);
  EXPECT_EQ(cube.clock().stats().pool_misses, misses_after_first_sweep)
      << "a repeated size class must be served from the pooled slots";
}

}  // namespace
}  // namespace vmp
