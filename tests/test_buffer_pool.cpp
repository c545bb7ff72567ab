// BufferPool and the machine's pooled staging slots: block reuse, bucket
// rounding, statistics plumbing into SimClock, and the zero-allocation
// guarantee on steady-state exchange and Gray-shift hot loops.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "comm/shift.hpp"
#include "core/primitives.hpp"
#include "embed/dist_matrix.hpp"
#include "embed/dist_vector.hpp"
#include "hypercube/buffer_pool.hpp"
#include "hypercube/machine.hpp"
#include "util/workloads.hpp"

// Every heap allocation this test binary makes through operator new (and
// so through new[], std::vector and std::make_unique), counted so that a
// hot loop can assert it makes none.
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

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
  // A Gray shift charges its relay legs over the tiles where they lie
  // (Cube::relay_views) and then relabels them (permute_tiles): nothing is
  // staged, so there is no pool traffic at all, and once one warm pass of
  // the loop has sized the cube's relay tables (and, on routed presets,
  // cached the routes of every dimension its legs cross), a repeated-shift
  // loop at any mix of strides makes no heap allocation.
  Cube cube(4, CostParams::cm2());
  const SubcubeSet sc = SubcubeSet::contiguous(0, 4);
  DistBuffer<double> buf(cube, 64);
  cube.each_proc([&](proc_t q) {
    for (std::size_t t = 0; t < 64; ++t)
      buf.tile(q)[t] = static_cast<double>(q * 64 + t);
  });
  // Reset first: a reset clears the tracer's per-region profiles, which the
  // warm pass's first charge then recreates.
  cube.clock().reset();
  const auto pass = [&] {
    shift_blocks(cube, buf, sc, 1, RingOrder::Gray);
    shift_blocks(cube, buf, sc, 5, RingOrder::Gray);
    shift_blocks(cube, buf, sc, -6, RingOrder::Gray);
  };
  pass();  // warm
  const std::uint64_t allocs0 = g_heap_allocs.load();
  for (int it = 0; it < 16; ++it) pass();
  const std::uint64_t allocs = g_heap_allocs.load() - allocs0;
  EXPECT_EQ(allocs, 0u) << "steady-state shift loop allocated";
  const SimStats& st = cube.clock().stats();
  EXPECT_EQ(st.pool_misses, 0u);
  EXPECT_EQ(st.alloc_bytes, 0u);
  EXPECT_EQ(st.pool_hits, 0u) << "a shift staged through the pool";
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
