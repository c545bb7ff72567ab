// Unit tests: bit utilities, Gray codes, and index partitions — the
// addressing bedrock everything above depends on.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "hypercube/bits.hpp"
#include "hypercube/gray.hpp"
#include "hypercube/partition.hpp"

namespace vmp {
namespace {

TEST(Bits, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_TRUE(is_pow2(1ull << 40));
  EXPECT_FALSE(is_pow2((1ull << 40) + 1));
}

TEST(Bits, Log2Exact) {
  EXPECT_EQ(log2_exact(1), 0);
  EXPECT_EQ(log2_exact(2), 1);
  EXPECT_EQ(log2_exact(1024), 10);
  EXPECT_THROW((void)log2_exact(3), ContractError);
  EXPECT_THROW((void)log2_exact(0), ContractError);
}

TEST(Bits, Log2Ceil) {
  EXPECT_EQ(log2_ceil(0), 0);
  EXPECT_EQ(log2_ceil(1), 0);
  EXPECT_EQ(log2_ceil(2), 1);
  EXPECT_EQ(log2_ceil(3), 2);
  EXPECT_EQ(log2_ceil(4), 2);
  EXPECT_EQ(log2_ceil(5), 3);
}

TEST(Bits, CubeNeighborDiffersInOneBit) {
  for (std::uint32_t q = 0; q < 64; ++q)
    for (int d = 0; d < 6; ++d) {
      const std::uint32_t nb = cube_neighbor(q, d);
      EXPECT_EQ(hamming_distance(q, nb), 1);
      EXPECT_EQ(cube_neighbor(nb, d), q);  // involution
    }
}

TEST(Bits, ExtractDepositRoundTrip) {
  const std::uint32_t masks[] = {0b1, 0b1010, 0b111, 0b100100, 0xF0F0};
  for (std::uint32_t mask : masks) {
    const int k = popcount(mask);
    for (std::uint32_t v = 0; v < (1u << k); ++v) {
      EXPECT_EQ(extract_bits(deposit_bits(v, mask), mask), v);
      EXPECT_EQ(deposit_bits(v, mask) & ~mask, 0u);
    }
  }
}

// Contiguous masks (every Grid axis) take a shift-and-mask path, masks
// with gaps the bit loop: both must match the bit-by-bit definition.
TEST(Bits, ExtractDepositMatchTheBitByBitDefinitionOnEveryMask) {
  int contiguous = 0;
  for (std::uint32_t mask = 0; mask < 256; ++mask) {
    contiguous += contiguous_low(mask) >= 0 ? 1 : 0;
    for (std::uint32_t x = 0; x < 256; ++x) {
      std::uint32_t ext = 0, dep = 0;
      int pos = 0;
      for (int b = 0; b < 8; ++b) {
        if (((mask >> b) & 1u) == 0) continue;
        ext |= ((x >> b) & 1u) << pos;
        dep |= ((x >> pos) & 1u) << b;
        ++pos;
      }
      ASSERT_EQ(extract_bits(x, mask), ext) << "mask=" << mask << " x=" << x;
      ASSERT_EQ(deposit_bits(x, mask), dep) << "mask=" << mask << " x=" << x;
    }
  }
  EXPECT_EQ(contiguous, 36) << "the 8-bit masks that are one run of ones";
  EXPECT_EQ(contiguous_low(0b111000), 3);
  EXPECT_EQ(contiguous_low(0b101), -1);
  EXPECT_EQ(contiguous_low(0), -1);
  EXPECT_EQ(extract_bits(0xffffffffu, 0x80000000u), 1u);
  EXPECT_EQ(deposit_bits(3u, 0xc0000000u), 0xc0000000u);
}

TEST(Bits, ExtractBitsExample) {
  EXPECT_EQ(extract_bits(0b1011, 0b1010), 0b11u);
  EXPECT_EQ(extract_bits(0b0001, 0b1010), 0b00u);
  EXPECT_EQ(deposit_bits(0b11, 0b1010), 0b1010u);
}

TEST(Bits, NthSetBit) {
  EXPECT_EQ(nth_set_bit(0b1010, 0), 1);
  EXPECT_EQ(nth_set_bit(0b1010, 1), 3);
  EXPECT_THROW((void)nth_set_bit(0b1010, 2), ContractError);
}

TEST(Gray, ConsecutiveCodewordsAreCubeNeighbors) {
  for (std::uint32_t i = 0; i + 1 < 1024; ++i)
    EXPECT_EQ(hamming_distance(gray_encode(i), gray_encode(i + 1)), 1)
        << "at i=" << i;
}

TEST(Gray, WrapAroundIsNeighborAtPowersOfTwo) {
  for (int k = 1; k <= 10; ++k) {
    const std::uint32_t n = 1u << k;
    EXPECT_EQ(hamming_distance(gray_encode(0), gray_encode(n - 1)), 1);
  }
}

TEST(Gray, EncodeDecodeRoundTrip) {
  for (std::uint32_t i = 0; i < 4096; ++i)
    EXPECT_EQ(gray_decode(gray_encode(i)), i);
}

TEST(Gray, IsAPermutation) {
  std::vector<bool> seen(1024, false);
  for (std::uint32_t i = 0; i < 1024; ++i) {
    const std::uint32_t g = gray_encode(i);
    ASSERT_LT(g, 1024u);
    EXPECT_FALSE(seen[g]);
    seen[g] = true;
  }
}

TEST(Gray, AdjacencyPredicate) {
  EXPECT_TRUE(gray_adjacent(4, 5));
  EXPECT_FALSE(gray_adjacent(4, 6));
  EXPECT_FALSE(gray_adjacent(7, 7));
}

class BlockPartition
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint32_t>> {
};

TEST_P(BlockPartition, CoversRangeExactlyOnce) {
  const auto [n, P] = GetParam();
  std::size_t covered = 0;
  for (std::uint32_t r = 0; r < P; ++r) {
    EXPECT_EQ(block_begin(n, P, r), covered);
    covered += block_size(n, P, r);
  }
  EXPECT_EQ(covered, n);
}

TEST_P(BlockPartition, OwnerLocalConsistent) {
  const auto [n, P] = GetParam();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t r = block_owner(n, P, i);
    ASSERT_LT(r, P);
    const std::size_t s = block_local(n, P, i);
    EXPECT_LT(s, block_size(n, P, r));
    EXPECT_EQ(block_begin(n, P, r) + s, i);
  }
}

TEST_P(BlockPartition, BalancedWithinOne) {
  const auto [n, P] = GetParam();
  std::size_t mn = n + 1, mx = 0;
  for (std::uint32_t r = 0; r < P; ++r) {
    mn = std::min(mn, block_size(n, P, r));
    mx = std::max(mx, block_size(n, P, r));
  }
  EXPECT_LE(mx - mn, 1u);
}

TEST_P(BlockPartition, CyclicOwnerLocalConsistent) {
  const auto [n, P] = GetParam();
  std::vector<std::size_t> counts(P, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t r = cyclic_owner(P, i);
    const std::size_t s = cyclic_local(P, i);
    EXPECT_EQ(cyclic_global(P, r, s), i);
    ++counts[r];
  }
  std::size_t total = 0;
  for (std::uint32_t r = 0; r < P; ++r) {
    EXPECT_EQ(counts[r], cyclic_size(n, P, r));
    total += counts[r];
  }
  EXPECT_EQ(total, n);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BlockPartition,
    ::testing::Values(std::tuple{0ul, 1u}, std::tuple{0ul, 8u},
                      std::tuple{1ul, 1u}, std::tuple{1ul, 4u},
                      std::tuple{5ul, 8u}, std::tuple{7ul, 3u},
                      std::tuple{8ul, 8u}, std::tuple{16ul, 4u},
                      std::tuple{17ul, 4u}, std::tuple{100ul, 16u},
                      std::tuple{1000ul, 32u}, std::tuple{31ul, 32u}));

}  // namespace
}  // namespace vmp
