/// \file bits.hpp
/// \brief Bit-manipulation utilities for Boolean-cube (hypercube) addressing.
///
/// A Boolean n-cube has `2^n` nodes; node addresses are n-bit integers and
/// two nodes are neighbours iff their addresses differ in exactly one bit.
/// Subcubes are described by *dimension masks*: a mask with k bits set names
/// the 2^k-node subcube spanned by those address bits.
#pragma once

#include <bit>
#include <cstdint>

#include "hypercube/check.hpp"

namespace vmp {

/// True iff `x` is a power of two (and nonzero).
[[nodiscard]] constexpr bool is_pow2(std::uint64_t x) noexcept {
  return x != 0 && (x & (x - 1)) == 0;
}

/// Exact base-2 logarithm of a power of two.
[[nodiscard]] inline int log2_exact(std::uint64_t x) {
  VMP_REQUIRE(is_pow2(x), "log2_exact requires a power of two");
  return std::countr_zero(x);
}

/// Ceiling of log2; log2_ceil(1) == 0.
[[nodiscard]] constexpr int log2_ceil(std::uint64_t x) noexcept {
  if (x <= 1) return 0;
  return 64 - std::countl_zero(x - 1);
}

/// Number of set bits.
[[nodiscard]] constexpr int popcount(std::uint64_t x) noexcept {
  return std::popcount(x);
}

/// Neighbour of `node` across cube dimension `dim`.
[[nodiscard]] constexpr std::uint32_t cube_neighbor(std::uint32_t node,
                                                    int dim) noexcept {
  return node ^ (std::uint32_t{1} << dim);
}

/// Bit `dim` of `node` as 0/1.
[[nodiscard]] constexpr int bit_of(std::uint32_t node, int dim) noexcept {
  return static_cast<int>((node >> dim) & 1u);
}

/// The low set bit of a mask whose set bits are one contiguous run, or -1
/// for a mask with gaps (and for 0).  Every Grid axis spans such a run, so
/// extract_bits and deposit_bits are a shift and a mask for it.
[[nodiscard]] constexpr int contiguous_low(std::uint32_t mask) noexcept {
  if (mask == 0) return -1;
  const int lo = std::countr_zero(mask);
  const std::uint32_t run = mask >> lo;
  return (run & (run + 1)) == 0 ? lo : -1;
}

/// Extract the bits of `node` selected by `mask`, compacted to the low end.
/// Example: extract_bits(0b1011, 0b1010) == 0b11.
[[nodiscard]] constexpr std::uint32_t extract_bits(std::uint32_t node,
                                                   std::uint32_t mask) noexcept {
  if (const int lo = contiguous_low(mask); lo >= 0) return (node & mask) >> lo;
  std::uint32_t out = 0;
  int pos = 0;
  for (std::uint32_t m = mask; m != 0; m &= m - 1) {
    const int b = std::countr_zero(m);
    out |= static_cast<std::uint32_t>((node >> b) & 1u) << pos;
    ++pos;
  }
  return out;
}

/// Inverse of extract_bits: scatter the low popcount(mask) bits of `value`
/// into the positions selected by `mask`.
[[nodiscard]] constexpr std::uint32_t deposit_bits(std::uint32_t value,
                                                   std::uint32_t mask) noexcept {
  if (const int lo = contiguous_low(mask); lo >= 0) return (value << lo) & mask;
  std::uint32_t out = 0;
  int pos = 0;
  for (std::uint32_t m = mask; m != 0; m &= m - 1) {
    const int b = std::countr_zero(m);
    out |= static_cast<std::uint32_t>((value >> pos) & 1u) << b;
    ++pos;
  }
  return out;
}

/// The dimension index of the i-th set bit of `mask` (i counted from 0 at
/// the least-significant set bit).
[[nodiscard]] inline int nth_set_bit(std::uint32_t mask, int i) {
  VMP_REQUIRE(i >= 0 && i < popcount(mask), "bit index out of range");
  std::uint32_t m = mask;
  for (int k = 0; k < i; ++k) m &= m - 1;
  return std::countr_zero(m);
}

/// Hamming distance between two cube addresses (== hop count of the
/// shortest routing path between them).
[[nodiscard]] constexpr int hamming_distance(std::uint32_t a,
                                             std::uint32_t b) noexcept {
  return std::popcount(a ^ b);
}

}  // namespace vmp
