/// \file allport.hpp
/// \brief All-port collectives: the n edge-disjoint spanning binomial tree
///        (nESBT) broadcast of Johnsson & Ho, "Optimum Broadcasting and
///        Personalized Communication in Hypercubes".
///
/// The one-port binomial broadcast moves the whole payload across one port
/// per round: k(τ + n·t_c).  With all k ports active at once the payload
/// can be split into k segments, each travelling down its own rotated
/// spanning binomial tree; the trees use distinct dimensions in every
/// round, so a round costs τ + (n/k)·t_c and the whole broadcast
/// k·τ + ~n·t_c — the factor-k transfer-time speedup the paper reports
/// for large payloads (bench_collectives reproduces it).
///
/// Like the other data-only broadcasts (comm/collectives.hpp), its rounds
/// are charged over the roots' payloads with Cube::exchange_views and the
/// payloads placed once; only the holder test, on rotated relative ranks,
/// is its own.
#pragma once

#include "comm/collectives.hpp"

namespace vmp {

namespace detail {

/// Rotate the low `k` bits of `x` right by `i`.
[[nodiscard]] constexpr std::uint32_t rotr_bits(std::uint32_t x, int i,
                                                int k) noexcept {
  if (k <= 1) return x;
  const std::uint32_t mask = (1u << k) - 1u;
  const int s = i % k;
  if (s == 0) return x & mask;
  return (((x & mask) >> s) | ((x & mask) << (k - s))) & mask;
}

}  // namespace detail

/// All-port broadcast over k = sc.k() rotated edge-disjoint spanning
/// binomial trees; tree i carries block i of the payload.  `n_of(root)` is
/// the payload length of each subcube, read at its root (which must hold
/// at least that many elements), as in broadcast_pipelined.  Like the
/// binomial and pipelined broadcasts it stages nothing: each round is one
/// Cube::exchange_views over the roots' payloads, and one uncharged
/// deliver step places them after the last round, so a FaultError leaves
/// `buf` as it was.
template <class T, class NFn>
void broadcast_esbt(Cube& cube, DistBuffer<T>& buf, const SubcubeSet& sc,
                    std::uint32_t root_rank, NFn n_of) {
  const int k = sc.k();
  if (k == 0) return;
  VMP_TRACE(cube, "broadcast_esbt");
  if (k == 1) {
    broadcast(cube, buf, sc, root_rank);
    return;
  }
  VMP_REQUIRE(root_rank < sc.size(), "broadcast root rank out of range");
  const std::uint32_t K = static_cast<std::uint32_t>(k);
  const detail::BroadcastRoots<T> roots(cube, buf, sc, root_rank, K, n_of);

  // Holder tracking is analytic: in tree i's ROTATED relative-rank space
  // the holders after processing bits {k-1..j+1} are exactly the ranks
  // with no unprocessed bit set — the standard binomial invariant.
  // Rotated back, tree i's unprocessed bits are the unrotated ones turned
  // left by i, deposited onto the subcube's dimensions.
  const std::uint32_t full = (std::uint32_t{1} << k) - 1;
  std::uint32_t processed = 0;
  std::array<int, detail::kMaxPipelinePorts> dims{};
  std::array<std::uint32_t, detail::kMaxPipelinePorts> uncovered{};
  for (int j = k - 1; j >= 0; --j) {
    for (std::uint32_t i = 0; i < K; ++i) {
      const int ii = static_cast<int>(i);
      dims[i] = sc.dim_of_rank_bit((j + ii) % k);
      uncovered[i] = deposit_bits(
          detail::rotr_bits(full & ~processed, k - ii, k), sc.mask());
    }
    cube.exchange_views<T>(
        std::span<const int>(dims.data(), K), [&](auto&& fn) {
          for (std::uint32_t i = 0; i < K; ++i)
            roots.each_holder(uncovered[i], [&](proc_t q) {
              fn(dims[i], q, roots.segment(q, i));
            });
        });
    processed |= 1u << j;
  }
  roots.place(cube, buf);
}

}  // namespace vmp
