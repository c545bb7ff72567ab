/// \file shift.hpp
/// \brief Cyclic block shifts ("torus rotation") at arbitrary strides, and
///        the Gray-code payoff.
///
/// Shifting every block `s` positions along a ring is the basic mesh/torus
/// operation (alternating-direction methods, systolic phases) and the whole
/// communication alphabet of the hyper-systolic schedules in
/// algorithms/matmul.cpp: a shift base {0, 1, …, K−1} of unit strides plus
/// K-stride streaming shifts, K ≈ √p.  With processors ordered by the
/// binary-reflected Gray code a unit shift is ONE lockstep round (ring
/// neighbours are cube neighbours); a stride-s shift is one
/// Cube::relay_views, charged as the store-and-forward dimension-order
/// relay it is on the wire — H lockstep rounds, H = max Hamming distance of
/// any (src, dest) pair, round j carrying leg j of every in-flight
/// message's dimension-order path, with per-processor (and, on routed
/// topologies, per-link) combining.  On the host no byte moves: the legs
/// are walked over the tiles where they lie, and DistBuffer::permute_tiles
/// then hands every tile to its destination.  With the natural binary
/// ordering even a unit shift degrades to a full dimension-order routing
/// sweep.  bench_collectives measures both gaps — the reason every mesh
/// embedding in the hypercube era was Gray-coded.
#pragma once

#include "comm/collectives.hpp"
#include "hypercube/gray.hpp"

namespace vmp {

enum class RingOrder {
  Gray,    ///< ring position r lives on processor gray_encode(r)
  Binary,  ///< ring position r lives on processor r
};

/// Processor holding ring position r of a 2^k ring.
[[nodiscard]] inline proc_t ring_proc(RingOrder order, std::uint32_t r) {
  return order == RingOrder::Gray ? gray_encode(r) : r;
}

/// Ring position held by processor q.
[[nodiscard]] inline std::uint32_t ring_pos(RingOrder order, proc_t q) {
  return order == RingOrder::Gray ? gray_decode(q) : q;
}

namespace shift_detail {

/// `by` reduced to a forward stride in [0, P).
[[nodiscard]] inline std::uint32_t norm_step(int by, std::uint32_t P) {
  const int p = static_cast<int>(P);
  return static_cast<std::uint32_t>(((by % p) + p) % p);
}

/// The destination map q ↦ dest(q) of a shift by the forward stride
/// `step` along the rings of `sc` in `order`.
[[nodiscard]] inline auto ring_dest(const SubcubeSet& sc, RingOrder order,
                                    std::uint32_t step) {
  return [&sc, order, step](proc_t q) {
    const std::uint32_t pos = ring_pos(order, sc.rank(q));
    return sc.with_rank(q, ring_proc(order, (pos + step) % sc.size()));
  };
}

}  // namespace shift_detail

/// Number of charged lockstep rounds of a Gray-order shift by `by` within
/// subcubes of `sc`: the maximum Hamming distance between any processor
/// and its destination.  1 for unit strides (the Gray payoff); at most
/// sc.k() for any stride.
[[nodiscard]] inline int shift_rounds(const SubcubeSet& sc, int by) {
  const std::uint32_t P = sc.size();
  if (sc.k() == 0) return 0;
  const std::uint32_t step = shift_detail::norm_step(by, P);
  if (step == 0) return 0;
  int rounds = 0;
  for (std::uint32_t r = 0; r < P; ++r)
    rounds = std::max(rounds, hamming_distance(gray_encode(r),
                                               gray_encode((r + step) % P)));
  return rounds;
}

/// The charge of a Gray-order shift by `by` within subcubes of `sc` over
/// messages already in memory: q's message is `view(q)` (empty = none),
/// valid and unchanged for the whole call.  One Cube::relay_views inside a
/// "shift" region — H store-and-forward rounds, 1 for unit strides — that
/// moves nothing and leaves the permutation in cube.relay_dest(); an
/// identity shift charges nothing.  matmul_hyper charges its shifts this
/// way over its operands' blocks.
template <class T, class ViewFn>
void shift_views(Cube& cube, const SubcubeSet& sc, int by, ViewFn&& view) {
  if (sc.k() == 0) return;
  const std::uint32_t step = shift_detail::norm_step(by, sc.size());
  if (step == 0) return;
  VMP_TRACE(cube, "shift");
  const int rounds = cube.relay_views<T>(
      shift_detail::ring_dest(sc, RingOrder::Gray, step), view);
  if (MetricsRegistry& mx = cube.metrics(); mx.enabled()) {
    mx.counter("shift.calls", MetricClass::Sim).add(1);
    mx.counter("shift.rounds", MetricClass::Sim)
        .add(static_cast<std::uint64_t>(rounds));
  }
}

/// Cyclically shift each processor's whole local array `by` ring positions
/// (negative = backward) within each subcube of `sc`.  Gray order:
/// shift_views over the tiles, then a relabeling of the tiles
/// (DistBuffer::permute_tiles) — no team step, no copy; if a fault plan's
/// recovery fails, the FaultError leaves `buf` exactly as it was.  Binary
/// order: a full dimension-order combining-router sweep.
template <class T>
void shift_blocks(Cube& cube, DistBuffer<T>& buf, const SubcubeSet& sc,
                  int by, RingOrder order) {
  if (sc.k() == 0) return;
  const std::uint32_t step = shift_detail::norm_step(by, sc.size());
  if (step == 0) return;
  if (order == RingOrder::Gray) {
    // Every tile, empty ones included, goes to its destination whole: the
    // legs are charged over the tiles where they lie, and only once they
    // all got through are the tiles relabeled to their new owners.
    shift_views<T>(cube, sc, by,
                   [&](proc_t q) { return std::span<const T>(buf.tile(q)); });
    buf.permute_tiles(cube.relay_dest());
    return;
  }
  VMP_TRACE(cube, "shift");

  // Binary order: ring neighbours may differ in many bits — route.  The
  // whole sweep (k routing rounds) runs inside one team activation.
  const auto batch = cube.session();
  const auto dest_of = shift_detail::ring_dest(sc, order, step);
  DistBuffer<RouteItem<T>> items(cube);
  items.reserve_each(max_local_len(cube, buf));
  cube.each_proc([&](proc_t q) {
    const proc_t dst = dest_of(q);
    const std::span<const T> mine = buf.tile(q);
    for (std::size_t t = 0; t < mine.size(); ++t)
      items.push_back(q, RouteItem<T>{dst, t, mine[t]});
  });
  route_within(cube, items, sc);
  cube.each_proc([&](proc_t q) {
    buf.assign(q, items.len(q), T{});
    kern::scatter_tagged(items.tile(q), buf.tile(q));
  });
}

/// Simulated cost of one Gray-order shift_blocks call moving `elems`
/// elements per processor, priced with the cube's CostParams and physical
/// topology but WITHOUT advancing the clock: Cube::relay_cost walks the
/// same store-and-forward rounds the real call charges.  This is the shift
/// term of the matmul_auto selector's backend models.
[[nodiscard]] inline double shift_cost_model(Cube& cube, const SubcubeSet& sc,
                                             int by, std::size_t elems) {
  if (sc.k() == 0 || elems == 0) return 0.0;
  const std::uint32_t step = shift_detail::norm_step(by, sc.size());
  if (step == 0) return 0.0;
  return cube.relay_cost(shift_detail::ring_dest(sc, RingOrder::Gray, step),
                         elems);
}

}  // namespace vmp
