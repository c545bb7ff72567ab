/// \file sort.hpp
/// \brief Distributed sorting: local sort + bitonic merge across processor
///        ranks — Johnsson's "Combining Parallel and Sequential Sorting on
///        a Boolean n-cube" (the M ≫ N regime: each processor sequentially
///        sorts its block, then lg²p compare-split rounds order the
///        blocks).  Cost: (n/p)·lg(n/p)·t_a locally plus
///        lg p·(lg p+1)/2 rounds of (τ + n/p·t_c + n/p·t_a).
///
/// Blocks are padded to equal length with +∞ sentinels (block-level
/// compare-split is only a sorting network for equal blocks); the pad
/// sorts to the tail, so real element g of the result sits at padded
/// position g, and one routing sweep rebalances back to the Block
/// partition.
#pragma once

#include <algorithm>
#include <limits>
#include <vector>

#include "comm/collectives.hpp"
#include "core/kernels.hpp"
#include "embed/dist_vector.hpp"

namespace vmp {

namespace detail {

/// Compare-split: after the exchange each side of the pair keeps its half
/// of the merged sequence — the block-level analogue of a compare-exchange.
template <class T>
void compare_split(Cube& cube, DistBuffer<T>& data, int dim,
                   const std::vector<bool>& keep_low) {
  cube.exchange<T>(
      dim, [&](proc_t q) { return std::span<const T>(data.tile(q)); },
      [&](proc_t q, std::span<const T> in) {
        const std::span<T> mine = data.tile(q);
        std::vector<T> merged;
        merged.reserve(mine.size() + in.size());
        std::merge(mine.begin(), mine.end(), in.begin(), in.end(),
                   std::back_inserter(merged));
        const auto keep = keep_low[q]
                              ? std::span<const T>(merged).first(mine.size())
                              : std::span<const T>(merged).last(mine.size());
        kern::copy(keep, mine);
      });
  const std::size_t mx = max_local_len(cube, data);
  cube.clock().charge_compute_step(2 * mx, 2 * mx * cube.node_count());
}

}  // namespace detail

/// Sort the elements of a Linear vector ascending, in place.
template <class T>
void vec_sort(DistVector<T>& v) {
  VMP_REQUIRE(v.align() == Align::Linear, "vec_sort needs a Linear vector");
  Grid& grid = v.grid();
  Cube& cube = grid.cube();
  const int d = cube.dim();  // logical merge stages, not a network query
  const std::size_t n = v.n();
  if (n == 0) return;
  const std::size_t mx = (n + cube.node_count() - 1) / cube.node_count();

  // Pad every block to mx with sentinels and sort locally:
  // (n/p)·lg(n/p) comparisons.
  DistBuffer<T> work(cube);
  work.reserve_each(mx);
  cube.each_proc([&](proc_t q) {
    work.assign(q, v.data().tile(q));
    work.resize(q, mx, std::numeric_limits<T>::max());
  });
  const std::uint64_t lg =
      mx <= 1 ? 1 : static_cast<std::uint64_t>(log2_ceil(mx));
  cube.compute(mx * lg, v.n() * lg, [&](proc_t q) {
    const std::span<T> mine = work.tile(q);
    std::sort(mine.begin(), mine.end());
  });

  // Bitonic merge over the processor ranks.  Stage k orders 2^(k+1)-rank
  // windows; within a stage, rounds run dimension j = k down to 0.  The
  // "keep low" side of a pair follows the bitonic direction bit.
  std::vector<bool> keep_low(cube.node_count());
  for (int k = 0; k < d; ++k) {
    for (int j = k; j >= 0; --j) {
      for (proc_t q = 0; q < cube.node_count(); ++q) {
        const bool ascending = ((q >> (k + 1)) & 1u) == 0;
        const bool low_side = ((q >> j) & 1u) == 0;
        keep_low[q] = ascending == low_side;
      }
      detail::compare_split(cube, work, j, keep_low);
    }
  }

  // Sentinels sorted to the tail, so the real sorted element g sits at
  // padded position g: one combining routing sweep rebalances to the
  // Block partition.
  DistBuffer<RouteItem<T>> items(cube);
  items.reserve_each(mx);
  cube.each_proc([&](proc_t q) {
    const std::size_t base = static_cast<std::size_t>(q) * mx;
    const std::span<const T> mine = work.tile(q);
    for (std::size_t s = 0; s < mine.size(); ++s) {
      const std::size_t g = base + s;
      if (g >= n) break;  // sentinel region
      items.push_back(q, RouteItem<T>{
          static_cast<proc_t>(v.map().owner(g)), v.map().local(g), mine[s]});
    }
  });
  route_within(cube, items, grid.whole());
  cube.each_proc([&](proc_t q) {
    kern::scatter_tagged(items.tile(q), v.data().tile(q));
  });
}

}  // namespace vmp
