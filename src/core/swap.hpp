/// \file swap.hpp
/// \brief Row / column exchange on a distributed matrix — the data motion
///        behind partial pivoting.  When both lines share an owner the swap
///        is local; otherwise the two owner groups trade their pieces with
///        one combining-router sweep along the partitioned dimensions.
#pragma once

#include "comm/collectives.hpp"
#include "core/kernels.hpp"
#include "core/primitives.hpp"
#include "embed/dist_matrix.hpp"

namespace vmp {

namespace detail {

/// Exchange lines i and j of A along `axis` (rows for Axis::Row).
template <class T>
void swap_lines(const char* primitive, DistMatrix<T>& A, Axis axis,
                std::size_t i, std::size_t j) {
  require_index(primitive, A, axis, i);
  require_index(primitive, A, axis, j);
  if (i == j) return;
  Grid& grid = A.grid();
  Cube& cube = grid.cube();
  const bool row = axis == Axis::Row;
  const AxisMap& lines = line_map(A, axis);
  const std::uint32_t Oi = lines.owner(i), Oj = lines.owner(j);
  const std::size_t li = lines.local(i), lj = lines.local(j);
  // Flat block offset of line slot l, along slot s, in a tile lcn wide.
  const auto flat = [row](std::size_t l, std::size_t s, std::size_t lcn) {
    return row ? l * lcn + s : s * lcn + l;
  };

  if (Oi == Oj) {  // both lines in the same block: purely local swap
    const AxisMap& along = along_map(A, axis);
    cube.compute(2 * max_piece(along), 2 * along.n(), [&](proc_t q) {
      if (owner_coord(grid, axis, q) != Oi) return;
      const std::size_t lcn = A.lcols(q);
      const std::size_t len = row ? lcn : A.lrows(q);
      std::span<T> blk = A.block(q);
      for (std::size_t s = 0; s < len; ++s)
        std::swap(blk[flat(li, s, lcn)], blk[flat(lj, s, lcn)]);
    });
    return;
  }

  // Owner groups trade pieces along the spanning subcubes; the tag
  // encodes the destination flat offset.
  DistBuffer<RouteItem<T>> items(cube);
  cube.each_proc([&](proc_t q) {
    const std::uint32_t O = owner_coord(grid, axis, q);
    if (O != Oi && O != Oj) return;
    const bool mine_is_i = (O == Oi);
    const std::size_t lsrc = mine_is_i ? li : lj;
    const std::size_t ldst = mine_is_i ? lj : li;
    const std::uint32_t Odst = mine_is_i ? Oj : Oi;
    const proc_t dst =
        row ? grid.at(Odst, grid.pcol(q)) : grid.at(grid.prow(q), Odst);
    const std::size_t lcn = A.lcols(q);
    const std::size_t lcn_dst = row ? lcn : A.colmap().size(Odst);
    const std::size_t len = row ? lcn : A.lrows(q);
    const std::span<const T> blk = A.block(q);
    for (std::size_t s = 0; s < len; ++s)
      items.push_back(q, RouteItem<T>{dst, flat(ldst, s, lcn_dst),
                                      blk[flat(lsrc, s, lcn)]});
  });
  route_within(cube, items, spanning(grid, axis));
  cube.each_proc([&](proc_t q) {
    kern::scatter_tagged(items.tile(q), A.data().tile(q));
  });
}

}  // namespace detail

/// Exchange rows i and j of A.
template <class T>
void swap_rows(DistMatrix<T>& A, std::size_t i, std::size_t j) {
  detail::swap_lines("swap_rows", A, Axis::Row, i, j);
}

/// Exchange columns i and j of A.
template <class T>
void swap_cols(DistMatrix<T>& A, std::size_t i, std::size_t j) {
  detail::swap_lines("swap_cols", A, Axis::Col, i, j);
}

}  // namespace vmp
