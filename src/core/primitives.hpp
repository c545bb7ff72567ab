/// \file primitives.hpp
/// \brief The paper's four vector-matrix primitives: extract, insert,
///        distribute, reduce — each written once, for either matrix axis
///        and either matrix storage.
///
/// Semantics (A is nrows × ncols):
///
///   reduce_rows(A, op)[i]  = op-fold over j of A[i][j]      → Rows vector
///   reduce_cols(A, op)[j]  = op-fold over i of A[i][j]      → Cols vector
///   distribute_rows(v, m)[i][j] = v[j]  (v is a Cols vector, m result rows)
///   distribute_cols(v, n)[i][j] = v[i]  (v is a Rows vector, n result cols)
///   extract_row(A, i)[j]   = A[i][j]                        → Cols vector
///   extract_col(A, j)[i]   = A[i][j]                        → Rows vector
///   insert_row(A, i, v):     A[i][j] = v[j]  (v a Cols vector)
///   insert_col(A, j, v):     A[i][j] = v[i]  (v a Rows vector)
///
/// Implementation costs on a 2^gr × 2^gc grid with p = 2^(gr+gc) and
/// m = nrows·ncols elements (one-port model, per call):
///
///   reduce      m/p · t_a  +  allreduce over the fold axis' subcubes
///               (≈ 2·gr·τ + O(n/Pc)·t_c via reduce-scatter/all-gather)
///   distribute  m/p · t_a, NO communication — the replicated embedding of
///               the input vector already holds every needed copy
///   extract     ⌈n/Pc⌉·t_a + broadcast over gr dims (root = owner row)
///   insert      ⌈n/Pc⌉·t_a, NO communication (replicas write in place)
///
/// For m > p·lg p the m/p arithmetic term dominates every τ·lg p term, so
/// processor-time is within a constant factor of the serial fold — the
/// paper's optimality claim, asserted in the property-test suite.
///
/// All forms REQUIRE correctly-embedded operands (alignment, partition kind
/// and length must match); use vmp::realign to convert — the conversion is
/// the "embedding change" the paper prices explicitly.  Violations throw
/// vmp::ShapeError (extents / index ranges) or vmp::AlignError (embedding
/// mismatches), both rooted at vmp::ContractError — see hypercube/check.hpp.
///
/// Each primitive has ONE body, its axis-generic spelling (the preferred
/// API): checks → region → session → owner-filtered compute → at most one
/// collective, written over the Axis facts and the storage's tile kernels
/// (detail::Tiles: dense blocks here, CSR tiles in sparse_primitives).
/// The named forms are one-line aliases that keep their trace regions,
/// error types and messages, so both spellings are bit-identical in
/// results, charges and event traces:
///
///   extract(A, Axis::Row, i)        == extract_row(A, i)
///   insert(A, Axis::Col, j, v)      == insert_col(A, j, v)
///   insert_range(A, Axis::Row, i, v, lo, hi) == insert_row_range(A, i, ...)
///   reduce(A, Axis::Row, op)        == reduce_rows(A, op)
///   distribute(v, Axis::Col, n)     == distribute_cols(v, n)
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "comm/collectives.hpp"
#include "comm/ops.hpp"
#include "core/kernels.hpp"
#include "obs/trace.hpp"
#include "embed/dist_matrix.hpp"
#include "embed/dist_vector.hpp"

namespace vmp {

/// Which matrix axis a primitive addresses: Axis::Row names the row forms
/// (extract_row, insert_row, reduce_rows, distribute_rows), Axis::Col the
/// column forms.
enum class Axis { Row, Col };

namespace detail {

// -- Axis facts ------------------------------------------------------------
//
// A line along Axis::Row is a matrix row: the row map indexes the lines
// and names the owning grid row, the column map runs along each line, the
// line travels as a Cols-aligned vector, and the grid-column subcubes
// span its owners' coordinate (so a broadcast from the owners reaches
// everyone).  Axis::Col swaps every pair.  The helpers touch only the
// embedding surface both storages share.

[[nodiscard]] constexpr Axis cross(Axis a) {
  return a == Axis::Row ? Axis::Col : Axis::Row;
}

/// The map indexing the lines along `a` (the row map for Axis::Row).
template <class Mat>
[[nodiscard]] const AxisMap& line_map(const Mat& A, Axis a) {
  return a == Axis::Row ? A.rowmap() : A.colmap();
}

/// The map running along each line (the column map for Axis::Row).
template <class Mat>
[[nodiscard]] const AxisMap& along_map(const Mat& A, Axis a) {
  return line_map(A, cross(a));
}

/// Processor q's grid coordinate on line_map's axis: prow for Axis::Row.
[[nodiscard]] inline std::uint32_t owner_coord(const Grid& g, Axis a,
                                               proc_t q) {
  return a == Axis::Row ? g.prow(q) : g.pcol(q);
}

/// The subcubes spanning owner_coord: within_col for Axis::Row.
[[nodiscard]] inline SubcubeSet spanning(const Grid& g, Axis a) {
  return a == Axis::Row ? g.within_col() : g.within_row();
}

/// Alignment of a vector laid out like one line: Cols for Axis::Row.
[[nodiscard]] constexpr Align line_align(Axis a) {
  return a == Axis::Row ? Align::Cols : Align::Rows;
}

/// The largest piece of `m` on one processor: ⌈n/parts⌉.
[[nodiscard]] inline std::size_t max_piece(const AxisMap& m) {
  return (m.n() + m.parts() - 1) / m.parts();
}

// -- Contracts ---------------------------------------------------------------

template <class Mat>
[[nodiscard]] std::string shape_of(const Mat& A) {
  return std::to_string(A.nrows()) + "x" + std::to_string(A.ncols());
}

/// Line i along `axis` must exist.
template <class Mat>
void require_index(const char* primitive, const Mat& A, Axis axis,
                   std::size_t i) {
  VMP_REQUIRE_SHAPE(i < line_map(A, axis).n(), primitive,
                    std::string(axis == Axis::Row ? "row" : "column") +
                        " index " + std::to_string(i) +
                        " out of range (A is " + shape_of(A) + ")");
}

/// v must be embedded like one line of A along `axis` — a Cols-aligned
/// vector of length ncols for Axis::Row.
template <class Mat, class T>
void require_line(const char* primitive, const Mat& A, Axis axis,
                  const DistVector<T>& v) {
  const bool row = axis == Axis::Row;
  VMP_REQUIRE_ALIGN(&A.grid() == &v.grid(), primitive,
                    "operands live on different grids");
  VMP_REQUIRE_ALIGN(v.align() == line_align(axis), primitive,
                    row ? "vector must be Cols-aligned"
                        : "vector must be Rows-aligned");
  VMP_REQUIRE_ALIGN(
      v.part() == along_map(A, axis).kind(), primitive,
      row ? "vector partition kind must match the matrix column axis"
          : "vector partition kind must match the matrix row axis");
  VMP_REQUIRE_SHAPE(v.n() == along_map(A, axis).n(), primitive,
                    std::string("vector length must equal ") +
                        (row ? "ncols" : "nrows") + " (A is " + shape_of(A) +
                        ", v has n=" + std::to_string(v.n()) + ")");
}

// -- Tile kernels ------------------------------------------------------------

/// Flop bound of one pass over every tile: the slowest processor's share
/// and the sum over all processors.
struct Work {
  std::size_t max;
  std::size_t total;
};

/// The local half of the primitives on one storage.  Each specialization
/// provides, for tile q of A and a line along `axis` at local slot l:
///
///   work(A)                           Work of a pass over every tile
///   fold(A, axis, q, op, out)         op-fold every line of the tile
///   read(A, axis, q, l, out)          copy the line out, dense
///   write(A, axis, q, l, in, lo, hi)  in[s] into the line, s ∈ [lo, hi)
///   spread(A, axis, q, piece)         each slot takes piece[along slot]
///   get(A, q, lr, lc)                 one element (zero if unstored)
template <class Mat>
struct Tiles;

/// A matrix storage with tile kernels (DistMatrix, DistSparseMatrix).
template <class Mat>
concept Tiled = requires(const Mat& A) { Tiles<Mat>::work(A); };

/// Dense row-major blocks: element (lr, lc) is at lr · lcols(q) + lc.
template <class T>
struct Tiles<DistMatrix<T>> {
  [[nodiscard]] static Work work(const DistMatrix<T>& A) {
    return {A.max_block(), A.nrows() * A.ncols()};
  }

  template <class Op>
  static void fold(const DistMatrix<T>& A, Axis axis, proc_t q, const Op& op,
                   std::span<T> out) {
    const std::size_t lrn = A.lrows(q), lcn = A.lcols(q);
    const std::span<const T> blk = A.block(q);
    if (axis == Axis::Row) {
      kern::fold_rows(blk.first(lrn * lcn), lrn, lcn, op.identity(),
                      out.first(lrn), kern::op_fn(op));
    } else {
      kern::fill(out, op.identity());
      for (std::size_t lr = 0; lr < lrn; ++lr)
        kern::zip(out, blk.subspan(lr * lcn, lcn), kern::op_fn(op));
    }
  }

  static void read(const DistMatrix<T>& A, Axis axis, proc_t q, std::size_t l,
                   std::span<T> out) {
    const std::size_t lcn = A.lcols(q);
    const std::span<const T> blk = A.block(q);
    if (axis == Axis::Row) {
      kern::copy(blk.subspan(l * lcn, lcn), out);
    } else {
      kern::gather_strided(blk.data() + l, lcn, out);
    }
  }

  static void write(DistMatrix<T>& A, Axis axis, proc_t q, std::size_t l,
                    std::span<const T> in, std::size_t lo, std::size_t hi) {
    const std::size_t lcn = A.lcols(q);
    const std::span<T> blk = A.block(q);
    const std::span<const T> window = in.subspan(lo, hi - lo);
    if (axis == Axis::Row) {
      kern::copy(window, blk.subspan(l * lcn + lo, hi - lo));
    } else {
      kern::scatter_strided(window, blk.data() + lo * lcn + l, lcn);
    }
  }

  static void spread(DistMatrix<T>& A, Axis axis, proc_t q,
                     std::span<const T> piece) {
    const std::size_t lrn = A.lrows(q), lcn = A.lcols(q);
    const std::span<T> blk = A.block(q);
    for (std::size_t lr = 0; lr < lrn; ++lr) {
      const std::span<T> row = blk.subspan(lr * lcn, lcn);
      if (axis == Axis::Row) {
        kern::copy(piece.first(lcn), row);
      } else {
        kern::fill(row, piece[lr]);
      }
    }
  }

  [[nodiscard]] static T get(const DistMatrix<T>& A, proc_t q, std::size_t lr,
                             std::size_t lc) {
    return A.block(q)[lr * A.lcols(q) + lc];
  }
};

/// The insert skeleton: line i's along slots with global index in [lo, hi)
/// take v's elements.  Purely local: the owners write in place.
template <class Mat>
void insert_window(const char* primitive, Mat& A, Axis axis, std::size_t i,
                   const DistVector<typename Mat::value_type>& v,
                   std::size_t lo, std::size_t hi) {
  require_index(primitive, A, axis, i);
  const AxisMap& along = along_map(A, axis);
  VMP_REQUIRE_SHAPE(lo <= hi && hi <= along.n(), primitive,
                    std::string("bad ") +
                        (axis == Axis::Row ? "column" : "row") + " range [" +
                        std::to_string(lo) + ", " + std::to_string(hi) +
                        ") (A is " + shape_of(A) + ")");
  require_line(primitive, A, axis, v);
  Grid& grid = A.grid();
  VMP_TRACE(grid.cube(), primitive);
  const auto batch = grid.cube().session();
  const std::uint32_t owner = line_map(A, axis).owner(i);
  const std::size_t l = line_map(A, axis).local(i);
  grid.cube().compute(max_piece(along), hi - lo, [&](proc_t q) {
    if (owner_coord(grid, axis, q) != owner) return;
    // Global indices grow with the local slot, so [lo, hi) is one
    // contiguous local window.
    const std::uint32_t r = owner_coord(grid, cross(axis), q);
    Tiles<Mat>::write(A, axis, q, l, v.piece(q),
                      along.first_local_at_or_after(r, lo),
                      along.first_local_at_or_after(r, hi));
  });
}

/// The distribute skeleton: `shape()` builds the target inside the region,
/// then every slot takes v's element at its along slot.  Purely local —
/// the input embedding already holds a copy of v's piece on every grid
/// row (Axis::Row) or column (Axis::Col).
template <class T, class Shape>
[[nodiscard]] auto distribute_onto(const char* primitive,
                                   const DistVector<T>& v, Axis axis,
                                   Shape&& shape) {
  Cube& cube = v.grid().cube();
  VMP_TRACE(cube, primitive);
  const auto batch = cube.session();
  auto out = shape();
  using Mat = decltype(out);
  const Work w = Tiles<Mat>::work(out);
  cube.compute(w.max, w.total, [&](proc_t q) {
    Tiles<Mat>::spread(out, axis, q, v.piece(q));
  });
  return out;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// The four primitives (and the ranged insert), one body each.
// ---------------------------------------------------------------------------

/// Fold every line of A along `axis` with `op`.  Axis::Row folds each row,
/// out[i] = op(A[i][0], ..., A[i][ncols-1]), into a Rows-aligned vector
/// (partitioned like A's rows, replicated across grid columns); Axis::Col
/// folds each column into a Cols-aligned vector.
template <detail::Tiled Mat, class Op>
[[nodiscard]] auto reduce(const Mat& A, Axis axis, Op op) {
  Grid& grid = A.grid();
  Cube& cube = grid.cube();
  VMP_TRACE(cube, axis == Axis::Row ? "reduce_rows" : "reduce_cols");
  const auto batch = cube.session();
  const AxisMap& lines = detail::line_map(A, axis);
  DistVector<typename Mat::value_type> out(
      grid, lines.n(), detail::line_align(detail::cross(axis)), lines.kind());
  const detail::Work w = detail::Tiles<Mat>::work(A);
  cube.compute(w.max, w.total, [&](proc_t q) {
    detail::Tiles<Mat>::fold(A, axis, q, op, out.data().tile(q));
  });
  allreduce_auto(cube, out.data(), detail::spanning(grid, detail::cross(axis)),
                 op);
  return out;
}

/// Replicate v along `axis` into an n-extent matrix: Axis::Row stacks a
/// Cols-aligned vector into n rows, out[i][j] = v[j]; Axis::Col tiles a
/// Rows-aligned vector into n columns, out[i][j] = v[i].  `part` is the
/// partition kind of the new axis.  Purely local.
template <class T>
[[nodiscard]] DistMatrix<T> distribute(const DistVector<T>& v, Axis axis,
                                       std::size_t n,
                                       Part part = Part::Block) {
  const bool row = axis == Axis::Row;
  const char* name = row ? "distribute_rows" : "distribute_cols";
  VMP_REQUIRE_ALIGN(v.align() == detail::line_align(axis), name,
                    row ? "needs a Cols-aligned vector"
                        : "needs a Rows-aligned vector");
  return detail::distribute_onto(name, v, axis, [&] {
    return row ? DistMatrix<T>(v.grid(), n, v.n(), {part, v.part()})
               : DistMatrix<T>(v.grid(), v.n(), n, {v.part(), part});
  });
}

/// Pull line i of A along `axis` — row i as a Cols-aligned vector, or
/// column i as a Rows-aligned one — replicated to every processor by a
/// broadcast from the owners.
template <detail::Tiled Mat>
[[nodiscard]] auto extract(const Mat& A, Axis axis, std::size_t i) {
  const char* name = axis == Axis::Row ? "extract_row" : "extract_col";
  detail::require_index(name, A, axis, i);
  Grid& grid = A.grid();
  Cube& cube = grid.cube();
  VMP_TRACE(cube, name);
  const auto batch = cube.session();
  const AxisMap& along = detail::along_map(A, axis);
  // Built once: the owners' reads and the broadcast's placement write
  // every tile.
  auto out = detail::Unfilled::vector<typename Mat::value_type>(
      grid, along.n(), detail::line_align(axis), along.kind());
  const std::uint32_t owner = detail::line_map(A, axis).owner(i);
  const std::size_t l = detail::line_map(A, axis).local(i);
  cube.compute(detail::max_piece(along), along.n(), [&](proc_t q) {
    if (detail::owner_coord(grid, axis, q) != owner) return;
    detail::Tiles<Mat>::read(A, axis, q, l, out.data().tile(q));
  });
  broadcast_auto(cube, out.data(), detail::spanning(grid, axis), owner,
                 [&](proc_t q) { return out.map().size(out.rank_of(q)); });
  return out;
}

/// Overwrite line i of A along `axis` with v (a Cols-aligned vector for a
/// row, Rows-aligned for a column).  Purely local.
template <detail::Tiled Mat>
void insert(Mat& A, Axis axis, std::size_t i,
            const DistVector<typename Mat::value_type>& v) {
  detail::insert_window(axis == Axis::Row ? "insert_row" : "insert_col", A,
                        axis, i, v, 0, detail::along_map(A, axis).n());
}

/// Ranged insert: only the elements of line i whose cross-axis global
/// index lies in [lo, hi) are written.  Gaussian elimination deposits its
/// multipliers below the diagonal this way without disturbing U.
template <class T>
void insert_range(DistMatrix<T>& A, Axis axis, std::size_t i,
                  const DistVector<T>& v, std::size_t lo, std::size_t hi) {
  detail::insert_window(
      axis == Axis::Row ? "insert_row_range" : "insert_col_range", A, axis, i,
      v, lo, hi);
}

// ---------------------------------------------------------------------------
// Named forms: aliases of the axis-generic bodies.
// ---------------------------------------------------------------------------

template <detail::Tiled Mat, class Op>
[[nodiscard]] auto reduce_rows(const Mat& A, Op op) {
  return reduce(A, Axis::Row, op);
}

template <detail::Tiled Mat, class Op>
[[nodiscard]] auto reduce_cols(const Mat& A, Op op) {
  return reduce(A, Axis::Col, op);
}

template <class T>
[[nodiscard]] DistMatrix<T> distribute_rows(const DistVector<T>& v,
                                            std::size_t nrows,
                                            Part rows_part = Part::Block) {
  return distribute(v, Axis::Row, nrows, rows_part);
}

template <class T>
[[nodiscard]] DistMatrix<T> distribute_cols(const DistVector<T>& v,
                                            std::size_t ncols,
                                            Part cols_part = Part::Block) {
  return distribute(v, Axis::Col, ncols, cols_part);
}

template <detail::Tiled Mat>
[[nodiscard]] auto extract_row(const Mat& A, std::size_t i) {
  return extract(A, Axis::Row, i);
}

template <detail::Tiled Mat>
[[nodiscard]] auto extract_col(const Mat& A, std::size_t j) {
  return extract(A, Axis::Col, j);
}

template <detail::Tiled Mat>
void insert_row(Mat& A, std::size_t i,
                const DistVector<typename Mat::value_type>& v) {
  insert(A, Axis::Row, i, v);
}

template <detail::Tiled Mat>
void insert_col(Mat& A, std::size_t j,
                const DistVector<typename Mat::value_type>& v) {
  insert(A, Axis::Col, j, v);
}

template <class T>
void insert_row_range(DistMatrix<T>& A, std::size_t i, const DistVector<T>& v,
                      std::size_t lo, std::size_t hi) {
  insert_range(A, Axis::Row, i, v, lo, hi);
}

template <class T>
void insert_col_range(DistMatrix<T>& A, std::size_t j, const DistVector<T>& v,
                      std::size_t lo, std::size_t hi) {
  insert_range(A, Axis::Col, j, v, lo, hi);
}

}  // namespace vmp
