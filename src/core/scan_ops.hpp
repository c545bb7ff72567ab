/// \file scan_ops.hpp
/// \brief Prefix operations on distributed vectors — the scan vocabulary
///        of Blelloch's data-parallel model, built on the subcube prefix
///        collective: local scan of each piece, an exclusive cross-rank
///        scan of the piece totals, then a local offset pass.
///
/// Cost: 2·(n/p)·t_a locally plus lg p one-element rounds — the same
/// anatomy as reduce, and processor-time optimal for n > p·lg p.  Both
/// local passes run once per piece on its holder, which hands the piece's
/// total (first pass) or scanned piece (second pass) to the other replicas
/// (core/vector_ops.hpp, detail::each_piece_to / each_piece).
///
/// Only Block-partitioned vectors support scans (element order must be
/// contiguous per processor; a Cyclic piece interleaves globally).
#pragma once

#include "comm/collectives.hpp"
#include "core/kernels.hpp"
#include "core/vector_ops.hpp"
#include "embed/dist_vector.hpp"

namespace vmp {

/// Exclusive scan over the elements of v in global index order:
/// out[g] = op(v[0], …, v[g-1]), identity at g = 0.  In place.
template <class T, class Op>
void vec_scan_exclusive(DistVector<T>& v, Op op) {
  VMP_REQUIRE(v.part() == Part::Block,
              "scans need the Block (consecutive) embedding");
  Grid& grid = v.grid();
  Cube& cube = grid.cube();
  const std::size_t mx = max_local_len(cube, v.data());
  // Local pass, lg p scan rounds, local pass: one team activation.
  const auto batch = cube.session();

  const auto combine = [&](const T& a, const T& x) {
    return op.combine(a, x);
  };
  // 1. local: piece totals (one pass per piece, handed to its replicas) …
  DistBuffer<T> totals(cube, 1);
  detail::each_piece_to(v, totals, mx, v.n(), [&](proc_t q) {
    return kern::fold(v.data().tile(q), op.identity(), combine);
  });
  // 2. … an exclusive scan of the totals across the partition ranks
  //    (replicated subcube families see identical totals, so running the
  //    prefix over the partitioned family is correct for every replica) …
  scan_exclusive(cube, totals, v.partitioned_over(), op);
  // 3. … then a local exclusive scan seeded with the incoming carry.
  detail::each_piece(v, mx, v.n(), [&](proc_t q) {
    (void)kern::scan_exclusive(v.data().tile(q), totals.tile(q)[0], combine);
  });
}

/// Inclusive scan: out[g] = op(v[0], …, v[g]).  In place.
template <class T, class Op>
void vec_scan_inclusive(DistVector<T>& v, Op op) {
  DistVector<T> orig = v;
  vec_scan_exclusive(v, op);
  vec_zip(v, orig, [&](const T& pre, const T& x) { return op.combine(pre, x); });
}

// ---------------------------------------------------------------------------
// Segmented scan: prefix restarted at every set flag (Blelloch's segmented
// operations, the workhorse of nested data parallelism).
// ---------------------------------------------------------------------------

namespace detail {

/// Element of the segmented-scan lifting: (value, started-a-new-segment).
template <class T>
struct SegPair {
  T value{};
  bool flag = false;
  friend bool operator==(const SegPair&, const SegPair&) = default;
};

/// The classical lifted operator: associative whenever Op is.
template <class T, class Op>
struct SegOp {
  Op op;
  using value_type = SegPair<T>;
  [[nodiscard]] SegPair<T> combine(const SegPair<T>& a,
                                   const SegPair<T>& b) const {
    return SegPair<T>{b.flag ? b.value : op.combine(a.value, b.value),
                      a.flag || b.flag};
  }
  [[nodiscard]] SegPair<T> identity() const {
    return SegPair<T>{op.identity(), false};
  }
};

}  // namespace detail

/// Exclusive segmented scan: flags[g] == true starts a new segment at g;
/// out[g] combines the elements of g's segment strictly before g
/// (identity at each segment head).  `flags` must be aligned with `v`.
template <class T, class Op>
void vec_scan_exclusive_segmented(DistVector<T>& v,
                                  const DistVector<std::uint8_t>& flags,
                                  Op op) {
  VMP_REQUIRE(v.n() == flags.n() && v.part() == flags.part() &&
                  v.align() == flags.align(),
              "flags must be aligned with the data vector");
  VMP_REQUIRE(v.part() == Part::Block,
              "scans need the Block (consecutive) embedding");
  Grid& grid = v.grid();
  Cube& cube = grid.cube();
  using Pair = detail::SegPair<T>;
  const detail::SegOp<T, Op> seg{op};
  const std::size_t mx = max_local_len(cube, v.data());
  const auto batch = cube.session();

  DistBuffer<Pair> totals(cube, 1);
  detail::each_piece_to(v, totals, 2 * mx, 2 * v.n(), [&](proc_t q) {
    Pair acc = seg.identity();
    const std::span<const T> piece = v.data().tile(q);
    const std::span<const std::uint8_t> fl = flags.data().tile(q);
    for (std::size_t s = 0; s < piece.size(); ++s)
      acc = seg.combine(acc, Pair{piece[s], fl[s] != 0});
    return acc;
  });
  scan_exclusive(cube, totals, v.partitioned_over(), seg);
  detail::each_piece(v, 2 * mx, 2 * v.n(), [&](proc_t q) {
    Pair carry = totals.tile(q)[0];
    const std::span<T> piece = v.data().tile(q);
    const std::span<const std::uint8_t> fl = flags.data().tile(q);
    for (std::size_t s = 0; s < piece.size(); ++s) {
      const Pair cur{piece[s], fl[s] != 0};
      // A segment head sees the identity, not the carried prefix.
      piece[s] = cur.flag ? op.identity() : carry.value;
      carry = seg.combine(carry, cur);
    }
  });
}

}  // namespace vmp
