/// \file dist_sparse_matrix.hpp
/// \brief A sparse matrix on the same grid embedding as DistMatrix: one
///        CSR tile per processor in pooled slab storage.
///
/// Processor (R, C) owns the intersection of row partition R and column
/// partition C exactly as in the dense storage — MatrixEmbedding decides
/// who owns (i, j); this class stores only the owned nonzeros.  Each tile
/// is compressed-sparse-row over LOCAL coordinates:
///
///   rowptr  — lrows(q)+1 offsets (uint32) into colind/vals
///   colind  — local column slot of each stored entry (uint32), strictly
///             ascending within a row
///   vals    — the entry values, same order
///
/// Because both partition kinds are affine and monotone in the local slot
/// (global = g0 + s·gstep with gstep ≥ 1), ascending local column order is
/// ascending global column order — so every sparse kernel that walks a row
/// left to right folds in the same association as its dense counterpart
/// restricted to stored entries (see core/kernels.hpp fold_sparse).
///
/// The three CSR arrays live in DistBuffer slab arenas (one 64-byte-aligned
/// allocation per array, zero steady-state allocs).  Growth (reserve_tiles,
/// load_csr) is host-thread-only, like every DistBuffer; per-tile writes
/// within capacity are allowed from compute callbacks, which is what
/// reembed() uses to assemble tiles in parallel.  See docs/sparse.md.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "comm/dist_buffer.hpp"
#include "embed/dist_matrix.hpp"
#include "embed/matrix_embedding.hpp"
#include "hypercube/check.hpp"

namespace vmp {

template <class T>
class DistSparseMatrix {
 public:
  using value_type = T;

  /// An empty (all-zero) nrows × ncols sparse matrix.
  DistSparseMatrix(Grid& grid, std::size_t nrows, std::size_t ncols,
                   MatrixLayout layout = {})
      : embed_(grid, nrows, ncols, layout),
        rowptr_(grid.cube()),
        colind_(grid.cube()),
        vals_(grid.cube()) {
    rowptr_.reserve_each((nrows + grid.prows() - 1) / grid.prows() + 1);
    grid.cube().each_proc([&](proc_t q) {
      rowptr_.assign(q, lrows(q) + 1, std::uint32_t{0});
    });
  }

  [[nodiscard]] Grid& grid() const { return embed_.grid(); }
  [[nodiscard]] std::size_t nrows() const { return embed_.nrows(); }
  [[nodiscard]] std::size_t ncols() const { return embed_.ncols(); }
  [[nodiscard]] MatrixLayout layout() const { return embed_.layout(); }
  [[nodiscard]] const AxisMap& rowmap() const { return embed_.rowmap(); }
  [[nodiscard]] const AxisMap& colmap() const { return embed_.colmap(); }
  [[nodiscard]] const MatrixEmbedding& embedding() const { return embed_; }
  [[nodiscard]] std::size_t lrows(proc_t q) const { return embed_.lrows(q); }
  [[nodiscard]] std::size_t lcols(proc_t q) const { return embed_.lcols(q); }
  [[nodiscard]] std::size_t max_block() const { return embed_.max_block(); }
  [[nodiscard]] proc_t owner(std::size_t i, std::size_t j) const {
    return embed_.owner(i, j);
  }

  /// Total stored entries, and the largest tile's entry count — the
  /// sparse flop-charging bound (the slowest processor folds its whole
  /// tile), counterpart of the dense max_block().
  [[nodiscard]] std::size_t nnz() const { return nnz_; }
  [[nodiscard]] std::size_t max_tile_nnz() const { return max_tile_nnz_; }

  // -- CSR tile views -------------------------------------------------------

  [[nodiscard]] std::span<const std::uint32_t> tile_rowptr(proc_t q) const {
    return rowptr_.on(q);
  }
  [[nodiscard]] std::span<const std::uint32_t> tile_colind(proc_t q) const {
    return colind_.on(q);
  }
  [[nodiscard]] std::span<const T> tile_vals(proc_t q) const {
    return vals_.on(q);
  }
  /// Mutable values (pattern-preserving updates: insert_row/col,
  /// distribute_like, hadamard).
  [[nodiscard]] std::span<T> tile_vals(proc_t q) { return vals_.on(q); }

  [[nodiscard]] DistBuffer<T>& vals() { return vals_; }
  [[nodiscard]] const DistBuffer<T>& vals() const { return vals_; }

  /// find()'s answer for an unstored slot.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Index of local entry (lr, lc) in tile q's colind/vals, or npos if it
  /// is not stored (colind ascends within a row ⇒ binary search).
  [[nodiscard]] std::size_t find(proc_t q, std::size_t lr,
                                 std::size_t lc) const {
    const auto rp = tile_rowptr(q);
    const auto ci = tile_colind(q);
    const auto* e = ci.data() + rp[lr + 1];
    const auto* it = std::lower_bound(ci.data() + rp[lr], e, lc);
    if (it == e || *it != lc) return npos;
    return static_cast<std::size_t>(it - ci.data());
  }

  /// True if `other` has the same embedding and the same per-tile entry
  /// counts (the cheap alignment check the elementwise paths use; the
  /// full-pattern guarantee is the caller's contract).
  [[nodiscard]] bool aligned_with(const DistSparseMatrix& other) const {
    if (!embed_.same_as(other.embed_)) return false;
    for (proc_t q = 0; q < grid().cube().procs(); ++q)
      if (vals_.len(q) != other.vals_.len(q)) return false;
    return true;
  }

  /// Exact sparsity-pattern equality (host-side, untimed; tests).
  [[nodiscard]] bool same_pattern(const DistSparseMatrix& other) const {
    if (!embed_.same_as(other.embed_)) return false;
    for (proc_t q = 0; q < grid().cube().procs(); ++q) {
      const auto rp = tile_rowptr(q), orp = other.tile_rowptr(q);
      const auto ci = tile_colind(q), oci = other.tile_colind(q);
      if (!std::ranges::equal(rp, orp) || !std::ranges::equal(ci, oci))
        return false;
    }
    return true;
  }

  // -- assembly -------------------------------------------------------------

  /// Grow every tile's capacity to `max_nnz` entries (host thread only —
  /// call before assembling tiles from compute callbacks).
  void reserve_tiles(std::size_t max_nnz) {
    colind_.reserve_each(max_nnz);
    vals_.reserve_each(max_nnz);
  }

  /// Replace processor q's tile.  colind must be strictly ascending within
  /// each row.  Safe from a compute callback once reserve_tiles() covered
  /// the size; call finalize() (host thread) when every tile is in place.
  /// A malformed tile throws ContractError before anything is written.
  void assign_tile(proc_t q, std::span<const std::uint32_t> rowptr,
                   std::span<const std::uint32_t> colind,
                   std::span<const T> vals) {
    const std::size_t lrn = lrows(q), lcn = lcols(q);
    VMP_REQUIRE(rowptr.size() == lrn + 1, "rowptr length mismatch");
    VMP_REQUIRE(colind.size() == vals.size(), "colind/vals length mismatch");
    // The checks load_csr makes of a host triple, over local slots: every
    // later tile kernel indexes the block by colind and binary-searches
    // each row.
    VMP_REQUIRE(rowptr[0] == 0, "rowptr must start at 0");
    VMP_REQUIRE(rowptr[lrn] == colind.size(), "rowptr/nnz mismatch");
    for (std::size_t lr = 0; lr < lrn; ++lr)
      VMP_REQUIRE(rowptr[lr] <= rowptr[lr + 1], "rowptr must not decrease");
    for (std::size_t lr = 0; lr < lrn; ++lr)
      for (std::size_t k = rowptr[lr]; k < rowptr[lr + 1]; ++k) {
        VMP_REQUIRE(colind[k] < lcn, "colind outside the tile");
        VMP_REQUIRE(k == rowptr[lr] || colind[k - 1] < colind[k],
                    "colind must ascend strictly within each row");
      }
    rowptr_.assign(q, rowptr);
    colind_.assign(q, colind);
    vals_.assign(q, vals);
  }

  /// Recompute the cached nnz totals after direct tile assembly.
  void finalize() {
    nnz_ = 0;
    max_tile_nnz_ = 0;
    for (proc_t q = 0; q < grid().cube().procs(); ++q) {
      nnz_ += vals_.len(q);
      max_tile_nnz_ = std::max(max_tile_nnz_, vals_.len(q));
    }
  }

  // -- host I/O (untimed) ---------------------------------------------------

  /// Load from a host CSR triple over global indices (colind strictly
  /// ascending within each row).  The 2-D analogue of DistMatrix::load:
  /// each processor keeps the entries it owns, re-indexed to local slots.
  void load_csr(std::span<const std::uint32_t> rowptr,
                std::span<const std::uint32_t> colind,
                std::span<const T> vals) {
    VMP_REQUIRE(rowptr.size() == nrows() + 1, "host rowptr length mismatch");
    VMP_REQUIRE(colind.size() == vals.size(), "host colind/vals mismatch");
    // Validate the whole triple before reading colind through rowptr: a
    // rowptr that decreases or overshoots nnz would index past colind, and
    // unsorted columns would break every tile's binary-searched rows.
    VMP_REQUIRE(rowptr[0] == 0, "host rowptr must start at 0");
    VMP_REQUIRE(rowptr[nrows()] == colind.size(),
                "host rowptr must end at nnz");
    for (std::size_t i = 0; i < nrows(); ++i)
      VMP_REQUIRE(rowptr[i] <= rowptr[i + 1], "host rowptr must not decrease");
    for (std::size_t i = 0; i < nrows(); ++i)
      for (std::size_t k = std::size_t{rowptr[i]} + 1; k < rowptr[i + 1]; ++k)
        VMP_REQUIRE(colind[k - 1] < colind[k],
                    "host colind must ascend strictly within each row");
    Cube& cube = grid().cube();
    // Per-processor entry counts first (host thread), so slab growth is
    // done before the parallel assembly below.
    std::vector<std::size_t> count(cube.procs(), 0);
    for (std::size_t i = 0; i < nrows(); ++i)
      for (std::uint32_t k = rowptr[i]; k < rowptr[i + 1]; ++k)
        ++count[owner(i, colind[k])];
    std::size_t max_count = 0;
    for (const std::size_t c : count) max_count = std::max(max_count, c);
    reserve_tiles(max_count);
    cube.each_proc([&](proc_t q) {
      const std::uint32_t R = grid().prow(q);
      const std::uint32_t C = grid().pcol(q);
      rowptr_.assign(q, lrows(q) + 1, std::uint32_t{0});
      colind_.clear(q);
      vals_.clear(q);
      const std::span<std::uint32_t> rp = rowptr_.tile(q);
      std::uint32_t at = 0;
      for (std::size_t lr = 0; lr < lrows(q); ++lr) {
        rp[lr] = at;
        const std::size_t gi = rowmap().global(R, lr);
        for (std::uint32_t k = rowptr[gi]; k < rowptr[gi + 1]; ++k) {
          const std::size_t gj = colind[k];
          if (colmap().owner(gj) != C) continue;
          // Ascending global j ⇒ ascending local slot (affine monotone).
          colind_.push_back(q, static_cast<std::uint32_t>(colmap().local(gj)));
          vals_.push_back(q, vals[k]);
          ++at;
        }
      }
      rp[lrows(q)] = at;
    });
    finalize();
  }

  /// The same matrix in dense storage (untimed; reference/twin tests).
  [[nodiscard]] DistMatrix<T> densify() const {
    DistMatrix<T> out(grid(), nrows(), ncols(), layout());
    grid().cube().each_proc([&](proc_t q) {
      const std::span<T> blk = out.block(q);
      const auto rp = tile_rowptr(q);
      const auto ci = tile_colind(q);
      const auto va = tile_vals(q);
      const std::size_t lcn = lcols(q);
      for (std::size_t lr = 0; lr < lrows(q); ++lr)
        for (std::uint32_t k = rp[lr]; k < rp[lr + 1]; ++k)
          blk[lr * lcn + ci[k]] = va[k];
    });
    return out;
  }

  /// Read back to a dense row-major host array.
  [[nodiscard]] std::vector<T> to_host() const {
    std::vector<T> out(nrows() * ncols());
    for (proc_t q = 0; q < grid().cube().procs(); ++q) {
      const std::uint32_t R = grid().prow(q);
      const std::uint32_t C = grid().pcol(q);
      const auto rp = tile_rowptr(q);
      const auto ci = tile_colind(q);
      const auto va = tile_vals(q);
      for (std::size_t lr = 0; lr < lrows(q); ++lr) {
        const std::size_t gi = rowmap().global(R, lr);
        for (std::uint32_t k = rp[lr]; k < rp[lr + 1]; ++k)
          out[gi * ncols() + colmap().global(C, ci[k])] = va[k];
      }
    }
    return out;
  }

  /// Host-side single-element read; zero for unstored slots.
  [[nodiscard]] T at(std::size_t i, std::size_t j) const {
    const proc_t q = owner(i, j);
    const std::size_t k = find(q, rowmap().local(i), colmap().local(j));
    return k == npos ? T{} : tile_vals(q)[k];
  }

 private:
  MatrixEmbedding embed_;
  DistBuffer<std::uint32_t> rowptr_;
  DistBuffer<std::uint32_t> colind_;
  DistBuffer<T> vals_;
  std::size_t nnz_ = 0;
  std::size_t max_tile_nnz_ = 0;
};

}  // namespace vmp
