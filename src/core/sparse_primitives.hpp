/// \file sparse_primitives.hpp
/// \brief The four primitives over sparse (CSR-tiled) matrices: CSR tile
///        kernels for core/primitives.hpp, distribute_like, hadamard.
///
/// Same skeletons, so the same contracts, communication structure and
/// trace-region names as the dense forms — only the local work changes:
/// folds and gathers walk stored entries (charged by tile nnz, the sparse
/// counterpart of max_block), and the write forms are PATTERN-PRESERVING:
/// insert_row/col, distribute_like and hadamard touch only stored slots;
/// an unstored slot stays an implicit zero.  That is the contract that
/// keeps the CSR arenas alloc-free in steady state.
///
/// Bit-identity with the densified reference: for op = Plus over finite
/// data, skipping a zero entry is bitwise identical to adding it (adding
/// ±0.0 to a finite accumulator preserves its bits), so sparse
/// reduce(Plus), spmv and spmv_fused agree bit-for-bit with the dense
/// primitives applied to densify() — the property-test suite asserts it.
/// Max/Min folds see a DIFFERENT operand multiset (stored entries only),
/// so they are deliberately not densify-equivalent.
#pragma once

#include <cstdint>

#include "core/primitives.hpp"
#include "embed/dist_sparse_matrix.hpp"

namespace vmp {

namespace detail {

/// CSR tiles over local (lr, lc) slots; see Tiles in core/primitives.hpp.
/// read yields a dense line (unstored slots are zero); write and spread
/// touch stored slots only.
template <class T>
struct Tiles<DistSparseMatrix<T>> {
  [[nodiscard]] static Work work(const DistSparseMatrix<T>& A) {
    return {A.max_tile_nnz(), A.nnz()};
  }

  template <class Op>
  static void fold(const DistSparseMatrix<T>& A, Axis axis, proc_t q,
                   const Op& op, std::span<T> out) {
    if (axis == Axis::Row) {
      const std::size_t lrn = A.lrows(q);
      kern::fold_sparse(A.tile_rowptr(q), A.tile_vals(q), lrn, op.identity(),
                        out.first(lrn), kern::op_fn(op));
    } else {
      kern::fill(out, op.identity());
      kern::fold_sparse_cols(A.tile_colind(q), A.tile_vals(q), out,
                             kern::op_fn(op));
    }
  }

  static void read(const DistSparseMatrix<T>& A, Axis axis, proc_t q,
                   std::size_t l, std::span<T> out) {
    if (axis == Axis::Row) {
      kern::fill(out, T{});
      const auto rp = A.tile_rowptr(q);
      const auto ci = A.tile_colind(q);
      const auto va = A.tile_vals(q);
      for (std::uint32_t k = rp[l]; k < rp[l + 1]; ++k) out[ci[k]] = va[k];
    } else {
      for (std::size_t lr = 0; lr < A.lrows(q); ++lr)
        out[lr] = get(A, q, lr, l);
    }
  }

  static void write(DistSparseMatrix<T>& A, Axis axis, proc_t q,
                    std::size_t l, std::span<const T> in, std::size_t lo,
                    std::size_t hi) {
    const std::span<T> va = A.tile_vals(q);
    if (axis == Axis::Row) {
      const auto rp = A.tile_rowptr(q);
      const auto ci = A.tile_colind(q);
      for (std::uint32_t k = rp[l]; k < rp[l + 1]; ++k)
        if (ci[k] >= lo && ci[k] < hi) va[k] = in[ci[k]];
    } else {
      for (std::size_t lr = lo; lr < hi; ++lr) {
        const std::size_t k = A.find(q, lr, l);
        if (k != DistSparseMatrix<T>::npos) va[k] = in[lr];
      }
    }
  }

  static void spread(DistSparseMatrix<T>& A, Axis axis, proc_t q,
                     std::span<const T> piece) {
    const std::span<T> va = A.tile_vals(q);
    const auto rp = A.tile_rowptr(q);
    const auto ci = A.tile_colind(q);
    for (std::size_t lr = 0; lr < A.lrows(q); ++lr)
      for (std::uint32_t k = rp[lr]; k < rp[lr + 1]; ++k)
        va[k] = piece[axis == Axis::Row ? ci[k] : lr];
  }

  [[nodiscard]] static T get(const DistSparseMatrix<T>& A, proc_t q,
                             std::size_t lr, std::size_t lc) {
    const std::size_t k = A.find(q, lr, lc);
    return k == DistSparseMatrix<T>::npos ? T{} : A.tile_vals(q)[k];
  }
};

}  // namespace detail

/// Replicate v onto A's sparsity pattern: out has A's pattern with
/// out[i][j] = v[j] (Axis::Row, v Cols-aligned) or v[i] (Axis::Col, v
/// Rows-aligned) at every stored (i, j).  The sparse counterpart of dense
/// distribute — the target shape comes from A instead of an extent, since
/// only A's stored slots exist.  Purely local, one gather per entry.
template <class T>
[[nodiscard]] DistSparseMatrix<T> distribute_like(const DistSparseMatrix<T>& A,
                                                  const DistVector<T>& v,
                                                  Axis axis) {
  detail::require_line("distribute_like", A, axis, v);
  return detail::distribute_onto("distribute_like", v, axis,
                                 [&] { return A; });
}

/// Elementwise product over a SHARED pattern: A and B must have the same
/// embedding and pattern; out has that pattern with out_k = a_k · b_k.
/// The multiply step of the primitive-composed SpMV.
template <class T>
[[nodiscard]] DistSparseMatrix<T> hadamard(const DistSparseMatrix<T>& A,
                                           const DistSparseMatrix<T>& B) {
  VMP_REQUIRE(A.aligned_with(B), "hadamard operands must be aligned");
  DistSparseMatrix<T> C = A;  // A's pattern; the values are overwritten
  A.grid().cube().compute(A.max_tile_nnz(), A.nnz(), [&](proc_t q) {
    kern::zip_into(A.tile_vals(q), B.tile_vals(q), C.tile_vals(q),
                   kern::op_fn(Multiply<T>{}));
  });
  return C;
}

}  // namespace vmp
