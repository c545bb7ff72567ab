/// \file dist_matrix.hpp
/// \brief A dense matrix embedded load-balanced on the processor grid.
///
/// The partition geometry (which processor owns which (i, j), local block
/// extents, flop-charging bounds) lives in MatrixEmbedding and is shared
/// with the sparse storage; this class adds the dense payload: processor
/// (R, C) stores its owned intersection as a row-major local block in one
/// pooled slab arena.
#pragma once

#include <span>
#include <vector>

#include "comm/dist_buffer.hpp"
#include "core/kernels.hpp"
#include "embed/matrix_embedding.hpp"
#include "hypercube/check.hpp"

namespace vmp {

template <class T>
class DistMatrix {
 public:
  using value_type = T;

  /// An nrows × ncols matrix of value-initialized elements.
  DistMatrix(Grid& grid, std::size_t nrows, std::size_t ncols,
             MatrixLayout layout = {})
      : embed_(grid, nrows, ncols, layout), data_(grid.cube()) {
    data_.reserve_each(max_block());
    grid.cube().each_proc([&](proc_t q) {
      data_.assign(q, lrows(q) * lcols(q), T{});
    });
  }

  [[nodiscard]] Grid& grid() const { return embed_.grid(); }
  [[nodiscard]] std::size_t nrows() const { return embed_.nrows(); }
  [[nodiscard]] std::size_t ncols() const { return embed_.ncols(); }
  [[nodiscard]] MatrixLayout layout() const { return embed_.layout(); }
  [[nodiscard]] const AxisMap& rowmap() const { return embed_.rowmap(); }
  [[nodiscard]] const AxisMap& colmap() const { return embed_.colmap(); }

  /// The storage-independent partition geometry.
  [[nodiscard]] const MatrixEmbedding& embedding() const { return embed_; }

  /// Local block extents of processor q.
  [[nodiscard]] std::size_t lrows(proc_t q) const { return embed_.lrows(q); }
  [[nodiscard]] std::size_t lcols(proc_t q) const { return embed_.lcols(q); }

  /// Largest local block over all processors (for flop charging):
  /// ⌈nrows/Pr⌉ · ⌈ncols/Pc⌉ under both partition kinds.
  [[nodiscard]] std::size_t max_block() const { return embed_.max_block(); }

  /// Row-major local block of processor q; element (lr, lc) is at
  /// lr * lcols(q) + lc.
  [[nodiscard]] std::span<T> block(proc_t q) { return data_.on(q); }
  [[nodiscard]] std::span<const T> block(proc_t q) const { return data_.on(q); }

  /// Reference to local element (lr, lc) of processor q.
  [[nodiscard]] T& local_at(proc_t q, std::size_t lr, std::size_t lc) {
    VMP_REQUIRE(lr < lrows(q) && lc < lcols(q), "local index out of range");
    return data_.tile(q)[lr * lcols(q) + lc];
  }
  [[nodiscard]] const T& local_at(proc_t q, std::size_t lr,
                                  std::size_t lc) const {
    VMP_REQUIRE(lr < lrows(q) && lc < lcols(q), "local index out of range");
    return data_.tile(q)[lr * lcols(q) + lc];
  }

  [[nodiscard]] DistBuffer<T>& data() { return data_; }
  [[nodiscard]] const DistBuffer<T>& data() const { return data_; }

  /// Owner processor of global element (i, j).
  [[nodiscard]] proc_t owner(std::size_t i, std::size_t j) const {
    return embed_.owner(i, j);
  }

  /// True if `other` lives on the same grid with the same shape and layout
  /// (so elementwise operations are purely local).
  [[nodiscard]] bool aligned_with(const DistMatrix& other) const {
    return embed_.same_as(other.embed_);
  }

  // -- host I/O (untimed) ---------------------------------------------------

  /// Load from a row-major host array of nrows*ncols elements.  Each local
  /// row is one contiguous (Block columns) or one strided (Cyclic columns)
  /// copy of a host-row slice — the 2-D analogue of DistVector::load.
  void load(std::span<const T> host) {
    VMP_REQUIRE(host.size() == nrows() * ncols(), "host array size mismatch");
    grid().cube().each_proc([&](proc_t q) {
      const std::uint32_t R = grid().prow(q);
      const std::uint32_t C = grid().pcol(q);
      const std::size_t lc_n = lcols(q);
      if (lc_n == 0) return;
      const std::size_t c0 = colmap().global_begin(C);
      const std::size_t cstep = colmap().global_step();
      const std::span<T> b = data_.tile(q);
      for (std::size_t lr = 0; lr < lrows(q); ++lr) {
        const std::size_t gi = rowmap().global(R, lr);
        const T* hrow = host.data() + gi * ncols() + c0;
        const std::span<T> brow = b.subspan(lr * lc_n, lc_n);
        if (cstep == 1) {
          kern::copy(std::span<const T>(hrow, lc_n), brow);
        } else {
          kern::gather_strided(hrow, cstep, brow);
        }
      }
    });
  }

  /// Read back to a row-major host array (inverse copies of `load`).
  [[nodiscard]] std::vector<T> to_host() const {
    std::vector<T> out(nrows() * ncols());
    grid().cube().each_proc([&](proc_t q) {
      const std::uint32_t R = grid().prow(q);
      const std::uint32_t C = grid().pcol(q);
      const std::size_t lc_n = lcols(q);
      if (lc_n == 0) return;
      const std::size_t c0 = colmap().global_begin(C);
      const std::size_t cstep = colmap().global_step();
      const std::span<const T> b = data_.tile(q);
      for (std::size_t lr = 0; lr < lrows(q); ++lr) {
        const std::size_t gi = rowmap().global(R, lr);
        T* hrow = out.data() + gi * ncols() + c0;
        const std::span<const T> brow = b.subspan(lr * lc_n, lc_n);
        if (cstep == 1) {
          kern::copy(brow, std::span<T>(hrow, lc_n));
        } else {
          kern::scatter_strided(brow, hrow, cstep);
        }
      }
    });
    return out;
  }

  /// Host-side single-element access (untimed; tests and setup only).
  [[nodiscard]] T at(std::size_t i, std::size_t j) const {
    const proc_t q = owner(i, j);
    return local_at(q, rowmap().local(i), colmap().local(j));
  }
  void set(std::size_t i, std::size_t j, const T& value) {
    const proc_t q = owner(i, j);
    local_at(q, rowmap().local(i), colmap().local(j)) = value;
  }

 private:
  MatrixEmbedding embed_;
  DistBuffer<T> data_;
};

}  // namespace vmp
