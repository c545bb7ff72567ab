/// \file dist_vector.hpp
/// \brief A dense vector embedded on the processor grid.
///
/// The paper's vectors carry an *embedding* and primitives may change it.
/// Three canonical alignments are supported:
///
///  * `Linear` — blocked over all `p` processors in id order (the host I/O
///               form, and the form a vector has before it is aligned with
///               any matrix).
///  * `Cols`   — partitioned across the grid's column axis exactly like a
///               matrix *row*, and replicated across every grid row.
///  * `Rows`   — partitioned across the grid's row axis exactly like a
///               matrix *column*, and replicated across every grid column.
///
/// The replication in Cols/Rows is what makes `distribute` and the rank-1
/// updates of Gaussian elimination / simplex purely local.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "comm/dist_buffer.hpp"
#include "core/kernels.hpp"
#include "embed/axis_map.hpp"
#include "embed/grid.hpp"
#include "hypercube/check.hpp"

namespace vmp {

enum class Align : std::uint8_t { Linear, Cols, Rows };

namespace detail {
struct Unfilled;
}

[[nodiscard]] constexpr const char* to_string(Align a) noexcept {
  switch (a) {
    case Align::Linear: return "Linear";
    case Align::Cols: return "Cols";
    case Align::Rows: return "Rows";
  }
  return "?";
}

template <class T>
class DistVector {
 public:
  /// An n-element vector, value-initialized, with the given embedding.
  /// `part` is the partition kind along the aligned axis; Linear vectors
  /// are always Block-partitioned.
  DistVector(Grid& grid, std::size_t n, Align align, Part part = Part::Block)
      : DistVector(grid, n, align, part, true) {}

  [[nodiscard]] Grid& grid() const { return *grid_; }
  [[nodiscard]] std::size_t n() const { return n_; }
  [[nodiscard]] Align align() const { return align_; }
  [[nodiscard]] Part part() const { return part_; }
  [[nodiscard]] const AxisMap& map() const { return map_; }

  /// The partition rank of processor q along the aligned axis.
  [[nodiscard]] std::uint32_t rank_of(proc_t q) const {
    switch (align_) {
      case Align::Linear: return q;
      case Align::Cols: return grid_->pcol(q);
      case Align::Rows: return grid_->prow(q);
    }
    return 0;
  }

  /// The subcube family over which the vector is PARTITIONED: each member
  /// of such a subcube holds a distinct piece, so a global fold over the
  /// vector's elements all-reduces across this family.  For Linear it is
  /// the whole cube.
  [[nodiscard]] SubcubeSet partitioned_over() const {
    switch (align_) {
      case Align::Linear: return grid_->whole();
      case Align::Cols: return grid_->within_row();
      case Align::Rows: return grid_->within_col();
    }
    return grid_->whole();
  }

  /// The subcube family across which the vector is REPLICATED (every member
  /// holds an identical piece).  Empty mask for Linear.
  [[nodiscard]] SubcubeSet replicated_over() const {
    switch (align_) {
      case Align::Linear: return SubcubeSet(0);
      case Align::Cols: return grid_->within_col();
      case Align::Rows: return grid_->within_row();
    }
    return SubcubeSet(0);
  }

  /// Local piece of processor q.
  [[nodiscard]] std::span<T> piece(proc_t q) { return data_.on(q); }
  [[nodiscard]] std::span<const T> piece(proc_t q) const { return data_.on(q); }

  [[nodiscard]] DistBuffer<T>& data() { return data_; }
  [[nodiscard]] const DistBuffer<T>& data() const { return data_; }

  /// True if `other` has the same embedding (so elementwise ops are local).
  [[nodiscard]] bool aligned_with(const DistVector& other) const {
    return grid_ == other.grid_ && n_ == other.n_ && align_ == other.align_ &&
           part_ == other.part_;
  }

  // -- host I/O (untimed; for loading inputs and checking results) ---------

  /// Overwrite the whole vector (all replicas) from a host array.  A local
  /// piece is an affine slice of the host array (global = g0 + s·step), so
  /// each piece is one contiguous or one strided copy kernel.
  void load(std::span<const T> host) {
    VMP_REQUIRE(host.size() == n_, "host array length mismatch");
    grid_->cube().each_proc([&](proc_t q) {
      const std::uint32_t r = rank_of(q);
      const std::span<T> piece_q = data_.tile(q);
      if (piece_q.empty()) return;
      const std::size_t g0 = map_.global_begin(r);
      const std::size_t step = map_.global_step();
      if (step == 1) {
        kern::copy(host.subspan(g0, piece_q.size()), piece_q);
      } else {
        kern::gather_strided(host.data() + g0, step, piece_q);
      }
    });
  }

  /// Read the whole vector to the host (canonical replica): one contiguous
  /// or strided copy per partition rank instead of n owner lookups.
  [[nodiscard]] std::vector<T> to_host() const {
    std::vector<T> out(n_);
    for (std::uint32_t r = 0; r < map_.parts(); ++r) {
      const std::span<const T> piece_r = data_.tile(canonical_proc(r));
      if (piece_r.empty()) continue;
      const std::size_t g0 = map_.global_begin(r);
      const std::size_t step = map_.global_step();
      if (step == 1) {
        kern::copy(piece_r, std::span<T>(out).subspan(g0, piece_r.size()));
      } else {
        kern::scatter_strided(piece_r, out.data() + g0, step);
      }
    }
    return out;
  }

  /// Read one element (canonical replica) — host-side, untimed.
  [[nodiscard]] T at(std::size_t g) const {
    const std::uint32_t r = map_.owner(g);
    const proc_t q = canonical_proc(r);
    return data_.tile(q)[map_.local(g)];
  }

  /// Host-side write of one element into EVERY replica (untimed; for test
  /// setup only).
  void set(std::size_t g, const T& value) {
    const std::uint32_t r = map_.owner(g);
    const std::size_t s = map_.local(g);
    grid_->cube().each_proc([&](proc_t q) {
      if (rank_of(q) == r) data_.tile(q)[s] = value;
    });
  }

  /// Verify that all replicas agree (sanity helper for tests).
  [[nodiscard]] bool replicas_consistent() const {
    bool ok = true;
    grid_->cube().each_proc([&](proc_t q) {
      const std::span<const T> mine = data_.tile(q);
      const std::span<const T> canon = data_.tile(canonical_proc(rank_of(q)));
      if (!std::equal(mine.begin(), mine.end(), canon.begin(), canon.end()))
        ok = false;
    });
    return ok;
  }

  /// The id-lowest processor holding partition rank r.
  [[nodiscard]] proc_t canonical_proc(std::uint32_t r) const {
    switch (align_) {
      case Align::Linear: return r;
      case Align::Cols: return grid_->at(0, r);
      case Align::Rows: return grid_->at(r, 0);
    }
    return 0;
  }

 private:
  Grid* grid_;
  std::size_t n_;
  Align align_;
  Part part_;
  AxisMap map_;
  DistBuffer<T> data_;

  friend struct detail::Unfilled;

  /// Every tile sized to its piece; value-initialized when `fill`.
  DistVector(Grid& grid, std::size_t n, Align align, Part part, bool fill)
      : grid_(&grid), n_(n), align_(align), part_(part), data_(grid.cube()) {
    if (align == Align::Linear) {
      VMP_REQUIRE(part == Part::Block, "Linear vectors are Block-partitioned");
      map_ = AxisMap(n, grid.cube().procs(), Part::Block);
    } else if (align == Align::Cols) {
      map_ = AxisMap(n, grid.pcols(), part);
    } else {
      map_ = AxisMap(n, grid.prows(), part);
    }
    std::size_t cap = 0;
    for (std::uint32_t r = 0; r < map_.parts(); ++r)
      cap = std::max(cap, map_.size(r));
    data_.reserve_each(cap);
    grid.cube().each_proc([&](proc_t q) {
      if (fill) {
        data_.assign(q, map_.size(rank_of(q)), T{});
      } else {
        data_.resize_unfilled(q, map_.size(rank_of(q)));
      }
    });
  }
};

namespace detail {

/// A DistVector whose tiles have their pieces' lengths and unwritten
/// elements, for a caller that writes every tile before anything reads
/// one: extract, whose owners read their lines and whose broadcast places
/// the rest.
struct Unfilled {
  template <class T>
  [[nodiscard]] static DistVector<T> vector(Grid& grid, std::size_t n,
                                            Align align, Part part) {
    return DistVector<T>(grid, n, align, part, false);
  }
};

}  // namespace detail

}  // namespace vmp
