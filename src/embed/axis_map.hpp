/// \file axis_map.hpp
/// \brief Per-axis global↔local index maps: the two load-balanced
///        embeddings of the paper ("consecutive" blocks and cyclic).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "hypercube/check.hpp"
#include "hypercube/partition.hpp"

namespace vmp {

/// How a 1-D index range is partitioned over the parts of one grid axis.
enum class Part : std::uint8_t {
  Block,   ///< contiguous blocks ("consecutive" embedding)
  Cyclic,  ///< round-robin — keeps shrinking active windows load-balanced
};

/// Resolves global index <-> (owner part, local slot) for one axis.
class AxisMap {
 public:
  AxisMap() = default;
  AxisMap(std::size_t n, std::uint32_t parts, Part kind)
      : n_(n), parts_(parts), kind_(kind) {
    VMP_REQUIRE(parts > 0, "axis needs at least one part");
    quot_ = n / parts;
    rem_ = n % parts;
    if (std::has_single_bit(parts)) shift_ = std::countr_zero(parts);
  }

  [[nodiscard]] std::size_t n() const { return n_; }
  [[nodiscard]] std::uint32_t parts() const { return parts_; }
  [[nodiscard]] Part kind() const { return kind_; }

  /// Owner part of global index g.
  [[nodiscard]] std::uint32_t owner(std::size_t g) const {
    VMP_REQUIRE(g < n_, "global index out of range");
    return kind_ == Part::Block ? block_owner(n_, parts_, g)
                                : cyclic_owner(parts_, g);
  }

  /// Local slot of global index g on its owner.
  [[nodiscard]] std::size_t local(std::size_t g) const {
    VMP_REQUIRE(g < n_, "global index out of range");
    return kind_ == Part::Block ? block_local(n_, parts_, g)
                                : cyclic_local(parts_, g);
  }

  /// Number of indices owned by part r: both kinds give the first
  /// n mod parts parts one index more than n / parts.
  [[nodiscard]] std::size_t size(std::uint32_t r) const {
    VMP_REQUIRE(r < parts_, "part out of range");
    return quot_ + (r < rem_ ? 1 : 0);
  }

  /// Global index of local slot s on part r.
  [[nodiscard]] std::size_t global(std::uint32_t r, std::size_t s) const {
    VMP_REQUIRE(r < parts_ && s < size(r), "local slot out of range");
    return kind_ == Part::Block ? block_start(r) + s
                                : cyclic_global(parts_, r, s);
  }

  /// Both embeddings are AFFINE in the local slot:
  ///   global(r, s) == global_begin(r) + s · global_step()
  /// (Block: block start + s; Cyclic: r + s · parts).  The strided kernels
  /// in core/kernels.hpp lean on this to turn per-element index math into
  /// one (base, step) pair per local piece.
  [[nodiscard]] std::size_t global_begin(std::uint32_t r) const {
    VMP_REQUIRE(r < parts_, "part out of range");
    return kind_ == Part::Block ? block_start(r) : static_cast<std::size_t>(r);
  }
  /// Global-index distance between consecutive local slots: 1 for Block,
  /// parts() for Cyclic.
  [[nodiscard]] std::size_t global_step() const {
    return kind_ == Part::Block ? 1 : static_cast<std::size_t>(parts_);
  }

  /// First local slot on part r whose global index is ≥ lo.  Under both
  /// partition kinds global indices increase with the local slot, so the
  /// active window [lo, n) is always a contiguous local suffix — the fact
  /// the shrinking-window algorithms (Gaussian elimination, simplex) lean
  /// on for load-balanced charging.
  [[nodiscard]] std::size_t first_local_at_or_after(std::uint32_t r,
                                                    std::size_t lo) const {
    VMP_REQUIRE(r < parts_, "part out of range");
    const std::size_t sz = size(r);
    if (lo == 0) return 0;
    if (kind_ == Part::Block) {
      const std::size_t begin = block_start(r);
      if (lo <= begin) return 0;
      return std::min(sz, lo - begin);
    }
    // Cyclic: global(s) = s · parts + r, so s = ⌈(lo − r) / parts⌉ — a
    // shift for the power-of-two part counts every cube grid has.
    if (lo <= r) return 0;
    const std::size_t num = lo - r + parts_ - 1;
    return std::min(sz, shift_ >= 0 ? num >> shift_ : num / parts_);
  }

  friend bool operator==(const AxisMap&, const AxisMap&) = default;

 private:
  /// block_begin(n, parts, r) from the stored quotient and remainder.
  [[nodiscard]] std::size_t block_start(std::uint32_t r) const {
    return r * quot_ + std::min<std::size_t>(r, rem_);
  }

  std::size_t n_ = 0;
  std::uint32_t parts_ = 1;
  Part kind_ = Part::Block;
  std::size_t quot_ = 0;  ///< n / parts
  std::size_t rem_ = 0;   ///< n % parts
  int shift_ = -1;        ///< log2(parts) if parts is a power of two
};

}  // namespace vmp
