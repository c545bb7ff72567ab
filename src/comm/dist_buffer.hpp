/// \file dist_buffer.hpp
/// \brief Per-processor local storage: the only data container collectives
///        and primitives touch.  Nothing is globally addressable — data
///        crosses processor boundaries only through Cube::exchange (and is
///        charged for it).
///
/// Storage is one contiguous ARENA per distributed object: a single
/// allocation holding all P tiles at computed offsets, leased from the
/// Cube's BufferPool via acquire so that temporaries inside a fused
/// pipeline recycle the same power-of-two blocks and are allocation-free in
/// steady state.  Callers see processor q's tile only as a std::span via
/// tile(q) / on(q).
///
/// Layout: processor q's tile starts at base + slot(q) · stride where
/// stride (in elements) is rounded so every tile begins on a 64-byte
/// boundary; len(q) ≤ stride is the live length.  Slot and length share
/// one per-tile entry, so the slot table costs no allocation of its own.
/// It is the identity until permute_tiles hands tiles to new owners by
/// rewriting it: a Gray ring shift (comm/shift.hpp) moves whole tiles this
/// way without copying a byte.  Growing the stride and copy construction
/// (and so copy assignment) lay the tiles out in processor order again;
/// swap and move carry the table along.
///
/// Tiles never overlap and the per-tile spans jointly cover disjoint arena
/// ranges, so concurrent delivery callbacks (one per destination
/// processor, see hypercube/machine.hpp) may mutate different tiles'
/// ELEMENTS and LENGTHS freely — as long as no tile outgrows the stride.
/// Growing the stride reallocates the arena and permute_tiles rewrites the
/// table, so both are only legal on the host thread (guarded by
/// WorkerTeam::in_step); hot paths pre-reserve with reserve_each before
/// entering compute/exchange.
///
/// The simulated machine is oblivious to all of this: charges, SimStats and
/// event traces depend only on element counts and exchange shapes, so the
/// slab changes host wall-clock and allocation counters, nothing else.
#pragma once

#include <cstddef>
#include <cstdint>
#include <numeric>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/kernels.hpp"
#include "hypercube/check.hpp"
#include "hypercube/machine.hpp"

namespace vmp {

template <class T>
class DistVector;

template <class T>
class DistBuffer {
  // The arena moves tiles with memmove on growth and hands out spans over
  // raw pool bytes, so elements must be trivially copyable and must not
  // demand more alignment than the 64-byte tile boundary provides.
  static_assert(std::is_trivially_copyable_v<T>,
                "DistBuffer elements live in a raw slab arena");
  static_assert(alignof(T) <= 64, "tile alignment is 64 bytes");

 public:
  DistBuffer() = default;

  /// One (initially empty) tile per processor; no arena until first growth.
  explicit DistBuffer(Cube& cube)
      : cube_(&cube), procs_(cube.procs()), tiles_(cube.procs()) {
    reset_slots();
  }

  /// One tile of `elems_each` value-initialized elements per processor.
  DistBuffer(Cube& cube, std::size_t elems_each) : DistBuffer(cube) {
    reserve_each(elems_each);
    for (proc_t q = 0; q < procs_; ++q) assign(q, elems_each, T{});
  }

  DistBuffer(const DistBuffer& other)
      : cube_(other.cube_),
        procs_(other.procs_),
        stride_(other.stride_),
        tiles_(other.tiles_) {
    reset_slots();
    if (stride_ > 0) {
      block_ = cube_->buffers().acquire(arena_bytes(procs_, stride_));
      base_ = aligned_base(block_);
      for (proc_t q = 0; q < procs_; ++q)
        kern::copy(other.tile(q), std::span<T>(tile_ptr(q), tiles_[q].len));
    }
  }
  DistBuffer& operator=(const DistBuffer& other) {
    if (this != &other) {
      DistBuffer tmp(other);
      swap(tmp);
    }
    return *this;
  }
  DistBuffer(DistBuffer&& other) noexcept { swap(other); }
  DistBuffer& operator=(DistBuffer&& other) noexcept {
    if (this != &other) {
      DistBuffer tmp(std::move(other));
      swap(tmp);
    }
    return *this;
  }
  ~DistBuffer() = default;

  /// Exchange arenas wholesale (O(1); no element copies).
  void swap(DistBuffer& other) noexcept {
    std::swap(cube_, other.cube_);
    std::swap(procs_, other.procs_);
    std::swap(stride_, other.stride_);
    tiles_.swap(other.tiles_);
    std::swap(block_, other.block_);
    std::swap(base_, other.base_);
  }

  [[nodiscard]] proc_t procs() const { return procs_; }

  /// Live element count of processor q's tile.
  [[nodiscard]] std::size_t len(proc_t q) const {
    VMP_REQUIRE(q < procs_, "processor id out of range");
    return tiles_[q].len;
  }

  /// Per-tile capacity in elements (uniform across processors).
  [[nodiscard]] std::size_t stride() const { return stride_; }

  /// Span view of processor q's tile — the only element access there is.
  [[nodiscard]] std::span<T> tile(proc_t q) {
    VMP_REQUIRE(q < procs_, "processor id out of range");
    return {tile_ptr(q), tiles_[q].len};
  }
  [[nodiscard]] std::span<const T> tile(proc_t q) const {
    VMP_REQUIRE(q < procs_, "processor id out of range");
    return {tile_ptr(q), tiles_[q].len};
  }
  [[nodiscard]] std::span<T> on(proc_t q) { return tile(q); }
  [[nodiscard]] std::span<const T> on(proc_t q) const { return tile(q); }

  /// Host-side copy of tile q as a std::vector (tests and debugging only).
  [[nodiscard]] std::vector<T> host_vec(proc_t q) const {
    const std::span<const T> t = tile(q);
    return std::vector<T>(t.begin(), t.end());
  }

  /// Grow every tile's capacity to at least `elems` (lengths unchanged).
  /// Host-thread only; call before compute/exchange whose callbacks append.
  void reserve_each(std::size_t elems) { ensure_stride(elems); }

  /// Set tile q's length to n; new elements are value-initialized (or
  /// copies of `fill_v`).  Shrinking and growing within the stride only
  /// touch this tile, so delivery callbacks may call it; growth past the
  /// stride reallocates and must happen on the host thread.
  void resize(proc_t q, std::size_t n) { resize(q, n, T{}); }
  void resize(proc_t q, std::size_t n, const T& fill_v) {
    VMP_REQUIRE(q < procs_, "processor id out of range");
    ensure_stride(n);
    std::size_t& len = tiles_[q].len;
    if (n > len) kern::fill(std::span<T>(tile_ptr(q) + len, n - len), fill_v);
    len = n;
  }

  /// tile(q) = n copies of v.
  void assign(proc_t q, std::size_t n, const T& v) {
    VMP_REQUIRE(q < procs_, "processor id out of range");
    ensure_stride(n);
    kern::fill(std::span<T>(tile_ptr(q), n), v);
    tiles_[q].len = n;
  }

  /// tile(q) = src (overlap with this arena is fine; memmove semantics).
  void assign(proc_t q, std::span<const T> src) {
    VMP_REQUIRE(q < procs_, "processor id out of range");
    ensure_stride(src.size());
    kern::copy(src, std::span<T>(tile_ptr(q), src.size()));
    tiles_[q].len = src.size();
  }

  void clear(proc_t q) {
    VMP_REQUIRE(q < procs_, "processor id out of range");
    tiles_[q].len = 0;
  }

  /// Give tile q, with its length, to processor to[q] for every q: only
  /// the per-tile entries move — no element moves, the arena does not grow
  /// and nothing is allocated.  `to` must be a bijection on the processors
  /// (ContractError otherwise, leaving the buffer as it was).  Host-thread
  /// only, like slab growth.
  void permute_tiles(std::span<const proc_t> to) {
    VMP_REQUIRE(to.size() == procs_,
                "permute_tiles needs one destination per processor");
    VMP_REQUIRE(cube_ == nullptr || !cube_->team().in_step(),
                "permute_tiles is host-thread only: call it outside "
                "compute/exchange");
    // Mark every destination once; meeting a mark twice (or a destination
    // outside the cube) means `to` is no bijection.
    bool bijection = true;
    for (proc_t q = 0; q < procs_ && bijection; ++q) {
      const proc_t d = to[q];
      bijection = d < procs_ && (tiles_[d].slot & kMoving) == 0;
      if (bijection) tiles_[d].slot |= kMoving;
    }
    if (!bijection)
      for (Tile& t : tiles_) t.slot &= ~kMoving;
    VMP_REQUIRE(bijection, "permute_tiles destinations must be a bijection "
                           "on the processors");
    // Rotate each cycle of `to` once; an entry is in place when its mark
    // is cleared.
    for (proc_t q = 0; q < procs_; ++q) {
      if ((tiles_[q].slot & kMoving) == 0) continue;
      Tile carry = tiles_[q];
      for (proc_t j = to[q];; j = to[j]) {
        std::swap(carry, tiles_[j]);
        tiles_[j].slot &= ~kMoving;
        if (j == q) break;
      }
    }
  }

  void push_back(proc_t q, const T& v) {
    VMP_REQUIRE(q < procs_, "processor id out of range");
    ensure_stride(tiles_[q].len + 1);
    tile_ptr(q)[tiles_[q].len] = v;
    ++tiles_[q].len;
  }

  /// Append src to the end of tile q.
  void append(proc_t q, std::span<const T> src) {
    VMP_REQUIRE(q < procs_, "processor id out of range");
    ensure_stride(tiles_[q].len + src.size());
    kern::copy(src, std::span<T>(tile_ptr(q) + tiles_[q].len, src.size()));
    tiles_[q].len += src.size();
  }

  /// Insert src before the existing elements of tile q (shifts them up).
  void prepend(proc_t q, std::span<const T> src) {
    VMP_REQUIRE(q < procs_, "processor id out of range");
    ensure_stride(tiles_[q].len + src.size());
    T* t = tile_ptr(q);
    kern::copy(std::span<const T>(t, tiles_[q].len),
               std::span<T>(t + src.size(), tiles_[q].len));
    kern::copy(src, std::span<T>(t, src.size()));
    tiles_[q].len += src.size();
  }

 private:
  static constexpr std::size_t kAlign = 64;

  friend class DistVector<T>;

  /// Set tile q's length to n and leave its elements unwritten: for a
  /// DistVector whose every tile its builder writes before any read.
  void resize_unfilled(proc_t q, std::size_t n) {
    ensure_stride(n);
    tiles_[q].len = n;
  }

  /// Smallest stride quantum keeping every tile 64-byte aligned.
  [[nodiscard]] static constexpr std::size_t align_elems() {
    return kAlign / std::gcd(sizeof(T), kAlign);
  }
  [[nodiscard]] static constexpr std::size_t round_stride(std::size_t n) {
    const std::size_t a = align_elems();
    return (n + a - 1) / a * a;
  }
  [[nodiscard]] static std::size_t arena_bytes(proc_t procs,
                                               std::size_t stride) {
    return static_cast<std::size_t>(procs) * stride * sizeof(T) + kAlign;
  }
  [[nodiscard]] static T* aligned_base(const BufferPool::Block& b) {
    if (b.data() == nullptr) return nullptr;
    auto addr = reinterpret_cast<std::uintptr_t>(b.data());
    addr = (addr + kAlign - 1) & ~std::uintptr_t{kAlign - 1};
    return reinterpret_cast<T*>(addr);
  }

  /// One tile's entry: its live length and the arena slot holding it.
  struct Tile {
    std::size_t len = 0;
    std::size_t slot = 0;
  };
  /// permute_tiles' mark on an entry that has not reached its place yet:
  /// the top bit (slots are below 2^30).
  static constexpr std::size_t kMoving = ~(~std::size_t{0} >> 1);

  /// Processor order: tile q in arena slot q.
  void reset_slots() {
    for (proc_t q = 0; q < procs_; ++q) tiles_[q].slot = q;
  }

  [[nodiscard]] T* tile_ptr(proc_t q) {
    return base_ + tiles_[q].slot * stride_;
  }
  [[nodiscard]] const T* tile_ptr(proc_t q) const {
    return base_ + tiles_[q].slot * stride_;
  }

  /// Reallocate the arena if any tile needs capacity `min_elems`.  Doubles
  /// the stride geometrically so repeated push_backs stay amortized O(1);
  /// the old block's RAII release feeds the pool for the next object.  The
  /// new arena holds the tiles in processor order.
  void ensure_stride(std::size_t min_elems) {
    if (min_elems <= stride_) return;
    VMP_REQUIRE(cube_ != nullptr, "DistBuffer not bound to a cube");
    VMP_REQUIRE(!cube_->team().in_step(),
                "slab growth is host-thread only: reserve_each before "
                "entering compute/exchange");
    const std::size_t want =
        round_stride(min_elems > 2 * stride_ ? min_elems : 2 * stride_);
    BufferPool::Block nb =
        cube_->buffers().acquire(arena_bytes(procs_, want));
    T* nbase = aligned_base(nb);
    for (proc_t q = 0; q < procs_; ++q)
      kern::copy(std::span<const T>(tile_ptr(q), tiles_[q].len),
                 std::span<T>(nbase + std::size_t{q} * want, tiles_[q].len));
    block_ = std::move(nb);
    base_ = nbase;
    stride_ = want;
    reset_slots();
  }

  Cube* cube_ = nullptr;
  proc_t procs_ = 0;
  std::size_t stride_ = 0;  ///< per-tile capacity, in elements
  std::vector<Tile> tiles_;  ///< per processor: length and arena slot
  BufferPool::Block block_;
  T* base_ = nullptr;
};

}  // namespace vmp
