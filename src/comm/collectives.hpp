/// \file collectives.hpp
/// \brief Collective communication on the Boolean cube, the substrate the
///        four primitives are built from.
///
/// Every collective runs concurrently and independently in all subcubes of
/// a SubcubeSet, uses only cube-edge exchanges (one-port, or all-port for
/// the segment pipelines), and charges the simulated clock per lockstep
/// round.  The algorithms are the classical ones from the hypercube
/// literature the paper cites (Johnsson & Ho, "Optimum Broadcasting and
/// Personalized Communication in Hypercubes"):
///
///  * broadcast            — spanning binomial tree: k(τ + n·t_c)
///  * broadcast_sag        — scatter + all-gather:   2k·τ + ~2n·t_c
///  * allreduce (doubling) — recursive doubling:     k(τ + n·t_c) + k·n·t_a
///  * allreduce_rsag       — halving + doubling:     2k·τ + ~2n·t_c + n·t_a
///  * broadcast_pipelined  — segment pipeline: (k+S-1)(τ + ⌈n/S⌉·t_c)
///  * allreduce_pipelined  — segmented doubling, same round count + k·n·t_a
///  * scan_exclusive       — rank-ordered parallel prefix, k rounds
///  * route_within         — combining dimension-order routing, k rounds
///
/// (k = subcube dimension, n = per-processor data, per subcube.)
/// The halving/gathering schedules are what make the paper's reduce and
/// distribute primitives processor-time optimal for m > p·lg p: the τ term
/// appears only lg p times while every element crosses an edge O(1) times.
/// `broadcast_auto` / `allreduce_auto` pick the cheaper variant by
/// evaluating the cost model with the machine's actual parameters — the
/// algorithm-selection discipline of the era's substrate papers.
///
/// Payload lengths may differ from subcube to subcube (they arise from
/// non-divisible matrix extents) but must agree within each subcube.
///
/// route_within's delivery callbacks GROW tiles, so it pre-reserves the
/// final capacity on the host thread before each exchange — slab tiles may
/// change length concurrently but may not outgrow their stride off the host
/// thread (see comm/dist_buffer.hpp).
///
/// Geometry is tabulated once per call on the host thread, and the rounds
/// only read the tables: the broadcasts call `n_of` at each subcube's root
/// (`broadcast_auto` once more there, to pick a backend), and the
/// pipelines look up segment cuts in a detail::SegmentTable, per processor
/// for `allreduce_pipelined` and per subcube for the broadcasts, whose
/// tables live in an arena on the stack.
///
/// The broadcasts only move data (`broadcast`, `broadcast_sag`,
/// `broadcast_pipelined` and allport.hpp's `broadcast_esbt`), and stage
/// nothing: each round is one Cube::exchange_views over the roots'
/// payloads, walked over each port's holders only — every holder's message
/// is a range of its subcube root's tile, the bytes it would hold by then —
/// and after the last round one uncharged Cube::deliver step copies each
/// root's payload to its members.  The three all-reduce backends
/// (`allreduce`, `allreduce_rsag`, `allreduce_pipelined`) are the same idea
/// for a combine: each walks its rounds over ranges of the members' tiles,
/// and one deliver step folds each subcube once, in the doubling's
/// rank-ordered tree, so every backend returns the same bits.  Charges,
/// statistics and traces are those of the staged rounds; a FaultError
/// leaves `buf` as it was.  Only the scan and route_within still stage.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory_resource>
#include <span>
#include <utility>
#include <vector>

#include "core/kernels.hpp"
#include "hypercube/machine.hpp"
#include "hypercube/partition.hpp"
#include "obs/trace.hpp"
#include "comm/dist_buffer.hpp"
#include "comm/ops.hpp"
#include "comm/subcube.hpp"

namespace vmp {

/// Host-side helper: largest local tile length (used for flop charging).
template <class T>
[[nodiscard]] std::size_t max_local_len(const Cube& cube,
                                        const DistBuffer<T>& buf) {
  std::size_t m = 0;
  for (proc_t q = 0; q < cube.procs(); ++q) m = std::max(m, buf.len(q));
  return m;
}

// ---------------------------------------------------------------------------
// All-reduce: a charge walk of the backend's rounds, then one fold.
// ---------------------------------------------------------------------------

namespace detail {

/// The body every all-reduce backend shares, over the subcubes of `mask`.
/// Before anything is charged it checks that each member's tile is as long
/// as its subcube's rank-0 member's.  `walk(n)`, n the longest tile, then
/// charges the backend's rounds, each one Cube::exchange_views over ranges
/// of the members' unchanged tiles (a combine never changes a length, so
/// every message is as long as in the staged round) followed by its
/// combine charge.  What the rounds would compute is fixed by the tiles
/// they start from, so one uncharged deliver step then folds each subcube
/// on its rank-0 member q0 (no mask bit set) in recursive doubling's
/// rank-ordered tree — for w = 1, 2, 4, …, rank r ≡ 0 mod 2w takes
/// op(tile(r), tile(r + w)) — and copies the result into the other
/// members; no step runs when every non-root tile is empty.  Nothing is
/// staged, and a FaultError leaves `buf` as it was.
template <class T, class Op, class Walk>
void walk_then_fold(Cube& cube, DistBuffer<T>& buf, std::uint32_t mask,
                    Op op, Walk&& walk) {
  std::size_t n = 0;
  std::uint64_t combines = 0;  // the fold's: each non-root tile's length
  for (proc_t q = 0; q < cube.procs(); ++q) {
    VMP_ASSERT(buf.len(q) == buf.len(q & ~mask), "allreduce length mismatch");
    n = std::max(n, buf.len(q));
    if ((q & mask) != 0) combines += buf.len(q);
  }
  walk(n);
  if (combines == 0) return;
  cube.deliver({.flops = combines, .bytes = combines * sizeof(T)},
               [&](proc_t q0) {
                 if ((q0 & mask) != 0) return;
                 std::uint32_t folded = 0;
                 for (std::uint32_t rest = mask; rest != 0; rest &= rest - 1) {
                   // Rank r + w is rank r's processor with `high` set.
                   const std::uint32_t high = rest & (~rest + 1);
                   folded |= high;
                   const std::uint32_t lows = mask & ~folded;
                   std::uint32_t s = 0;
                   do {
                     kern::zip(buf.tile(q0 | s),
                               std::span<const T>(buf.tile(q0 | s | high)),
                               kern::op_fn(op));
                     s = (s - lows) & lows;
                   } while (s != 0);
                 }
                 const std::span<const T> result = buf.tile(q0);
                 for (std::uint32_t s = mask; s != 0; s = (s - 1) & mask)
                   kern::copy(result, buf.tile(q0 | s));
               });
}

}  // namespace detail

/// Combine equal-length (per subcube) local arrays; on exit every member
/// holds the subcube-wide reduction.  Every all-reduce backend combines in
/// rank order and returns this one's bits, so associative, non-commutative
/// operators are supported.
///
/// Recursive doubling: round i crosses rank bit i, and after it every
/// member of an aligned group of 2^(i+1) ranks holds op(low half's value,
/// high half's value).  Each of the k rounds sends every member's whole
/// tile and charges its combine; detail::walk_then_fold folds the result.
template <class T, class Op>
void allreduce(Cube& cube, DistBuffer<T>& buf, const SubcubeSet& sc, Op op) {
  if (sc.k() == 0) return;
  VMP_TRACE(cube, "allreduce");
  detail::walk_then_fold(cube, buf, sc.mask(), op, [&](std::size_t n) {
    const proc_t P = cube.procs();
    for (int i = 0; i < sc.k(); ++i) {
      const int d = sc.dim_of_rank_bit(i);
      cube.exchange_views<T>(std::span<const int>(&d, 1), [&](auto&& fn) {
        for (proc_t q = 0; q < P; ++q)
          fn(d, q, std::span<const T>(buf.tile(q)));
      });
      cube.clock().charge_compute_step(n, n * P);
    }
  });
}

/// Reduce-scatter by recursive halving, then all-gather by recursive
/// doubling: the bandwidth-optimal all-reduce for long arrays.  Each
/// member's array is cut into P blocks (block_begin).  Halving round j
/// (rank bits high to low) sends the blocks of the aligned group of 2^j
/// ranks holding the partner's rank and combines the group holding the
/// member's own, so each member ends with its own block combined;
/// gathering round j (low to high) sends the member's own group.  The
/// rounds are charged in a "reduce_scatter" and an "allgather" region and
/// the result is the doubling's (see `allreduce`).
template <class T, class Op>
void allreduce_rsag(Cube& cube, DistBuffer<T>& buf, const SubcubeSet& sc,
                    Op op) {
  if (sc.k() == 0) return;
  VMP_TRACE(cube, "allreduce_rsag");
  detail::walk_then_fold(cube, buf, sc.mask(), op, [&](std::size_t) {
    const proc_t P = cube.procs();
    // The blocks of q's array held by the aligned group of 2^j ranks that
    // holds rank r.
    const auto group = [&](proc_t q, std::uint32_t r, int j) {
      const std::size_t n = buf.len(q);
      const std::uint32_t lo = r & ~((1u << j) - 1u);
      const std::size_t begin = block_begin(n, sc.size(), lo);
      return std::span<const T>(buf.tile(q)).subspan(
          begin, block_begin(n, sc.size(), lo + (1u << j)) - begin);
    };
    // Round j: q sends the group holding its rank with the bits in `flip`
    // flipped.
    const auto round = [&](int j, std::uint32_t flip) {
      const int d = sc.dim_of_rank_bit(j);
      cube.exchange_views<T>(std::span<const int>(&d, 1), [&](auto&& fn) {
        for (proc_t q = 0; q < P; ++q)
          fn(d, q, group(q, sc.rank(q) ^ flip, j));
      });
    };
    {
      VMP_TRACE(cube, "reduce_scatter");
      for (int j = sc.k() - 1; j >= 0; --j) {
        round(j, 1u << j);
        std::size_t max_kept = 0;
        std::uint64_t kept = 0;
        for (proc_t q = 0; q < P; ++q) {
          const std::size_t len = group(q, sc.rank(q), j).size();
          max_kept = std::max(max_kept, len);
          kept += len;
        }
        cube.clock().charge_compute_step(max_kept, kept);
      }
    }
    VMP_TRACE(cube, "allgather");
    for (int j = 0; j < sc.k(); ++j) round(j, 0);
  });
}

// ---------------------------------------------------------------------------
// Segment pipelining across cube dimensions.
// ---------------------------------------------------------------------------

/// The segment count minimizing the pipelined round model
/// `(k+S-1)(τ + ⌈n/S⌉·t_c)`: S* = √((k-1)·n·t_c / τ), clamped to [1, n].
/// A zero start-up cost degenerates to one segment per element.
[[nodiscard]] inline std::uint32_t pipeline_segments(const CostParams& cp,
                                                     int k, std::size_t n) {
  if (n <= 1 || k <= 1) return 1;
  double s = cp.startup_us > 0.0
                 ? std::sqrt((static_cast<double>(k) - 1.0) *
                             static_cast<double>(n) * cp.per_elem_us /
                             cp.startup_us)
                 : static_cast<double>(n);
  s = std::floor(s + 0.5);
  if (s < 1.0) s = 1.0;
  if (s > static_cast<double>(n)) s = static_cast<double>(n);
  return static_cast<std::uint32_t>(s);
}

/// Communication-round model of an S-segment pipeline over k dimensions:
/// the last segment finishes after k+S-1 rounds of ⌈n/S⌉-element sends.
/// Every pipelined collective charges AT MOST this (empty rounds elide).
[[nodiscard]] inline double pipeline_rounds_model(const CostParams& cp, int k,
                                                  std::size_t n,
                                                  std::uint32_t nseg) {
  const double seg = static_cast<double>((n + nseg - 1) / nseg);
  return (static_cast<double>(k) + static_cast<double>(nseg) - 1.0) *
         (cp.startup_us + seg * cp.per_elem_us);
}

namespace detail {

/// The segment cuts of `count` payloads, payload i holding `len(i)`
/// elements cut into `nseg` segments (segment s spans [cut(i, s),
/// cut(i, s+1))), built on the host thread before the first round so that
/// the rounds only read them.  Lengths repeat (they agree within a subcube
/// and the partitions give only a few distinct ones), so each distinct
/// length's cuts are computed once and shared.  The tables come from
/// `mem`.
class SegmentTable {
 public:
  template <class LenFn>
  SegmentTable(
      std::size_t count, std::uint32_t nseg, LenFn len,
      std::pmr::memory_resource* mem = std::pmr::get_default_resource())
      : nseg_(nseg), row_(count, mem), cuts_(mem) {
    // Room for two distinct lengths: a partition's n/P and n/P + 1.
    cuts_.reserve(2 * (std::size_t{nseg} + 1));
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t n = static_cast<std::size_t>(len(i));
      // A row's last cut is its length: block_begin(n, S, S) == n.
      std::size_t row = 0;
      while (row < cuts_.size() && cuts_[row + nseg_] != n) row += nseg_ + 1;
      if (row == cuts_.size())
        for (std::uint32_t s = 0; s <= nseg_; ++s)
          cuts_.push_back(block_begin(n, nseg_, s));
      row_[i] = row;
    }
  }

  [[nodiscard]] std::size_t cut(std::size_t i, std::uint32_t s) const {
    return cuts_[row_[i] + s];
  }
  [[nodiscard]] std::size_t len(std::size_t i) const { return cut(i, nseg_); }

  /// Segment s of `payload`, payload i.
  template <class T>
  [[nodiscard]] std::span<T> segment(std::span<T> payload, std::size_t i,
                                     std::uint32_t s) const {
    const std::size_t lo = cut(i, s);
    return payload.subspan(lo, cut(i, s + 1) - lo);
  }

 private:
  std::uint32_t nseg_;
  std::pmr::vector<std::size_t> row_;  ///< per payload: offset of its cuts
  std::pmr::vector<std::size_t> cuts_;
};

/// Ports a pipeline round can use: each active segment occupies a distinct
/// subcube dimension, and a SubcubeSet spans at most 32.
inline constexpr std::size_t kMaxPipelinePorts = 32;

}  // namespace detail

/// Segment-pipelined recursive-doubling all-reduce: the array is cut into
/// `nseg` blocks and segment s runs doubling step i in round s+i; active
/// segments occupy DISTINCT cube dimensions, so every round is one
/// all-port exchange of ~n/S elements instead of a one-port exchange of n,
/// its messages port-major, then processor-ascending (the order
/// exchange_allport settles in).  Elementwise the combining sequence is
/// the doubling's, and so is the result (see `allreduce`).
/// (k+S-1)(τ + ⌈n/S⌉·t_c) + k·n·t_a: beats doubling once k·τ dominates.
template <class T, class Op>
void allreduce_pipelined(Cube& cube, DistBuffer<T>& buf, const SubcubeSet& sc,
                         Op op, std::uint32_t nseg) {
  if (sc.k() == 0) return;
  VMP_REQUIRE(nseg >= 1, "allreduce_pipelined needs at least one segment");
  VMP_TRACE(cube, "allreduce_pipelined");
  detail::walk_then_fold(cube, buf, sc.mask(), op, [&](std::size_t) {
    const int k = sc.k();
    const proc_t P = cube.procs();
    const detail::SegmentTable geo(P, nseg, [&](std::size_t q) {
      return buf.len(static_cast<proc_t>(q));
    });
    std::array<int, detail::kMaxPipelinePorts> dims{};
    std::array<std::uint32_t, detail::kMaxPipelinePorts> segs{};
    for (int t = 0; t < k + static_cast<int>(nseg) - 1; ++t) {
      const std::uint32_t s_lo =
          t >= k ? static_cast<std::uint32_t>(t - k + 1) : 0;
      const std::uint32_t s_hi = std::min<std::uint32_t>(
          nseg - 1, static_cast<std::uint32_t>(t));
      std::size_t ports = 0;
      for (std::uint32_t s = s_lo; s <= s_hi; ++s, ++ports) {
        dims[ports] = sc.dim_of_rank_bit(t - static_cast<int>(s));
        segs[ports] = s;
      }
      cube.exchange_views<T>(
          std::span<const int>(dims.data(), ports), [&](auto&& fn) {
            for (std::size_t i = 0; i < ports; ++i)
              for (proc_t q = 0; q < P; ++q)
                fn(dims[i], q,
                   geo.segment(std::span<const T>(buf.tile(q)), q, segs[i]));
          });
      // The round combines segments [s_lo, s_hi] on every processor.
      std::size_t max_comb = 0;
      std::uint64_t total_comb = 0;
      for (proc_t q = 0; q < P; ++q) {
        const std::size_t len = geo.cut(q, s_hi + 1) - geo.cut(q, s_lo);
        max_comb = std::max(max_comb, len);
        total_comb += len;
      }
      cube.clock().charge_compute_step(max_comb, total_comb);
    }
  });
}

/// Model-driven choice between recursive doubling, reduce-scatter /
/// all-gather, and the segment pipeline, evaluated with the machine's
/// actual cost parameters.  The pipeline is picked only when its model is
/// strictly cheaper than both exact variants (its actual charge never
/// exceeds the model, so the selection can only improve on the minimum).
/// The choice moves only the charges: every backend returns the same bits.
template <class T, class Op>
void allreduce_auto(Cube& cube, DistBuffer<T>& buf, const SubcubeSet& sc,
                    Op op) {
  if (sc.k() == 0) return;
  const std::size_t nmax = max_local_len(cube, buf);
  const double n = static_cast<double>(nmax);
  const double k = sc.k();
  const double frac =
      (static_cast<double>(sc.size()) - 1.0) / static_cast<double>(sc.size());
  const CostParams& cp = cube.costs();
  // Exact charges of the two algorithms (up to ceil rounding of blocks):
  // doubling moves the full array k times and combines it k times;
  // halving+gathering moves n·(P-1)/P twice and combines it once.
  const double c_rd = k * (cp.startup_us + n * cp.per_elem_us) +
                      k * n * cp.flop_us;
  const double c_rsag = 2 * k * cp.startup_us +
                        2 * n * frac * cp.per_elem_us +
                        n * frac * cp.flop_us;
  const std::uint32_t S = pipeline_segments(cp, sc.k(), nmax);
  const double c_pipe = pipeline_rounds_model(cp, sc.k(), nmax, S) +
                        k * n * cp.flop_us;
  if (S > 1 && c_pipe < c_rd && c_pipe < c_rsag) {
    allreduce_pipelined(cube, buf, sc, op, S);
  } else if (c_rsag < c_rd) {
    allreduce_rsag(cube, buf, sc, op);
  } else {
    allreduce(cube, buf, sc, op);
  }
}

// ---------------------------------------------------------------------------
// Broadcast.
// ---------------------------------------------------------------------------

namespace detail {

/// Dense numbering of the subcubes of `sc` on `cube`: subcube s holds the
/// processors whose address bits outside the mask spell s.
class Subcubes {
 public:
  Subcubes(const Cube& cube, const SubcubeSet& sc)
      : others_((cube.procs() - 1) & ~sc.mask()) {}

  [[nodiscard]] std::size_t count() const {
    return std::size_t{1} << popcount(others_);
  }
  /// The subcube holding q.
  [[nodiscard]] std::size_t of(proc_t q) const {
    return extract_bits(q, others_);
  }
  /// The member of subcube s whose mask bits are `bits`.
  [[nodiscard]] proc_t member(std::size_t s, std::uint32_t bits) const {
    return deposit_bits(static_cast<std::uint32_t>(s), others_) | bits;
  }

 private:
  std::uint32_t others_;  ///< cube dimensions outside the mask
};

/// The per-call geometry of a data-only broadcast, one entry per subcube:
/// the root's payload, the first n_of(root) elements of its tile, cut into
/// `nseg` segments (broadcast_sag's P blocks).  n_of runs once per
/// subcube, at its root.  No per-processor rank is formed: q's address
/// relative to its root is q ^ root_bits, so the holders of a round are
/// enumerated from it.  The tables live in an arena inside the object,
/// which touches the heap only past a few hundred entries.  The payloads
/// are read where they lie, so `buf` must not grow or be relabeled before
/// place().
template <class T>
class BroadcastRoots {
 public:
  template <class NFn>
  BroadcastRoots(const Cube& cube, const DistBuffer<T>& buf,
                 const SubcubeSet& sc, std::uint32_t root_rank,
                 std::uint32_t nseg, NFn n_of)
      : subs_(cube, sc),
        mask_(sc.mask()),
        all_(cube.procs() - 1),
        root_bits_(deposit_bits(root_rank, sc.mask())),
        cuts_(
            subs_.count(), nseg,
            [&](std::size_t s) { return n_of(subs_.member(s, root_bits_)); },
            &arena_),
        data_(subs_.count(), &arena_) {
    for (std::size_t s = 0; s < data_.size(); ++s) {
      const std::span<const T> tile = buf.tile(subs_.member(s, root_bits_));
      VMP_REQUIRE(cuts_.len(s) <= tile.size(),
                  "broadcast root holds less than its payload");
      data_[s] = tile.data();
      bytes_ += cuts_.len(s) * (sc.size() - 1) * sizeof(T);
    }
  }

  /// Whether q's address relative to its root has none of the cube
  /// dimensions in `uncovered` set: q holds what its root sent down them.
  [[nodiscard]] bool holds(proc_t q, std::uint32_t uncovered) const {
    return ((q ^ root_bits_) & uncovered) == 0;
  }

  /// Calls `fn(q)` for every q that holds(q, uncovered), ascending: q is
  /// the roots' bits in `uncovered` with any subset `s` of the other bits,
  /// and the subsets are walked in ascending order.
  template <class F>
  void each_holder(std::uint32_t uncovered, F&& fn) const {
    const std::uint32_t fixed = root_bits_ & uncovered;
    const std::uint32_t free = all_ & ~uncovered;
    std::uint32_t s = 0;
    do {
      fn(fixed | s);
      s = (s - free) & free;
    } while (s != 0);
  }

  /// q's rank in its subcube relative to the root's.
  [[nodiscard]] std::uint32_t rel_rank(proc_t q) const {
    return extract_bits(q ^ root_bits_, mask_);
  }

  /// Segments [lo, hi) of the payload of q's root.
  [[nodiscard]] std::span<const T> segments(proc_t q, std::uint32_t lo,
                                            std::uint32_t hi) const {
    const std::size_t i = subs_.of(q);
    const std::size_t begin = cuts_.cut(i, lo);
    return {data_[i] + begin, cuts_.cut(i, hi) - begin};
  }
  /// Segment s of the payload of q's root.
  [[nodiscard]] std::span<const T> segment(proc_t q, std::uint32_t s) const {
    return segments(q, s, s + 1);
  }

  /// One uncharged deliver step after the last round: every member but
  /// the root copies its root's payload; the root keeps its tile.
  void place(Cube& cube, DistBuffer<T>& buf) const {
    cube.deliver({.bytes = bytes_}, [&](proc_t q) {
      if (holds(q, mask_)) return;
      const std::size_t i = subs_.of(q);
      buf.assign(q, std::span<const T>(data_[i], cuts_.len(i)));
    });
  }

 private:
  /// Room for lu_cube-sized tables (8 subcubes, 33 cuts each) and for
  /// scatter + all-gather over 64 processors.
  std::array<std::byte, 2048> inline_;
  std::pmr::monotonic_buffer_resource arena_{inline_.data(), inline_.size()};
  Subcubes subs_;
  std::uint32_t mask_;
  std::uint32_t all_;        ///< every cube dimension
  std::uint32_t root_bits_;  ///< every root's mask bits
  SegmentTable cuts_;        ///< per subcube
  std::pmr::vector<const T*> data_;  ///< per subcube: the root's tile
  std::uint64_t bytes_ = 0;          ///< what place() copies
};

/// The schedule walker behind broadcast (one segment) and
/// broadcast_pipelined: segment s runs binomial stage t−s in round t, and
/// stage st crosses rank bit k−1−st, mirroring the binomial tree's
/// high-to-low dimension order, so the active segments occupy distinct
/// dimensions and each round is one exchange_views.  The holders of
/// segment s before stage st are the members whose relative rank has no
/// bit below k−st set; each sends its segment of the root's payload, the
/// bytes it holds by then.  The payloads are placed once, after the last
/// round, so a FaultError leaves `buf` as it was.
template <class T, class NFn>
void broadcast_rounds(Cube& cube, DistBuffer<T>& buf, const SubcubeSet& sc,
                      std::uint32_t root_rank, NFn n_of, std::uint32_t nseg) {
  const int k = sc.k();
  const BroadcastRoots<T> roots(cube, buf, sc, root_rank, nseg, n_of);
  std::array<int, kMaxPipelinePorts> dims{};
  std::array<std::uint32_t, kMaxPipelinePorts> segs{};
  std::array<std::uint32_t, kMaxPipelinePorts> uncovered{};
  for (int t = 0; t < k + static_cast<int>(nseg) - 1; ++t) {
    const std::uint32_t s_lo =
        t >= k ? static_cast<std::uint32_t>(t - k + 1) : 0;
    const std::uint32_t s_hi = std::min<std::uint32_t>(
        nseg - 1, static_cast<std::uint32_t>(t));
    std::size_t ports = 0;
    for (std::uint32_t s = s_lo; s <= s_hi; ++s, ++ports) {
      const int st = t - static_cast<int>(s);
      dims[ports] = sc.dim_of_rank_bit(k - 1 - st);
      segs[ports] = s;
      uncovered[ports] =
          deposit_bits((std::uint32_t{1} << (k - st)) - 1, sc.mask());
    }
    cube.exchange_views<T>(
        std::span<const int>(dims.data(), ports), [&](auto&& fn) {
          for (std::size_t i = 0; i < ports; ++i)
            roots.each_holder(uncovered[i], [&](proc_t q) {
              fn(dims[i], q, roots.segment(q, segs[i]));
            });
        });
  }
  roots.place(cube, buf);
}

}  // namespace detail

/// Spanning-binomial-tree broadcast: the member with rank `root_rank` of
/// each subcube holds the payload, its whole tile; on exit every member
/// holds a copy (an empty payload leaves every member empty).  k rounds of
/// full-payload sends: best for short payloads.
template <class T>
void broadcast(Cube& cube, DistBuffer<T>& buf, const SubcubeSet& sc,
               std::uint32_t root_rank) {
  if (sc.k() == 0) return;
  VMP_TRACE(cube, "broadcast");
  VMP_REQUIRE(root_rank < sc.size(), "broadcast root rank out of range");
  detail::broadcast_rounds(
      cube, buf, sc, root_rank, [&buf](proc_t q) { return buf.len(q); }, 1);
}

/// Scatter + all-gather broadcast: 2k start-ups but each element crosses an
/// edge only ~twice, beating the binomial tree beyond a crossover payload
/// length (bench_ablation reproduces the crossover).  The root's payload,
/// cut into P blocks, is peeled down the binomial tree (the member with
/// relative rank rr ends the scatter holding block rr) and then gathered
/// by recursive doubling.  Every message is a block range of the root's
/// payload, so the rounds are walked over the roots' payloads like the
/// other data-only broadcasts and the payloads placed once.
/// `n_of(root)` is the payload length of each subcube, read at its root
/// (which must hold at least that many elements); every member ends with
/// that many.
template <class T, class NFn>
void broadcast_sag(Cube& cube, DistBuffer<T>& buf, const SubcubeSet& sc,
                   std::uint32_t root_rank, NFn n_of) {
  if (sc.k() == 0) return;
  VMP_TRACE(cube, "broadcast_sag");
  VMP_REQUIRE(root_rank < sc.size(), "broadcast root rank out of range");
  const int k = sc.k();
  const detail::BroadcastRoots<T> roots(cube, buf, sc, root_rank, sc.size(),
                                        n_of);
  // One round across rank bit j: every member whose relative rank rr has
  // none of the rank bits in `unheld` set sends blocks [lo, hi) =
  // blocks(rr) of its root's payload.
  const auto round = [&](int j, std::uint32_t unheld, auto&& blocks) {
    const int d = sc.dim_of_rank_bit(j);
    const std::uint32_t uncovered = deposit_bits(unheld, sc.mask());
    cube.exchange_views<T>(std::span<const int>(&d, 1), [&](auto&& fn) {
      roots.each_holder(uncovered, [&](proc_t q) {
        const auto [lo, hi] = blocks(roots.rel_rank(q));
        fn(d, q, roots.segments(q, lo, hi));
      });
    });
  };
  {
    VMP_TRACE(cube, "scatter");
    // A holder has no rank bit at or below j set: it covers blocks
    // [rr, rr + 2^(j+1)) and sends the top half.
    for (int j = k - 1; j >= 0; --j)
      round(j, (2u << j) - 1u, [j](std::uint32_t rr) {
        return std::pair{rr + (1u << j), rr + (2u << j)};
      });
  }
  {
    VMP_TRACE(cube, "allgather");
    // Before round j, q holds the 2^j blocks of its rank's aligned group.
    for (int j = 0; j < k; ++j)
      round(j, 0u, [j](std::uint32_t rr) {
        const std::uint32_t lo = rr & ~((1u << j) - 1u);
        return std::pair{lo, lo + (1u << j)};
      });
  }
  roots.place(cube, buf);
}

/// Segment-pipelined binomial broadcast: the payload is cut into `nseg`
/// blocks which ripple down the spanning binomial tree one stage behind
/// each other (segment s runs tree stage t-s in round t).  Active segments
/// occupy DISTINCT cube dimensions, so every round is one all-port
/// exchange of ~n/S elements: (k+S-1)(τ + ⌈n/S⌉·t_c), sitting between the
/// binomial tree (S=1) and scatter+all-gather in the τ vs n·t_c tradeoff.
/// Pure data motion, so results are bit-identical to `broadcast`.
/// `n_of(root)` is the payload length of each subcube, read at its root
/// (which must hold at least that many elements); every member ends with
/// that many.
template <class T, class NFn>
void broadcast_pipelined(Cube& cube, DistBuffer<T>& buf, const SubcubeSet& sc,
                         std::uint32_t root_rank, NFn n_of,
                         std::uint32_t nseg) {
  if (sc.k() == 0) return;
  VMP_REQUIRE(root_rank < sc.size(), "broadcast root rank out of range");
  VMP_REQUIRE(nseg >= 1, "broadcast_pipelined needs at least one segment");
  VMP_TRACE(cube, "broadcast_pipelined");
  detail::broadcast_rounds(cube, buf, sc, root_rank, n_of, nseg);
}

/// Model-driven choice between binomial, scatter+all-gather, and the
/// segment-pipelined broadcast.  The pipeline is picked only when its
/// model is strictly cheaper than both exact variants (its actual charge
/// never exceeds the model).  `n_of(q)` as in broadcast_sag.
template <class T, class NFn>
void broadcast_auto(Cube& cube, DistBuffer<T>& buf, const SubcubeSet& sc,
                    std::uint32_t root_rank, NFn n_of) {
  if (sc.k() == 0) return;
  VMP_REQUIRE(root_rank < sc.size(), "broadcast root rank out of range");
  // The longest payload, read at the roots, sizes the choice.
  const detail::Subcubes subs(cube, sc);
  const std::uint32_t root_bits = deposit_bits(root_rank, sc.mask());
  std::size_t nmax = 0;
  for (std::size_t s = 0; s < subs.count(); ++s)
    nmax = std::max(
        nmax, static_cast<std::size_t>(n_of(subs.member(s, root_bits))));
  const double n = static_cast<double>(nmax);
  const double k = sc.k();
  const double frac =
      (static_cast<double>(sc.size()) - 1.0) / static_cast<double>(sc.size());
  const CostParams& cp = cube.costs();
  // Exact charges (up to ceil rounding): the binomial tree moves the full
  // payload k times; scatter+all-gather moves n·(P-1)/P twice.
  const double c_bin = k * (cp.startup_us + n * cp.per_elem_us);
  const double c_sag =
      2 * k * cp.startup_us + 2 * n * frac * cp.per_elem_us;
  const std::uint32_t S = pipeline_segments(cp, sc.k(), nmax);
  const double c_pipe = pipeline_rounds_model(cp, sc.k(), nmax, S);
  if (S > 1 && c_pipe < c_bin && c_pipe < c_sag) {
    broadcast_pipelined(cube, buf, sc, root_rank, n_of, S);
  } else if (c_sag < c_bin) {
    broadcast_sag(cube, buf, sc, root_rank, n_of);
  } else {
    broadcast(cube, buf, sc, root_rank);
  }
}

// ---------------------------------------------------------------------------
// Parallel prefix (scan) across subcube ranks.
// ---------------------------------------------------------------------------

/// Exclusive scan in rank order: on exit, the member with rank r holds the
/// elementwise combination of the arrays of ranks 0..r-1 (identity for rank
/// 0).  Associative operators only; commutativity is NOT required.
template <class T, class Op>
void scan_exclusive(Cube& cube, DistBuffer<T>& buf, const SubcubeSet& sc,
                    Op op) {
  if (sc.k() == 0) {
    for (proc_t q = 0; q < cube.procs(); ++q)
      kern::fill(buf.tile(q), op.identity());
    return;
  }
  VMP_TRACE(cube, "scan");
  const auto batch = cube.session();
  const std::size_t n = max_local_len(cube, buf);
  DistBuffer<T> prefix(cube);
  DistBuffer<T> total(cube);
  prefix.reserve_each(n);
  total.reserve_each(n);
  cube.each_proc([&](proc_t q) {
    prefix.assign(q, buf.len(q), op.identity());
    total.assign(q, buf.tile(q));
  });
  for (int j = 0; j < sc.k(); ++j) {
    const int d = sc.dim_of_rank_bit(j);
    cube.exchange<T>(
        d, [&](proc_t q) -> std::span<const T> { return total.tile(q); },
        [&](proc_t q, std::span<const T> in) {
          const bool iam_high = ((sc.rank(q) >> j) & 1u) != 0;
          const std::span<T> pre = prefix.tile(q);
          const std::span<T> tot = total.tile(q);
          VMP_ASSERT(in.size() == tot.size(), "scan length mismatch");
          for (std::size_t t = 0; t < tot.size(); ++t) {
            if (iam_high) {
              pre[t] = op.combine(in[t], pre[t]);
              tot[t] = op.combine(in[t], tot[t]);
            } else {
              tot[t] = op.combine(tot[t], in[t]);
            }
          }
        });
    cube.clock().charge_compute_step(2 * n, 2 * n * cube.procs());
  }
  buf.swap(prefix);  // O(1) arena exchange, no per-tile copies
}

// ---------------------------------------------------------------------------
// Combining dimension-order routing (irregular redistribution).
// ---------------------------------------------------------------------------

/// One routed element: destination processor, a caller-defined tag (e.g. a
/// local slot), and the payload.
template <class T>
struct RouteItem {
  proc_t dst = 0;
  std::uint64_t tag = 0;
  T value{};
};

/// Deliver every item to its destination processor using dimension-ordered
/// routing with message combining: k rounds, and in each round a processor
/// sends ALL items whose destination differs in the current bit as one
/// message (one start-up).  This is the optimized, block-transfer
/// counterpart of the naive per-packet router in comm/router.hpp.
/// Destinations must lie in the source's subcube.
template <class T>
void route_within(Cube& cube, DistBuffer<RouteItem<T>>& items,
                  const SubcubeSet& sc) {
  VMP_TRACE(cube, "route_within");
  const auto batch = cube.session();
  for (proc_t q = 0; q < cube.procs(); ++q)
    for (const RouteItem<T>& it : items.tile(q))
      VMP_REQUIRE(sc.subcube_id(it.dst) == sc.subcube_id(q),
                  "route_within destination escapes the subcube");
  DistBuffer<RouteItem<T>> outbox(cube);
  for (int j = 0; j < sc.k(); ++j) {
    const int d = sc.dim_of_rank_bit(j);
    const std::uint32_t bit = 1u << d;
    cube.each_proc([&](proc_t q) {
      const std::span<RouteItem<T>> mine = items.tile(q);
      outbox.clear(q);
      std::size_t w = 0;
      for (std::size_t t = 0; t < mine.size(); ++t) {
        if ((mine[t].dst & bit) != (q & bit)) {
          outbox.push_back(q, mine[t]);
        } else {
          mine[w++] = mine[t];
        }
      }
      items.resize(q, w);
    });
    // Delivery appends the partner's outbox: reserve the post-round
    // capacity on the host thread before the exchange.
    std::size_t cap = 0;
    for (proc_t q = 0; q < cube.procs(); ++q)
      cap = std::max(cap, items.len(q) + outbox.len(q ^ bit));
    items.reserve_each(cap);
    cube.exchange<RouteItem<T>>(
        d,
        [&](proc_t q) -> std::span<const RouteItem<T>> {
          return outbox.tile(q);
        },
        [&](proc_t q, std::span<const RouteItem<T>> in) {
          items.append(q, in);
        });
  }
  for (proc_t q = 0; q < cube.procs(); ++q)
    for (const RouteItem<T>& it : items.tile(q))
      VMP_ASSERT(it.dst == q, "route_within left an item undelivered");
}

}  // namespace vmp
