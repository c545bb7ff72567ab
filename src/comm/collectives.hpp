/// \file collectives.hpp
/// \brief Collective communication on the Boolean cube, the substrate the
///        four primitives are built from.
///
/// Every collective runs concurrently and independently in all subcubes of
/// a SubcubeSet, uses only one-port cube-edge exchanges, and charges the
/// simulated clock per lockstep round.  The algorithms are the classical
/// ones from the hypercube literature the paper cites (Johnsson & Ho,
/// "Optimum Broadcasting and Personalized Communication in Hypercubes"):
///
///  * broadcast            — spanning binomial tree: k(τ + n·t_c)
///  * broadcast_sag        — scatter + all-gather:   2k·τ + ~2n·t_c
///  * reduce_to_rank       — binomial-tree combine:  k(τ + n·t_c) + k·n·t_a
///  * allreduce (doubling) — recursive doubling:     k(τ + n·t_c) + k·n·t_a
///  * reduce_scatter       — recursive halving:      k·τ + ~n·t_c + ~n·t_a
///  * allgather            — recursive doubling:     k·τ + ~n·t_c
///  * allreduce_rsag       — halving + doubling:     2k·τ + ~2n·t_c + n·t_a
///  * broadcast_pipelined  — segment pipeline: (k+S-1)(τ + ⌈n/S⌉·t_c)
///  * allreduce_pipelined  — segmented doubling, same round count + k·n·t_a
///  * scan_* (prefix)      — rank-ordered parallel prefix, k rounds
///  * route_within         — combining dimension-order routing, k rounds
///
/// (k = subcube dimension, n = per-processor data, per subcube.)
/// The reduce-scatter/all-gather forms are what make the paper's reduce and
/// distribute primitives processor-time optimal for m > p·lg p: the τ term
/// appears only lg p times while every element crosses an edge O(1) times.
/// `broadcast_auto` / `allreduce_auto` pick the cheaper variant by
/// evaluating the cost model with the machine's actual parameters — the
/// algorithm-selection discipline of the era's substrate papers.
///
/// Payload lengths may differ from subcube to subcube (they arise from
/// non-divisible matrix extents) but must agree within each subcube.
///
/// Collectives whose delivery callbacks GROW a tile (all-gather's appends,
/// broadcast's assigns, routing's inserts) pre-reserve the final capacity
/// on the host thread before entering the exchange — slab tiles may change
/// length concurrently but may not outgrow their stride off the host
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
/// root's payload to its members.  The doubling `allreduce` is the same
/// idea for a combine: its rounds are walked over the members' tiles and
/// one deliver step folds each subcube once.  Charges, statistics and
/// traces are those of the staged rounds; a FaultError leaves `buf` as it
/// was.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory_resource>
#include <span>
#include <tuple>
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
// All-reduce by recursive doubling.
// ---------------------------------------------------------------------------

/// Combine equal-length (per subcube) local arrays; on exit every member
/// holds the subcube-wide reduction.  Combines are applied in rank order,
/// so non-commutative (but associative) operators are supported.
///
/// Recursive doubling: after round i every member of an aligned group of
/// 2^(i+1) ranks holds op(low half's value, high half's value), so what
/// the rounds compute is fixed by the tiles they start from.  The k rounds
/// are therefore a charge walk — each one Cube::exchange_views over the
/// members' tiles, whose lengths the combines never change, then its
/// combine charge — and one uncharged deliver step folds each subcube's
/// tiles once in the doubling's tree (for w = 1, 2, 4, …, rank r ≡ 0
/// mod 2w takes op(tile(r), tile(r + w))) and copies the result into the
/// other members.  Results, charges, statistics and traces are those of the
/// staged rounds; nothing is staged, and a FaultError leaves `buf` as it
/// was.
template <class T, class Op>
void allreduce(Cube& cube, DistBuffer<T>& buf, const SubcubeSet& sc, Op op) {
  if (sc.k() == 0) return;
  VMP_TRACE(cube, "allreduce");
  const std::uint32_t mask = sc.mask();
  const proc_t P = cube.procs();
  std::size_t n = 0;
  std::uint64_t combines = 0;  // the fold's: each non-root tile's length
  for (proc_t q = 0; q < P; ++q) {
    VMP_ASSERT(buf.len(q) == buf.len(q & ~mask), "allreduce length mismatch");
    n = std::max(n, buf.len(q));
    if ((q & mask) != 0) combines += buf.len(q);
  }
  // Rank bit i is the i-th lowest dimension of the mask.
  for (std::uint32_t rest = mask; rest != 0; rest &= rest - 1) {
    const int d = std::countr_zero(rest);
    cube.exchange_views<T>(std::span<const int>(&d, 1), [&](auto&& fn) {
      for (proc_t q = 0; q < P; ++q) fn(d, q, std::span<const T>(buf.tile(q)));
    });
    cube.clock().charge_compute_step(n, n * P);
  }
  if (combines == 0) return;
  // The fold runs on each subcube's rank-0 member q0 (no mask bit set).
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

// ---------------------------------------------------------------------------
// Reduce-scatter by recursive halving.
// ---------------------------------------------------------------------------

/// On entry every subcube member holds the same-length array (length may
/// differ between subcubes); on exit the member with subcube rank r holds
/// the combined block [block_begin(n,P,r), block_begin(n,P,r+1)) of its
/// subcube's array and nothing else.  Combines are rank-ordered.
template <class T, class Op>
void reduce_scatter(Cube& cube, DistBuffer<T>& buf, const SubcubeSet& sc,
                    Op op) {
  if (sc.k() == 0) return;
  VMP_TRACE(cube, "reduce_scatter");
  const auto batch = cube.session();
  const std::uint32_t P = sc.size();
  std::vector<std::size_t> n_of(cube.procs());
  for (proc_t q = 0; q < cube.procs(); ++q) n_of[q] = buf.len(q);

  std::vector<unsigned char> got(cube.procs());
  for (int j = sc.k() - 1; j >= 0; --j) {
    const int d = sc.dim_of_rank_bit(j);
    const std::uint32_t half = 1u << j;
    const std::uint32_t width = half << 1;
    // Segment geometry for processor q at this level: (rank, seg_lo, split,
    // seg_hi) of the global range the processor currently covers.
    const auto geometry = [&](proc_t q) {
      const std::size_t n = n_of[q];
      const std::uint32_t r = sc.rank(q);
      const std::uint32_t lo_rank = r & ~(width - 1);
      const std::size_t seg_lo = block_begin(n, P, lo_rank);
      const std::size_t split = block_begin(n, P, lo_rank + half);
      const std::size_t seg_hi = block_begin(n, P, lo_rank + width);
      return std::tuple{r, seg_lo, split, seg_hi};
    };
    std::size_t max_kept = 0;
    std::uint64_t total_combines = 0;
    for (proc_t q = 0; q < cube.procs(); ++q) {
      const auto [r, seg_lo, split, seg_hi] = geometry(q);
      const std::size_t kept =
          ((r >> j) & 1u) == 0 ? split - seg_lo : seg_hi - split;
      max_kept = std::max(max_kept, kept);
      total_combines += kept;
    }
    std::fill(got.begin(), got.end(), 0);
    cube.exchange<T>(
        d,
        [&](proc_t q) -> std::span<const T> {
          const auto [r, seg_lo, split, seg_hi] = geometry(q);
          const std::span<const T> mine = buf.tile(q);
          VMP_ASSERT(mine.size() == seg_hi - seg_lo,
                     "reduce_scatter segment length mismatch");
          if (((r >> j) & 1u) == 0)  // keep front, send back half
            return mine.subspan(split - seg_lo);
          return mine.first(split - seg_lo);
        },
        [&](proc_t q, std::span<const T> in) {
          // Combine straight into the kept range while sliding it to the
          // front (the write index never passes the read index), so the
          // round needs no incoming staging buffer and no per-round
          // scratch — the steady-state loop is allocation-free.  The
          // trailing resize only shrinks, so it is delivery-safe.
          const auto [r, seg_lo, split, seg_hi] = geometry(q);
          const std::span<T> mine = buf.tile(q);
          const bool low = ((r >> j) & 1u) == 0;
          const std::size_t kept_off = low ? 0 : split - seg_lo;
          const std::size_t kept_len = low ? split - seg_lo : seg_hi - split;
          VMP_ASSERT(in.size() == kept_len,
                     "reduce_scatter incoming length mismatch");
          for (std::size_t t = 0; t < kept_len; ++t) {
            const T& a = mine[kept_off + t];
            mine[t] = low ? op.combine(a, in[t]) : op.combine(in[t], a);
          }
          buf.resize(q, kept_len);
          got[q] = 1;
        });
    // Degenerate case: the partner's copy of the kept block was empty, so
    // no message arrived — still shrink to the kept range, uncombined.
    cube.each_proc([&](proc_t q) {
      if (got[q]) return;
      const auto [r, seg_lo, split, seg_hi] = geometry(q);
      const std::span<T> mine = buf.tile(q);
      const bool low = ((r >> j) & 1u) == 0;
      const std::size_t kept_off = low ? 0 : split - seg_lo;
      const std::size_t kept_len = low ? split - seg_lo : seg_hi - split;
      if (kept_off != 0)
        kern::copy(std::span<const T>(mine.subspan(kept_off, kept_len)),
                   mine.first(kept_len));
      buf.resize(q, kept_len);
    });
    cube.clock().charge_compute_step(max_kept, total_combines);
  }
}

// ---------------------------------------------------------------------------
// All-gather by recursive doubling.
// ---------------------------------------------------------------------------

/// Inverse of reduce_scatter's data layout: on entry the member with rank
/// r holds block r of a block partition of its subcube's total `n_of(q)`;
/// on exit every member holds the full concatenation in block order.
template <class T, class NFn>
void allgather(Cube& cube, DistBuffer<T>& buf, const SubcubeSet& sc,
               NFn n_of) {
  if (sc.k() == 0) return;
  VMP_TRACE(cube, "allgather");
  const auto batch = cube.session();
  // Delivery appends/prepends into the tiles: reserve the assembled length
  // up front so no round needs to grow the arena mid-exchange.
  std::size_t cap = 0;
  for (proc_t q = 0; q < cube.procs(); ++q)
    cap = std::max(cap, static_cast<std::size_t>(n_of(q)));
  buf.reserve_each(cap);
  for (int j = 0; j < sc.k(); ++j) {
    const int d = sc.dim_of_rank_bit(j);
    cube.exchange<T>(
        d, [&](proc_t q) -> std::span<const T> { return buf.tile(q); },
        [&](proc_t q, std::span<const T> in) {
          if (((sc.rank(q) >> j) & 1u) == 0) {
            buf.append(q, in);  // partner higher
          } else {
            buf.prepend(q, in);  // partner lower
          }
        });
  }
  for (proc_t q = 0; q < cube.procs(); ++q) {
    VMP_ASSERT(buf.len(q) == n_of(q),
               "allgather did not assemble the expected length");
  }
}

/// Uniform-length convenience overload.
template <class T>
void allgather(Cube& cube, DistBuffer<T>& buf, const SubcubeSet& sc,
               std::size_t n) {
  allgather(cube, buf, sc, [n](proc_t) { return n; });
}

/// Reduce-scatter followed by all-gather: the bandwidth-optimal all-reduce
/// for long arrays.
template <class T, class Op>
void allreduce_rsag(Cube& cube, DistBuffer<T>& buf, const SubcubeSet& sc,
                    Op op) {
  if (sc.k() == 0) return;
  VMP_TRACE(cube, "allreduce_rsag");
  const auto batch = cube.session();
  std::vector<std::size_t> n_of(cube.procs());
  for (proc_t q = 0; q < cube.procs(); ++q) n_of[q] = buf.len(q);
  reduce_scatter(cube, buf, sc, op);
  allgather(cube, buf, sc, [&](proc_t q) { return n_of[q]; });
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
/// all-port exchange of ~n/S elements instead of a one-port exchange of n.
/// Combines follow the exact rank-ordered rule of `allreduce`, applied per
/// segment — elementwise the combining sequence is identical, so results
/// are bit-identical to recursive doubling (non-commutative ops included).
/// (k+S-1)(τ + ⌈n/S⌉·t_c) + k·n·t_a: beats doubling once k·τ dominates.
template <class T, class Op>
void allreduce_pipelined(Cube& cube, DistBuffer<T>& buf, const SubcubeSet& sc,
                         Op op, std::uint32_t nseg) {
  if (sc.k() == 0) return;
  VMP_REQUIRE(nseg >= 1, "allreduce_pipelined needs at least one segment");
  VMP_TRACE(cube, "allreduce_pipelined");
  const auto batch = cube.session();
  const int k = sc.k();
  const std::uint32_t S = nseg;
  const detail::SegmentTable geo(cube.procs(), S, [&](std::size_t q) {
    return buf.len(static_cast<proc_t>(q));
  });
  std::array<int, detail::kMaxPipelinePorts> dims{};
  std::array<std::uint32_t, detail::kMaxPipelinePorts> segs{};
  for (int t = 0; t < k + static_cast<int>(S) - 1; ++t) {
    const std::uint32_t s_lo =
        t >= k ? static_cast<std::uint32_t>(t - k + 1) : 0;
    const std::uint32_t s_hi = std::min<std::uint32_t>(
        S - 1, static_cast<std::uint32_t>(t));
    std::size_t ports = 0;
    for (std::uint32_t s = s_lo; s <= s_hi; ++s, ++ports) {
      dims[ports] = sc.dim_of_rank_bit(t - static_cast<int>(s));
      segs[ports] = s;
    }
    cube.exchange_allport<T>(
        std::span<const int>(dims.data(), ports),
        [&](proc_t q, std::size_t idx) -> std::span<const T> {
          return geo.segment(std::span<const T>(buf.tile(q)), q, segs[idx]);
        },
        [&](proc_t q, std::size_t idx, std::span<const T> in) {
          const std::span<T> seg = geo.segment(buf.tile(q), q, segs[idx]);
          VMP_ASSERT(in.size() == seg.size(),
                     "allreduce_pipelined segment length mismatch");
          if (bit_of(q, dims[idx]) != 0)
            kern::zip_swapped(seg, in, kern::op_fn(op));
          else
            kern::zip(seg, in, kern::op_fn(op));
        });
    // This round combined the contiguous range [seg s_lo, seg s_hi] on
    // every processor; charge its per-processor max like `allreduce` does.
    std::size_t max_comb = 0;
    std::uint64_t total_comb = 0;
    for (proc_t q = 0; q < cube.procs(); ++q) {
      const std::size_t len = geo.cut(q, s_hi + 1) - geo.cut(q, s_lo);
      max_comb = std::max(max_comb, len);
      total_comb += len;
    }
    cube.clock().charge_compute_step(max_comb, total_comb);
  }
}

/// Model-driven choice between recursive doubling, reduce-scatter /
/// all-gather, and the segment pipeline, evaluated with the machine's
/// actual cost parameters.  The pipeline is picked only when its model is
/// strictly cheaper than both exact variants (its actual charge never
/// exceeds the model, so the selection can only improve on the minimum).
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
// Reduce to one rank (binomial tree, mirror image of broadcast).
// ---------------------------------------------------------------------------

/// Combine equal-length arrays onto the member with rank `root_rank`.
/// Requires a commutative operator (combining order follows the tree, not
/// global rank order).  Non-roots' arrays are left holding partial sums.
template <class T, class Op>
void reduce_to_rank(Cube& cube, DistBuffer<T>& buf, const SubcubeSet& sc,
                    Op op, std::uint32_t root_rank) {
  if (sc.k() == 0) return;
  VMP_TRACE(cube, "reduce_to_rank");
  const auto batch = cube.session();
  VMP_REQUIRE(root_rank < sc.size(), "reduce root rank out of range");
  const std::size_t n = max_local_len(cube, buf);
  for (int j = 0; j < sc.k(); ++j) {
    const int d = sc.dim_of_rank_bit(j);
    cube.exchange<T>(
        d,
        [&](proc_t q) -> std::span<const T> {
          const std::uint32_t rr = sc.rank(q) ^ root_rank;
          if ((rr & ((2u << j) - 1u)) == (1u << j))  // low bits 0, bit j set
            return buf.tile(q);
          return {};
        },
        [&](proc_t q, std::span<const T> in) {
          const std::span<T> mine = buf.tile(q);
          VMP_ASSERT(in.size() == mine.size(), "reduce length mismatch");
          kern::zip(mine, in, kern::op_fn(op));
        });
    cube.clock().charge_compute_step(n, n * (cube.procs() >> (j + 1)));
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

/// Inclusive scan: rank r holds the combination of ranks 0..r.
template <class T, class Op>
void scan_inclusive(Cube& cube, DistBuffer<T>& buf, const SubcubeSet& sc,
                    Op op) {
  DistBuffer<T> orig(buf);
  scan_exclusive(cube, buf, sc, op);
  const std::size_t n = max_local_len(cube, buf);
  cube.compute(n, [&](proc_t q) {
    kern::zip(buf.tile(q), orig.tile(q), kern::op_fn(op));
  });
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
