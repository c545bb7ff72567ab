#include "algorithms/matmul.hpp"

#include <limits>

#include "comm/shift.hpp"
#include "core/elementwise.hpp"
#include "core/kernels.hpp"
#include "core/primitives.hpp"

namespace vmp {

DistMatrix<double> matmul(const DistMatrix<double>& A,
                          const DistMatrix<double>& B) {
  VMP_REQUIRE(&A.grid() == &B.grid(), "operands live on different grids");
  VMP_REQUIRE(A.ncols() == B.nrows(), "inner dimensions must agree");
  Grid& grid = A.grid();
  DistMatrix<double> C(grid, A.nrows(), B.ncols(),
                       MatrixLayout{A.layout().rows, B.layout().cols});
  for (std::size_t k = 0; k < A.ncols(); ++k) {
    // Column k of A, replicated across grid columns; row k of B,
    // replicated across grid rows — exactly what the local rank-1
    // accumulation needs.
    const DistVector<double> a = extract(A, Axis::Col, k);
    const DistVector<double> b = extract(B, Axis::Row, k);
    VMP_ASSERT(a.part() == C.layout().rows && b.part() == C.layout().cols,
               "panel partitions must match the result embedding");
    rank1_update(C, 1.0, a, b);
  }
  return C;
}

DistMatrix<double> matmul_summa(const DistMatrix<double>& A,
                                const DistMatrix<double>& B) {
  VMP_REQUIRE(&A.grid() == &B.grid(), "operands live on different grids");
  VMP_REQUIRE(A.ncols() == B.nrows(), "inner dimensions must agree");
  VMP_REQUIRE(A.layout().cols == Part::Block && B.layout().rows == Part::Block,
              "matmul_summa needs Block partitioning of the reduction axis");
  Grid& grid = A.grid();
  Cube& cube = grid.cube();
  const std::size_t K = A.ncols();
  DistMatrix<double> C(grid, A.nrows(), B.ncols(),
                       MatrixLayout{A.layout().rows, B.layout().cols});

  // Panels are the intersection intervals of A's column-ownership blocks
  // and B's row-ownership blocks: within one interval the A-slice lives on
  // a single grid column and the B-slice on a single grid row, so each is
  // distributed by ONE broadcast.
  std::size_t k0 = 0;
  while (k0 < K) {
    const std::uint32_t Ac = A.colmap().owner(k0);
    const std::uint32_t Br = B.rowmap().owner(k0);
    const std::size_t a_end =
        block_begin(K, grid.pcols(), Ac) + A.colmap().size(Ac);
    const std::size_t b_end =
        block_begin(K, grid.prows(), Br) + B.rowmap().size(Br);
    const std::size_t k1 = std::min(a_end, b_end);
    const std::size_t w = k1 - k0;

    // A-slice: rows-local × w, copied out by the owning grid column and
    // broadcast along each grid row.
    DistBuffer<double> apanel(cube);
    const std::size_t a_lc0 = A.colmap().local(k0);
    const std::size_t a_rows_max =
        (A.nrows() + grid.prows() - 1) / grid.prows();
    apanel.reserve_each(a_rows_max * w);
    cube.compute(a_rows_max * w, A.nrows() * w, [&](proc_t q) {
      apanel.assign(q, A.lrows(q) * w, 0.0);
      if (grid.pcol(q) != Ac) return;
      const std::size_t lcn = A.lcols(q);
      const std::span<const double> blk = A.block(q);
      const std::span<double> ap = apanel.tile(q);
      for (std::size_t lr = 0; lr < A.lrows(q); ++lr)
        kern::copy(blk.subspan(lr * lcn + a_lc0, w), ap.subspan(lr * w, w));
    });
    broadcast_auto(cube, apanel, grid.within_row(), Ac,
                   [&](proc_t q) { return A.lrows(q) * w; });

    // B-slice: w × cols-local, broadcast along each grid column.
    DistBuffer<double> bpanel(cube);
    const std::size_t b_lr0 = B.rowmap().local(k0);
    const std::size_t b_cols_max =
        (B.ncols() + grid.pcols() - 1) / grid.pcols();
    bpanel.reserve_each(b_cols_max * w);
    cube.compute(b_cols_max * w, B.ncols() * w, [&](proc_t q) {
      bpanel.assign(q, w * B.lcols(q), 0.0);
      if (grid.prow(q) != Br) return;
      const std::size_t lcn = B.lcols(q);
      const std::span<const double> blk = B.block(q);
      const std::span<double> bp = bpanel.tile(q);
      for (std::size_t kk = 0; kk < w; ++kk)
        kern::copy(blk.subspan((b_lr0 + kk) * lcn, lcn),
                   bp.subspan(kk * lcn, lcn));
    });
    broadcast_auto(cube, bpanel, grid.within_col(), Br,
                   [&](proc_t q) { return w * B.lcols(q); });

    // Local GEMM accumulate.
    cube.compute(2 * C.max_block() * w, 2 * C.nrows() * C.ncols() * w,
                 [&](proc_t q) {
                   const std::size_t lrn = C.lrows(q), lcn = C.lcols(q);
                   std::span<double> cblk = C.block(q);
                   const std::span<const double> ap = apanel.tile(q);
                   const std::span<const double> bp = bpanel.tile(q);
                   for (std::size_t lr = 0; lr < lrn; ++lr)
                     kern::axpy_rows(cblk.subspan(lr * lcn, lcn),
                                     ap.subspan(lr * w, w), bp, lcn);
                 });
    k0 = k1;
  }
  return C;
}

namespace {

/// The hyper-systolic shift-base schedule on a d-cube ring: K = 2^⌈d/2⌉
/// stored copies (the base {0, 1, …, K−1} of unit strides) times
/// L = p / K streaming phases of stride K.  The residues a + b·K for
/// a ∈ [0, K), b ∈ [0, L) cover every ring offset exactly once, so each
/// processor computes each (row-block, reduction-block) pair exactly once.
struct HyperPlan {
  std::uint32_t P = 1;
  std::uint32_t K = 1;
  std::uint32_t L = 1;
};

[[nodiscard]] HyperPlan hyper_plan(int d) {
  HyperPlan h;
  h.P = proc_t{1} << d;
  h.K = proc_t{1} << ((d + 1) / 2);
  h.L = h.P / h.K;
  return h;
}

[[nodiscard]] bool hyper_eligible(const DistMatrix<double>& A,
                                  const DistMatrix<double>& B) {
  return A.grid().pcols() == 1 && A.layout().rows == Part::Block &&
         B.layout().rows == Part::Block;
}

[[nodiscard]] bool summa_eligible(const DistMatrix<double>& A,
                                  const DistMatrix<double>& B) {
  return A.layout().cols == Part::Block && B.layout().rows == Part::Block;
}

}  // namespace

DistMatrix<double> matmul_hyper(const DistMatrix<double>& A,
                                const DistMatrix<double>& B) {
  VMP_REQUIRE(&A.grid() == &B.grid(), "operands live on different grids");
  VMP_REQUIRE(A.ncols() == B.nrows(), "inner dimensions must agree");
  VMP_REQUIRE(A.grid().pcols() == 1,
              "matmul_hyper runs on a 1-D (row-partitioned) grid");
  VMP_REQUIRE(A.layout().rows == Part::Block && B.layout().rows == Part::Block,
              "matmul_hyper needs Block row partitioning of both operands");
  Grid& grid = A.grid();
  Cube& cube = grid.cube();
  SimClock& clock = cube.clock();
  const HyperPlan hp = hyper_plan(cube.dim());
  const std::uint32_t P = hp.P, K = hp.K, L = hp.L;
  const std::size_t kk = A.ncols(), m = B.ncols();
  DistMatrix<double> C(grid, A.nrows(), m,
                       MatrixLayout{Part::Block, B.layout().cols});
  VMP_TRACE(cube, "matmul_hyper");
  const SubcubeSet ring = grid.whole();

  // Ring geometry: position r lives on processor gray_encode(r); on a 1-D
  // grid the processor index IS the block-row index, so the block-row at
  // ring position r is gray_encode(r mod P) (callers add P before they
  // subtract).
  const auto row_at = [&](std::uint32_t pos) -> proc_t {
    return ring_proc(RingOrder::Gray, pos & (P - 1));
  };
  const auto pos_of = [](proc_t q) { return ring_pos(RingOrder::Gray, q); };

  // The charge walk: every step of the machine's schedule, charged in its
  // order and regions; each shift carries blocks A, B or C already hold,
  // and the host allocates and computes nothing.  Replicate: copy a at
  // position r holds A's block-row row_at(r − a), copy a−1 shifted by +1.
  {
    VMP_TRACE(cube, "hyper_replicate");
    for (std::uint32_t a = 0; a < K; ++a) {
      clock.charge_compute_step(A.max_block(), A.nrows() * kk);
      if (a != 0)
        shift_views<double>(cube, ring, 1, [&](proc_t q) {
          return A.block(row_at(pos_of(q) + P - (a - 1)));
        });
    }
  }
  // Staging B; zeroing the K C-partials (partial a at r is row_at(r − a)).
  clock.charge_compute_step(B.max_block(), kk * m);
  clock.charge_compute_step(std::uint64_t{K} * C.max_block(),
                            std::uint64_t{K} * A.nrows() * m);

  // Systolic phases: in phase b the B copy at position r holds block-row
  // row_at(r − b·K), and copy a adds A[R1][:, rows(R2)] · B[R2] into
  // partial a.
  {
    VMP_TRACE(cube, "hyper_stream");
    for (std::uint32_t b = 0; b < L; ++b) {
      if (b != 0)
        shift_views<double>(cube, ring, static_cast<int>(K), [&](proc_t q) {
          return B.block(row_at(pos_of(q) + P - (b - 1) * K));
        });
      std::uint64_t maxf = 0, totf = 0;
      cube.each_proc([&](proc_t q) {
        const std::uint32_t r = pos_of(q);
        const std::uint64_t w = B.rowmap().size(row_at(r + P - b * K));
        std::uint64_t f = 0;
        for (std::uint32_t a = 0; a < K; ++a)
          f += 2 * A.rowmap().size(row_at(r + P - a)) * w * m;
        totf += f;
        maxf = std::max(maxf, f);
      });
      clock.charge_compute_step(maxf, totf);
    }
  }

  // Combine: the accumulator (partial K − 1) shifts back one position per
  // step — before shift i it is block-row row_at(r + i − K), C's block of
  // that row in length — and adds the next partial; then a copy into C.
  {
    VMP_TRACE(cube, "hyper_combine");
    for (std::uint32_t i = 1; i < K; ++i) {
      shift_views<double>(cube, ring, -1, [&](proc_t q) {
        return std::span<const double>(C.block(row_at(pos_of(q) + P + i - K)));
      });
      clock.charge_compute_step(C.max_block(), A.nrows() * m);
    }
    clock.charge_compute_step(C.max_block(), A.nrows() * m);
  }

  // The product, one uncharged step after every shift got through: owner q
  // of block-row q at position r builds partial a — what position r + a
  // computes, phases ascending — from +0.0, and adds the partials from
  // a = K − 1 down, as the combine does, so every element sees the
  // schedule's operations in its order.  Partial K − 1 accumulates in C's
  // block, the others in a scratch tile.
  DistBuffer<double> part(cube);
  part.reserve_each(C.max_block());
  cube.deliver({.flops = 2 * A.nrows() * kk * m}, [&](proc_t q) {
    const std::uint32_t r = pos_of(q);
    const std::span<const double> arows = A.block(q);
    const std::span<double> cblk = C.block(q);
    for (std::uint32_t a = K; a-- > 0;) {
      if (a != K - 1) part.assign(q, cblk.size(), 0.0);
      const std::span<double> acc = a == K - 1 ? cblk : part.tile(q);
      for (std::uint32_t b = 0; b < L; ++b) {
        const proc_t R2 = row_at(r + a + P - b * K);
        const std::size_t w = B.rowmap().size(R2);
        if (w == 0) continue;
        // A's columns are whole on a 1-D grid (pcols == 1), so B's global
        // row range is directly A's local column range.
        const std::size_t c0 = B.rowmap().global_begin(R2);
        for (std::size_t lr = 0; lr < A.lrows(q); ++lr)
          kern::axpy_rows(acc.subspan(lr * m, m),
                          arows.subspan(lr * kk + c0, w), B.block(R2), m);
      }
      if (a != K - 1) kern::axpy(cblk, 1.0, std::span<const double>(acc));
    }
  });
  return C;
}

namespace {

/// First-order topology correction for the broadcast terms of the cost
/// models: the average per-logical-edge route dilation in start-up and
/// serialized-element units.  Exactly {1, 1} on unit-hop presets; the
/// shift terms don't use this — they follow the physical routes exactly
/// via shift_cost_model.
struct CommScale {
  double startup = 1.0;
  double elems = 1.0;
};

[[nodiscard]] CommScale comm_scale(Cube& cube) {
  if (cube.unit_hop() || cube.dim() == 0) return {};
  const Topology& topo = cube.topology();
  double su = 0.0, el = 0.0;
  std::size_t n = 0;
  std::vector<Hop> hops;
  for (int d = 0; d < cube.dim(); ++d)
    for (proc_t q = 0; q < cube.procs(); ++q) {
      hops.clear();
      topo.route(q, q ^ (proc_t{1} << d), hops);
      double s = 0.0, e = 0.0;
      for (const Hop& h : hops) {
        const AxisCharge c = topo.axis_charge(h.axis);
        s += c.startup_mult;
        e += c.per_elem_mult;
      }
      su += s;
      el += e;
      ++n;
    }
  return CommScale{su / static_cast<double>(n), el / static_cast<double>(n)};
}

/// Broadcast of `len` elements over a k-dimensional subcube: the cheaper
/// of binomial-tree and scatter-allgather, the same pair broadcast_auto
/// models (pipelining refinements shift both backends equally and are
/// ignored here — the selector needs rank order, not absolute time).
[[nodiscard]] double bcast_model(const CostParams& cp, const CommScale& s,
                                 int kdims, double len) {
  if (kdims == 0 || len <= 0.0) return 0.0;
  const double tau = cp.startup_us * s.startup;
  const double tc = cp.per_elem_us * s.elems;
  const double bin = kdims * (tau + len * tc);
  const double sag = 2.0 * kdims * tau + 2.0 * len * tc;
  return std::min(bin, sag);
}

[[nodiscard]] constexpr double ceil_div(std::size_t n, std::uint32_t p) {
  return static_cast<double>((n + p - 1) / p);
}

}  // namespace

MatmulCost matmul_cost(const DistMatrix<double>& A,
                       const DistMatrix<double>& B) {
  VMP_REQUIRE(&A.grid() == &B.grid(), "operands live on different grids");
  VMP_REQUIRE(A.ncols() == B.nrows(), "inner dimensions must agree");
  Grid& grid = A.grid();
  Cube& cube = grid.cube();
  const CostParams& cp = cube.costs();
  const CommScale sc = comm_scale(cube);
  const double ta = cp.flop_us;
  const std::size_t n = A.nrows(), kk = A.ncols(), m = B.ncols();
  const std::uint32_t pr = grid.prows(), pc = grid.pcols();
  const double lr_max = ceil_div(n, pr);   // C/A rows per processor
  const double lc_max = ceil_div(m, pc);   // C/B cols per processor
  MatmulCost out;

  // Rank-1: per reduction index, one column extract (copy + broadcast
  // across grid columns), one row extract (copy + broadcast across grid
  // rows) and a local rank-1 update.
  out.rank1 = static_cast<double>(kk) *
              (lr_max * ta + bcast_model(cp, sc, grid.col_dims(), lr_max) +
               lc_max * ta + bcast_model(cp, sc, grid.row_dims(), lc_max) +
               2.0 * lr_max * lc_max * ta);

  // SUMMA: walk the real panel intervals and price each panel's two
  // broadcasts, copy-outs and local GEMM.
  if (summa_eligible(A, B)) {
    double c = 0.0;
    std::size_t k0 = 0;
    while (k0 < kk) {
      const std::uint32_t Ac = A.colmap().owner(k0);
      const std::uint32_t Br = B.rowmap().owner(k0);
      const std::size_t a_end = block_begin(kk, pc, Ac) + A.colmap().size(Ac);
      const std::size_t b_end = block_begin(kk, pr, Br) + B.rowmap().size(Br);
      const std::size_t k1 = std::min(a_end, b_end);
      const double w = static_cast<double>(k1 - k0);
      c += lr_max * w * ta + bcast_model(cp, sc, grid.col_dims(), lr_max * w);
      c += w * lc_max * ta + bcast_model(cp, sc, grid.row_dims(), w * lc_max);
      c += 2.0 * lr_max * lc_max * w * ta;
      k0 = k1;
    }
    out.summa = c;
  } else {
    out.summa = std::numeric_limits<double>::infinity();
  }

  // Hyper-systolic: K−1 unit A-shifts, L−1 stride-K B-shifts, K−1 unit
  // combine shifts + adds, plus the staging copies and the phase GEMMs —
  // shift terms priced on the physical topology by shift_cost_model.
  if (hyper_eligible(A, B)) {
    const HyperPlan hp = hyper_plan(cube.dim());
    const SubcubeSet ring = grid.whole();
    const double maxA = ceil_div(n, hp.P) * static_cast<double>(kk);
    const double maxB = ceil_div(kk, hp.P) * static_cast<double>(m);
    const double maxC = ceil_div(n, hp.P) * static_cast<double>(m);
    double c = maxA * ta + maxB * ta + hp.K * maxC * ta;  // staging + zeroing
    c += (hp.K - 1) *
         (maxA * ta + shift_cost_model(cube, ring, 1,
                                       static_cast<std::size_t>(maxA)));
    c += (hp.L - 1) * shift_cost_model(cube, ring, static_cast<int>(hp.K),
                                       static_cast<std::size_t>(maxB));
    c += static_cast<double>(hp.L) * 2.0 * hp.K * ceil_div(n, hp.P) *
         ceil_div(kk, hp.P) * static_cast<double>(m) * ta;
    c += (hp.K - 1) *
         (shift_cost_model(cube, ring, -1, static_cast<std::size_t>(maxC)) +
          maxC * ta);
    c += maxC * ta;  // final copy into C
    out.hyper = c;
  } else {
    out.hyper = std::numeric_limits<double>::infinity();
  }
  return out;
}

DistMatrix<double> matmul_auto(const DistMatrix<double>& A,
                               const DistMatrix<double>& B) {
  const MatmulCost c = matmul_cost(A, B);
  if (c.hyper <= c.summa && c.hyper <= c.rank1) return matmul_hyper(A, B);
  if (c.summa <= c.rank1) return matmul_summa(A, B);
  return matmul(A, B);
}

}  // namespace vmp
