// Tests: the hyper-systolic matmul backend and the matmul_auto cost-model
// selector — conformance twin-sweep over all three backends (with and
// without fault plans), the charge walk + product step against the staged
// schedule it replaced (HyperTwin), bitwise determinism across thread
// counts and repeats, the O(√p) communication-volume claim, and the
// selector picking the cheaper backend on both sides of the crossover.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/matmul.hpp"
#include "comm/shift.hpp"
#include "fault/fault.hpp"
#include "obs/trace.hpp"
#include "util/workloads.hpp"
#include "param_printers.hpp"

namespace vmp {
namespace {

// Cost-crossover goldens assume the paper machine: pin the hypercube
// preset so the CI mesh leg (VMP_TOPOLOGY=mesh) leaves the charges alone.
Cube::Options pin_hypercube() {
  Cube::Options o;
  o.topology = TopologyKind::Hypercube;
  return o;
}

std::vector<double> host_gemm(const std::vector<double>& a,
                              const std::vector<double>& b, std::size_t n,
                              std::size_t k, std::size_t m) {
  std::vector<double> c(n * m, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t t = 0; t < k; ++t)
      for (std::size_t j = 0; j < m; ++j)
        c[i * m + j] += a[i * k + t] * b[t * m + j];
  return c;
}

// ---------------------------------------------------------------------------
// Conformance twin-sweep: all three backends on the same 1-D grid, checked
// against the host GEMM and against each other, with and without faults.
// ---------------------------------------------------------------------------

class HyperSweep : public ::testing::TestWithParam<
                       std::tuple<int, std::size_t, std::size_t, std::size_t,
                                  bool>> {};

TEST_P(HyperSweep, AllBackendsMatchHostGemm) {
  const auto [d, n, k, m, faults] = GetParam();
  Cube cube(d, CostParams::cm2());
  // Rates low enough that no message plausibly exhausts the retry budget
  // across the ~10^4 deliveries of the three-backend sweep.
  if (faults)
    cube.enable_faults(FaultPlan::transient(23, /*drop=*/0.05,
                                            /*corrupt=*/0.02));
  Grid grid(cube, d, 0);  // 1-D: every processor owns a full-width row block
  const std::vector<double> ha = random_matrix(n, k, 411);
  const std::vector<double> hb = random_matrix(k, m, 412);
  DistMatrix<double> A(grid, n, k);
  DistMatrix<double> B(grid, k, m);
  A.load(ha);
  B.load(hb);
  const std::vector<double> want = host_gemm(ha, hb, n, k, m);

  const std::vector<double> hyper = matmul_hyper(A, B).to_host();
  const std::vector<double> summa = matmul_summa(A, B).to_host();
  const std::vector<double> rank1 = matmul(A, B).to_host();
  const std::vector<double> autod = matmul_auto(A, B).to_host();
  for (std::size_t i = 0; i < n * m; ++i) {
    const double tol = 1e-11 * (1 + std::abs(want[i]));
    EXPECT_NEAR(hyper[i], want[i], tol) << "hyper i=" << i;
    EXPECT_NEAR(summa[i], want[i], tol) << "summa i=" << i;
    EXPECT_NEAR(rank1[i], want[i], tol) << "rank1 i=" << i;
    EXPECT_NEAR(autod[i], want[i], tol) << "auto i=" << i;
    // hyper vs SUMMA: same sum, different reduction order — the documented
    // round-off budget of docs/matmul.md, not bitwise equality.
    EXPECT_NEAR(hyper[i], summa[i], tol) << "hyper vs summa i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HyperSweep,
    ::testing::Values(std::tuple{0, 5ul, 7ul, 6ul, false},
                      std::tuple{1, 8ul, 8ul, 8ul, false},
                      std::tuple{2, 12ul, 10ul, 9ul, false},
                      std::tuple{3, 5ul, 9ul, 4ul, false},   // empty blocks
                      std::tuple{3, 17ul, 13ul, 11ul, false},
                      std::tuple{4, 32ul, 32ul, 32ul, false},
                      std::tuple{5, 40ul, 24ul, 16ul, false},
                      std::tuple{3, 17ul, 13ul, 11ul, true},
                      std::tuple{4, 32ul, 32ul, 32ul, true}));

// ---------------------------------------------------------------------------
// HyperTwin: matmul_hyper walks the staged schedule's charges over the
// operands' blocks and then computes each C block-row on its owner in one
// uncharged step.  The twin is that staged schedule, kept here as the
// reference: K stored copies of A made by shift_blocks, a staged B, K
// zeroed C-partials, the phase loop and the backward combine, each step a
// charged Cube::compute.  On a second cube with the same options and fault
// plan, the two must agree bit for bit in the result (signed zeros and NaN
// payloads included), in whether the call threw, in now_us, in the whole
// trace and in every SimStats field but the five pool and slab counters
// (the staged schedule allocates its copies, the walk allocates nothing).
// ---------------------------------------------------------------------------

DistMatrix<double> staged_hyper(const DistMatrix<double>& A,
                                const DistMatrix<double>& B) {
  Grid& grid = A.grid();
  Cube& cube = grid.cube();
  const std::uint32_t P = proc_t{1} << cube.dim();
  const std::uint32_t K = proc_t{1} << ((cube.dim() + 1) / 2);
  const std::uint32_t L = P / K;
  const std::size_t kk = A.ncols(), m = B.ncols();
  DistMatrix<double> C(grid, A.nrows(), m,
                       MatrixLayout{Part::Block, B.layout().cols});
  VMP_TRACE(cube, "matmul_hyper");
  const auto batch = cube.session();
  const SubcubeSet ring = grid.whole();
  const auto row_at = [&](std::uint32_t pos) -> proc_t {
    return ring_proc(RingOrder::Gray, pos & (P - 1));
  };

  // Copy a at ring position r holds block-row row_at(r − a).
  std::vector<DistBuffer<double>> acopy;
  acopy.reserve(K);
  {
    VMP_TRACE(cube, "hyper_replicate");
    for (std::uint32_t a = 0; a < K; ++a) {
      acopy.emplace_back(cube);
      acopy[a].reserve_each(A.max_block());
      DistBuffer<double>& cur = acopy[a];
      if (a == 0) {
        cube.compute(A.max_block(), A.nrows() * kk,
                     [&](proc_t q) { cur.assign(q, A.block(q)); });
      } else {
        const DistBuffer<double>& prev = acopy[a - 1];
        cube.compute(A.max_block(), A.nrows() * kk,
                     [&](proc_t q) { cur.assign(q, prev.tile(q)); });
        shift_blocks(cube, cur, ring, 1, RingOrder::Gray);
      }
    }
  }

  // One live copy of B; partial a at position r accumulates block-row
  // row_at(r − a).
  DistBuffer<double> bbuf(cube);
  bbuf.reserve_each(B.max_block());
  cube.compute(B.max_block(), kk * m,
               [&](proc_t q) { bbuf.assign(q, B.block(q)); });
  std::vector<DistBuffer<double>> cpart;
  cpart.reserve(K);
  for (std::uint32_t a = 0; a < K; ++a) {
    cpart.emplace_back(cube);
    cpart[a].reserve_each(C.max_block());
  }
  cube.compute(std::uint64_t{K} * C.max_block(),
               std::uint64_t{K} * A.nrows() * m, [&](proc_t q) {
                 const std::uint32_t r = ring_pos(RingOrder::Gray, q);
                 for (std::uint32_t a = 0; a < K; ++a)
                   cpart[a].assign(
                       q, A.rowmap().size(row_at(r + P - a)) * m, 0.0);
               });

  // Phase b: the live B copy at position r holds block-row row_at(r − bK).
  {
    VMP_TRACE(cube, "hyper_stream");
    for (std::uint32_t b = 0; b < L; ++b) {
      if (b != 0)
        shift_blocks(cube, bbuf, ring, static_cast<int>(K), RingOrder::Gray);
      std::uint64_t maxf = 0, totf = 0;
      cube.each_proc([&](proc_t q) {
        const std::uint32_t r = ring_pos(RingOrder::Gray, q);
        const std::uint64_t w = B.rowmap().size(row_at(r + P - b * K));
        std::uint64_t f = 0;
        for (std::uint32_t a = 0; a < K; ++a)
          f += 2 * A.rowmap().size(row_at(r + P - a)) * w * m;
        totf += f;
        maxf = std::max(maxf, f);
      });
      cube.compute(maxf, totf, [&](proc_t q) {
        const std::uint32_t r = ring_pos(RingOrder::Gray, q);
        const proc_t R2 = row_at(r + P - b * K);
        const std::size_t w = B.rowmap().size(R2);
        if (w == 0) return;
        const std::size_t c0 = B.rowmap().global_begin(R2);
        const std::span<const double> bp = bbuf.tile(q);
        for (std::uint32_t a = 0; a < K; ++a) {
          const std::size_t lra = A.rowmap().size(row_at(r + P - a));
          const std::span<const double> ap = acopy[a].tile(q);
          std::span<double> cp = cpart[a].tile(q);
          for (std::size_t lr = 0; lr < lra; ++lr)
            kern::axpy_rows(cp.subspan(lr * m, m), ap.subspan(lr * kk + c0, w),
                            bp, m);
        }
      });
    }
  }

  // Combine backwards: shift the accumulator back one position, add the
  // next copy's partial; it ends as C block-row row_at(r) on its owner.
  {
    VMP_TRACE(cube, "hyper_combine");
    DistBuffer<double>& acc = cpart[K - 1];
    for (std::uint32_t i = 1; i < K; ++i) {
      shift_blocks(cube, acc, ring, -1, RingOrder::Gray);
      const DistBuffer<double>& add = cpart[K - 1 - i];
      cube.compute(C.max_block(), A.nrows() * m, [&](proc_t q) {
        kern::axpy(acc.tile(q), 1.0, add.tile(q));
      });
    }
    cube.compute(C.max_block(), A.nrows() * m,
                 [&](proc_t q) { kern::copy(acc.tile(q), C.block(q)); });
  }
  return C;
}

enum class HyperFaults { None, Inert, Transient, DeadFirstLink, DeadNode };

/// random_matrix with special values planted.  The left operand's row 0 is
/// all −0.0 and the right operand's column 1 all positive, so C(0, 1) is a
/// sum of −0.0 products whose sign depends on every partial starting at
/// +0.0.  The right operand's first and last rows carry −inf and +inf in
/// column 2 (their products meet as inf − inf, the default NaN, in most
/// rows of C) and two NaNs with distinct payloads in column 3, whose
/// products reach C through different partials, so which payload
/// survives depends on the order the partials are combined in.  The other
/// columns stay finite.
[[nodiscard]] std::vector<double> seasoned_matrix(std::size_t rows,
                                                  std::size_t cols,
                                                  std::uint64_t seed,
                                                  bool left) {
  std::vector<double> v = random_matrix(rows, cols, seed);
  const auto at = [&](std::size_t i, std::size_t j) -> double& {
    return v[i * cols + j];
  };
  if (left) {
    for (std::size_t j = 0; j < cols; ++j) at(0, j) = -0.0;
    return v;
  }
  for (std::size_t i = 0; i < rows; ++i) at(i, 1) = std::abs(at(i, 1));
  at(0, 2) = -std::numeric_limits<double>::infinity();
  at(rows - 1, 2) = std::numeric_limits<double>::infinity();
  at(0, 3) = std::bit_cast<double>(0x7ff8000000000123ull);
  at(rows - 1, 3) = std::bit_cast<double>(0xfff8000000000456ull);
  return v;
}

[[nodiscard]] SimStats charge_fields(SimStats s) {
  s.pool_hits = s.pool_misses = s.alloc_bytes = 0;
  s.slab_allocs = s.slab_bytes = 0;
  return s;
}

struct HyperTally {
  int runs = 0;
  int throws = 0;
  std::uint64_t retries = 0;
  std::uint64_t reroutes = 0;
  std::uint64_t fanned_out = 0;  ///< team steps that ran on several lanes
};

void run_hyper_twin(TopologyKind kind, int d, std::size_t n, std::size_t k,
                    std::size_t m, HyperFaults plan, unsigned lanes,
                    HyperTally& tally) {
  Cube::Options opts;
  opts.threads = lanes;
  opts.topology = kind;
  Cube walked(d, CostParams::cm2(), opts);
  Cube staged(d, CostParams::cm2(), opts);
  const std::uint32_t K = proc_t{1} << ((d + 1) / 2);
  for (Cube* cube : {&walked, &staged}) {
    FaultPlan fp;
    if (plan == HyperFaults::Transient)
      fp = FaultPlan::transient(0x4e7au + static_cast<unsigned>(d), 0.1, 0.1,
                                0.1, 2.5);
    if (plan == HyperFaults::DeadFirstLink) {
      // The physical link the ring's first message (0 → 1) leaves on.
      std::vector<Hop> hops;
      cube->topology().route(0, 1, hops);
      fp.link_kills.push_back({/*from_round=*/0, hops.front().from,
                               hops.front().port});
    }
    // The K − 1 replicate rounds get through; the node dies one round
    // into the stream (into the combine where there is no stream).
    if (plan == HyperFaults::DeadNode)
      fp.node_kills.push_back({/*from_round=*/K, cube->procs() - 1});
    if (plan != HyperFaults::None) cube->enable_faults(fp);
    cube->clock().tracer().set_recording(true);
  }
  const std::vector<double> ha = seasoned_matrix(n, k, 461, true);
  const std::vector<double> hb = seasoned_matrix(k, m, 462, false);
  Grid gw(walked, d, 0), gs(staged, d, 0);
  DistMatrix<double> Aw(gw, n, k), Bw(gw, k, m), As(gs, n, k), Bs(gs, k, m);
  Aw.load(ha);
  Bw.load(hb);
  As.load(ha);
  Bs.load(hb);
  const SimStats walked0 = walked.clock().stats();
  const SimStats staged0 = staged.clock().stats();

  std::vector<double> cw, cs;
  bool walked_threw = false, staged_threw = false;
  try {
    cw = matmul_hyper(Aw, Bw).to_host();
  } catch (const FaultError&) {
    walked_threw = true;
  }
  try {
    cs = staged_hyper(As, Bs).to_host();
  } catch (const FaultError&) {
    staged_threw = true;
  }
  ++tally.runs;
  tally.throws += walked_threw ? 1 : 0;
  tally.retries += walked.clock().stats().fault_retries;
  tally.reroutes += walked.clock().stats().fault_reroutes;
  tally.fanned_out += walked.team().fanned_out();
  EXPECT_EQ(walked_threw, staged_threw);
  ASSERT_EQ(cw.size(), cs.size());
  if (!cw.empty())  // a product that threw returned nothing
    EXPECT_EQ(std::memcmp(cw.data(), cs.data(), cw.size() * sizeof(double)), 0)
        << "results differ in some bit";
  EXPECT_EQ(walked.clock().now_us(), staged.clock().now_us());
  const Tracer& tw = walked.clock().tracer();
  const Tracer& ts = staged.clock().tracer();
  EXPECT_TRUE(tw.paths() == ts.paths());
  EXPECT_TRUE(tw.events() == ts.events());
  EXPECT_TRUE(tw.spans() == ts.spans());
  EXPECT_TRUE(tw.self_profiles() == ts.self_profiles());
  EXPECT_TRUE(charge_fields(walked.clock().stats() - walked0) ==
              charge_fields(staged.clock().stats() - staged0));
}

class HyperTwin : public ::testing::TestWithParam<TopologyKind> {};

TEST_P(HyperTwin, ChargeWalkAndProductStepMatchTheStagedSchedule) {
  HyperTally tally;
  for (int d = 0; d <= 6; ++d) {
    const std::size_t P = std::size_t{1} << d;
    // n < P leaves blocks empty; k < P empties B blocks (w = 0 phases) and
    // 2P + 3 is no multiple of P; m = 37 runs axpy_rows' 32-column block
    // and both of its tails.  The last shape's product step passes the
    // inline flop cut from d = 5 on, so at 3 lanes it fans out.
    const std::size_t shapes[][3] = {{3, 2 * P + 3, 37},
                                     {2 * P + 1, 5, 37},
                                     {P + 2, P + 1, 6},
                                     {2 * P + 1, 2 * P + 3, 37}};
    for (const auto& [n, k, m] : shapes)
      for (const HyperFaults plan :
           {HyperFaults::None, HyperFaults::Inert, HyperFaults::Transient,
            HyperFaults::DeadFirstLink, HyperFaults::DeadNode}) {
        if (d == 0 && plan == HyperFaults::DeadFirstLink) continue;
        for (const unsigned lanes : {1u, 3u}) {
          SCOPED_TRACE("d=" + std::to_string(d) + " n=" + std::to_string(n) +
                       " k=" + std::to_string(k) + " m=" + std::to_string(m) +
                       " plan=" + std::to_string(static_cast<int>(plan)) +
                       " lanes=" + std::to_string(lanes));
          run_hyper_twin(GetParam(), d, n, k, m, plan, lanes, tally);
        }
      }
  }
  // The sweep reaches every recovery outcome — retries, detours and
  // products that throw — and product steps that fan out.
  EXPECT_GT(tally.retries, 0u);
  EXPECT_GT(tally.reroutes, 0u);
  EXPECT_GT(tally.throws, 0);
  EXPECT_LT(tally.throws, tally.runs);
  EXPECT_GT(tally.fanned_out, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Presets, HyperTwin,
    ::testing::Values(TopologyKind::Hypercube, TopologyKind::Mesh,
                      TopologyKind::Torus, TopologyKind::Dragonfly),
    [](const ::testing::TestParamInfo<TopologyKind>& info) {
      return std::string(to_string(info.param));
    });

// ---------------------------------------------------------------------------
// Determinism: bit-identical results and simulated time across thread
// counts {1, 3, hardware} and across repeats on one machine.
// ---------------------------------------------------------------------------

struct HyperRun {
  std::vector<double> c;
  double t_us = 0.0;
};

HyperRun run_hyper(unsigned threads) {
  Cube::Options o;
  o.threads = threads;
  Cube cube(4, CostParams::cm2(), o);
  Grid grid(cube, 4, 0);
  const std::size_t n = 24, k = 20, m = 28;
  DistMatrix<double> A(grid, n, k);
  DistMatrix<double> B(grid, k, m);
  A.load(random_matrix(n, k, 421));
  B.load(random_matrix(k, m, 422));
  cube.clock().reset();
  HyperRun r;
  r.c = matmul_hyper(A, B).to_host();
  r.t_us = cube.clock().now_us();
  return r;
}

TEST(MatmulHyper, BitIdenticalAcrossThreadCountsAndRepeats) {
  const HyperRun t1 = run_hyper(1);
  const HyperRun t1b = run_hyper(1);
  const HyperRun t3 = run_hyper(3);
  const HyperRun thw = run_hyper(0);
  EXPECT_EQ(t1.c, t1b.c) << "repeat must be bit-identical";
  EXPECT_EQ(t1.c, t3.c) << "3-thread run must be bit-identical";
  EXPECT_EQ(t1.c, thw.c) << "hardware-thread run must be bit-identical";
  EXPECT_DOUBLE_EQ(t1.t_us, t1b.t_us);
  EXPECT_DOUBLE_EQ(t1.t_us, t3.t_us);
  EXPECT_DOUBLE_EQ(t1.t_us, thw.t_us);
}

// ---------------------------------------------------------------------------
// Eligibility contracts.
// ---------------------------------------------------------------------------

TEST(MatmulHyper, RejectsTwoDimensionalGridsAndCyclicRows) {
  Cube cube(4, CostParams::cm2());
  Grid grid2(cube, 2, 2);
  DistMatrix<double> A2(grid2, 8, 8);
  DistMatrix<double> B2(grid2, 8, 8);
  EXPECT_THROW((void)matmul_hyper(A2, B2), ContractError);

  Cube cube1(2, CostParams::cm2());
  Grid grid1(cube1, 2, 0);
  DistMatrix<double> Ac(grid1, 8, 8, MatrixLayout::cyclic());
  DistMatrix<double> Bc(grid1, 8, 8, MatrixLayout::cyclic());
  EXPECT_THROW((void)matmul_hyper(Ac, Bc), ContractError);
  // matmul_auto must not route an ineligible shape to hyper.
  MatmulCost c = matmul_cost(A2, B2);
  EXPECT_TRUE(std::isinf(c.hyper));
  EXPECT_FALSE(std::isinf(c.rank1));
}

// ---------------------------------------------------------------------------
// The O(√p) claim: per-processor communication volume of hyper vs the
// panel-broadcast backends at p = 64.
// ---------------------------------------------------------------------------

TEST(MatmulHyper, CommVolumePerProcessorIsOrderSqrtP) {
  const int d = 6;  // p = 64
  Cube cube(d, CostParams::cm2(), pin_hypercube());
  Grid grid(cube, d, 0);
  const std::size_t n = 128, k = 128, m = 128;
  DistMatrix<double> A(grid, n, k);
  DistMatrix<double> B(grid, k, m);
  A.load(random_matrix(n, k, 431));
  B.load(random_matrix(k, m, 432));

  cube.clock().reset();
  (void)matmul_hyper(A, B);
  const std::uint64_t moved_hyper = cube.clock().stats().elements_moved;

  cube.clock().reset();
  (void)matmul_summa(A, B);
  const std::uint64_t moved_summa = cube.clock().stats().elements_moved;

  // Per processor (in whole-block units) hyper moves ≈ 3.5√p blocks —
  // (K−1) replicate + (K−1) combine rounds at stride ±1 plus (L−1)
  // stride-K stream shifts that each pay 2 store-and-forward rounds —
  // while SUMMA's p B-panels each reach all p processors: ≈ p block
  // receives per processor.  With n = k = m that is a measured ratio of
  // ≈ √p/4 (2.25 at p = 64), growing as √p.
  EXPECT_GT(static_cast<double>(moved_summa) /
                static_cast<double>(moved_hyper),
            std::sqrt(64.0) / 4.0)
      << "hyper=" << moved_hyper << " summa=" << moved_summa;

  // √p scaling in p: quadrupling p at fixed matrix size must not grow the
  // total shifted volume by more than ≈ 2× (it is ≈ √p·(nk + nm + km/√p)).
  Cube cube4(4, CostParams::cm2(), pin_hypercube());
  Grid grid4(cube4, 4, 0);
  DistMatrix<double> A4(grid4, n, k);
  DistMatrix<double> B4(grid4, k, m);
  A4.load(random_matrix(n, k, 431));
  B4.load(random_matrix(k, m, 432));
  cube4.clock().reset();
  (void)matmul_hyper(A4, B4);
  const std::uint64_t moved_p16 = cube4.clock().stats().elements_moved;
  const double growth =
      static_cast<double>(moved_hyper) / static_cast<double>(moved_p16);
  EXPECT_GT(growth, 1.0);
  EXPECT_LT(growth, 3.0) << "p16=" << moved_p16 << " p64=" << moved_hyper;
}

// ---------------------------------------------------------------------------
// The selector: cheaper backend on both sides of the crossover.
// ---------------------------------------------------------------------------

TEST(MatmulAuto, PicksHyperOnSquareOperandsAndNotOnSkinnyReduction) {
  const int d = 6;
  Cube cube(d, CostParams::cm2(), pin_hypercube());
  Grid grid(cube, d, 0);

  // Square side of the crossover: the √p shift volume beats p-fold panel
  // broadcasts.
  {
    const std::size_t n = 128;
    DistMatrix<double> A(grid, n, n);
    DistMatrix<double> B(grid, n, n);
    A.load(random_matrix(n, n, 441));
    B.load(random_matrix(n, n, 442));
    const MatmulCost c = matmul_cost(A, B);
    EXPECT_LT(c.hyper, c.summa);
    EXPECT_LT(c.hyper, c.rank1);
    cube.clock().reset();
    const std::vector<double> got = matmul_auto(A, B).to_host();
    const double t_auto = cube.clock().now_us();
    cube.clock().reset();
    const std::vector<double> want = matmul_hyper(A, B).to_host();
    const double t_hyper = cube.clock().now_us();
    EXPECT_EQ(got, want) << "auto must dispatch to hyper here";
    EXPECT_DOUBLE_EQ(t_auto, t_hyper);
    cube.clock().reset();
    (void)matmul_summa(A, B);
    EXPECT_LT(t_hyper, cube.clock().now_us())
        << "the model's pick must also win on the simulated clock";
  }

  // Skinny reduction axis: hyper still ships K C-partials of full n×m
  // weight while the broadcasts shrink with k — the crossover's far side.
  {
    const std::size_t n = 256, k = 2, m = 256;
    DistMatrix<double> A(grid, n, k);
    DistMatrix<double> B(grid, k, m);
    A.load(random_matrix(n, k, 443));
    B.load(random_matrix(k, m, 444));
    const MatmulCost c = matmul_cost(A, B);
    EXPECT_GT(c.hyper, std::min(c.summa, c.rank1));
    cube.clock().reset();
    const std::vector<double> got = matmul_auto(A, B).to_host();
    const double t_auto = cube.clock().now_us();
    cube.clock().reset();
    const std::vector<double> want = c.summa <= c.rank1
                                         ? matmul_summa(A, B).to_host()
                                         : matmul(A, B).to_host();
    const double t_pick = cube.clock().now_us();
    EXPECT_EQ(got, want) << "auto must avoid hyper here";
    EXPECT_DOUBLE_EQ(t_auto, t_pick);
    cube.clock().reset();
    (void)matmul_hyper(A, B);
    EXPECT_LT(t_pick, cube.clock().now_us());
  }
}

TEST(MatmulAuto, FallsBackToRank1WhenPanelsAreIneligible) {
  Cube cube(2, CostParams::cm2());
  Grid grid(cube, 1, 1);
  DistMatrix<double> A(grid, 6, 6, MatrixLayout::cyclic());
  DistMatrix<double> B(grid, 6, 6, MatrixLayout::cyclic());
  const MatmulCost c = matmul_cost(A, B);
  EXPECT_TRUE(std::isinf(c.hyper));
  EXPECT_TRUE(std::isinf(c.summa));
  const std::vector<double> ha = random_matrix(6, 6, 451);
  const std::vector<double> hb = random_matrix(6, 6, 452);
  A.load(ha);
  B.load(hb);
  const std::vector<double> got = matmul_auto(A, B).to_host();
  const std::vector<double> want = host_gemm(ha, hb, 6, 6, 6);
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_NEAR(got[i], want[i], 1e-11 * (1 + std::abs(want[i])));
}

}  // namespace
}  // namespace vmp
