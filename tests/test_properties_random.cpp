// Property-based randomized sweep (satellite of the fault-injection PR):
// all eight primitives checked against straight-line host references over
// random grid splits (gr + gc = d for d = 1..8), ragged matrix extents,
// both machine presets and both layouts.  Every draw derives from
// global_seed(), so any failure is reproducible with the one-line recipe
// in its message: export the printed VMP_SEED and rerun the test.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/gauss.hpp"
#include "algorithms/matvec.hpp"
#include "algorithms/spmv.hpp"
#include "comm/dist_buffer.hpp"
#include "core/kernels.hpp"
#include "core/primitives.hpp"
#include "core/sparse_primitives.hpp"
#include "embed/sparse_realign.hpp"
#include "core/vector_ops.hpp"
#include "fault/fault.hpp"
#include "util/rng.hpp"
#include "util/workloads.hpp"

namespace vmp {
namespace {

const std::uint64_t kBaseSeed = announce_seed("test_properties_random");

struct TrialConfig {
  int d, gr, gc;
  std::size_t nrows, ncols;
  bool cyclic;
  bool ipsc;
  std::uint64_t data_seed;

  [[nodiscard]] std::string reproducer(int trial) const {
    return "reproduce: VMP_SEED=" + std::to_string(kBaseSeed) +
           " ./test_properties_random  (trial " + std::to_string(trial) +
           ": d=" + std::to_string(d) + " gr=" + std::to_string(gr) +
           " gc=" + std::to_string(gc) + " n=" + std::to_string(nrows) + "x" +
           std::to_string(ncols) + (cyclic ? " cyclic" : " blocked") +
           (ipsc ? " ipsc" : " cm2") + ")";
  }
};

/// Draw one trial configuration; all randomness flows from (base seed,
/// trial), nothing else.
[[nodiscard]] TrialConfig draw(int trial) {
  SplitMix64 rng(kBaseSeed + static_cast<std::uint64_t>(trial) * 0x9e37ull);
  TrialConfig c;
  c.d = 1 + static_cast<int>(rng.below(8));  // 1..8 → 2..256 processors
  c.gr = static_cast<int>(rng.below(static_cast<std::uint64_t>(c.d) + 1));
  c.gc = c.d - c.gr;
  // Ragged on purpose: extents not multiples of the grid, down to 1.
  c.nrows = 1 + rng.below(48);
  c.ncols = 1 + rng.below(48);
  c.cyclic = rng.below(2) == 0;
  c.ipsc = rng.below(2) == 0;
  c.data_seed = rng.next();
  return c;
}

class RandomSweep : public ::testing::TestWithParam<int> {};

TEST_P(RandomSweep, AllPrimitivesMatchHostReferences) {
  const int trial = GetParam();
  const TrialConfig c = draw(trial);
  SCOPED_TRACE(c.reproducer(trial));

  Cube cube(c.d, c.ipsc ? CostParams::ipsc() : CostParams::cm2());
  Grid grid(cube, c.gr, c.gc);
  const std::vector<double> host =
      random_matrix(c.nrows, c.ncols, static_cast<unsigned>(c.data_seed));
  const auto h = [&](std::size_t i, std::size_t j) {
    return host[i * c.ncols + j];
  };
  DistMatrix<double> A(grid, c.nrows, c.ncols,
                       c.cyclic ? MatrixLayout::cyclic()
                                : MatrixLayout::blocked());
  A.load(host);
  EXPECT_EQ(A.to_host(), host) << "load/to_host round trip";

  SplitMix64 rng(c.data_seed ^ 0xfeedULL);
  const std::size_t pick_i = rng.below(c.nrows);
  const std::size_t pick_j = rng.below(c.ncols);

  // 1+2: reduce_rows / reduce_cols (sum within tolerance, max exact).
  {
    const std::vector<double> got = reduce_rows(A, Plus<double>{}).to_host();
    ASSERT_EQ(got.size(), c.nrows);
    for (std::size_t i = 0; i < c.nrows; ++i) {
      double want = 0;
      for (std::size_t j = 0; j < c.ncols; ++j) want += h(i, j);
      EXPECT_NEAR(got[i], want, 1e-12 * static_cast<double>(c.ncols + 1))
          << "reduce_rows row " << i;
    }
    const std::vector<double> gmax = reduce_rows(A, Max<double>{}).to_host();
    for (std::size_t i = 0; i < c.nrows; ++i) {
      double want = std::numeric_limits<double>::lowest();
      for (std::size_t j = 0; j < c.ncols; ++j) want = std::max(want, h(i, j));
      EXPECT_EQ(gmax[i], want) << "reduce_rows(max) row " << i;
    }
  }
  {
    const std::vector<double> got = reduce_cols(A, Plus<double>{}).to_host();
    ASSERT_EQ(got.size(), c.ncols);
    for (std::size_t j = 0; j < c.ncols; ++j) {
      double want = 0;
      for (std::size_t i = 0; i < c.nrows; ++i) want += h(i, j);
      EXPECT_NEAR(got[j], want, 1e-12 * static_cast<double>(c.nrows + 1))
          << "reduce_cols col " << j;
    }
  }

  // 3+4: extract_row / extract_col (pure data motion: exact).
  {
    const DistVector<double> row = extract_row(A, pick_i);
    EXPECT_EQ(row.align(), Align::Cols);
    EXPECT_TRUE(row.replicas_consistent());
    const std::vector<double> got = row.to_host();
    ASSERT_EQ(got.size(), c.ncols);
    for (std::size_t j = 0; j < c.ncols; ++j)
      EXPECT_EQ(got[j], h(pick_i, j)) << "extract_row col " << j;
  }
  {
    const DistVector<double> col = extract_col(A, pick_j);
    EXPECT_EQ(col.align(), Align::Rows);
    EXPECT_TRUE(col.replicas_consistent());
    const std::vector<double> got = col.to_host();
    ASSERT_EQ(got.size(), c.nrows);
    for (std::size_t i = 0; i < c.nrows; ++i)
      EXPECT_EQ(got[i], h(i, pick_j)) << "extract_col row " << i;
  }

  // 5+6: distribute_rows / distribute_cols (replication: exact).
  const std::vector<double> vc_host =
      random_vector(c.ncols, static_cast<unsigned>(c.data_seed >> 8));
  const std::vector<double> vr_host =
      random_vector(c.nrows, static_cast<unsigned>(c.data_seed >> 16));
  // insert_row/col require the vector's partition kind to match the
  // matrix axis it lands on.
  const Part part = c.cyclic ? Part::Cyclic : Part::Block;
  DistVector<double> vc(grid, c.ncols, Align::Cols, part);
  DistVector<double> vr(grid, c.nrows, Align::Rows, part);
  vc.load(vc_host);
  vr.load(vr_host);
  {
    const std::vector<double> got = distribute_rows(vc, c.nrows).to_host();
    ASSERT_EQ(got.size(), c.nrows * c.ncols);
    for (std::size_t i = 0; i < c.nrows; ++i)
      for (std::size_t j = 0; j < c.ncols; ++j)
        EXPECT_EQ(got[i * c.ncols + j], vc_host[j])
            << "distribute_rows (" << i << "," << j << ")";
  }
  {
    const std::vector<double> got = distribute_cols(vr, c.ncols).to_host();
    ASSERT_EQ(got.size(), c.nrows * c.ncols);
    for (std::size_t i = 0; i < c.nrows; ++i)
      for (std::size_t j = 0; j < c.ncols; ++j)
        EXPECT_EQ(got[i * c.ncols + j], vr_host[i])
            << "distribute_cols (" << i << "," << j << ")";
  }

  // 7+8: insert_row / insert_col (exact, and only the target line moves).
  {
    std::vector<double> want = host;
    for (std::size_t j = 0; j < c.ncols; ++j)
      want[pick_i * c.ncols + j] = vc_host[j];
    insert_row(A, pick_i, vc);
    EXPECT_EQ(A.to_host(), want) << "insert_row";
    for (std::size_t i = 0; i < c.nrows; ++i)
      want[i * c.ncols + pick_j] = vr_host[i];
    insert_col(A, pick_j, vr);
    EXPECT_EQ(A.to_host(), want) << "insert_col";
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomSweep, ::testing::Range(0, 24));

// The axis-generic wrappers (extract/insert/reduce/distribute over
// vmp::Axis) are thin delegations to the named forms: same results, same
// simulated charges, same event traces — checked here bit-for-bit by
// running the named spelling on one machine and the generic spelling on an
// identical twin.
TEST_P(RandomSweep, AxisWrappersMatchNamedFormsExactly) {
  const int trial = GetParam();
  const TrialConfig c = draw(trial);
  SCOPED_TRACE(c.reproducer(trial));

  const std::vector<double> host =
      random_matrix(c.nrows, c.ncols, static_cast<unsigned>(c.data_seed));
  const MatrixLayout layout =
      c.cyclic ? MatrixLayout::cyclic() : MatrixLayout::blocked();
  const Part part = c.cyclic ? Part::Cyclic : Part::Block;
  const CostParams costs = c.ipsc ? CostParams::ipsc() : CostParams::cm2();

  Cube cn(c.d, costs), cg(c.d, costs);  // named / generic twins
  Grid gn(cn, c.gr, c.gc), gg(cg, c.gr, c.gc);
  cn.clock().tracer().set_recording(true);
  cg.clock().tracer().set_recording(true);

  DistMatrix<double> An(gn, c.nrows, c.ncols, layout);
  DistMatrix<double> Ag(gg, c.nrows, c.ncols, layout);
  An.load(host);
  Ag.load(host);
  const std::vector<double> vc_host =
      random_vector(c.ncols, static_cast<unsigned>(c.data_seed >> 8));
  const std::vector<double> vr_host =
      random_vector(c.nrows, static_cast<unsigned>(c.data_seed >> 16));
  DistVector<double> vcn(gn, c.ncols, Align::Cols, part);
  DistVector<double> vcg(gg, c.ncols, Align::Cols, part);
  DistVector<double> vrn(gn, c.nrows, Align::Rows, part);
  DistVector<double> vrg(gg, c.nrows, Align::Rows, part);
  vcn.load(vc_host);
  vcg.load(vc_host);
  vrn.load(vr_host);
  vrg.load(vr_host);

  SplitMix64 rng(c.data_seed ^ 0xfeedULL);
  const std::size_t pick_i = rng.below(c.nrows);
  const std::size_t pick_j = rng.below(c.ncols);
  const std::size_t lo = rng.below(c.nrows);

  EXPECT_EQ(extract_row(An, pick_i).to_host(),
            extract(Ag, Axis::Row, pick_i).to_host());
  EXPECT_EQ(extract_col(An, pick_j).to_host(),
            extract(Ag, Axis::Col, pick_j).to_host());
  EXPECT_EQ(reduce_rows(An, Plus<double>{}).to_host(),
            reduce(Ag, Axis::Row, Plus<double>{}).to_host());
  EXPECT_EQ(reduce_cols(An, Max<double>{}).to_host(),
            reduce(Ag, Axis::Col, Max<double>{}).to_host());
  EXPECT_EQ(distribute_rows(vcn, c.nrows, part).to_host(),
            distribute(vcg, Axis::Row, c.nrows, part).to_host());
  EXPECT_EQ(distribute_cols(vrn, c.ncols, part).to_host(),
            distribute(vrg, Axis::Col, c.ncols, part).to_host());
  insert_row(An, pick_i, vcn);
  insert(Ag, Axis::Row, pick_i, vcg);
  EXPECT_EQ(An.to_host(), Ag.to_host()) << "insert row";
  insert_col(An, pick_j, vrn);
  insert(Ag, Axis::Col, pick_j, vrg);
  EXPECT_EQ(An.to_host(), Ag.to_host()) << "insert col";
  insert_col_range(An, pick_j, vrn, lo, c.nrows);
  insert_range(Ag, Axis::Col, pick_j, vrg, lo, c.nrows);
  EXPECT_EQ(An.to_host(), Ag.to_host()) << "insert col range";

  // Identical simulated time and identical event traces, charge for charge.
  EXPECT_EQ(cn.clock().now_us(), cg.clock().now_us());
  EXPECT_EQ(cn.clock().tracer().paths(), cg.clock().tracer().paths());
  EXPECT_TRUE(cn.clock().tracer().events() == cg.clock().tracer().events())
      << "wrapper and named-form event traces diverge";
}

// fused_matvec / fused_vecmat drop the intermediate matrices but keep the
// identical communication sequence and local combine order, so results are
// bit-identical to the primitive composition — with and without a fault
// plan — at the same or lower simulated cost.
TEST_P(RandomSweep, FusedMatvecBitIdenticalToComposed) {
  const int trial = GetParam();
  const TrialConfig c = draw(trial);
  SCOPED_TRACE(c.reproducer(trial));
  const MatrixLayout layout =
      c.cyclic ? MatrixLayout::cyclic() : MatrixLayout::blocked();
  const CostParams costs = c.ipsc ? CostParams::ipsc() : CostParams::cm2();
  const bool faulty = trial % 2 == 1;

  // Twin machines: fault rounds must line up call for call, so composed
  // and fused run on separate cubes driven by the same plan.
  Cube c0(c.d, costs), c1(c.d, costs);
  if (faulty) {
    c0.enable_faults(FaultPlan::transient(c.data_seed, 0.02, 0.01));
    c1.enable_faults(FaultPlan::transient(c.data_seed, 0.02, 0.01));
  }
  Grid g0(c0, c.gr, c.gc), g1(c1, c.gr, c.gc);
  const std::vector<double> host =
      random_matrix(c.nrows, c.ncols, static_cast<unsigned>(c.data_seed));
  DistMatrix<double> A0(g0, c.nrows, c.ncols, layout);
  DistMatrix<double> A1(g1, c.nrows, c.ncols, layout);
  A0.load(host);
  A1.load(host);

  {
    const std::vector<double> xh =
        random_vector(c.ncols, static_cast<unsigned>(c.data_seed >> 8));
    DistVector<double> x0(g0, c.ncols, Align::Cols, layout.cols);
    DistVector<double> x1(g1, c.ncols, Align::Cols, layout.cols);
    x0.load(xh);
    x1.load(xh);
    c0.clock().reset();
    c1.clock().reset();
    const std::vector<double> composed = matvec(A0, x0).to_host();
    const std::vector<double> fused = fused_matvec(A1, x1).to_host();
    EXPECT_EQ(composed, fused) << "matvec fused vs composed";
    // Same or lower simulated cost; in particular the paper's optimality
    // regime m > p·lg p must never favor the composition.
    EXPECT_LE(c1.clock().now_us(), c0.clock().now_us() + 1e-9);
  }
  {
    const std::vector<double> xh =
        random_vector(c.nrows, static_cast<unsigned>(c.data_seed >> 16));
    DistVector<double> x0(g0, c.nrows, Align::Rows, layout.rows);
    DistVector<double> x1(g1, c.nrows, Align::Rows, layout.rows);
    x0.load(xh);
    x1.load(xh);
    c0.clock().reset();
    c1.clock().reset();
    const std::vector<double> composed = vecmat(x0, A0).to_host();
    const std::vector<double> fused = fused_vecmat(x1, A1).to_host();
    EXPECT_EQ(composed, fused) << "vecmat fused vs composed";
    EXPECT_LE(c1.clock().now_us(), c0.clock().now_us() + 1e-9);
  }
}

// Slab-storage invariance (tentpole check of the contiguous-arena
// refactor): the arena layout behind every DistBuffer is a host-side
// concern only.  A machine whose buffer pool is cold and a twin whose
// pool has been churned — arenas acquired, grown through reallocation,
// destroyed and recycled — must produce bit-identical results, identical
// simulated clocks, identical traffic counters and charge-for-charge
// identical event traces for the same workload, with and without a fault
// plan.  Only the host allocation counters (pool hits/misses, heap bytes,
// slab allocs/bytes) may differ between the twins.
TEST_P(RandomSweep, SlabChurnInvisibleToSimulatedMachine) {
  const int trial = GetParam();
  const TrialConfig c = draw(trial);
  SCOPED_TRACE(c.reproducer(trial));
  const MatrixLayout layout =
      c.cyclic ? MatrixLayout::cyclic() : MatrixLayout::blocked();
  const CostParams costs = c.ipsc ? CostParams::ipsc() : CostParams::cm2();
  const bool faulty = trial % 2 == 1;

  Cube c0(c.d, costs), c1(c.d, costs);  // cold / churned twins
  if (faulty) {
    c0.enable_faults(FaultPlan::transient(c.data_seed, 0.02, 0.01));
    c1.enable_faults(FaultPlan::transient(c.data_seed, 0.02, 0.01));
  }
  // Churn only the second machine's pool: acquire arenas of assorted
  // sizes, force stride growth (reallocation into larger slabs), then
  // drop everything so later acquisitions are recycled free-list blocks
  // with histories the cold twin never sees.
  {
    DistBuffer<double> big(c1, 300);
    DistBuffer<double> grower(c1);
    for (int s = 0; s < 150; ++s) grower.push_back(0, 1.0 * s);
    DistBuffer<double> small(c1, 5);
  }
  c0.clock().tracer().set_recording(true);
  c1.clock().tracer().set_recording(true);

  Grid g0(c0, c.gr, c.gc), g1(c1, c.gr, c.gc);
  const std::vector<double> host =
      random_matrix(c.nrows, c.ncols, static_cast<unsigned>(c.data_seed));
  DistMatrix<double> A0(g0, c.nrows, c.ncols, layout);
  DistMatrix<double> A1(g1, c.nrows, c.ncols, layout);
  A0.load(host);
  A1.load(host);
  const std::vector<double> xh =
      random_vector(c.ncols, static_cast<unsigned>(c.data_seed >> 8));
  DistVector<double> x0(g0, c.ncols, Align::Cols, layout.cols);
  DistVector<double> x1(g1, c.ncols, Align::Cols, layout.cols);
  x0.load(xh);
  x1.load(xh);

  SplitMix64 rng(c.data_seed ^ 0xabcdULL);
  const std::size_t pick_i = rng.below(c.nrows);
  const std::size_t pick_j = rng.below(c.ncols);

  // A workload mixing all four primitive families plus the fused pipeline:
  // data motion, reduction, replication and compute.
  EXPECT_EQ(extract_row(A0, pick_i).to_host(),
            extract_row(A1, pick_i).to_host());
  EXPECT_EQ(extract_col(A0, pick_j).to_host(),
            extract_col(A1, pick_j).to_host());
  EXPECT_EQ(reduce_rows(A0, Plus<double>{}).to_host(),
            reduce_rows(A1, Plus<double>{}).to_host());
  EXPECT_EQ(reduce_cols(A0, Max<double>{}).to_host(),
            reduce_cols(A1, Max<double>{}).to_host());
  EXPECT_EQ(distribute_rows(x0, c.nrows).to_host(),
            distribute_rows(x1, c.nrows).to_host());
  insert_row(A0, pick_i, x0);
  insert_row(A1, pick_i, x1);
  EXPECT_EQ(A0.to_host(), A1.to_host()) << "insert_row";
  EXPECT_EQ(fused_matvec(A0, x0).to_host(), fused_matvec(A1, x1).to_host())
      << "fused matvec";

  // Identical simulated time, charge for charge.
  EXPECT_EQ(c0.clock().now_us(), c1.clock().now_us());
  EXPECT_EQ(c0.clock().tracer().paths(), c1.clock().tracer().paths());
  EXPECT_TRUE(c0.clock().tracer().events() == c1.clock().tracer().events())
      << "cold and churned event traces diverge";

  // Identical traffic/work/fault counters once the host-side allocation
  // counters (the only fields churn is allowed to move) are masked out.
  SimStats s0 = c0.clock().stats(), s1 = c1.clock().stats();
  EXPECT_NE(s0.pool_hits + s0.pool_misses, s1.pool_hits + s1.pool_misses)
      << "churn must actually have perturbed the pool";
  s0.alloc_bytes = s1.alloc_bytes = 0;
  s0.pool_hits = s1.pool_hits = 0;
  s0.pool_misses = s1.pool_misses = 0;
  s0.slab_allocs = s1.slab_allocs = 0;
  s0.slab_bytes = s1.slab_bytes = 0;
  EXPECT_TRUE(s0 == s1) << "simulated counters diverge between twins";
  if (faulty)
    EXPECT_EQ(c0.clock().stats().fault_retries,
              c1.clock().stats().fault_retries);
}

// The kernel SIMD backend must be invisible to the simulated machine: the
// default (strict-association) dispatch contract says every vectorized
// kernel is bit-identical to its scalar loop, so a twin run with the
// backend disabled has to agree on results, simulated time, traces and
// every SimStats counter — including under a transient fault plan, where a
// divergent checksum would reroute and split the twins' histories.
TEST_P(RandomSweep, SimdBackendInvisibleToSimulatedMachine) {
  const int trial = GetParam();
  const TrialConfig c = draw(trial);
  SCOPED_TRACE(c.reproducer(trial));
  const MatrixLayout layout =
      c.cyclic ? MatrixLayout::cyclic() : MatrixLayout::blocked();
  const CostParams costs = c.ipsc ? CostParams::ipsc() : CostParams::cm2();
  const bool faulty = trial % 2 == 1;

  struct Run {
    std::vector<double> matvec, rows, cols, lu;
    double dotv = 0.0, now = 0.0;
    std::vector<std::string> paths;
    std::vector<TraceEvent> events;
    SimStats stats;
    std::vector<std::size_t> perm;
  };
  const auto run_with = [&](bool simd_on) {
    const bool prev = kern::simd::set_enabled(simd_on);
    Cube cube(c.d, costs);
    if (faulty)
      cube.enable_faults(FaultPlan::transient(c.data_seed, 0.02, 0.01));
    cube.clock().tracer().set_recording(true);
    Grid grid(cube, c.gr, c.gc);
    const std::vector<double> host =
        random_matrix(c.nrows, c.ncols, static_cast<unsigned>(c.data_seed));
    DistMatrix<double> A(grid, c.nrows, c.ncols, layout);
    A.load(host);
    const std::vector<double> xh =
        random_vector(c.ncols, static_cast<unsigned>(c.data_seed >> 8));
    DistVector<double> x(grid, c.ncols, Align::Cols, layout.cols);
    x.load(xh);

    Run out;
    out.matvec = fused_matvec(A, x).to_host();
    out.rows = reduce_rows(A, Plus<double>{}).to_host();
    out.cols = reduce_cols(A, Max<double>{}).to_host();
    DistVector<double> y = extract_row(A, 0);
    vec_axpy(y, 1.5, x);
    vec_scale(y, -0.75);
    out.dotv = dot(y, x);
    const std::size_t n = std::max<std::size_t>(
        2, std::min<std::size_t>(c.nrows, 12));
    const HostMatrix H = diag_dominant_matrix(n, c.data_seed);
    DistMatrix<double> L(grid, n, n, layout);
    L.load(H.data());
    const DistLuResult lu = lu_factor_fused(L);
    out.perm = lu.perm;
    out.lu = L.to_host();
    out.now = cube.clock().now_us();
    out.paths = cube.clock().tracer().paths();
    out.events = cube.clock().tracer().events();
    out.stats = cube.clock().stats();
    kern::simd::set_enabled(prev);
    return out;
  };

  const Run off = run_with(false);
  const Run on = run_with(true);
  EXPECT_EQ(off.matvec, on.matvec) << "fused_matvec diverges";
  EXPECT_EQ(off.rows, on.rows) << "reduce_rows diverges";
  EXPECT_EQ(off.cols, on.cols) << "reduce_cols diverges";
  EXPECT_EQ(off.dotv, on.dotv) << "axpy/scale/dot pipeline diverges";
  EXPECT_EQ(off.perm, on.perm) << "LU pivot order diverges";
  EXPECT_EQ(off.lu, on.lu) << "LU factors diverge";
  EXPECT_EQ(off.now, on.now) << "simulated time diverges";
  EXPECT_EQ(off.paths, on.paths);
  EXPECT_TRUE(off.events == on.events) << "trace events diverge";
  EXPECT_TRUE(off.stats == on.stats) << "SimStats diverge";
  if (faulty)
    EXPECT_EQ(off.stats.fault_retries, on.stats.fault_retries);
}

// lu_factor_fused runs the identical pivot searches and broadcasts but
// collapses each step's four local passes into one fused sweep: factors,
// permutation and simulated-vs-composed cost are checked across random
// dims, layouts and fault plans.
TEST_P(RandomSweep, FusedLuBitIdenticalToComposed) {
  const int trial = GetParam();
  const TrialConfig c = draw(trial);
  SCOPED_TRACE(c.reproducer(trial));
  const std::size_t n = std::max<std::size_t>(2, std::min<std::size_t>(
                                                     c.nrows, 20));
  const MatrixLayout layout =
      c.cyclic ? MatrixLayout::cyclic() : MatrixLayout::blocked();
  const CostParams costs = c.ipsc ? CostParams::ipsc() : CostParams::cm2();
  const bool faulty = trial % 2 == 0;

  Cube c0(c.d, costs), c1(c.d, costs);
  if (faulty) {
    c0.enable_faults(FaultPlan::transient(c.data_seed, 0.02, 0.01));
    c1.enable_faults(FaultPlan::transient(c.data_seed, 0.02, 0.01));
  }
  Grid g0(c0, c.gr, c.gc), g1(c1, c.gr, c.gc);
  const HostMatrix H = diag_dominant_matrix(n, c.data_seed);
  DistMatrix<double> A0(g0, n, n, layout);
  DistMatrix<double> A1(g1, n, n, layout);
  A0.load(H.data());
  A1.load(H.data());

  c0.clock().reset();
  c1.clock().reset();
  const DistLuResult r0 = lu_factor(A0);
  const DistLuResult r1 = lu_factor_fused(A1);
  EXPECT_EQ(r0.singular, r1.singular);
  EXPECT_EQ(r0.perm, r1.perm);
  EXPECT_EQ(A0.to_host(), A1.to_host()) << "LU factors diverge";
  EXPECT_LE(c1.clock().now_us(), c0.clock().now_us() + 1e-9)
      << "fused factor must not cost more simulated time";
}

// ---------------------------------------------------------------------------
// Sparse storage (DistSparseMatrix) against the densified dense reference.
// ---------------------------------------------------------------------------

/// One power-law sparse matrix per trial, loaded into both storages on the
/// same grid split.
[[nodiscard]] HostCsr draw_csr(const TrialConfig& c) {
  return power_law_csr(c.nrows, c.ncols, 3.0, 1.0, c.data_seed ^ 0xc513ull);
}

// Sparse primitives vs the dense primitives on the densified matrix.
// Plus-folds and SpMV must agree BITWISE: skipping a stored-zero slot
// only drops ±0.0 terms, which leave a finite accumulator's bits alone
// (see core/kernels.hpp).  Max/Min folds see only stored entries, so they
// are checked against a host fold over the stored pattern instead.
TEST_P(RandomSweep, SparsePrimitivesMatchDensifiedBitwise) {
  const int trial = GetParam();
  const TrialConfig c = draw(trial);
  SCOPED_TRACE(c.reproducer(trial));
  const MatrixLayout layout =
      c.cyclic ? MatrixLayout::cyclic() : MatrixLayout::blocked();
  const CostParams costs = c.ipsc ? CostParams::ipsc() : CostParams::cm2();

  Cube cube(c.d, costs);
  Grid grid(cube, c.gr, c.gc);
  const HostCsr H = draw_csr(c);
  DistSparseMatrix<double> S(grid, c.nrows, c.ncols, layout);
  S.load_csr(H.rowptr, H.colind, H.vals);

  // Round trip and per-element reads.
  EXPECT_EQ(S.to_host(), H.dense()) << "load_csr/to_host round trip";
  EXPECT_EQ(S.nnz(), H.nnz());
  const DistMatrix<double> A = S.densify();
  EXPECT_EQ(A.to_host(), H.dense()) << "densify";
  EXPECT_EQ(S.at(0, H.colind[0]), H.vals[0]);

  // reduce(Plus): bitwise equal to the dense fold.
  EXPECT_EQ(reduce(S, Axis::Row, Plus<double>{}).to_host(),
            reduce(A, Axis::Row, Plus<double>{}).to_host())
      << "reduce_rows(Plus)";
  EXPECT_EQ(reduce(S, Axis::Col, Plus<double>{}).to_host(),
            reduce(A, Axis::Col, Plus<double>{}).to_host())
      << "reduce_cols(Plus)";

  // reduce(Max): folds STORED entries only — host reference over the
  // pattern, seeded with the op identity.
  {
    std::vector<double> expect(c.nrows,
                               std::numeric_limits<double>::lowest());
    for (std::size_t i = 0; i < c.nrows; ++i)
      for (std::uint32_t k = H.rowptr[i]; k < H.rowptr[i + 1]; ++k)
        expect[i] = std::max(expect[i], H.vals[k]);
    EXPECT_EQ(reduce(S, Axis::Row, Max<double>{}).to_host(), expect)
        << "reduce_rows(Max) over the stored pattern";
  }

  // extract: dense lines with zeros at unstored slots.
  const std::size_t pick_i = c.data_seed % c.nrows;
  const std::size_t pick_j = (c.data_seed >> 8) % c.ncols;
  EXPECT_EQ(extract(S, Axis::Row, pick_i).to_host(),
            extract(A, Axis::Row, pick_i).to_host())
      << "extract_row";
  EXPECT_EQ(extract(S, Axis::Col, pick_j).to_host(),
            extract(A, Axis::Col, pick_j).to_host())
      << "extract_col";

  // SpMV: fused vs dense fused bitwise, and composed vs fused bitwise.
  const std::vector<double> xh =
      random_vector(c.ncols, static_cast<unsigned>(c.data_seed >> 8));
  DistVector<double> x(grid, c.ncols, Align::Cols, layout.cols);
  x.load(xh);
  EXPECT_EQ(spmv_fused(S, x).to_host(), matvec_fused(A, x).to_host())
      << "spmv_fused vs densified matvec_fused";
  EXPECT_EQ(spmv(S, x).to_host(), spmv_fused(S, x).to_host())
      << "spmv composed vs fused";

  // insert_row is pattern-preserving: stored slots take v, unstored slots
  // keep their implicit zero.
  {
    DistSparseMatrix<double> S2 = S;
    insert_row(S2, pick_i, x);
    std::vector<double> expect = H.dense();
    for (std::size_t j = 0; j < c.ncols; ++j)
      expect[pick_i * c.ncols + j] = 0.0;
    for (std::uint32_t k = H.rowptr[pick_i]; k < H.rowptr[pick_i + 1]; ++k)
      expect[pick_i * c.ncols + H.colind[k]] = xh[H.colind[k]];
    EXPECT_EQ(S2.to_host(), expect) << "insert_row pattern-preserving";
  }
  {
    DistSparseMatrix<double> S2 = S;
    const std::vector<double> vh =
        random_vector(c.nrows, static_cast<unsigned>(c.data_seed >> 16));
    DistVector<double> v(grid, c.nrows, Align::Rows, layout.rows);
    v.load(vh);
    insert_col(S2, pick_j, v);
    std::vector<double> expect = H.dense();
    for (std::size_t i = 0; i < c.nrows; ++i)
      for (std::uint32_t k = H.rowptr[i]; k < H.rowptr[i + 1]; ++k)
        if (H.colind[k] == pick_j) expect[i * c.ncols + pick_j] = vh[i];
    EXPECT_EQ(S2.to_host(), expect) << "insert_col pattern-preserving";
  }
}

// distribute_like on both axes: the result keeps A's pattern exactly, and
// each stored (i, j) holds x[j] (Axis::Row) or v[i] (Axis::Col).
TEST_P(RandomSweep, SparseDistributeLikeFillsThePatternOnBothAxes) {
  const int trial = GetParam();
  const TrialConfig c = draw(trial);
  SCOPED_TRACE(c.reproducer(trial));
  const MatrixLayout layout =
      c.cyclic ? MatrixLayout::cyclic() : MatrixLayout::blocked();
  Cube cube(c.d, CostParams::cm2());
  Grid grid(cube, c.gr, c.gc);
  const HostCsr H = draw_csr(c);
  DistSparseMatrix<double> S(grid, c.nrows, c.ncols, layout);
  S.load_csr(H.rowptr, H.colind, H.vals);
  const std::vector<double> xh =
      random_vector(c.ncols, static_cast<unsigned>(c.data_seed >> 4));
  const std::vector<double> vh =
      random_vector(c.nrows, static_cast<unsigned>(c.data_seed >> 12));
  DistVector<double> x(grid, c.ncols, Align::Cols, layout.cols);
  DistVector<double> v(grid, c.nrows, Align::Rows, layout.rows);
  x.load(xh);
  v.load(vh);

  for (const Axis axis : {Axis::Row, Axis::Col}) {
    const bool row = axis == Axis::Row;
    const DistSparseMatrix<double> X = distribute_like(S, row ? x : v, axis);
    EXPECT_TRUE(X.same_pattern(S)) << (row ? "Axis::Row" : "Axis::Col");
    std::vector<double> expect(c.nrows * c.ncols, 0.0);
    for (std::size_t i = 0; i < c.nrows; ++i)
      for (std::uint32_t k = H.rowptr[i]; k < H.rowptr[i + 1]; ++k)
        expect[i * c.ncols + H.colind[k]] = row ? xh[H.colind[k]] : vh[i];
    EXPECT_EQ(X.to_host(), expect) << (row ? "Axis::Row" : "Axis::Col");
  }
}

// Twin determinism under a within-budget fault plan: the same sparse
// workload on two machines driven by the same plan must agree on results,
// simulated clock, critical paths, event traces and every masked SimStats
// counter — the sparse path inherits the engine's bit-identical replay
// guarantees.
TEST_P(RandomSweep, SparseWorkloadBitIdenticalBetweenFaultTwins) {
  const int trial = GetParam();
  const TrialConfig c = draw(trial);
  SCOPED_TRACE(c.reproducer(trial));
  const MatrixLayout layout =
      c.cyclic ? MatrixLayout::cyclic() : MatrixLayout::blocked();
  const CostParams costs = c.ipsc ? CostParams::ipsc() : CostParams::cm2();

  Cube c0(c.d, costs), c1(c.d, costs);
  c0.enable_faults(FaultPlan::transient(c.data_seed, 0.02, 0.01));
  c1.enable_faults(FaultPlan::transient(c.data_seed, 0.02, 0.01));
  Grid g0(c0, c.gr, c.gc), g1(c1, c.gr, c.gc);
  const HostCsr H = draw_csr(c);
  DistSparseMatrix<double> S0(g0, c.nrows, c.ncols, layout);
  DistSparseMatrix<double> S1(g1, c.nrows, c.ncols, layout);
  S0.load_csr(H.rowptr, H.colind, H.vals);
  S1.load_csr(H.rowptr, H.colind, H.vals);
  const std::vector<double> xh =
      random_vector(c.ncols, static_cast<unsigned>(c.data_seed >> 8));
  DistVector<double> x0(g0, c.ncols, Align::Cols, layout.cols);
  DistVector<double> x1(g1, c.ncols, Align::Cols, layout.cols);
  x0.load(xh);
  x1.load(xh);

  c0.clock().reset();
  c1.clock().reset();
  EXPECT_EQ(spmv_fused(S0, x0).to_host(), spmv_fused(S1, x1).to_host());
  EXPECT_EQ(reduce(S0, Axis::Row, Plus<double>{}).to_host(),
            reduce(S1, Axis::Row, Plus<double>{}).to_host());
  EXPECT_EQ(extract(S0, Axis::Col, c.data_seed % c.ncols).to_host(),
            extract(S1, Axis::Col, c.data_seed % c.ncols).to_host());
  EXPECT_EQ(reembed(S0, MatrixLayout::cyclic()).to_host(),
            reembed(S1, MatrixLayout::cyclic()).to_host());

  EXPECT_EQ(c0.clock().now_us(), c1.clock().now_us());
  EXPECT_EQ(c0.clock().tracer().paths(), c1.clock().tracer().paths());
  EXPECT_TRUE(c0.clock().tracer().events() == c1.clock().tracer().events())
      << "sparse twin event traces diverge";
  SimStats s0 = c0.clock().stats(), s1 = c1.clock().stats();
  s0.alloc_bytes = s1.alloc_bytes = 0;
  s0.pool_hits = s1.pool_hits = 0;
  s0.pool_misses = s1.pool_misses = 0;
  s0.slab_allocs = s1.slab_allocs = 0;
  s0.slab_bytes = s1.slab_bytes = 0;
  EXPECT_TRUE(s0 == s1) << "sparse twin counters diverge";
}

// reembed moves every entry verbatim to the target layout's owner, and
// the re-embedded matrix still agrees with its own densified reference —
// the sparse analogue of the realign/extract dense properties.
TEST_P(RandomSweep, ReembedPreservesEntriesAndSpmv) {
  const int trial = GetParam();
  const TrialConfig c = draw(trial);
  SCOPED_TRACE(c.reproducer(trial));
  const CostParams costs = c.ipsc ? CostParams::ipsc() : CostParams::cm2();
  const MatrixLayout from =
      c.cyclic ? MatrixLayout::cyclic() : MatrixLayout::blocked();
  const MatrixLayout to =
      c.cyclic ? MatrixLayout::blocked() : MatrixLayout::cyclic();

  Cube cube(c.d, costs);
  Grid grid(cube, c.gr, c.gc);
  const HostCsr H = draw_csr(c);
  DistSparseMatrix<double> S(grid, c.nrows, c.ncols, from);
  S.load_csr(H.rowptr, H.colind, H.vals);

  const DistSparseMatrix<double> R = reembed(S, to);
  EXPECT_EQ(R.layout(), to);
  EXPECT_EQ(R.nnz(), S.nnz());
  EXPECT_EQ(R.to_host(), H.dense()) << "reembed round trip";
  // A same-layout reembed is an identity on the stored data too.
  EXPECT_EQ(reembed(S, from).to_host(), H.dense()) << "same-layout reembed";

  // The re-embedded matrix behaves: fused SpMV in the target layout is
  // bitwise the densified dense product in that layout.
  const std::vector<double> xh =
      random_vector(c.ncols, static_cast<unsigned>(c.data_seed >> 8));
  DistVector<double> x(grid, c.ncols, Align::Cols, to.cols);
  x.load(xh);
  EXPECT_EQ(spmv_fused(R, x).to_host(),
            matvec_fused(R.densify(), x).to_host())
      << "spmv_fused after reembed";
}

}  // namespace
}  // namespace vmp
