// Unit tests: distributed vector/matrix elementwise operations, folds,
// located reductions and the rank-1 update; and the per-piece vector ops
// against the per-processor bodies they replaced (VecPieceTwin).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <memory>
#include <ostream>
#include <string>

#include "core/elementwise.hpp"
#include "core/scan_ops.hpp"
#include "core/vector_ops.hpp"
#include "fault/fault.hpp"
#include "util/workloads.hpp"
#include "param_printers.hpp"

namespace vmp {
namespace {

class VecOps : public ::testing::TestWithParam<std::tuple<Align, Part>> {
 protected:
  void SetUp() override {
    auto [align, part] = GetParam();
    if (align == Align::Linear && part == Part::Cyclic) GTEST_SKIP();
    cube = std::make_unique<Cube>(4, CostParams::cm2());
    grid = std::make_unique<Grid>(*cube, 2, 2);
    hv = random_vector(n, 17);
    v = std::make_unique<DistVector<double>>(*grid, n, align, part);
    v->load(hv);
  }

  static constexpr std::size_t n = 37;
  std::unique_ptr<Cube> cube;
  std::unique_ptr<Grid> grid;
  std::vector<double> hv;
  std::unique_ptr<DistVector<double>> v;
};

TEST_P(VecOps, ApplyScaleFill) {
  vec_apply(*v, [](double x) { return 2 * x + 1; });
  vec_scale(*v, 0.5);
  vec_fill_range(*v, 3, 7, -9.0);
  const std::vector<double> got = v->to_host();
  for (std::size_t g = 0; g < n; ++g) {
    const double want = (g >= 3 && g < 7) ? -9.0 : 0.5 * (2 * hv[g] + 1);
    EXPECT_DOUBLE_EQ(got[g], want);
  }
  EXPECT_TRUE(v->replicas_consistent());
}

TEST_P(VecOps, ApplyIndexedSeesGlobalIndices) {
  vec_apply_indexed(*v, [](double, std::size_t g) {
    return static_cast<double>(g);
  });
  const std::vector<double> got = v->to_host();
  for (std::size_t g = 0; g < n; ++g) EXPECT_EQ(got[g], double(g));
}

TEST_P(VecOps, ZipAxpyDot) {
  auto [align, part] = GetParam();
  const std::vector<double> hw = random_vector(n, 18);
  DistVector<double> w(*grid, n, align, part);
  w.load(hw);
  vec_axpy(*v, 2.0, w);
  const std::vector<double> got = v->to_host();
  for (std::size_t g = 0; g < n; ++g)
    EXPECT_DOUBLE_EQ(got[g], hv[g] + 2.0 * hw[g]);
  const double d = dot(*v, w);
  double want = 0;
  for (std::size_t g = 0; g < n; ++g) want += got[g] * hw[g];
  EXPECT_NEAR(d, want, 1e-12 * (1 + std::abs(want)));
}

TEST_P(VecOps, FoldSumMinMax) {
  double wsum = 0, wmin = 1e300, wmax = -1e300;
  for (double x : hv) {
    wsum += x;
    wmin = std::min(wmin, x);
    wmax = std::max(wmax, x);
  }
  EXPECT_NEAR(vec_fold(*v, Plus<double>{}), wsum, 1e-12);
  EXPECT_EQ(vec_fold(*v, Min<double>{}), wmin);
  EXPECT_EQ(vec_fold(*v, Max<double>{}), wmax);
}

TEST_P(VecOps, ArgminArgmaxWithExclusions) {
  const ValueIndex<double> mn =
      vec_argmin_key(*v, [](double x, std::size_t) { return x; });
  const ValueIndex<double> mx =
      vec_argmax_key(*v, [](double x, std::size_t) { return x; });
  std::size_t wmin = 0, wmax = 0;
  for (std::size_t g = 1; g < n; ++g) {
    if (hv[g] < hv[wmin]) wmin = g;
    if (hv[g] > hv[wmax]) wmax = g;
  }
  EXPECT_EQ(mn.index, static_cast<std::int64_t>(wmin));
  EXPECT_EQ(mx.index, static_cast<std::int64_t>(wmax));
  EXPECT_EQ(mn.value, hv[wmin]);
  EXPECT_EQ(mx.value, hv[wmax]);

  // Exclude everything: index must come back -1.
  constexpr double inf = std::numeric_limits<double>::infinity();
  const ValueIndex<double> none =
      vec_argmin_key(*v, [](double, std::size_t) { return inf; });
  EXPECT_EQ(none.index, -1);
}

TEST_P(VecOps, ArgminTieBreaksToSmallestIndex) {
  vec_apply(*v, [](double) { return 1.0; });
  const ValueIndex<double> mn =
      vec_argmin_key(*v, [](double x, std::size_t) { return x; });
  EXPECT_EQ(mn.index, 0);
  const ValueIndex<double> mx =
      vec_argmax_key(*v, [](double x, std::size_t) { return x; });
  EXPECT_EQ(mx.index, 0);
}

TEST_P(VecOps, FetchAndStoreChargeTime) {
  const double t0 = cube->clock().now_us();
  EXPECT_EQ(vec_fetch(*v, 5), hv[5]);
  EXPECT_GT(cube->clock().now_us(), t0);
  vec_store(*v, 5, 42.0);
  EXPECT_EQ(vec_fetch(*v, 5), 42.0);
  EXPECT_TRUE(v->replicas_consistent());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, VecOps,
    ::testing::Combine(::testing::Values(Align::Linear, Align::Cols,
                                         Align::Rows),
                       ::testing::Values(Part::Block, Part::Cyclic)));

// ---------------------------------------------------------------------------
// Matrix elementwise + rank-1 update.
// ---------------------------------------------------------------------------

class MatOps : public ::testing::TestWithParam<MatrixLayout> {
 protected:
  void SetUp() override {
    cube = std::make_unique<Cube>(4, CostParams::cm2());
    grid = std::make_unique<Grid>(*cube, 2, 2);
    ha = random_matrix(nr, nc, 21);
    hb = random_matrix(nr, nc, 22);
    A = std::make_unique<DistMatrix<double>>(*grid, nr, nc, GetParam());
    B = std::make_unique<DistMatrix<double>>(*grid, nr, nc, GetParam());
    A->load(ha);
    B->load(hb);
  }

  static constexpr std::size_t nr = 13, nc = 19;
  std::unique_ptr<Cube> cube;
  std::unique_ptr<Grid> grid;
  std::vector<double> ha, hb;
  std::unique_ptr<DistMatrix<double>> A, B;
};

TEST_P(MatOps, ApplyZipAxpyHadamard) {
  mat_apply(*A, [](double x) { return x + 1; });
  mat_zip(*A, *B, [](double a, double b) { return a - b; });
  const std::vector<double> got = A->to_host();
  for (std::size_t t = 0; t < got.size(); ++t)
    EXPECT_DOUBLE_EQ(got[t], ha[t] + 1 - hb[t]);

  const DistMatrix<double> H = hadamard(*A, *B);
  const std::vector<double> hh = H.to_host();
  for (std::size_t t = 0; t < hh.size(); ++t)
    EXPECT_DOUBLE_EQ(hh[t], got[t] * hb[t]);

  mat_axpy(*A, 3.0, *B);
  const std::vector<double> ax = A->to_host();
  for (std::size_t t = 0; t < ax.size(); ++t)
    EXPECT_DOUBLE_EQ(ax[t], got[t] + 3.0 * hb[t]);
}

TEST_P(MatOps, ApplyIndexedSeesGlobalIndices) {
  mat_apply_indexed(*A, [](double, std::size_t i, std::size_t j) {
    return static_cast<double>(i * 1000 + j);
  });
  const std::vector<double> got = A->to_host();
  for (std::size_t i = 0; i < nr; ++i)
    for (std::size_t j = 0; j < nc; ++j)
      EXPECT_EQ(got[i * nc + j], double(i * 1000 + j));
}

TEST_P(MatOps, Rank1UpdateMatchesHostAndIsLocal) {
  const std::vector<double> hc = random_vector(nr, 31);
  const std::vector<double> hr = random_vector(nc, 32);
  DistVector<double> c(*grid, nr, Align::Rows, GetParam().rows);
  DistVector<double> r(*grid, nc, Align::Cols, GetParam().cols);
  c.load(hc);
  r.load(hr);
  const std::uint64_t steps = cube->clock().stats().comm_steps;
  rank1_update(*A, -2.0, c, r);
  EXPECT_EQ(cube->clock().stats().comm_steps, steps)
      << "rank-1 update must be communication-free";
  const std::vector<double> got = A->to_host();
  for (std::size_t i = 0; i < nr; ++i)
    for (std::size_t j = 0; j < nc; ++j)
      EXPECT_DOUBLE_EQ(got[i * nc + j], ha[i * nc + j] + -2.0 * hc[i] * hr[j]);
}

TEST_P(MatOps, MatFoldAndFetch) {
  double wsum = 0;
  for (double x : ha) wsum += x;
  EXPECT_NEAR(mat_fold(*A, Plus<double>{}), wsum, 1e-11);
  EXPECT_EQ(mat_fetch(*A, 3, 4), ha[3 * nc + 4]);
}

TEST_P(MatOps, MisalignedZipRejected) {
  DistMatrix<double> C(*grid, nr, nc + 1, GetParam());
  EXPECT_THROW(mat_zip(*A, C, [](double a, double) { return a; }),
               ContractError);
}

INSTANTIATE_TEST_SUITE_P(Layouts, MatOps,
                         ::testing::Values(MatrixLayout::blocked(),
                                           MatrixLayout::cyclic(),
                                           MatrixLayout{Part::Block,
                                                        Part::Cyclic}));

// ---------------------------------------------------------------------------
// Per-piece twin.  Every vector map and fold runs once per piece, on the
// piece's holder, which hands the result to the piece's other replicas
// (detail::each_piece / each_piece_to).  `Ref` keeps the per-processor
// bodies those ops had before, in which every replica computed its own
// copy; the library must match them bit for bit: every replica's tile
// (memcmp), every returned scalar (bitwise), now_us, every SimStats field,
// the team steps each op dispatches and the whole trace.  Swept over the
// four presets, every grid split (gr, gc) in {0..3}^2 (square and
// non-square both ways), Linear/Rows/Cols x Block/Cyclic, lengths around
// the part count, payloads with -0.0, +-inf and NaNs, no fault plan and a
// transient one, and lanes 1 and 3.
// ---------------------------------------------------------------------------

// The holder rule on its own: exactly one holder per piece, the replica
// whose rank in replicated_over() is the piece's rank mod the replica
// count, and each_other visits the piece's other replicas once each.  The
// Cols test masks pcol by both extents: masked by prows - 1 alone it picks
// up row bits when prows > pcols, giving two holders per piece on N x 1
// grids and holders off the diagonal on 4 x 2 or 8 x 2.
TEST(PieceCopies, OneHolderPerPieceOnTheGridDiagonal) {
  for (int gr = 0; gr <= 3; ++gr)
    for (int gc = 0; gc <= 3; ++gc) {
      Cube cube(gr + gc, CostParams::cm2());
      Grid grid(cube, gr, gc);
      for (const Align align : {Align::Linear, Align::Rows, Align::Cols}) {
        const DistVector<double> v(grid, 5, align);
        const detail::PieceCopies copies(v);
        const SubcubeSet rep = v.replicated_over();
        const std::uint32_t count = 1u << rep.k();
        std::vector<int> holders(v.map().parts(), 0);
        for (proc_t q = 0; q < cube.procs(); ++q) {
          const std::uint32_t piece = v.rank_of(q);
          const bool diagonal = rep.rank(q) == piece % count;
          EXPECT_EQ(copies.holds(q), diagonal)
              << to_string(align) << " grid " << gr << "x" << gc << " q=" << q;
          if (!copies.holds(q)) continue;
          ++holders[piece];
          std::vector<int> seen(cube.procs(), 0);
          copies.each_other(q, [&](proc_t r) { ++seen[r]; });
          for (proc_t r = 0; r < cube.procs(); ++r)
            EXPECT_EQ(seen[r], r != q && v.rank_of(r) == piece ? 1 : 0)
                << to_string(align) << " holder " << q << " replica " << r;
        }
        for (const int h : holders) EXPECT_EQ(h, 1) << to_string(align);
      }
    }
}

/// The per-processor bodies of the converted ops, as they were.
struct Ref {
  template <class T, class F>
  static void vec_apply(DistVector<T>& v, F f) {
    const std::size_t mx = max_local_len(v.grid().cube(), v.data());
    v.grid().cube().compute(mx, v.n(), [&](proc_t q) {
      kern::apply(v.data().tile(q), f);
    });
  }

  template <class T, class F>
  static void vec_apply_indexed(DistVector<T>& v, F f) {
    const std::size_t mx = max_local_len(v.grid().cube(), v.data());
    v.grid().cube().compute(mx, v.n(), [&](proc_t q) {
      const std::uint32_t r = v.rank_of(q);
      kern::apply_indexed(v.data().tile(q), v.map().global_begin(r),
                          v.map().global_step(), f);
    });
  }

  template <class T, class F>
  static void vec_zip(DistVector<T>& a, const DistVector<T>& b, F f) {
    const std::size_t mx = max_local_len(a.grid().cube(), a.data());
    a.grid().cube().compute(mx, a.n(), [&](proc_t q) {
      kern::zip(a.data().tile(q), b.data().tile(q), f);
    });
  }

  template <class T, class F>
  static void vec_zip_indexed(DistVector<T>& a, const DistVector<T>& b, F f) {
    const std::size_t mx = max_local_len(a.grid().cube(), a.data());
    a.grid().cube().compute(mx, a.n(), [&](proc_t q) {
      const std::uint32_t r = a.rank_of(q);
      kern::zip_indexed(a.data().tile(q), b.data().tile(q),
                        a.map().global_begin(r), a.map().global_step(), f);
    });
  }

  template <class T>
  static void vec_axpy(DistVector<T>& y, T alpha, const DistVector<T>& x) {
    const std::size_t mx = max_local_len(y.grid().cube(), y.data());
    y.grid().cube().compute(mx, y.n(), [&](proc_t q) {
      kern::axpy(y.data().tile(q), alpha, x.data().tile(q));
    });
  }

  template <class T>
  static void vec_scale(DistVector<T>& v, T alpha) {
    const std::size_t mx = max_local_len(v.grid().cube(), v.data());
    v.grid().cube().compute(mx, v.n(), [&](proc_t q) {
      kern::scale(v.data().tile(q), alpha);
    });
  }

  template <class T>
  static void vec_fill_range(DistVector<T>& v, std::size_t lo, std::size_t hi,
                             const T& value) {
    vec_apply_indexed(v, [&](const T& x, std::size_t g) {
      return (g >= lo && g < hi) ? value : x;
    });
  }

  template <class T, class Op>
  static T vec_fold(const DistVector<T>& v, Op op) {
    Cube& cube = v.grid().cube();
    DistBuffer<T> acc(cube, 1);
    const std::size_t mx = max_local_len(cube, v.data());
    cube.compute(mx, v.n(), [&](proc_t q) {
      acc.tile(q)[0] =
          kern::fold(v.data().tile(q), op.identity(), kern::op_fn(op));
    });
    allreduce(cube, acc, v.partitioned_over(), op);
    return acc.tile(0)[0];
  }

  template <class T>
  static T dot(const DistVector<T>& a, const DistVector<T>& b) {
    Cube& cube = a.grid().cube();
    DistBuffer<T> acc(cube, 1);
    const std::size_t mx = max_local_len(cube, a.data());
    cube.compute(2 * mx, 2 * a.n(), [&](proc_t q) {
      acc.tile(q)[0] = kern::dot(a.data().tile(q), b.data().tile(q));
    });
    allreduce(cube, acc, a.partitioned_over(), Plus<T>{});
    return acc.tile(0)[0];
  }

  template <class Op, class T, class KeyFn>
  static ValueIndex<double> vec_locate(const DistVector<T>& v, KeyFn key,
                                       double excluded) {
    Cube& cube = v.grid().cube();
    const Op op;
    const AxisMap& map = v.map();
    DistBuffer<ValueIndex<double>> acc(cube, 1);
    const std::size_t mx = max_local_len(cube, v.data());
    cube.compute(mx, v.n(), [&](proc_t q) {
      const std::uint32_t r = v.rank_of(q);
      const std::span<const T> piece = v.piece(q);
      const std::size_t step = map.global_step();
      std::size_t g = map.global_begin(r);
      ValueIndex<double> best = op.identity();
      for (std::size_t s = 0; s < piece.size(); ++s, g += step) {
        const double k = key(piece[s], g);
        if (k == excluded) continue;
        best = op.combine(best,
                          ValueIndex<double>{k, static_cast<std::int64_t>(g)});
      }
      acc.tile(q)[0] = best;
    });
    allreduce(cube, acc, v.partitioned_over(), op);
    return acc.tile(0)[0];
  }

  template <class T, class KeyFn>
  static ValueIndex<double> vec_argmin_key(const DistVector<T>& v, KeyFn key) {
    return vec_locate<MinLoc<double>>(v, key,
                                      std::numeric_limits<double>::infinity());
  }

  template <class T, class KeyFn>
  static ValueIndex<double> vec_argmax_key(const DistVector<T>& v, KeyFn key) {
    return vec_locate<MaxLoc<double>>(
        v, key, -std::numeric_limits<double>::infinity());
  }

  template <class T, class Op>
  static void vec_scan_exclusive(DistVector<T>& v, Op op) {
    Cube& cube = v.grid().cube();
    const std::size_t mx = max_local_len(cube, v.data());
    const auto batch = cube.session();
    DistBuffer<T> totals(cube, 1);
    cube.compute(mx, v.n(), [&](proc_t q) {
      totals.tile(q)[0] = kern::fold(v.data().tile(q), op.identity(),
                                     [&](const T& a, const T& x) {
                                       return op.combine(a, x);
                                     });
    });
    scan_exclusive(cube, totals, v.partitioned_over(), op);
    cube.compute(mx, v.n(), [&](proc_t q) {
      (void)kern::scan_exclusive(v.data().tile(q), totals.tile(q)[0],
                                 [&](const T& a, const T& x) {
                                   return op.combine(a, x);
                                 });
    });
  }

  template <class T, class Op>
  static void vec_scan_inclusive(DistVector<T>& v, Op op) {
    DistVector<T> orig = v;
    vec_scan_exclusive(v, op);
    vec_zip(v, orig,
            [&](const T& pre, const T& x) { return op.combine(pre, x); });
  }

  template <class T, class Op>
  static void vec_scan_exclusive_segmented(
      DistVector<T>& v, const DistVector<std::uint8_t>& flags, Op op) {
    Cube& cube = v.grid().cube();
    using Pair = detail::SegPair<T>;
    const detail::SegOp<T, Op> seg{op};
    const std::size_t mx = max_local_len(cube, v.data());
    const auto batch = cube.session();
    DistBuffer<Pair> totals(cube, 1);
    cube.compute(2 * mx, 2 * v.n(), [&](proc_t q) {
      Pair acc = seg.identity();
      const std::span<const T> piece = v.data().tile(q);
      const std::span<const std::uint8_t> fl = flags.data().tile(q);
      for (std::size_t s = 0; s < piece.size(); ++s)
        acc = seg.combine(acc, Pair{piece[s], fl[s] != 0});
      totals.tile(q)[0] = acc;
    });
    scan_exclusive(cube, totals, v.partitioned_over(), seg);
    cube.compute(2 * mx, 2 * v.n(), [&](proc_t q) {
      Pair carry = totals.tile(q)[0];
      const std::span<T> piece = v.data().tile(q);
      const std::span<const std::uint8_t> fl = flags.data().tile(q);
      for (std::size_t s = 0; s < piece.size(); ++s) {
        const Pair cur{piece[s], fl[s] != 0};
        piece[s] = cur.flag ? op.identity() : carry.value;
        carry = seg.combine(carry, cur);
      }
    });
  }
};

/// The library's ops under the same names as Ref's.
struct Lib {
  template <class... A>
  static void vec_apply(A&&... a) { vmp::vec_apply(std::forward<A>(a)...); }
  template <class... A>
  static void vec_apply_indexed(A&&... a) {
    vmp::vec_apply_indexed(std::forward<A>(a)...);
  }
  template <class... A>
  static void vec_zip(A&&... a) { vmp::vec_zip(std::forward<A>(a)...); }
  template <class... A>
  static void vec_zip_indexed(A&&... a) {
    vmp::vec_zip_indexed(std::forward<A>(a)...);
  }
  template <class... A>
  static void vec_axpy(A&&... a) { vmp::vec_axpy(std::forward<A>(a)...); }
  template <class... A>
  static void vec_scale(A&&... a) { vmp::vec_scale(std::forward<A>(a)...); }
  template <class... A>
  static void vec_fill_range(A&&... a) {
    vmp::vec_fill_range(std::forward<A>(a)...);
  }
  template <class... A>
  static auto vec_fold(A&&... a) { return vmp::vec_fold(std::forward<A>(a)...); }
  template <class... A>
  static auto dot(A&&... a) { return vmp::dot(std::forward<A>(a)...); }
  template <class... A>
  static auto vec_argmin_key(A&&... a) {
    return vmp::vec_argmin_key(std::forward<A>(a)...);
  }
  template <class... A>
  static auto vec_argmax_key(A&&... a) {
    return vmp::vec_argmax_key(std::forward<A>(a)...);
  }
  template <class... A>
  static void vec_scan_exclusive(A&&... a) {
    vmp::vec_scan_exclusive(std::forward<A>(a)...);
  }
  template <class... A>
  static void vec_scan_inclusive(A&&... a) {
    vmp::vec_scan_inclusive(std::forward<A>(a)...);
  }
  template <class... A>
  static void vec_scan_exclusive_segmented(A&&... a) {
    vmp::vec_scan_exclusive_segmented(std::forward<A>(a)...);
  }
};

[[nodiscard]] std::uint64_t bits(double x) {
  return std::bit_cast<std::uint64_t>(x);
}

/// One machine of the twin and the vectors its program runs on.
struct TwinMachine {
  Cube cube;
  Grid grid;
  std::unique_ptr<DistVector<double>> v, w;
  std::unique_ptr<DistVector<std::uint8_t>> flags;

  TwinMachine(TopologyKind kind, int gr, int gc, unsigned lanes, bool faulty)
      : cube(gr + gc, CostParams::cm2(), Cube::Options{lanes, kind}),
        grid(cube, gr, gc) {
    if (faulty)
      cube.enable_faults(FaultPlan::transient(
          20261020u + static_cast<unsigned>(gr * 4 + gc), 0.02, 0.01));
    cube.clock().tracer().set_recording(true);
  }

  void load(Align align, Part part, std::span<const double> hv,
            std::span<const double> hw, std::span<const std::uint8_t> hf) {
    const std::size_t n = hv.size();
    v = std::make_unique<DistVector<double>>(grid, n, align, part);
    w = std::make_unique<DistVector<double>>(grid, n, align, part);
    flags = std::make_unique<DistVector<std::uint8_t>>(grid, n, align, part);
    v->load(hv);
    w->load(hw);
    flags->load(hf);
  }
};

/// Ops of the twin program, in order; the last three are the scans, which
/// need Block vectors.
constexpr int kTwinOps = 16;
constexpr int kTwinScans = 3;

/// Runs op `op` of the program with `Ops` on m; returns the bits of the
/// scalars it yields (none for a map).
template <class Ops>
std::vector<std::uint64_t> run_twin_op(int op, TwinMachine& m) {
  DistVector<double>& v = *m.v;
  const DistVector<double>& w = *m.w;
  const std::size_t n = v.n();
  switch (op) {
    case 0:
      Ops::vec_apply(v, [](double x) { return 1.5 * x - 0.25; });
      return {};
    case 1:
      Ops::vec_apply_indexed(v, [](double x, std::size_t g) {
        return g % 3 == 0 ? -x : x + 0.5 * static_cast<double>(g);
      });
      return {};
    case 2:
      Ops::vec_fill_range(v, n / 4, n / 2, -0.0);
      return {};
    case 3:
      Ops::vec_zip(v, w, [](double x, double y) { return x - 2.0 * y; });
      return {};
    case 4:
      // Subtraction keeps its operand order: where two NaNs meet, GCC may
      // commute an add or a multiply differently in the two bodies.
      Ops::vec_zip_indexed(v, w, [](double x, double y, std::size_t g) {
        return (g & 1) != 0 ? x - y : 0.5 * x - y;
      });
      return {};
    case 5:
      Ops::vec_axpy(v, 0.75, w);
      return {};
    case 6:
      Ops::vec_scale(v, -1.25);
      return {};
    case 7:
      return {bits(Ops::vec_fold(w, Plus<double>{})),
              bits(Ops::vec_fold(v, Max<double>{})),
              bits(Ops::vec_fold(v, Min<double>{}))};
    case 8:
      return {bits(Ops::dot(v, w)), bits(Ops::dot(w, w))};
    case 9: {
      const ValueIndex<double> a =
          Ops::vec_argmin_key(v, [](double x, std::size_t) { return x; });
      return {bits(a.value), static_cast<std::uint64_t>(a.index)};
    }
    case 10: {
      const ValueIndex<double> a = Ops::vec_argmax_key(
          w, [n](double x, std::size_t g) {
            return g < n / 3 ? -std::numeric_limits<double>::infinity()
                             : std::abs(x);
          });
      return {bits(a.value), static_cast<std::uint64_t>(a.index)};
    }
    case 11:
      Ops::vec_apply(v, [](double x) { return x * 0.5 + 1.0; });
      return {};
    case 12:
      Ops::vec_zip(v, w, [](double x, double y) { return y < x ? y : x; });
      return {};
    case 13:
      Ops::vec_scan_exclusive(v, Plus<double>{});
      return {};
    case 14:
      Ops::vec_scan_inclusive(v, Max<double>{});
      return {};
    case 15:
      Ops::vec_scan_exclusive_segmented(v, *m.flags, Plus<double>{});
      return {};
    default:
      ADD_FAILURE() << "no op " << op;
      return {};
  }
}

const char* const kTwinOpNames[kTwinOps] = {
    "vec_apply",      "vec_apply_indexed", "vec_fill_range",
    "vec_zip",        "vec_zip_indexed",   "vec_axpy",
    "vec_scale",      "vec_fold",          "dot",
    "vec_argmin_key", "vec_argmax_key",    "vec_apply",
    "vec_zip",        "vec_scan_exclusive", "vec_scan_inclusive",
    "vec_scan_exclusive_segmented"};

/// Payload of length n with -0.0, +-inf and NaNs (two payloads, both signs)
/// among finite values.
[[nodiscard]] std::vector<double> twin_payload(std::size_t n, unsigned seed) {
  std::vector<double> h = random_vector(n, seed);
  const double specials[] = {
      -0.0, std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      std::bit_cast<double>(std::uint64_t{0xfff8000000000123})};
  for (std::size_t g = 0; g < n; ++g)
    if (g % 9 == seed % 9) h[g] = specials[(g / 9) % 5];
  return h;
}

/// Every tile of `a` and `b` holds the same bytes.
template <class T>
void expect_same_tiles(const DistVector<T>& a, const DistVector<T>& b,
                       const std::string& what) {
  for (proc_t q = 0; q < a.grid().cube().procs(); ++q) {
    const std::span<const T> x = a.data().tile(q), y = b.data().tile(q);
    ASSERT_EQ(x.size(), y.size()) << what << " tile length, q=" << q;
    if (x.empty()) continue;  // an empty tile may have no storage at all
    EXPECT_EQ(std::memcmp(x.data(), y.data(), x.size_bytes()), 0)
        << what << " tile bytes, q=" << q;
  }
}

struct PieceTwinCase {
  TopologyKind kind;
  int gr, gc;
};

void PrintTo(const PieceTwinCase& c, std::ostream* os) {
  PrintTo(c.kind, os);
  *os << ' ' << (1 << c.gr) << 'x' << (1 << c.gc);
}

class VecPieceTwin : public ::testing::TestWithParam<PieceTwinCase> {};

TEST_P(VecPieceTwin, BitIdenticalToPerProcessorBodies) {
  const auto [kind, gr, gc] = GetParam();
  const proc_t p = proc_t{1} << (gr + gc);
  std::uint64_t retries = 0;
  for (const unsigned lanes : {1u, 3u})
    for (const bool faulty : {false, true}) {
      TwinMachine ref(kind, gr, gc, lanes, faulty);
      TwinMachine got(kind, gr, gc, lanes, faulty);
      for (const Align align : {Align::Linear, Align::Rows, Align::Cols})
        for (const Part part : {Part::Block, Part::Cyclic}) {
          if (align == Align::Linear && part == Part::Cyclic) continue;
          const std::size_t parts = align == Align::Linear ? p
                                    : align == Align::Rows ? (1u << gr)
                                                           : (1u << gc);
          for (const std::size_t n :
               {std::size_t{0}, std::size_t{1}, parts - 1, parts + 3,
                std::size_t{37}, std::size_t{256}}) {
            const std::string where =
                std::string("lanes=") + std::to_string(lanes) +
                (faulty ? " transient " : " clean ") + to_string(align) +
                (part == Part::Block ? " Block" : " Cyclic") +
                " n=" + std::to_string(n);
            const std::vector<double> hv = twin_payload(n, 61);
            const std::vector<double> hw = twin_payload(n, 67);
            std::vector<std::uint8_t> hf(n);
            for (std::size_t g = 0; g < n; ++g) hf[g] = g % 5 == 2 ? 1 : 0;
            ref.load(align, part, hv, hw, hf);
            got.load(align, part, hv, hw, hf);
            const int ops =
                part == Part::Block ? kTwinOps : kTwinOps - kTwinScans;
            for (int op = 0; op < ops; ++op) {
              const std::string what = where + " op " + std::to_string(op) +
                                       " " + kTwinOpNames[op];
              const std::uint64_t ref0 = ref.cube.team().steps_dispatched();
              const std::uint64_t got0 = got.cube.team().steps_dispatched();
              const std::vector<std::uint64_t> want = run_twin_op<Ref>(op, ref);
              const std::vector<std::uint64_t> have = run_twin_op<Lib>(op, got);
              EXPECT_EQ(want, have) << what << " scalars";
              expect_same_tiles(*ref.v, *got.v, what);
              EXPECT_EQ(ref.cube.team().steps_dispatched() - ref0,
                        got.cube.team().steps_dispatched() - got0)
                  << what << " team steps";
              EXPECT_EQ(bits(ref.cube.clock().now_us()),
                        bits(got.cube.clock().now_us()))
                  << what << " now_us";
              EXPECT_TRUE(ref.cube.clock().stats() == got.cube.clock().stats())
                  << what << " SimStats";
            }
            expect_same_tiles(*ref.w, *got.w, where + " second operand");
          }
        }
      const Tracer& rt = ref.cube.clock().tracer();
      const Tracer& gt = got.cube.clock().tracer();
      const std::string what = std::string("lanes=") + std::to_string(lanes) +
                               (faulty ? " transient" : " clean");
      EXPECT_EQ(rt.paths(), gt.paths()) << what;
      EXPECT_TRUE(rt.events() == gt.events()) << what << " trace events";
      EXPECT_TRUE(rt.spans() == gt.spans()) << what << " trace spans";
      EXPECT_TRUE(rt.self_profiles() == gt.self_profiles())
          << what << " region profiles";
      if (faulty) retries += ref.cube.clock().stats().fault_retries;
    }
  if (gr + gc >= 2) {
    EXPECT_GT(retries, 0u) << "the transient plan must fire";
  }
}

[[nodiscard]] std::vector<PieceTwinCase> piece_twin_cases() {
  std::vector<PieceTwinCase> out;
  for (const TopologyKind kind :
       {TopologyKind::Hypercube, TopologyKind::Mesh, TopologyKind::Torus,
        TopologyKind::Dragonfly})
    for (int gr = 0; gr <= 3; ++gr)
      for (int gc = 0; gc <= 3; ++gc) out.push_back({kind, gr, gc});
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Grids, VecPieceTwin, ::testing::ValuesIn(piece_twin_cases()),
    [](const ::testing::TestParamInfo<PieceTwinCase>& info) {
      return std::string(to_string(info.param.kind)) + "_" +
             std::to_string(1 << info.param.gr) + "x" +
             std::to_string(1 << info.param.gc);
    });

}  // namespace
}  // namespace vmp
