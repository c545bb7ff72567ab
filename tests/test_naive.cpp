// Tests: naive router-based primitives agree with the optimized ones in
// VALUE while losing to them badly in simulated TIME — the paper's
// order-of-magnitude claim, asserted as a property.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algorithms/matvec.hpp"
#include "core/naive.hpp"
#include "core/primitives.hpp"
#include "embed/realign.hpp"
#include "fault/fault.hpp"
#include "util/workloads.hpp"
#include "param_printers.hpp"

namespace vmp {
namespace {

class NaiveSweep : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  void SetUp() override {
    const auto [gr, gc] = GetParam();
    cube = std::make_unique<Cube>(gr + gc, CostParams::cm2());
    grid = std::make_unique<Grid>(*cube, gr, gc);
  }
  static constexpr std::size_t nr = 12, nc = 15;
  std::unique_ptr<Cube> cube;
  std::unique_ptr<Grid> grid;
};

TEST_P(NaiveSweep, DistributeAgreesWithOptimized) {
  const std::vector<double> hv = random_vector(nc, 61);
  DistVector<double> lin(*grid, nc, Align::Linear);
  lin.load(hv);
  const DistMatrix<double> M = naive_distribute_rows(lin, nr);
  const std::vector<double> got = M.to_host();
  for (std::size_t i = 0; i < nr; ++i)
    for (std::size_t j = 0; j < nc; ++j) EXPECT_EQ(got[i * nc + j], hv[j]);
}

TEST_P(NaiveSweep, ReduceAgreesWithOptimized) {
  const std::vector<double> ha = random_matrix(nr, nc, 62);
  DistMatrix<double> A(*grid, nr, nc);
  A.load(ha);
  const std::vector<double> naive = naive_reduce_cols_sum(A).to_host();
  const std::vector<double> fast = reduce_cols(A, Plus<double>{}).to_host();
  for (std::size_t j = 0; j < nc; ++j)
    EXPECT_NEAR(naive[j], fast[j], 1e-12 * (1 + std::abs(fast[j])));
}

TEST_P(NaiveSweep, ExtractAndInsertAgree) {
  const std::vector<double> ha = random_matrix(nr, nc, 63);
  DistMatrix<double> A(*grid, nr, nc);
  A.load(ha);
  const std::vector<double> row = naive_extract_row(A, nr / 2).to_host();
  for (std::size_t j = 0; j < nc; ++j)
    EXPECT_EQ(row[j], ha[(nr / 2) * nc + j]);

  const std::vector<double> hv = random_vector(nc, 64);
  DistVector<double> lin(*grid, nc, Align::Linear);
  lin.load(hv);
  naive_insert_row(A, 1, lin);
  EXPECT_EQ(extract_row(A, 1).to_host(), hv);
}

TEST_P(NaiveSweep, MatvecAgreesWithPrimitiveComposition) {
  const auto [gr, gc] = GetParam();
  const std::vector<double> ha = random_matrix(nr, nc, 65);
  const std::vector<double> hx = random_vector(nc, 66);
  DistMatrix<double> A(*grid, nr, nc);
  A.load(ha);
  DistVector<double> xl(*grid, nc, Align::Linear);
  xl.load(hx);
  const std::vector<double> naive = naive_matvec(A, xl).to_host();

  DistVector<double> xc(*grid, nc, Align::Cols);
  xc.load(hx);
  const std::vector<double> fast = matvec(A, xc).to_host();
  for (std::size_t i = 0; i < nr; ++i)
    EXPECT_NEAR(naive[i], fast[i], 1e-12 * (1 + std::abs(fast[i])));
}

INSTANTIATE_TEST_SUITE_P(Grids, NaiveSweep,
                         ::testing::Values(std::tuple{0, 0}, std::tuple{1, 1},
                                           std::tuple{2, 2}, std::tuple{1, 2},
                                           std::tuple{3, 2}));

TEST(NaiveVsOptimized, OrderOfMagnitudeSpeedupOnMatvec) {
  // The paper: optimized primitives improved application running time by
  // almost an order of magnitude over the naive implementation.  With
  // CM-2-like constants and a reasonably sized problem the gap must be
  // at least ~8x (it grows with size).
  Cube cube(6, CostParams::cm2());
  Grid grid(cube, 3, 3);
  const std::size_t n = 64;
  const std::vector<double> ha = random_matrix(n, n, 71);
  const std::vector<double> hx = random_vector(n, 72);
  DistMatrix<double> A(grid, n, n);
  A.load(ha);

  DistVector<double> xl(grid, n, Align::Linear);
  xl.load(hx);
  cube.clock().reset();
  (void)naive_matvec(A, xl);
  const double t_naive = cube.clock().now_us();

  DistVector<double> xc(grid, n, Align::Cols);
  xc.load(hx);
  cube.clock().reset();
  (void)matvec(A, xc);
  const double t_fast = cube.clock().now_us();

  EXPECT_GT(t_naive / t_fast, 8.0)
      << "naive=" << t_naive << "us fast=" << t_fast << "us";
}

TEST(NaiveVsOptimized, GapIncludesEmbeddingChangeCost) {
  // Even paying a realignment Linear→Cols first, the optimized path wins.
  Cube cube(6, CostParams::cm2());
  Grid grid(cube, 3, 3);
  const std::size_t n = 64;
  DistMatrix<double> A(grid, n, n);
  A.load(random_matrix(n, n, 73));
  DistVector<double> xl(grid, n, Align::Linear);
  xl.load(random_vector(n, 74));

  cube.clock().reset();
  (void)naive_matvec(A, xl);
  const double t_naive = cube.clock().now_us();

  cube.clock().reset();
  const DistVector<double> xc = realign(xl, Align::Cols);
  (void)matvec(A, xc);
  const double t_fast = cube.clock().now_us();

  EXPECT_GT(t_naive / t_fast, 5.0);
}


// ---------------------------------------------------------------------------
// NaiveTwin: distribute, extract, insert and the sum-reduction each have one
// body in naive.hpp, which takes the axis as a flag.  The twin keeps the
// row and column copies they replaced, naive_matvec's inlined phases and
// naive_swap_rows' own router set-up here as references, and runs every
// named form against its reference on a second cube with the same options
// and fault plan.  After every call the result and the matrix must match
// bit for bit, as must now_us, every SimStats field (pool counters
// included: both build their outputs at the same point) and whether the
// call threw; at the end, the whole trace.

namespace reference {

DistMatrix<double> distribute_rows(const DistVector<double>& v,
                                   std::size_t nrows, MatrixLayout layout) {
  Grid& grid = v.grid();
  Cube& cube = grid.cube();
  VMP_TRACE(cube, "naive_distribute_rows");
  DistMatrix<double> out(grid, nrows, v.n(), layout);
  std::vector<std::vector<Packet>> inject(cube.procs());
  cube.each_proc([&](proc_t q) {
    const std::uint32_t C = grid.pcol(q);
    const std::size_t lrn = out.lrows(q), lcn = out.lcols(q);
    for (std::size_t lc = 0; lc < lcn; ++lc) {
      const std::size_t j = out.colmap().global(C, lc);
      const proc_t src = v.map().owner(j);
      const double value = v.at(j);
      for (std::size_t lr = 0; lr < lrn; ++lr)
        inject[src].push_back(Packet{q, lr * lcn + lc, value});
    }
  });
  NaiveRouter router(cube);
  router.run(std::move(inject), [&](proc_t dst, std::uint64_t tag, double x) {
    out.data().tile(dst)[tag] = x;
  });
  return out;
}

DistVector<double> reduce_cols_sum(const DistMatrix<double>& A) {
  Grid& grid = A.grid();
  Cube& cube = grid.cube();
  VMP_TRACE(cube, "naive_reduce_cols_sum");
  DistVector<double> out(grid, A.ncols(), Align::Linear);
  std::vector<std::vector<Packet>> inject(cube.procs());
  cube.each_proc([&](proc_t q) {
    const std::uint32_t C = grid.pcol(q);
    const std::size_t lrn = A.lrows(q), lcn = A.lcols(q);
    const std::span<const double> blk = A.block(q);
    for (std::size_t lr = 0; lr < lrn; ++lr)
      for (std::size_t lc = 0; lc < lcn; ++lc) {
        const std::size_t j = A.colmap().global(C, lc);
        inject[q].push_back(Packet{v_owner(out, j), out.map().local(j),
                                   blk[lr * lcn + lc]});
      }
  });
  NaiveRouter router(cube);
  router.run(std::move(inject), [&](proc_t dst, std::uint64_t tag, double x) {
    out.data().tile(dst)[tag] += x;
  });
  return out;
}

DistVector<double> extract_row(const DistMatrix<double>& A, std::size_t i) {
  Grid& grid = A.grid();
  Cube& cube = grid.cube();
  VMP_TRACE(cube, "naive_extract_row");
  DistVector<double> out(grid, A.ncols(), Align::Linear);
  const std::uint32_t R = A.rowmap().owner(i);
  const std::size_t lr = A.rowmap().local(i);
  std::vector<std::vector<Packet>> inject(cube.procs());
  cube.each_proc([&](proc_t q) {
    if (grid.prow(q) != R) return;
    const std::uint32_t C = grid.pcol(q);
    const std::size_t lcn = A.lcols(q);
    const std::span<const double> blk = A.block(q);
    for (std::size_t lc = 0; lc < lcn; ++lc) {
      const std::size_t j = A.colmap().global(C, lc);
      inject[q].push_back(
          Packet{v_owner(out, j), out.map().local(j), blk[lr * lcn + lc]});
    }
  });
  NaiveRouter router(cube);
  router.run(std::move(inject), [&](proc_t dst, std::uint64_t tag, double x) {
    out.data().tile(dst)[tag] = x;
  });
  return out;
}

void insert_row(DistMatrix<double>& A, std::size_t i,
                const DistVector<double>& v) {
  Grid& grid = A.grid();
  Cube& cube = grid.cube();
  VMP_TRACE(cube, "naive_insert_row");
  const std::uint32_t R = A.rowmap().owner(i);
  const std::size_t lr = A.rowmap().local(i);
  std::vector<std::vector<Packet>> inject(cube.procs());
  for (std::size_t j = 0; j < v.n(); ++j) {
    const proc_t dst = grid.at(R, A.colmap().owner(j));
    const std::size_t lcn = A.colmap().size(A.colmap().owner(j));
    inject[v.map().owner(j)].push_back(
        Packet{dst, lr * lcn + A.colmap().local(j), v.at(j)});
  }
  NaiveRouter router(cube);
  router.run(std::move(inject), [&](proc_t dst, std::uint64_t tag, double x) {
    A.data().tile(dst)[tag] = x;
  });
}

DistMatrix<double> distribute_cols(const DistVector<double>& v,
                                   std::size_t ncols, MatrixLayout layout) {
  Grid& grid = v.grid();
  Cube& cube = grid.cube();
  VMP_TRACE(cube, "naive_distribute_cols");
  DistMatrix<double> out(grid, v.n(), ncols, layout);
  std::vector<std::vector<Packet>> inject(cube.procs());
  cube.each_proc([&](proc_t q) {
    const std::uint32_t R = grid.prow(q);
    const std::size_t lrn = out.lrows(q), lcn = out.lcols(q);
    for (std::size_t lr = 0; lr < lrn; ++lr) {
      const std::size_t i = out.rowmap().global(R, lr);
      const proc_t src = v.map().owner(i);
      const double value = v.at(i);
      for (std::size_t lc = 0; lc < lcn; ++lc)
        inject[src].push_back(Packet{q, lr * lcn + lc, value});
    }
  });
  NaiveRouter router(cube);
  router.run(std::move(inject), [&](proc_t dst, std::uint64_t tag, double x) {
    out.data().tile(dst)[tag] = x;
  });
  return out;
}

DistVector<double> extract_col(const DistMatrix<double>& A, std::size_t j) {
  Grid& grid = A.grid();
  Cube& cube = grid.cube();
  VMP_TRACE(cube, "naive_extract_col");
  DistVector<double> out(grid, A.nrows(), Align::Linear);
  const std::uint32_t C = A.colmap().owner(j);
  const std::size_t lc = A.colmap().local(j);
  std::vector<std::vector<Packet>> inject(cube.procs());
  cube.each_proc([&](proc_t q) {
    if (grid.pcol(q) != C) return;
    const std::uint32_t R = grid.prow(q);
    const std::size_t lcn = A.lcols(q);
    const std::size_t lrn = A.lrows(q);
    const std::span<const double> blk = A.block(q);
    for (std::size_t lr = 0; lr < lrn; ++lr) {
      const std::size_t i = A.rowmap().global(R, lr);
      inject[q].push_back(
          Packet{v_owner(out, i), out.map().local(i), blk[lr * lcn + lc]});
    }
  });
  NaiveRouter router(cube);
  router.run(std::move(inject), [&](proc_t dst, std::uint64_t tag, double x) {
    out.data().tile(dst)[tag] = x;
  });
  return out;
}

void insert_col(DistMatrix<double>& A, std::size_t j,
                const DistVector<double>& v) {
  Grid& grid = A.grid();
  Cube& cube = grid.cube();
  VMP_TRACE(cube, "naive_insert_col");
  const std::uint32_t C = A.colmap().owner(j);
  const std::size_t lc = A.colmap().local(j);
  std::vector<std::vector<Packet>> inject(cube.procs());
  for (std::size_t i = 0; i < v.n(); ++i) {
    const std::uint32_t R = A.rowmap().owner(i);
    const proc_t dst = grid.at(R, C);
    const std::size_t lcn = A.colmap().size(C);
    inject[v.map().owner(i)].push_back(
        Packet{dst, A.rowmap().local(i) * lcn + lc, v.at(i)});
  }
  NaiveRouter router(cube);
  router.run(std::move(inject), [&](proc_t dst, std::uint64_t tag, double x) {
    A.data().tile(dst)[tag] = x;
  });
}

void swap_rows(DistMatrix<double>& A, std::size_t i, std::size_t j) {
  if (i == j) return;
  Cube& cube = A.grid().cube();
  VMP_TRACE(cube, "naive_swap_rows");
  std::vector<std::vector<Packet>> inject(cube.procs());
  for (std::size_t g = 0; g < A.ncols(); ++g) {
    const proc_t qi = A.owner(i, g);
    const proc_t qj = A.owner(j, g);
    const std::size_t slot_i =
        A.rowmap().local(i) * A.lcols(qi) + A.colmap().local(g);
    const std::size_t slot_j =
        A.rowmap().local(j) * A.lcols(qj) + A.colmap().local(g);
    inject[qi].push_back(Packet{qj, slot_j, A.data().tile(qi)[slot_i]});
    inject[qj].push_back(Packet{qi, slot_i, A.data().tile(qj)[slot_j]});
  }
  NaiveRouter router(cube);
  router.run(std::move(inject), [&](proc_t dst, std::uint64_t tag, double x) {
    A.data().tile(dst)[tag] = x;
  });
}

DistVector<double> matvec(const DistMatrix<double>& A,
                          const DistVector<double>& x) {
  Grid& grid = A.grid();
  Cube& cube = grid.cube();
  VMP_TRACE(cube, "naive_matvec");
  DistMatrix<double> X(grid, A.nrows(), A.ncols(), A.layout());
  std::vector<std::vector<Packet>> inject(cube.procs());
  cube.each_proc([&](proc_t q) {
    const std::uint32_t C = grid.pcol(q);
    const std::size_t lrn = X.lrows(q), lcn = X.lcols(q);
    for (std::size_t lc = 0; lc < lcn; ++lc) {
      const std::size_t j = X.colmap().global(C, lc);
      const proc_t src = x.map().owner(j);
      const double value = x.at(j);
      for (std::size_t lr = 0; lr < lrn; ++lr)
        inject[src].push_back(Packet{q, lr * lcn + lc, value});
    }
  });
  NaiveRouter router(cube);
  router.run(std::move(inject), [&](proc_t dst, std::uint64_t tag, double v) {
    X.data().tile(dst)[tag] = v;
  });
  cube.compute(X.max_block(), X.nrows() * X.ncols(), [&](proc_t q) {
    const std::span<double> xv = X.data().tile(q);
    const std::span<const double> av = A.data().tile(q);
    for (std::size_t t = 0; t < xv.size(); ++t) xv[t] *= av[t];
  });
  DistVector<double> y(grid, A.nrows(), Align::Linear);
  std::vector<std::vector<Packet>> inject2(cube.procs());
  cube.each_proc([&](proc_t q) {
    const std::uint32_t R = grid.prow(q);
    const std::size_t lrn = X.lrows(q), lcn = X.lcols(q);
    const std::span<const double> blk = X.block(q);
    for (std::size_t lr = 0; lr < lrn; ++lr) {
      const std::size_t i = X.rowmap().global(R, lr);
      for (std::size_t lc = 0; lc < lcn; ++lc)
        inject2[q].push_back(
            Packet{v_owner(y, i), y.map().local(i), blk[lr * lcn + lc]});
    }
  });
  router.run(std::move(inject2), [&](proc_t dst, std::uint64_t tag, double v) {
    y.data().tile(dst)[tag] += v;
  });
  return y;
}

}  // namespace reference

enum class NaivePlan { None, Transient, DeadLink };

struct NaiveTwinCase {
  TopologyKind kind;
  int d;
};

void PrintTo(const NaiveTwinCase& c, std::ostream* os) {
  PrintTo(c.kind, os);
  *os << " d=" << c.d;
}

/// One side of the twin: a cube with the case's options and plan, an
/// nrows × ncols matrix and Linear vectors of length nrows and ncols.
struct NaiveMachine {
  Cube cube;
  Grid grid;
  DistMatrix<double> A;
  DistVector<double> vr, vc;

  NaiveMachine(TopologyKind kind, int d, int gr, NaivePlan plan,
               unsigned lanes, std::size_t nrows, std::size_t ncols,
               const MatrixLayout& layout)
      : cube(d, CostParams::cm2(), Cube::Options{lanes, kind}),
        grid(cube, gr, d - gr),
        A(grid, nrows, ncols, layout),
        vr(grid, nrows, Align::Linear),
        vc(grid, ncols, Align::Linear) {
    FaultPlan fp;
    if (plan == NaivePlan::Transient)
      fp = FaultPlan::transient(0x5a1eu + static_cast<unsigned>(d), 0.1, 0.1,
                                0.1, 2.5);
    if (plan == NaivePlan::DeadLink) {
      // The physical link the message 0 → 1 leaves on.
      std::vector<Hop> hops;
      cube.topology().route(0, 1, hops);
      fp.link_kills.push_back({/*from_round=*/0, hops.front().from,
                               hops.front().port});
    }
    if (plan != NaivePlan::None) cube.enable_faults(fp);
    cube.clock().tracer().set_recording(true);
    A.load(random_matrix(nrows, ncols, 81));
    vr.load(random_vector(nrows, 82));
    vc.load(random_vector(ncols, 83));
  }
};

/// Every tile of `buf`, lengths first, as raw bits.
[[nodiscard]] std::vector<std::uint64_t> tile_bits(
    const DistBuffer<double>& buf) {
  std::vector<std::uint64_t> out;
  for (proc_t q = 0; q < buf.procs(); ++q) {
    const std::span<const double> t = buf.tile(q);
    out.push_back(t.size());
    for (const double x : t) {
      std::uint64_t b = 0;
      std::memcpy(&b, &x, sizeof b);
      out.push_back(b);
    }
  }
  return out;
}

/// Run one call on each machine — `lib` on `got`, `ref` on `want`, each
/// returning its result's tile bits — and compare what they did.  Returns
/// whether the calls threw.
bool twin_call(const std::string& what, NaiveMachine& got, NaiveMachine& want,
               const std::function<std::vector<std::uint64_t>(NaiveMachine&)>&
                   lib,
               const std::function<std::vector<std::uint64_t>(NaiveMachine&)>&
                   ref) {
  std::optional<std::vector<std::uint64_t>> have, need;
  try {
    have = lib(got);
  } catch (const FaultError&) {
  }
  try {
    need = ref(want);
  } catch (const FaultError&) {
  }
  EXPECT_EQ(have.has_value(), need.has_value()) << what << " threw";
  if (have && need) EXPECT_EQ(*have, *need) << what << " result";
  EXPECT_EQ(tile_bits(got.A.data()), tile_bits(want.A.data()))
      << what << " matrix";
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.cube.clock().now_us()),
            std::bit_cast<std::uint64_t>(want.cube.clock().now_us()))
      << what << " now_us";
  EXPECT_TRUE(got.cube.clock().stats() == want.cube.clock().stats())
      << what << " SimStats";
  return !have.has_value();
}

class NaiveTwin : public ::testing::TestWithParam<NaiveTwinCase> {};

TEST_P(NaiveTwin, OneBodyPerPrimitiveMatchesTheRowAndColumnCopies) {
  const auto [kind, d] = GetParam();
  int throws = 0;
  std::uint64_t retries = 0;
  struct Shape {
    std::size_t nrows, ncols;
  };
  for (int gr = 0; gr <= d; ++gr)
    for (const Shape sh : {Shape{5, 3}, Shape{13, 13}, Shape{33, 20}})
      for (const MatrixLayout& layout :
           {MatrixLayout::blocked(), MatrixLayout::cyclic()})
        for (const NaivePlan plan :
             {NaivePlan::None, NaivePlan::Transient, NaivePlan::DeadLink})
          for (const unsigned lanes : {1u, 3u}) {
            const std::size_t nr = sh.nrows, nc = sh.ncols;
            const std::string where =
                std::to_string(1 << gr) + "x" + std::to_string(1 << (d - gr)) +
                " " + std::to_string(nr) + "x" + std::to_string(nc) + " " +
                (layout.rows == Part::Block ? "Block" : "Cyclic") + " plan=" +
                std::to_string(static_cast<int>(plan)) +
                " lanes=" + std::to_string(lanes) + ": ";
            NaiveMachine got(kind, d, gr, plan, lanes, nr, nc, layout);
            NaiveMachine want(kind, d, gr, plan, lanes, nr, nc, layout);
            const auto bits_of = [](const auto& x) {
              return tile_bits(x.data());
            };
            const auto run = [&](const char* name, auto lib, auto ref) {
              throws += twin_call(where + name, got, want, lib, ref) ? 1 : 0;
            };
            run("distribute_rows",
                [&](NaiveMachine& m) {
                  return bits_of(naive_distribute_rows(m.vc, nr, layout));
                },
                [&](NaiveMachine& m) {
                  return bits_of(reference::distribute_rows(m.vc, nr, layout));
                });
            run("distribute_cols",
                [&](NaiveMachine& m) {
                  return bits_of(naive_distribute_cols(m.vr, nc, layout));
                },
                [&](NaiveMachine& m) {
                  return bits_of(reference::distribute_cols(m.vr, nc, layout));
                });
            run("reduce_cols_sum",
                [&](NaiveMachine& m) {
                  return bits_of(naive_reduce_cols_sum(m.A));
                },
                [&](NaiveMachine& m) {
                  return bits_of(reference::reduce_cols_sum(m.A));
                });
            run("extract_row",
                [&](NaiveMachine& m) {
                  return bits_of(naive_extract_row(m.A, nr - 1));
                },
                [&](NaiveMachine& m) {
                  return bits_of(reference::extract_row(m.A, nr - 1));
                });
            run("extract_col",
                [&](NaiveMachine& m) {
                  return bits_of(naive_extract_col(m.A, nc / 2));
                },
                [&](NaiveMachine& m) {
                  return bits_of(reference::extract_col(m.A, nc / 2));
                });
            run("insert_row",
                [&](NaiveMachine& m) {
                  naive_insert_row(m.A, nr / 2, m.vc);
                  return std::vector<std::uint64_t>{};
                },
                [&](NaiveMachine& m) {
                  reference::insert_row(m.A, nr / 2, m.vc);
                  return std::vector<std::uint64_t>{};
                });
            run("insert_col",
                [&](NaiveMachine& m) {
                  naive_insert_col(m.A, nc - 1, m.vr);
                  return std::vector<std::uint64_t>{};
                },
                [&](NaiveMachine& m) {
                  reference::insert_col(m.A, nc - 1, m.vr);
                  return std::vector<std::uint64_t>{};
                });
            run("matvec",
                [&](NaiveMachine& m) {
                  return bits_of(naive_matvec(m.A, m.vc));
                },
                [&](NaiveMachine& m) {
                  return bits_of(reference::matvec(m.A, m.vc));
                });
            run("swap_rows",
                [&](NaiveMachine& m) {
                  naive_swap_rows(m.A, 0, nr - 1);
                  return std::vector<std::uint64_t>{};
                },
                [&](NaiveMachine& m) {
                  reference::swap_rows(m.A, 0, nr - 1);
                  return std::vector<std::uint64_t>{};
                });
            const Tracer& gt = got.cube.clock().tracer();
            const Tracer& wt = want.cube.clock().tracer();
            EXPECT_EQ(gt.paths(), wt.paths()) << where;
            EXPECT_TRUE(gt.events() == wt.events()) << where << "trace events";
            EXPECT_TRUE(gt.spans() == wt.spans()) << where << "trace spans";
            EXPECT_TRUE(gt.self_profiles() == wt.self_profiles())
                << where << "region profiles";
            retries += got.cube.clock().stats().fault_retries;
          }
  // The sweep reaches the recovery paths: retried hops, and (on the d = 1
  // cube, whose only link is the dead one) calls that throw.
  EXPECT_GT(retries, 0u);
  if (d == 1) {
    EXPECT_GT(throws, 0);
  }
}

[[nodiscard]] std::vector<NaiveTwinCase> naive_twin_cases() {
  std::vector<NaiveTwinCase> out;
  for (const TopologyKind kind :
       {TopologyKind::Hypercube, TopologyKind::Mesh, TopologyKind::Torus,
        TopologyKind::Dragonfly})
    for (const int d : {1, 3, 4, 6}) out.push_back({kind, d});
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Presets, NaiveTwin, ::testing::ValuesIn(naive_twin_cases()),
    [](const ::testing::TestParamInfo<NaiveTwinCase>& info) {
      return std::string(to_string(info.param.kind)) + "_d" +
             std::to_string(info.param.d);
    });

}  // namespace
}  // namespace vmp
