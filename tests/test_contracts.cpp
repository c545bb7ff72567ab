// Failure injection: every public precondition should fail loudly with
// vmp::ContractError, never corrupt state or crash.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "algorithms/matvec.hpp"
#include "algorithms/spmv.hpp"
#include "comm/collectives.hpp"
#include "comm/router.hpp"
#include "core/primitives.hpp"
#include "core/sparse_primitives.hpp"
#include "core/swap.hpp"
#include "core/vector_ops.hpp"
#include "embed/dist_matrix.hpp"
#include "embed/dist_sparse_matrix.hpp"
#include "embed/dist_vector.hpp"
#include "util/workloads.hpp"

namespace vmp {
namespace {

TEST(Contracts, CubeDimensionBounds) {
  EXPECT_THROW(Cube(-1, CostParams::unit()), ContractError);
  EXPECT_THROW(Cube(31, CostParams::unit()), ContractError);
  EXPECT_NO_THROW(Cube(0, CostParams::unit()));
}

TEST(Contracts, ExchangeDimensionBounds) {
  Cube cube(3, CostParams::unit());
  const auto send = [](proc_t) { return std::span<const int>{}; };
  const auto recv = [](proc_t, std::span<const int>) {};
  EXPECT_THROW(cube.exchange<int>(-1, send, recv), ContractError);
  EXPECT_THROW(cube.exchange<int>(3, send, recv), ContractError);
}

TEST(Contracts, DistBufferProcBounds) {
  Cube cube(2, CostParams::unit());
  DistBuffer<int> buf(cube);
  EXPECT_THROW((void)buf.tile(4), ContractError);
  EXPECT_NO_THROW((void)buf.tile(3));
}

TEST(Contracts, SubcubeRankBounds) {
  const SubcubeSet sc = SubcubeSet::contiguous(1, 2);
  EXPECT_THROW((void)sc.with_rank(0, 4), ContractError);
  EXPECT_NO_THROW((void)sc.with_rank(0, 3));
  EXPECT_THROW((void)sc.dim_of_rank_bit(2), ContractError);
}

TEST(Contracts, AllreduceLengthMismatchWithinSubcube) {
  Cube cube(2, CostParams::unit());
  DistBuffer<double> buf(cube);
  cube.each_proc([&](proc_t q) { buf.assign(q, q == 0 ? 3 : 4, 1.0); });
  EXPECT_THROW(
      allreduce(cube, buf, SubcubeSet::contiguous(0, 2), Plus<double>{}),
      ContractError);
}

TEST(Contracts, BroadcastRootOutOfRange) {
  Cube cube(3, CostParams::unit());
  DistBuffer<double> buf(cube);
  EXPECT_THROW(broadcast(cube, buf, SubcubeSet::contiguous(0, 2), 4),
               ContractError);
}

TEST(Contracts, RouteEscapingSubcubeRejected) {
  Cube cube(3, CostParams::unit());
  DistBuffer<RouteItem<double>> items(cube);
  // Destination outside the dims-{0,1} subcube of the source.
  items.push_back(0, RouteItem<double>{4, 0, 1.0});
  EXPECT_THROW(route_within(cube, items, SubcubeSet::contiguous(0, 2)),
               ContractError);
}

TEST(Contracts, RouterDestinationBounds) {
  Cube cube(2, CostParams::unit());
  std::vector<std::vector<Packet>> inject(cube.procs());
  inject[0].push_back(Packet{9, 0, 1.0});
  NaiveRouter router(cube);
  EXPECT_THROW(router.run(std::move(inject),
                          [](proc_t, std::uint64_t, double) {}),
               ContractError);
}

TEST(Contracts, AxisMapBounds) {
  const AxisMap map(10, 4, Part::Block);
  EXPECT_THROW((void)map.owner(10), ContractError);
  EXPECT_THROW((void)map.size(4), ContractError);
  EXPECT_THROW((void)map.global(0, map.size(0)), ContractError);
  EXPECT_THROW(AxisMap(5, 0, Part::Block), ContractError);
}

TEST(Contracts, MatrixHostIoSizeChecks) {
  Cube cube(2, CostParams::unit());
  Grid grid(cube, 1, 1);
  DistMatrix<double> A(grid, 4, 4);
  const std::vector<double> wrong(15, 0.0);
  EXPECT_THROW(A.load(wrong), ContractError);
  EXPECT_THROW((void)A.at(4, 0), ContractError);
  EXPECT_THROW((void)A.at(0, 4), ContractError);
  DistVector<double> v(grid, 4, Align::Cols);
  EXPECT_THROW(v.load(std::vector<double>(3, 0.0)), ContractError);
  EXPECT_THROW((void)v.at(4), ContractError);
}

TEST(Contracts, LinearVectorsMustBeBlock) {
  Cube cube(2, CostParams::unit());
  Grid grid(cube, 1, 1);
  EXPECT_THROW(DistVector<double>(grid, 8, Align::Linear, Part::Cyclic),
               ContractError);
}

TEST(Contracts, VectorOpAlignmentChecks) {
  Cube cube(2, CostParams::unit());
  Grid grid(cube, 1, 1);
  DistVector<double> a(grid, 8, Align::Cols);
  DistVector<double> b(grid, 8, Align::Rows);
  DistVector<double> c(grid, 9, Align::Cols);
  EXPECT_THROW(vec_axpy(a, 1.0, b), ContractError);
  EXPECT_THROW(vec_axpy(a, 1.0, c), ContractError);
  EXPECT_THROW((void)dot(a, b), ContractError);
  EXPECT_THROW(vec_fill_range(a, 5, 3, 0.0), ContractError);
  EXPECT_THROW(vec_fill_range(a, 0, 9, 0.0), ContractError);
  EXPECT_THROW((void)vec_fetch(a, 8), ContractError);
  EXPECT_THROW(vec_store(a, 8, 0.0), ContractError);
}

TEST(Contracts, RangedInsertBounds) {
  Cube cube(2, CostParams::unit());
  Grid grid(cube, 1, 1);
  DistMatrix<double> A(grid, 5, 5);
  DistVector<double> v(grid, 5, Align::Rows);
  EXPECT_THROW(insert_col_range(A, 0, v, 3, 2), ContractError);
  EXPECT_THROW(insert_col_range(A, 0, v, 0, 6), ContractError);
  EXPECT_NO_THROW(insert_col_range(A, 0, v, 0, 5));
}

TEST(Contracts, StateSurvivesAFailedCall) {
  // A rejected operation must leave the operand untouched.
  Cube cube(2, CostParams::unit());
  Grid grid(cube, 1, 1);
  const std::vector<double> host = random_matrix(4, 4, 1);
  DistMatrix<double> A(grid, 4, 4);
  A.load(host);
  DistVector<double> wrong(grid, 4, Align::Rows);
  EXPECT_THROW(insert_row(A, 0, wrong), ContractError);
  EXPECT_EQ(A.to_host(), host);
}

TEST(Contracts, GridSplitChecks) {
  Cube cube(4, CostParams::unit());
  EXPECT_THROW(Grid(cube, 3, 2), ContractError);
  EXPECT_THROW(Grid(cube, -1, 5), ContractError);
  Grid grid(cube, 2, 2);
  EXPECT_THROW((void)grid.at(4, 0), ContractError);
  EXPECT_THROW((void)grid.at(0, 4), ContractError);
}

// --------------------------------------------------------------------------
// The contract table: every primitive × axis × storage.  A bad line index
// or range raises ShapeError; a vector with the wrong alignment, partition
// kind or grid raises AlignError; a wrong length raises ShapeError.  The
// message names the call, and a rejected call leaves its operand and the
// simulated clock untouched.  (reduce takes no index and no vector, so it
// has nothing to reject.)

/// A 6×5 Block matrix in both storages on a 2×4 grid of an 8-node cube,
/// plus a second grid over the same cube.
struct ContractBed {
  Cube cube{3, CostParams::unit()};
  Grid grid{cube, 1, 2};
  Grid other{cube, 1, 2};
  DistMatrix<double> dense{grid, 6, 5};
  DistSparseMatrix<double> sparse{grid, 6, 5};

  ContractBed() {
    dense.load(random_matrix(6, 5, 11));
    const HostCsr h = power_law_csr(6, 5, 2.0, 1.0, 11);
    sparse.load_csr(h.rowptr, h.colind, h.vals);
  }

  /// Vectors laid out like one line along `axis` (a row is Cols-aligned,
  /// of length ncols), and the four ways to get that wrong.
  struct Lines {
    DistVector<double> good, crossed, cyclic, foreign, short_by_one;
  };
  [[nodiscard]] Lines lines(Axis axis) {
    const bool row = axis == Axis::Row;
    const std::size_t n = row ? 5 : 6;
    const Align align = row ? Align::Cols : Align::Rows;
    return {DistVector<double>(grid, n, align),
            DistVector<double>(grid, n, row ? Align::Rows : Align::Cols),
            DistVector<double>(grid, n, align, Part::Cyclic),
            DistVector<double>(other, n, align),
            DistVector<double>(grid, n - 1, align)};
  }
};

/// `call` must throw E whose message starts with "<name>: ", and leave
/// `operand` (anything with to_host()) and the clock as they were.
template <class E, class Operand, class Call>
void expect_rejected(Cube& cube, const Operand& operand,
                     const std::string& name, Call&& call) {
  SCOPED_TRACE(name);
  const auto before = operand.to_host();
  const double t0 = cube.clock().now_us();
  try {
    call();
    ADD_FAILURE() << "accepted";
  } catch (const E& e) {
    EXPECT_EQ(std::string(e.what()).rfind(name + ": ", 0), 0u) << e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "wrong error type: " << e.what();
  }
  EXPECT_EQ(operand.to_host(), before);
  EXPECT_EQ(cube.clock().now_us(), t0);
}

/// extract and insert, both axes, on either storage.
template <class Mat>
void expect_line_contracts(ContractBed& bed, Mat& A) {
  for (const Axis axis : {Axis::Row, Axis::Col}) {
    const bool row = axis == Axis::Row;
    const std::string ext = row ? "extract_row" : "extract_col";
    const std::string ins = row ? "insert_row" : "insert_col";
    const std::size_t past_end = row ? A.nrows() : A.ncols();
    const ContractBed::Lines v = bed.lines(axis);
    expect_rejected<ShapeError>(bed.cube, A, ext,
                                [&] { (void)extract(A, axis, past_end); });
    expect_rejected<ShapeError>(bed.cube, A, ins,
                                [&] { insert(A, axis, past_end, v.good); });
    for (const DistVector<double>* bad : {&v.crossed, &v.cyclic, &v.foreign})
      expect_rejected<AlignError>(bed.cube, A, ins,
                                  [&] { insert(A, axis, 0, *bad); });
    expect_rejected<ShapeError>(bed.cube, A, ins,
                                [&] { insert(A, axis, 0, v.short_by_one); });
    EXPECT_NO_THROW(insert(A, axis, 0, v.good));
  }
}

TEST(ContractTable, ExtractAndInsertOnBothStorages) {
  ContractBed bed;
  expect_line_contracts(bed, bed.dense);
  expect_line_contracts(bed, bed.sparse);
}

TEST(ContractTable, DenseRangedInsertDistributeSwapAndMatvec) {
  ContractBed bed;
  DistMatrix<double>& A = bed.dense;
  for (const Axis axis : {Axis::Row, Axis::Col}) {
    const bool row = axis == Axis::Row;
    const std::size_t lines = row ? 6 : 5, along = row ? 5 : 6;
    const ContractBed::Lines v = bed.lines(axis);

    const std::string ins = row ? "insert_row_range" : "insert_col_range";
    expect_rejected<ShapeError>(bed.cube, A, ins, [&] {
      insert_range(A, axis, lines, v.good, 0, along);
    });
    expect_rejected<ShapeError>(bed.cube, A, ins,
                                [&] { insert_range(A, axis, 0, v.good, 3, 2); });
    expect_rejected<ShapeError>(bed.cube, A, ins, [&] {
      insert_range(A, axis, 0, v.good, 0, along + 1);
    });
    for (const DistVector<double>* bad : {&v.crossed, &v.cyclic, &v.foreign})
      expect_rejected<AlignError>(bed.cube, A, ins, [&] {
        insert_range(A, axis, 0, *bad, 0, along);
      });
    expect_rejected<ShapeError>(bed.cube, A, ins, [&] {
      insert_range(A, axis, 0, v.short_by_one, 0, along);
    });

    // distribute checks only the alignment: the vector IS the line.
    expect_rejected<AlignError>(
        bed.cube, v.crossed, row ? "distribute_rows" : "distribute_cols",
        [&] { (void)distribute(v.crossed, axis, 4); });

    const std::string swap = row ? "swap_rows" : "swap_cols";
    expect_rejected<ShapeError>(bed.cube, A, swap, [&] {
      row ? swap_rows(A, lines, 0) : swap_cols(A, lines, 0);
    });
    expect_rejected<ShapeError>(bed.cube, A, swap, [&] {
      row ? swap_rows(A, 0, lines) : swap_cols(A, 0, lines);
    });

    // matvec takes a vector laid out like a row, vecmat like a column.
    const auto mv = [&](bool fused, const DistVector<double>& x) {
      if (row) {
        (void)(fused ? matvec_fused(A, x) : matvec(A, x));
      } else {
        (void)(fused ? vecmat_fused(x, A) : vecmat(x, A));
      }
    };
    for (const bool fused : {false, true}) {
      const std::string name = std::string(row ? "matvec" : "vecmat") +
                               (fused ? "_fused" : "");
      for (const DistVector<double>* bad : {&v.crossed, &v.cyclic, &v.foreign})
        expect_rejected<AlignError>(bed.cube, A, name,
                                    [&] { mv(fused, *bad); });
      expect_rejected<ShapeError>(bed.cube, A, name,
                                  [&] { mv(fused, v.short_by_one); });
    }
  }
}

TEST(ContractTable, SparseDistributeLikeAndSpmv) {
  ContractBed bed;
  const DistSparseMatrix<double>& S = bed.sparse;
  for (const Axis axis : {Axis::Row, Axis::Col}) {
    const ContractBed::Lines v = bed.lines(axis);
    for (const DistVector<double>* bad : {&v.crossed, &v.cyclic, &v.foreign})
      expect_rejected<AlignError>(bed.cube, S, "distribute_like", [&] {
        (void)distribute_like(S, *bad, axis);
      });
    expect_rejected<ShapeError>(bed.cube, S, "distribute_like", [&] {
      (void)distribute_like(S, v.short_by_one, axis);
    });
  }
  const ContractBed::Lines x = bed.lines(Axis::Row);
  for (const bool fused : {false, true}) {
    const auto run = [&](const DistVector<double>& in) {
      (void)(fused ? spmv_fused(S, in) : spmv(S, in));
    };
    const std::string name = fused ? "spmv_fused" : "spmv";
    for (const DistVector<double>* bad : {&x.crossed, &x.cyclic, &x.foreign})
      expect_rejected<AlignError>(bed.cube, S, name, [&] { run(*bad); });
    expect_rejected<ShapeError>(bed.cube, S, name,
                                [&] { run(x.short_by_one); });
  }
}

// The public surface: the ranged insert and the extent-taking distribute
// forms stay dense-only; the other named forms take both storages.
template <class Mat>
concept RangedInsertable = requires(Mat& A, const DistVector<double>& v) {
  insert_range(A, Axis::Row, 0, v, 0, 1);
  insert_row_range(A, 0, v, 0, 1);
};
template <class Mat>
concept LineAddressable = requires(Mat& A, const DistVector<double>& v) {
  reduce_rows(A, Plus<double>{});
  reduce_cols(A, Plus<double>{});
  extract_row(A, 0);
  extract_col(A, 0);
  insert_row(A, 0, v);
  insert_col(A, 0, v);
};
static_assert(RangedInsertable<DistMatrix<double>>);
static_assert(!RangedInsertable<DistSparseMatrix<double>>);
static_assert(LineAddressable<DistMatrix<double>>);
static_assert(LineAddressable<DistSparseMatrix<double>>);
static_assert(!LineAddressable<DistVector<double>>);
static_assert(!LineAddressable<const DistMatrix<double>>);

// load_csr: every malformed host CSR triple is rejected before any read
// through rowptr, and the matrix keeps what it held.

struct CsrTriple {
  std::vector<std::uint32_t> rowptr;
  std::vector<std::uint32_t> colind;
  std::vector<double> vals;
};

/// Load `bad` into a 4×4 sparse matrix already holding the diagonal; the
/// load must throw ContractError and leave the diagonal in place.
void expect_csr_rejected(const CsrTriple& bad) {
  Cube cube(2, CostParams::unit());
  Grid grid(cube, 1, 1);
  DistSparseMatrix<double> S(grid, 4, 4);
  const std::vector<std::uint32_t> rowptr{0, 1, 2, 3, 4}, colind{0, 1, 2, 3};
  const std::vector<double> vals{1.0, 2.0, 3.0, 4.0};
  S.load_csr(rowptr, colind, vals);
  const std::vector<double> before = S.to_host();
  EXPECT_THROW(S.load_csr(bad.rowptr, bad.colind, bad.vals), ContractError);
  EXPECT_EQ(S.to_host(), before);
  EXPECT_EQ(S.nnz(), 4u);
}

TEST(Contracts, LoadCsrRejectsRowptrNotStartingAtZero) {
  expect_csr_rejected({{1, 1, 2, 3, 4}, {0, 1, 2, 3}, {1, 2, 3, 4}});
}

TEST(Contracts, LoadCsrRejectsRowptrPastNnz) {
  expect_csr_rejected({{0, 1, 2, 3, 6}, {0, 1, 2, 3}, {1, 2, 3, 4}});
}

TEST(Contracts, LoadCsrRejectsDecreasingRowptr) {
  // Rows 0 and 2 would each read three of the four entries: six in all.
  expect_csr_rejected({{0, 3, 1, 4, 4}, {0, 1, 2, 3}, {1, 2, 3, 4}});
}

TEST(Contracts, LoadCsrRejectsUnsortedColumns) {
  expect_csr_rejected({{0, 2, 2, 3, 4}, {1, 0, 2, 3}, {1, 2, 3, 4}});
}

TEST(Contracts, LoadCsrRejectsRepeatedColumns) {
  expect_csr_rejected({{0, 2, 2, 3, 4}, {1, 1, 2, 3}, {1, 2, 3, 4}});
}

// assign_tile: a malformed tile (local slots) is rejected before anything
// is written, and the tile keeps what it held.

/// Assign `bad` as processor 3's tile of a blocked 4×4 sparse matrix on a
/// 2×2 grid already holding the diagonal (a 2×2 tile: rows and columns
/// 2–3); it must throw ContractError and leave the matrix as it was.
void expect_tile_rejected(const CsrTriple& bad) {
  Cube cube(2, CostParams::unit());
  Grid grid(cube, 1, 1);
  DistSparseMatrix<double> S(grid, 4, 4);
  const std::vector<std::uint32_t> rowptr{0, 1, 2, 3, 4}, colind{0, 1, 2, 3};
  const std::vector<double> vals{1.0, 2.0, 3.0, 4.0};
  S.load_csr(rowptr, colind, vals);
  constexpr proc_t q = 3;
  ASSERT_EQ(S.lrows(q), 2u);
  ASSERT_EQ(S.lcols(q), 2u);
  const auto rp = S.tile_rowptr(q), ci = S.tile_colind(q);
  const std::vector<std::uint32_t> rp0(rp.begin(), rp.end()),
      ci0(ci.begin(), ci.end());
  const std::vector<double> before = S.to_host();
  EXPECT_THROW(S.assign_tile(q, bad.rowptr, bad.colind, bad.vals),
               ContractError);
  EXPECT_TRUE(std::ranges::equal(S.tile_rowptr(q), rp0));
  EXPECT_TRUE(std::ranges::equal(S.tile_colind(q), ci0));
  EXPECT_EQ(S.to_host(), before);
}

TEST(Contracts, AssignTileRejectsRowptrNotStartingAtZero) {
  expect_tile_rejected({{1, 1, 2}, {0, 1}, {5, 6}});
}

TEST(Contracts, AssignTileRejectsDecreasingRowptr) {
  // Row 0 would read two entries of a one-entry tile.
  expect_tile_rejected({{0, 2, 1}, {0}, {5}});
}

TEST(Contracts, AssignTileRejectsColumnOutsideTheTile) {
  expect_tile_rejected({{0, 1, 1}, {40000}, {5}});
}

TEST(Contracts, AssignTileRejectsUnsortedColumns) {
  expect_tile_rejected({{0, 2, 2}, {1, 0}, {5, 6}});
}

TEST(Contracts, AssignTileRejectsRepeatedColumns) {
  expect_tile_rejected({{0, 2, 2}, {1, 1}, {5, 6}});
}

}  // namespace
}  // namespace vmp
