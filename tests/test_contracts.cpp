// Failure injection: every public precondition should fail loudly with
// vmp::ContractError, never corrupt state or crash.
#include <gtest/gtest.h>

#include <memory>

#include "comm/collectives.hpp"
#include "comm/router.hpp"
#include "core/primitives.hpp"
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

}  // namespace
}  // namespace vmp
