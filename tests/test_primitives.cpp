// Unit + property tests for the four primitives: extract, insert,
// distribute, reduce — swept over grid shapes, layouts and matrix extents,
// checked against straight-line host references.
#include <gtest/gtest.h>

#include <memory>

#include "core/primitives.hpp"
#include "core/swap.hpp"
#include "embed/realign.hpp"
#include "util/workloads.hpp"
#include "param_printers.hpp"

namespace vmp {
namespace {

struct PrimCase {
  int gr, gc;
  std::size_t nrows, ncols;
  MatrixLayout layout;
};

void PrintTo(const PrimCase& c, std::ostream* os) {
  *os << "grid " << c.gr << "x" << c.gc << " " << c.nrows << "x" << c.ncols
      << " ";
  PrintTo(c.layout, os);
}

class PrimitiveSweep : public ::testing::TestWithParam<PrimCase> {
 protected:
  void SetUp() override {
    const PrimCase c = GetParam();
    cube = std::make_unique<Cube>(c.gr + c.gc, CostParams::cm2());
    grid = std::make_unique<Grid>(*cube, c.gr, c.gc);
    host = random_matrix(c.nrows, c.ncols, 99);
    A = std::make_unique<DistMatrix<double>>(*grid, c.nrows, c.ncols,
                                             c.layout);
    A->load(host);
  }

  double h(std::size_t i, std::size_t j) const {
    return host[i * GetParam().ncols + j];
  }

  std::unique_ptr<Cube> cube;
  std::unique_ptr<Grid> grid;
  std::vector<double> host;
  std::unique_ptr<DistMatrix<double>> A;
};

TEST_P(PrimitiveSweep, ReduceRowsSum) {
  const PrimCase c = GetParam();
  const DistVector<double> v = reduce_rows(*A, Plus<double>{});
  EXPECT_EQ(v.align(), Align::Rows);
  EXPECT_TRUE(v.replicas_consistent());
  const std::vector<double> got = v.to_host();
  for (std::size_t i = 0; i < c.nrows; ++i) {
    double want = 0;
    for (std::size_t j = 0; j < c.ncols; ++j) want += h(i, j);
    EXPECT_NEAR(got[i], want, 1e-12) << "row " << i;
  }
}

TEST_P(PrimitiveSweep, ReduceColsSum) {
  const PrimCase c = GetParam();
  const DistVector<double> v = reduce_cols(*A, Plus<double>{});
  EXPECT_EQ(v.align(), Align::Cols);
  EXPECT_TRUE(v.replicas_consistent());
  const std::vector<double> got = v.to_host();
  for (std::size_t j = 0; j < c.ncols; ++j) {
    double want = 0;
    for (std::size_t i = 0; i < c.nrows; ++i) want += h(i, j);
    EXPECT_NEAR(got[j], want, 1e-12) << "col " << j;
  }
}

TEST_P(PrimitiveSweep, ReduceRowsMaxExactlyMatchesHost) {
  const PrimCase c = GetParam();
  const DistVector<double> v = reduce_rows(*A, Max<double>{});
  const std::vector<double> got = v.to_host();
  for (std::size_t i = 0; i < c.nrows; ++i) {
    double want = std::numeric_limits<double>::lowest();
    for (std::size_t j = 0; j < c.ncols; ++j) want = std::max(want, h(i, j));
    EXPECT_EQ(got[i], want);  // max is exact: no rounding tolerance needed
  }
}

TEST_P(PrimitiveSweep, ExtractEveryRow) {
  const PrimCase c = GetParam();
  for (std::size_t i = 0; i < c.nrows; ++i) {
    const DistVector<double> v = extract_row(*A, i);
    EXPECT_EQ(v.align(), Align::Cols);
    EXPECT_TRUE(v.replicas_consistent());
    const std::vector<double> got = v.to_host();
    for (std::size_t j = 0; j < c.ncols; ++j) EXPECT_EQ(got[j], h(i, j));
  }
}

TEST_P(PrimitiveSweep, ExtractEveryCol) {
  const PrimCase c = GetParam();
  for (std::size_t j = 0; j < c.ncols; ++j) {
    const DistVector<double> v = extract_col(*A, j);
    EXPECT_EQ(v.align(), Align::Rows);
    EXPECT_TRUE(v.replicas_consistent());
    const std::vector<double> got = v.to_host();
    for (std::size_t i = 0; i < c.nrows; ++i) EXPECT_EQ(got[i], h(i, j));
  }
}

TEST_P(PrimitiveSweep, InsertThenExtractIsIdentity) {
  const PrimCase c = GetParam();
  const std::vector<double> fresh = random_vector(c.ncols, 123);
  DistVector<double> v(*grid, c.ncols, Align::Cols, c.layout.cols);
  v.load(fresh);
  const std::size_t i = c.nrows / 2;
  insert_row(*A, i, v);
  EXPECT_EQ(extract_row(*A, i).to_host(), fresh);
  // Other rows untouched.
  if (i + 1 < c.nrows) {
    const std::vector<double> other = extract_row(*A, i + 1).to_host();
    for (std::size_t j = 0; j < c.ncols; ++j) EXPECT_EQ(other[j], h(i + 1, j));
  }
}

TEST_P(PrimitiveSweep, InsertColThenExtractIsIdentity) {
  const PrimCase c = GetParam();
  const std::vector<double> fresh = random_vector(c.nrows, 124);
  DistVector<double> v(*grid, c.nrows, Align::Rows, c.layout.rows);
  v.load(fresh);
  const std::size_t j = c.ncols / 2;
  insert_col(*A, j, v);
  EXPECT_EQ(extract_col(*A, j).to_host(), fresh);
}

TEST_P(PrimitiveSweep, RangedInsertTouchesOnlyTheRange) {
  const PrimCase c = GetParam();
  if (c.nrows < 3) GTEST_SKIP();
  const std::vector<double> fresh = random_vector(c.nrows, 125);
  DistVector<double> v(*grid, c.nrows, Align::Rows, c.layout.rows);
  v.load(fresh);
  const std::size_t j = c.ncols / 2;
  const std::size_t lo = 1, hi = c.nrows - 1;
  insert_col_range(*A, j, v, lo, hi);
  const std::vector<double> got = extract_col(*A, j).to_host();
  for (std::size_t i = 0; i < c.nrows; ++i) {
    if (i >= lo && i < hi) {
      EXPECT_EQ(got[i], fresh[i]);
    } else {
      EXPECT_EQ(got[i], h(i, j));
    }
  }
}

TEST_P(PrimitiveSweep, DistributeRowsReplicatesVector) {
  const PrimCase c = GetParam();
  const std::vector<double> hv = random_vector(c.ncols, 321);
  DistVector<double> v(*grid, c.ncols, Align::Cols, c.layout.cols);
  v.load(hv);
  const DistMatrix<double> M = distribute_rows(v, c.nrows, c.layout.rows);
  const std::vector<double> got = M.to_host();
  for (std::size_t i = 0; i < c.nrows; ++i)
    for (std::size_t j = 0; j < c.ncols; ++j)
      EXPECT_EQ(got[i * c.ncols + j], hv[j]);
}

TEST_P(PrimitiveSweep, DistributeColsReplicatesVector) {
  const PrimCase c = GetParam();
  const std::vector<double> hv = random_vector(c.nrows, 322);
  DistVector<double> v(*grid, c.nrows, Align::Rows, c.layout.rows);
  v.load(hv);
  const DistMatrix<double> M = distribute_cols(v, c.ncols, c.layout.cols);
  const std::vector<double> got = M.to_host();
  for (std::size_t i = 0; i < c.nrows; ++i)
    for (std::size_t j = 0; j < c.ncols; ++j)
      EXPECT_EQ(got[i * c.ncols + j], hv[i]);
}

TEST_P(PrimitiveSweep, DistributeIsCommunicationFree) {
  const PrimCase c = GetParam();
  DistVector<double> v(*grid, c.ncols, Align::Cols, c.layout.cols);
  v.load(random_vector(c.ncols, 5));
  const std::uint64_t steps_before = cube->clock().stats().comm_steps;
  const DistMatrix<double> M = distribute_rows(v, c.nrows, c.layout.rows);
  EXPECT_EQ(cube->clock().stats().comm_steps, steps_before)
      << "distribute on an aligned vector must not communicate";
}

TEST_P(PrimitiveSweep, ReduceDistributeAdjointIdentity) {
  // <reduce_rows(A), v> == <A, distribute_rows(v)> — reduce with + and
  // distribute are adjoint linear maps.
  const PrimCase c = GetParam();
  const std::vector<double> hv = random_vector(c.ncols, 55);
  DistVector<double> v(*grid, c.ncols, Align::Cols, c.layout.cols);
  v.load(hv);
  // lhs: sum_i sum_j A[i][j] * v[j] via distribute + fold
  const DistMatrix<double> Vm = distribute_rows(v, c.nrows, c.layout.rows);
  double lhs = 0;
  {
    const std::vector<double> a = A->to_host(), b = Vm.to_host();
    for (std::size_t t = 0; t < a.size(); ++t) lhs += a[t] * b[t];
  }
  // rhs: <reduce_cols(A), v>
  const std::vector<double> red = reduce_cols(*A, Plus<double>{}).to_host();
  double rhs = 0;
  for (std::size_t j = 0; j < c.ncols; ++j) rhs += red[j] * hv[j];
  EXPECT_NEAR(lhs, rhs, 1e-9 * (1.0 + std::abs(lhs)));
}

TEST_P(PrimitiveSweep, SwapRowsMatchesHost) {
  const PrimCase c = GetParam();
  if (c.nrows < 2) GTEST_SKIP();
  std::vector<double> want = host;
  const std::size_t i = 0, j = c.nrows - 1;
  for (std::size_t k = 0; k < c.ncols; ++k)
    std::swap(want[i * c.ncols + k], want[j * c.ncols + k]);
  swap_rows(*A, i, j);
  EXPECT_EQ(A->to_host(), want);
  swap_rows(*A, j, i);
  EXPECT_EQ(A->to_host(), host);
}

TEST_P(PrimitiveSweep, SwapColsMatchesHost) {
  const PrimCase c = GetParam();
  if (c.ncols < 2) GTEST_SKIP();
  std::vector<double> want = host;
  const std::size_t i = 0, j = c.ncols - 1;
  for (std::size_t k = 0; k < c.nrows; ++k)
    std::swap(want[k * c.ncols + i], want[k * c.ncols + j]);
  swap_cols(*A, i, j);
  EXPECT_EQ(A->to_host(), want);
}

TEST_P(PrimitiveSweep, MisalignedOperandsAreRejected) {
  const PrimCase c = GetParam();
  DistVector<double> wrong_align(*grid, c.ncols, Align::Rows, c.layout.rows);
  EXPECT_THROW(insert_row(*A, 0, wrong_align), ContractError);
  DistVector<double> wrong_len(*grid, c.ncols + 1, Align::Cols,
                               c.layout.cols);
  EXPECT_THROW(insert_row(*A, 0, wrong_len), ContractError);
  EXPECT_THROW((void)extract_row(*A, c.nrows), ContractError);
  EXPECT_THROW((void)extract_col(*A, c.ncols), ContractError);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PrimitiveSweep,
    ::testing::Values(
        PrimCase{0, 0, 4, 5, MatrixLayout::blocked()},       // one processor
        PrimCase{1, 1, 4, 4, MatrixLayout::blocked()},
        PrimCase{2, 2, 16, 16, MatrixLayout::blocked()},
        PrimCase{2, 2, 13, 17, MatrixLayout::blocked()},     // non-divisible
        PrimCase{2, 2, 13, 17, MatrixLayout::cyclic()},
        PrimCase{3, 1, 9, 34, MatrixLayout::cyclic()},       // tall grid
        PrimCase{1, 3, 34, 9, MatrixLayout::blocked()},      // wide grid
        PrimCase{2, 3, 6, 40, MatrixLayout{Part::Cyclic, Part::Block}},
        PrimCase{3, 2, 3, 3, MatrixLayout::blocked()},       // fewer rows
                                                             // than procs
        PrimCase{2, 2, 1, 1, MatrixLayout::blocked()}));     // singleton

// ---------------------------------------------------------------------------
// Processor-time optimality: for m ≥ p·lg p, simulated reduce time must be
// within a constant factor of the serial fold time m·t_a (the paper's
// headline claim), under the unit cost model.
// ---------------------------------------------------------------------------

class OptimalitySweep : public ::testing::TestWithParam<int> {};

TEST_P(OptimalitySweep, ReduceIsProcessorTimeOptimal) {
  const int d = GetParam();
  Cube cube(d, CostParams::unit());
  Grid grid = Grid::square(cube);
  const std::size_t p = cube.procs();
  const std::size_t lgp = static_cast<std::size_t>(std::max(1, d));
  // m = 4 · p · lg p, square-ish.
  const std::size_t n = 1u << ((d + 3) / 2 + 1);
  const std::size_t m = n * n;
  ASSERT_GE(m, p * lgp);

  DistMatrix<double> A(grid, n, n);
  A.load(random_matrix(n, n, 3));
  cube.clock().reset();
  (void)reduce_rows(A, Plus<double>{});
  const double t_par = cube.clock().now_us();
  const double t_serial = static_cast<double>(m);  // m combines at t_a = 1
  // processor-time product within a constant factor of serial work:
  EXPECT_LE(static_cast<double>(p) * t_par, 16.0 * t_serial)
      << "d=" << d << " p·T=" << static_cast<double>(p) * t_par
      << " serial=" << t_serial;
  // and parallel time within a constant factor of m/p + lg p:
  EXPECT_LE(t_par, 16.0 * (static_cast<double>(m) / static_cast<double>(p) +
                           static_cast<double>(lgp)));
}

INSTANTIATE_TEST_SUITE_P(Dims, OptimalitySweep, ::testing::Values(1, 2, 3, 4,
                                                                  5, 6, 7, 8));

}  // namespace
}  // namespace vmp
