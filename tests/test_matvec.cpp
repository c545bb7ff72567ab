// Integration tests: matrix-vector / vector-matrix products (composed and
// fused) against the serial reference, over grid shapes and layouts.
#include <gtest/gtest.h>

#include <memory>

#include "algorithms/matvec.hpp"
#include "algorithms/serial/host_matrix.hpp"
#include "util/workloads.hpp"
#include "param_printers.hpp"

namespace vmp {
namespace {

struct MvCase {
  int gr, gc;
  std::size_t nrows, ncols;
  MatrixLayout layout;
};

void PrintTo(const MvCase& c, std::ostream* os) {
  *os << "grid " << c.gr << "x" << c.gc << " " << c.nrows << "x" << c.ncols
      << " ";
  PrintTo(c.layout, os);
}

class MatvecSweep : public ::testing::TestWithParam<MvCase> {
 protected:
  void SetUp() override {
    const MvCase c = GetParam();
    cube = std::make_unique<Cube>(c.gr + c.gc, CostParams::cm2());
    grid = std::make_unique<Grid>(*cube, c.gr, c.gc);
    ha = random_matrix(c.nrows, c.ncols, 41);
    A = std::make_unique<DistMatrix<double>>(*grid, c.nrows, c.ncols,
                                             c.layout);
    A->load(ha);
    H = HostMatrix(c.nrows, c.ncols, ha);
  }

  std::unique_ptr<Cube> cube;
  std::unique_ptr<Grid> grid;
  std::vector<double> ha;
  std::unique_ptr<DistMatrix<double>> A;
  HostMatrix H;
};

TEST_P(MatvecSweep, MatvecMatchesSerial) {
  const MvCase c = GetParam();
  const std::vector<double> hx = random_vector(c.ncols, 42);
  DistVector<double> x(*grid, c.ncols, Align::Cols, c.layout.cols);
  x.load(hx);
  const std::vector<double> want = host_matvec(H, hx);

  const std::vector<double> got = matvec(*A, x).to_host();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_NEAR(got[i], want[i], 1e-12 * (1 + std::abs(want[i])));
}

TEST_P(MatvecSweep, FusedMatchesComposed) {
  const MvCase c = GetParam();
  const std::vector<double> hx = random_vector(c.ncols, 43);
  DistVector<double> x(*grid, c.ncols, Align::Cols, c.layout.cols);
  x.load(hx);
  EXPECT_EQ(matvec(*A, x).to_host(), matvec_fused(*A, x).to_host())
      << "fused and composed forms use identical per-element arithmetic";
}

TEST_P(MatvecSweep, VecmatMatchesSerial) {
  const MvCase c = GetParam();
  const std::vector<double> hx = random_vector(c.nrows, 44);
  DistVector<double> x(*grid, c.nrows, Align::Rows, c.layout.rows);
  x.load(hx);
  const std::vector<double> want = host_vecmat(hx, H);

  const std::vector<double> got = vecmat(x, *A).to_host();
  const std::vector<double> got_fused = vecmat_fused(x, *A).to_host();
  for (std::size_t j = 0; j < want.size(); ++j) {
    EXPECT_NEAR(got[j], want[j], 1e-12 * (1 + std::abs(want[j])));
    EXPECT_NEAR(got_fused[j], want[j], 1e-12 * (1 + std::abs(want[j])));
  }
}

TEST_P(MatvecSweep, FusedIsNeverSlowerInSimulatedTime) {
  const MvCase c = GetParam();
  DistVector<double> x(*grid, c.ncols, Align::Cols, c.layout.cols);
  x.load(random_vector(c.ncols, 45));
  cube->clock().reset();
  (void)matvec(*A, x);
  const double t_composed = cube->clock().now_us();
  cube->clock().reset();
  (void)matvec_fused(*A, x);
  const double t_fused = cube->clock().now_us();
  EXPECT_LE(t_fused, t_composed + 1e-9);
}

TEST_P(MatvecSweep, RejectsMisalignedInput) {
  const MvCase c = GetParam();
  DistVector<double> wrong(*grid, c.ncols, Align::Rows,
                           c.layout.rows);
  if (c.nrows == c.ncols && c.layout.rows == c.layout.cols) GTEST_SKIP();
  EXPECT_THROW((void)matvec(*A, wrong), ContractError);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MatvecSweep,
    ::testing::Values(MvCase{0, 0, 6, 6, MatrixLayout::blocked()},
                      MvCase{1, 1, 8, 8, MatrixLayout::blocked()},
                      MvCase{2, 2, 16, 16, MatrixLayout::blocked()},
                      MvCase{2, 2, 13, 19, MatrixLayout::blocked()},
                      MvCase{2, 2, 13, 19, MatrixLayout::cyclic()},
                      MvCase{3, 1, 10, 40, MatrixLayout::cyclic()},
                      MvCase{1, 3, 40, 10, MatrixLayout::blocked()},
                      MvCase{3, 3, 5, 5, MatrixLayout::blocked()}));

}  // namespace
}  // namespace vmp
