// Unit tests: distributed vector/matrix elementwise operations, folds,
// located reductions and the rank-1 update.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/elementwise.hpp"
#include "core/vector_ops.hpp"
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

}  // namespace
}  // namespace vmp
