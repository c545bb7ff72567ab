// Unit + property tests for the reduction operator library: identities,
// associativity, the deterministic tie-breaks of the located operators,
// and non-commutative operator support in the collectives.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "comm/collectives.hpp"
#include "comm/ops.hpp"
#include "hypercube/machine.hpp"

namespace vmp {
namespace {

TEST(Ops, IdentitiesAreNeutral) {
  const Plus<double> plus;
  const Multiply<double> mul;
  const Min<double> mn;
  const Max<double> mx;
  for (double x : {-3.5, 0.0, 1.0, 42.0}) {
    EXPECT_EQ(plus.combine(plus.identity(), x), x);
    EXPECT_EQ(plus.combine(x, plus.identity()), x);
    EXPECT_EQ(mul.combine(mul.identity(), x), x);
    EXPECT_EQ(mn.combine(mn.identity(), x), x);
    EXPECT_EQ(mx.combine(mx.identity(), x), x);
  }
}

// x86 returns the first source's payload when both operands of an add are
// NaN, and GCC may commute a plain `a + b` differently at each call site.
// Plus<double> keeps the left operand first, so the left payload wins in
// every context.
TEST(Ops, PlusKeepsTheLeftPayloadWhenNaNsMeet) {
  const auto nan_with = [](std::uint64_t payload, bool negative) {
    return std::bit_cast<double>(
        (negative ? 0xfff8000000000000ULL : 0x7ff8000000000000ULL) | payload);
  };
  const Plus<double> plus;
  const double a = nan_with(0x123, true), b = nan_with(0x45, false);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(plus.combine(a, b)),
            std::bit_cast<std::uint64_t>(a));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(plus.combine(b, a)),
            std::bit_cast<std::uint64_t>(b));
  EXPECT_EQ(plus.combine(1.5, -0.25), 1.25);
}

TEST(Ops, MinLocMaxLocIdentityIsNeutral) {
  const MinLoc<double> mn;
  const MaxLoc<double> mx;
  const ValueIndex<double> a{2.5, 7};
  EXPECT_EQ(mn.combine(mn.identity(), a), a);
  EXPECT_EQ(mn.combine(a, mn.identity()), a);
  EXPECT_EQ(mx.combine(mx.identity(), a), a);
  EXPECT_EQ(mx.combine(a, mx.identity()), a);
}

TEST(Ops, MinLocTieBreaksTowardSmallerIndex) {
  const MinLoc<double> op;
  const ValueIndex<double> a{1.0, 3}, b{1.0, 9};
  EXPECT_EQ(op.combine(a, b).index, 3);
  EXPECT_EQ(op.combine(b, a).index, 3);  // commutative under ties
  const ValueIndex<double> c{0.5, 12};
  EXPECT_EQ(op.combine(a, c).index, 12);  // smaller value wins
}

TEST(Ops, MaxLocTieBreaksTowardSmallerIndex) {
  const MaxLoc<double> op;
  const ValueIndex<double> a{5.0, 4}, b{5.0, 2};
  EXPECT_EQ(op.combine(a, b).index, 2);
  EXPECT_EQ(op.combine(b, a).index, 2);
  const ValueIndex<double> c{7.0, 30};
  EXPECT_EQ(op.combine(a, c).index, 30);
}

TEST(Ops, MinLocIsAssociativeOnSamples) {
  const MinLoc<double> op;
  const ValueIndex<double> xs[] = {{3, 1}, {3, 0}, {-1, 5}, {-1, 2}, {9, 9}};
  for (const auto& a : xs)
    for (const auto& b : xs)
      for (const auto& c : xs)
        EXPECT_EQ(op.combine(op.combine(a, b), c),
                  op.combine(a, op.combine(b, c)));
}

TEST(Ops, LogicalOps) {
  const LogicalAnd land;
  const LogicalOr lor;
  EXPECT_EQ(land.combine(1, 1), 1);
  EXPECT_EQ(land.combine(1, 0), 0);
  EXPECT_EQ(land.identity(), 1);
  EXPECT_EQ(lor.combine(0, 0), 0);
  EXPECT_EQ(lor.combine(0, 1), 1);
  EXPECT_EQ(lor.identity(), 0);
}

// ---------------------------------------------------------------------------
// Non-commutative (but associative) operator support: composition of
// affine maps x ↦ a·x + b.  compose(f, g) = "apply f, then g".
// ---------------------------------------------------------------------------

struct Affine {
  double a = 1.0, b = 0.0;
  friend bool operator==(const Affine&, const Affine&) = default;
};

struct AffineCompose {
  using value_type = Affine;
  [[nodiscard]] Affine combine(const Affine& f, const Affine& g) const {
    return Affine{g.a * f.a, g.a * f.b + g.b};  // g ∘ f
  }
  [[nodiscard]] Affine identity() const { return {}; }
};

TEST(Ops, AffineComposeIsAssociativeNotCommutative) {
  const AffineCompose op;
  const Affine f{2, 1}, g{3, -1}, h{0.5, 4};
  EXPECT_EQ(op.combine(op.combine(f, g), h), op.combine(f, op.combine(g, h)));
  EXPECT_NE(op.combine(f, g), op.combine(g, f));
}

class NonCommutative : public ::testing::TestWithParam<int> {};

TEST_P(NonCommutative, AllreduceRespectsRankOrder) {
  const int d = GetParam();
  Cube cube(d, CostParams::unit());
  const SubcubeSet sc = SubcubeSet::contiguous(0, d);
  DistBuffer<Affine> buf(cube);
  cube.each_proc([&](proc_t q) {
    buf.assign(q, 3, Affine{1.0 + 0.25 * q, 0.5 * q - 1.0});
  });
  const AffineCompose op;
  // Host reference: fold in rank order.
  Affine want{};
  for (proc_t r = 0; r < cube.procs(); ++r)
    want = op.combine(want, Affine{1.0 + 0.25 * r, 0.5 * r - 1.0});
  allreduce(cube, buf, sc, op);
  cube.each_proc([&](proc_t q) {
    for (const Affine& f : buf.tile(q)) {
      EXPECT_DOUBLE_EQ(f.a, want.a) << "q=" << q;
      EXPECT_DOUBLE_EQ(f.b, want.b) << "q=" << q;
    }
  });
}

TEST_P(NonCommutative, ReduceScatterRespectsRankOrder) {
  const int d = GetParam();
  Cube cube(d, CostParams::unit());
  const SubcubeSet sc = SubcubeSet::contiguous(0, d);
  const std::size_t n = 6;
  DistBuffer<Affine> buf(cube);
  cube.each_proc([&](proc_t q) {
    buf.assign(q, n, Affine{1.0 + 0.125 * q, 0.25 * q});
  });
  const AffineCompose op;
  Affine want{};
  for (proc_t r = 0; r < cube.procs(); ++r)
    want = op.combine(want, Affine{1.0 + 0.125 * r, 0.25 * r});
  reduce_scatter(cube, buf, sc, op);
  cube.each_proc([&](proc_t q) {
    for (const Affine& f : buf.tile(q)) {
      EXPECT_DOUBLE_EQ(f.a, want.a);
      EXPECT_DOUBLE_EQ(f.b, want.b);
    }
  });
}

TEST_P(NonCommutative, ScanComputesRankPrefixes) {
  const int d = GetParam();
  Cube cube(d, CostParams::unit());
  const SubcubeSet sc = SubcubeSet::contiguous(0, d);
  DistBuffer<Affine> buf(cube);
  const auto at = [](proc_t r) {
    return Affine{1.0 + 0.5 * (r % 3), 1.0 - 0.25 * r};
  };
  cube.each_proc([&](proc_t q) { buf.assign(q, 2, at(q)); });
  const AffineCompose op;
  scan_exclusive(cube, buf, sc, op);
  cube.each_proc([&](proc_t q) {
    Affine want{};
    for (proc_t r = 0; r < q; ++r) want = op.combine(want, at(r));
    for (const Affine& f : buf.tile(q)) {
      EXPECT_DOUBLE_EQ(f.a, want.a) << "q=" << q;
      EXPECT_DOUBLE_EQ(f.b, want.b) << "q=" << q;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Dims, NonCommutative, ::testing::Values(0, 1, 2, 3,
                                                                 4, 5));

}  // namespace
}  // namespace vmp
