// Exact traffic accounting: the collectives must move precisely the
// message and element counts their cost analyses claim — this pins the
// simulated-time tables of EXPERIMENTS.md to the documented formulas.
#include <gtest/gtest.h>

#include "comm/allport.hpp"
#include "comm/collectives.hpp"
#include "comm/router.hpp"
#include "embed/dist_vector.hpp"
#include "util/workloads.hpp"

namespace vmp {
namespace {

struct Fx {
  explicit Fx(int d) : cube(d, CostParams::unit()), sc(SubcubeSet::contiguous(0, d)) {}
  Cube cube;
  SubcubeSet sc;
};

TEST(Stats, BinomialBroadcastMovesPMinus1Messages) {
  for (int d : {1, 3, 5, 7}) {
    Fx f(d);
    const std::size_t n = 10;
    DistBuffer<double> buf(f.cube);
    buf.assign(0, random_vector(n, 1));
    broadcast(f.cube, buf, f.sc, 0);
    const SimStats& st = f.cube.clock().stats();
    EXPECT_EQ(st.comm_steps, static_cast<std::uint64_t>(d));
    EXPECT_EQ(st.messages, f.cube.procs() - 1u);
    EXPECT_EQ(st.elements_moved, (f.cube.procs() - 1u) * n);
    // Every round carries the full payload: serial elements = d·n.
    EXPECT_EQ(st.elements_serial, static_cast<std::uint64_t>(d) * n);
  }
}

TEST(Stats, AllreduceDoublingMovesKPMessages) {
  for (int d : {1, 3, 5}) {
    Fx f(d);
    const std::size_t n = 6;
    DistBuffer<double> buf(f.cube);
    f.cube.each_proc([&](proc_t q) { buf.assign(q, random_vector(n, q)); });
    allreduce(f.cube, buf, f.sc, Plus<double>{});
    const SimStats& st = f.cube.clock().stats();
    EXPECT_EQ(st.comm_steps, static_cast<std::uint64_t>(d));
    EXPECT_EQ(st.messages, static_cast<std::uint64_t>(d) * f.cube.procs());
    EXPECT_EQ(st.elements_serial, static_cast<std::uint64_t>(d) * n);
  }
}

TEST(Stats, ReduceScatterMovesHalvingVolumes) {
  // The halving rounds of allreduce_rsag, charged in its reduce_scatter
  // region: per round the exchanged halves shrink, n/2, n/4, … — total per
  // proc n·(P-1)/P, total elements = P times that.
  const int d = 4;
  Fx f(d);
  const std::size_t n = 32;  // divisible by P = 16
  DistBuffer<double> buf(f.cube);
  f.cube.each_proc([&](proc_t q) { buf.assign(q, random_vector(n, q)); });
  allreduce_rsag(f.cube, buf, f.sc, Plus<double>{});
  const RegionProfile& st = f.cube.clock().tracer().self_profiles().at(
      "allreduce_rsag/reduce_scatter");
  EXPECT_EQ(st.comm_steps, 4u);
  EXPECT_EQ(st.elements_serial, 16u + 8u + 4u + 2u);  // n/2 + n/4 + …
  EXPECT_EQ(st.elements_moved, f.cube.procs() * (16u + 8u + 4u + 2u));
}

TEST(Stats, EsbtUsesAllPortsEachRound) {
  const int d = 4;
  Fx f(d);
  const std::size_t n = 64;  // 4 segments of 16
  DistBuffer<double> buf(f.cube);
  buf.assign(0, random_vector(n, 2));
  broadcast_esbt(f.cube, buf, f.sc, 0, [n](proc_t) { return n; });
  const SimStats& st = f.cube.clock().stats();
  EXPECT_EQ(st.comm_steps, 4u);
  // Each round is paced by one segment: serial elements = d·(n/d) = n.
  EXPECT_EQ(st.elements_serial, n);
  // Total volume: every tree delivers its segment P-1 times.
  EXPECT_EQ(st.elements_moved, (f.cube.procs() - 1u) * n);
}

TEST(Stats, RouterHopCountIsSumOfHammingDistances) {
  // Hop == Hamming distance only on the cube wiring; pin the preset so
  // the CI mesh leg (where hops are grid distances) skips this golden.
  Cube::Options opts;
  opts.topology = TopologyKind::Hypercube;
  Cube cube(4, CostParams::unit(), opts);
  std::vector<std::vector<Packet>> inject(cube.procs());
  std::uint64_t want_hops = 0;
  SplitMix64 rng(3);
  for (proc_t q = 0; q < cube.procs(); ++q)
    for (int t = 0; t < 3; ++t) {
      const proc_t dst = static_cast<proc_t>(rng.below(cube.procs()));
      inject[q].push_back(Packet{dst, 0, 1.0});
      want_hops += static_cast<std::uint64_t>(hamming_distance(q, dst));
    }
  NaiveRouter router(cube);
  router.run(std::move(inject), [](proc_t, std::uint64_t, double) {});
  EXPECT_EQ(cube.clock().stats().router_hops, want_hops);
}

TEST(Stats, DistributeAndInsertMoveNothing) {
  Cube cube(4, CostParams::unit());
  Grid grid(cube, 2, 2);
  DistVector<double> v(grid, 16, Align::Cols);
  v.load(random_vector(16, 4));
  // Only compute charges: messages stay zero.
  (void)grid;
  EXPECT_EQ(cube.clock().stats().messages, 0u);
}

TEST(Stats, ExchangeCountsMaxNotSum) {
  // One proc sends 10 elements, another 2: the round is paced by 10.
  Cube cube(1, CostParams::unit());
  DistBuffer<int> buf(cube);
  buf.assign(0, 10, 1);
  buf.assign(1, 2, 2);
  cube.exchange<int>(
      0, [&](proc_t q) { return std::span<const int>(buf.tile(q)); },
      [&](proc_t, std::span<const int>) {});
  EXPECT_DOUBLE_EQ(cube.clock().now_us(), 1.0 + 10.0);
  EXPECT_EQ(cube.clock().stats().elements_moved, 12u);
  EXPECT_EQ(cube.clock().stats().elements_serial, 10u);
}

}  // namespace
}  // namespace vmp
