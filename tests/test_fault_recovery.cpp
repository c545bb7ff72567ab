// Machine-level fault recovery: the exchange variants, relay-based ring
// shifts, view-charged broadcasts and the naive router under seeded fault
// plans.  The contract:
// within-budget plans change *when* and *what is charged*, never the data
// delivered; beyond-budget plans throw FaultError instead of degrading
// silently.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "algorithms/gauss.hpp"
#include "algorithms/matmul.hpp"
#include "comm/router.hpp"
#include "comm/shift.hpp"
#include "embed/realign.hpp"
#include "hypercube/machine.hpp"
#include "obs/report.hpp"
#include "util/workloads.hpp"
#include "param_printers.hpp"

namespace vmp {
namespace {

/// Options pinning the hypercube preset: tests asserting cube-specific
/// recovery shapes (3-hop detours, cut sets of the cube graph) must not
/// drift when the suite runs under VMP_TOPOLOGY=mesh (the CI mesh leg).
[[nodiscard]] Cube::Options hypercube_opts() {
  Cube::Options opts;
  opts.topology = TopologyKind::Hypercube;
  return opts;
}

/// Run `rounds` full one-port exchange rounds (every processor swaps a
/// small distinct payload with its dim-d partner, cycling d) and return
/// every processor's final receive buffer.
std::vector<std::vector<double>> exchange_workout(Cube& cube, int rounds) {
  const proc_t p = cube.procs();
  std::vector<std::vector<double>> held(p), got(p);
  for (proc_t q = 0; q < p; ++q)
    held[q] = {static_cast<double>(q), static_cast<double>(q) * 0.5 + 1.0};
  for (int r = 0; r < rounds; ++r) {
    const int d = r % cube.dim();
    cube.exchange<double>(
        d, [&](proc_t q) { return std::span<const double>(held[q]); },
        [&](proc_t q, std::span<const double> in) {
          got[q].assign(in.begin(), in.end());
        });
    for (proc_t q = 0; q < p; ++q) held[q] = got[q];
  }
  return held;
}

TEST(FaultRecovery, InertPlanIsBitIdenticalToNoInjector) {
  Cube plain(3, CostParams::cm2());
  plain.clock().tracer().set_recording(true);
  const auto want = exchange_workout(plain, 6);

  Cube faulty(3, CostParams::cm2());
  faulty.clock().tracer().set_recording(true);
  faulty.enable_faults(FaultPlan::none());
  const auto got = exchange_workout(faulty, 6);

  EXPECT_EQ(got, want);
  EXPECT_EQ(faulty.clock().now_us(), plain.clock().now_us());
  EXPECT_EQ(faulty.clock().comm_us(), plain.clock().comm_us());
  EXPECT_EQ(faulty.clock().stats().comm_steps, plain.clock().stats().comm_steps);
  EXPECT_EQ(faulty.clock().stats().messages, plain.clock().stats().messages);
  EXPECT_EQ(faulty.clock().stats().fault_retries, 0u);
  // Even the event trace matches, event for event.
  EXPECT_EQ(faulty.clock().tracer().events(), plain.clock().tracer().events());
}

TEST(FaultRecovery, DropsAreRetriedAndDataIsIdentical) {
  Cube plain(3, CostParams::cm2());
  const auto want = exchange_workout(plain, 12);

  Cube faulty(3, CostParams::cm2());
  faulty.enable_faults(FaultPlan::transient(5, /*drop=*/0.3, /*corrupt=*/0.0));
  const auto got = exchange_workout(faulty, 12);

  EXPECT_EQ(got, want);  // bit-identical payloads despite the losses
  EXPECT_GT(faulty.clock().stats().fault_retries, 0u);
  EXPECT_GT(faulty.clock().now_us(), plain.clock().now_us())
      << "retries must cost simulated time";
}

TEST(FaultRecovery, CorruptionIsCaughtByChecksumAndRetried) {
  Cube plain(3, CostParams::cm2());
  const auto want = exchange_workout(plain, 12);

  Cube faulty(3, CostParams::cm2());
  faulty.enable_faults(FaultPlan::transient(6, 0.0, /*corrupt=*/0.3));
  const auto got = exchange_workout(faulty, 12);

  EXPECT_EQ(got, want);
  EXPECT_GT(faulty.clock().stats().fault_chksum_fails, 0u);
  EXPECT_EQ(faulty.clock().stats().fault_chksum_fails,
            faulty.clock().stats().fault_retries)
      << "every checksum reject is exactly one retry here (no drops)";
}

TEST(FaultRecovery, RecoveryCostsLandInFaultRegions) {
  Cube cube(3, CostParams::cm2());
  cube.enable_faults(FaultPlan::transient(5, 0.3, 0.1, 0.2, 40.0));
  (void)exchange_workout(cube, 12);
  ASSERT_GT(cube.clock().stats().fault_retries, 0u);
  const auto inclusive = cube.clock().tracer().inclusive_profiles();
  double retry_us = 0.0, spike_us = 0.0;
  for (const auto& [path, prof] : inclusive) {
    if (path.find("fault_retry") != std::string::npos)
      retry_us += prof.total_us();
    if (path.find("fault_spike") != std::string::npos)
      spike_us += prof.total_us();
  }
  EXPECT_GT(retry_us, 0.0);
  EXPECT_GT(spike_us, 0.0);
  // The JSON report carries the same attribution.
  const std::string json = profile_to_json(cube.clock());
  EXPECT_NE(json.find("fault_retry"), std::string::npos);
  EXPECT_NE(json.find("\"fault_retries\":"), std::string::npos);
}

TEST(FaultRecovery, SpikeStallsTheRoundByItsLatency) {
  // spike_prob = 1: every round pays exactly one spike (max over edges).
  Cube plain(2, CostParams::cm2());
  const auto want = exchange_workout(plain, 4);
  Cube faulty(2, CostParams::cm2());
  faulty.enable_faults(FaultPlan::transient(1, 0.0, 0.0, 1.0, 50.0));
  const auto got = exchange_workout(faulty, 4);
  EXPECT_EQ(got, want);
  EXPECT_DOUBLE_EQ(faulty.clock().now_us(), plain.clock().now_us() + 4 * 50.0);
}

TEST(FaultRecovery, DeadLinkIsRoutedAroundParallelPaths) {
  FaultPlan plan;
  plan.link_kills.push_back({/*from_round=*/0, /*node=*/0, /*dim=*/0});

  Cube plain(3, CostParams::cm2(), hypercube_opts());
  const auto want = exchange_workout(plain, 6);
  Cube faulty(3, CostParams::cm2(), hypercube_opts());
  faulty.enable_faults(plan);
  const auto got = exchange_workout(faulty, 6);

  EXPECT_EQ(got, want);  // the detour carries the same payload
  EXPECT_GT(faulty.clock().stats().fault_reroutes, 0u);
  EXPECT_GT(faulty.clock().now_us(), plain.clock().now_us())
      << "3-hop detours must cost more than the dead direct hop";
  const std::string json = profile_to_json(faulty.clock());
  EXPECT_NE(json.find("fault_reroute"), std::string::npos);
}

TEST(FaultRecovery, FullyCutDetourThrowsInsteadOfWrongAnswer) {
  // Kill every link of node 0 except dim 0, then exchange across dim 0's
  // dead partner link: no live detour exists in a 2-cube.  (On a mesh the
  // same kills leave other ports live, hence the pinned preset.)
  FaultPlan plan;
  plan.link_kills.push_back({0, /*node=*/0, /*dim=*/0});
  plan.link_kills.push_back({0, /*node=*/0, /*dim=*/1});
  Cube cube(2, CostParams::cm2(), hypercube_opts());
  cube.enable_faults(plan);
  EXPECT_THROW(exchange_workout(cube, 1), FaultError);
}

TEST(FaultRecovery, TorusRoutesAroundADeadLinkViaTheWrapPath) {
  // A 4×4 torus (dim 4, axis extents 4 and 4).  Port 0 of node 0 is the
  // +x link 0→1; a logical dim-1 exchange moves ±2 along x, routed
  // 0→1→2, so killing (0, port 0) compromises a multi-hop route whose
  // dead link is NOT a logical cube edge of the exchange.  The machine
  // must route around it (the wrap path 0→3→2 exists on the torus) and
  // deliver bit-identical data at a strictly higher simulated cost.
  Cube::Options torus;
  torus.topology = TopologyKind::Torus;
  FaultPlan plan;
  plan.link_kills.push_back({/*from_round=*/0, /*node=*/0, /*dim=*/0});

  Cube plain(4, CostParams::cm2(), torus);
  const auto want = exchange_workout(plain, 8);
  Cube faulty(4, CostParams::cm2(), torus);
  faulty.enable_faults(plan);
  const auto got = exchange_workout(faulty, 8);

  EXPECT_EQ(got, want);
  EXPECT_GT(faulty.clock().stats().fault_reroutes, 0u);
  EXPECT_GT(faulty.clock().now_us(), plain.clock().now_us())
      << "the wrap detour must cost more than the dead direct route";
  const std::string json = profile_to_json(faulty.clock());
  EXPECT_NE(json.find("fault_reroute"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"torus\""), std::string::npos)
      << "the profile must identify the topology it was charged on";
}

TEST(FaultRecovery, DeadNodeThrowsWithRemapHint) {
  FaultPlan plan;
  plan.node_kills.push_back({/*from_round=*/0, /*node=*/3});
  Cube cube(3, CostParams::cm2());
  cube.enable_faults(plan);
  try {
    (void)exchange_workout(cube, 1);
    FAIL() << "exchange involving a dead node must throw";
  } catch (const FaultError& e) {
    EXPECT_NE(std::string(e.what()).find("remap"), std::string::npos)
        << "the error should point at the embedding-remap recovery";
  }
}

TEST(FaultRecovery, NodeKillInTheFutureIsHarmlessUntilItsRound) {
  FaultPlan plan;
  plan.node_kills.push_back({/*from_round=*/4, /*node=*/1});
  Cube cube(2, CostParams::cm2());
  cube.enable_faults(plan);
  (void)exchange_workout(cube, 4);  // rounds 0..3: fine
  EXPECT_THROW(exchange_workout(cube, 1), FaultError);  // round 4: dead
}

TEST(FaultRecovery, RetryBudgetExhaustionThrows) {
  Cube cube(2, CostParams::cm2());
  cube.enable_faults(FaultPlan::transient(3, /*drop=*/1.0, 0.0),
                     RecoveryPolicy{/*max_retries=*/4, /*backoff_us=*/1.0});
  try {
    (void)exchange_workout(cube, 1);
    FAIL() << "a 100% drop plan can never deliver";
  } catch (const FaultError& e) {
    EXPECT_NE(std::string(e.what()).find("budget"), std::string::npos);
  }
}

TEST(FaultRecovery, BackoffGrowsExponentially) {
  // drop_prob = 1 with a generous budget: attempt k pays backoff 2^(k-1).
  // Compare total time under max_retries budgets that differ by one.
  const auto time_with = [](int retries) {
    Cube cube(2, CostParams::cm2());
    cube.enable_faults(FaultPlan::transient(3, 1.0, 0.0),
                       RecoveryPolicy{retries, /*backoff_us=*/8.0});
    try {
      (void)exchange_workout(cube, 1);
    } catch (const FaultError&) {
    }
    return cube.clock().now_us();
  };
  const double t3 = time_with(3), t4 = time_with(4), t5 = time_with(5);
  // Extra backoff of attempt k is 8·2^(k-1): the increments double (plus
  // the constant retransmission step).
  EXPECT_GT(t4 - t3, 0.0);
  EXPECT_GT(t5 - t4, t4 - t3);
}

TEST(FaultRecovery, AllportExchangeRecovers) {
  Cube plain(3, CostParams::cm2());
  Cube faulty(3, CostParams::cm2());
  faulty.enable_faults(FaultPlan::transient(9, 0.25, 0.1));
  const int dims[2] = {0, 2};
  const auto run = [&](Cube& cube) {
    std::vector<std::vector<double>> got(cube.procs() * 2);
    std::vector<std::vector<double>> payload(cube.procs());
    for (proc_t q = 0; q < cube.procs(); ++q)
      payload[q] = {static_cast<double>(q) + 0.25};
    cube.exchange_allport<double>(
        std::span<const int>(dims, 2),
        [&](proc_t q, std::size_t) {
          return std::span<const double>(payload[q]);
        },
        [&](proc_t q, std::size_t idx, std::span<const double> in) {
          got[q * 2 + idx].assign(in.begin(), in.end());
        });
    return got;
  };
  EXPECT_EQ(run(faulty), run(plain));
  EXPECT_GT(faulty.clock().stats().fault_retries, 0u);
}

TEST(FaultRecovery, NeighborExchangeRecovers) {
  Cube plain(3, CostParams::cm2());
  Cube faulty(3, CostParams::cm2());
  faulty.enable_faults(FaultPlan::transient(13, 0.25, 0.1));
  const auto run = [&](Cube& cube) {
    std::vector<std::vector<double>> got(cube.procs());
    std::vector<std::vector<double>> payload(cube.procs());
    for (proc_t q = 0; q < cube.procs(); ++q)
      payload[q] = {static_cast<double>(q) * 3.0};
    cube.relay<double>(
        [](proc_t q) { return q ^ 1u; },
        [&](proc_t q) { return std::span<const double>(payload[q]); },
        [&](proc_t q, std::span<const double> in) {
          got[q].assign(in.begin(), in.end());
        });
    return got;
  };
  EXPECT_EQ(run(faulty), run(plain));
  EXPECT_GT(faulty.clock().stats().fault_retries, 0u);
}

TEST(FaultRecovery, SameSeedReproducesTheExactEventTrace) {
  const auto trace = [](std::uint64_t seed) {
    Cube cube(3, CostParams::cm2());
    cube.clock().tracer().set_recording(true);
    cube.enable_faults(FaultPlan::transient(seed, 0.2, 0.1, 0.05, 30.0));
    (void)exchange_workout(cube, 10);
    return cube.clock().tracer().events();
  };
  const auto a = trace(77), b = trace(77), c = trace(78);
  EXPECT_EQ(a, b) << "same plan seed must replay the identical event trace";
  EXPECT_NE(a, c) << "a different seed should perturb the schedule";
}

TEST(FaultRecovery, DisableFaultsRestoresTheFastPath) {
  Cube plain(3, CostParams::cm2());
  const auto want = exchange_workout(plain, 4);
  Cube cube(3, CostParams::cm2());
  cube.enable_faults(FaultPlan::transient(5, 0.5, 0.0));
  cube.disable_faults();
  EXPECT_EQ(cube.faults(), nullptr);
  const auto got = exchange_workout(cube, 4);
  EXPECT_EQ(got, want);
  EXPECT_EQ(cube.clock().now_us(), plain.clock().now_us());
  EXPECT_EQ(cube.clock().stats().fault_retries, 0u);
}

// ---------------------------------------------------------------------------
// Ring shifts under faults: every store-and-forward leg of a Gray shift is
// a lockstep round, so it consults the injector like any exchange.

[[nodiscard]] Cube::Options preset_opts(TopologyKind kind) {
  Cube::Options opts;
  opts.topology = kind;
  return opts;
}

/// Gray shifts at unit and multi-hop strides over ragged tiles (some
/// empty) on the whole-cube ring; returns the final tiles.
std::vector<std::vector<double>> shift_workout(Cube& cube) {
  DistBuffer<double> buf(cube);
  buf.reserve_each(6);
  cube.each_proc([&](proc_t q) {
    for (std::size_t j = 0; j < (std::size_t{q} * 3) % 7; ++j)
      buf.push_back(q, static_cast<double>(q) + 0.5 * static_cast<double>(j));
  });
  const SubcubeSet ring = SubcubeSet::contiguous(0, cube.dim());
  for (const int by : {1, 3, -1, -6, 5})
    shift_blocks(cube, buf, ring, by, RingOrder::Gray);
  std::vector<std::vector<double>> tiles;
  cube.each_proc([&](proc_t q) { tiles.push_back(buf.host_vec(q)); });
  return tiles;
}

/// A plan killing the physical link the Gray ring's first message
/// (processor 0 → 1) leaves on.
[[nodiscard]] FaultPlan dead_first_ring_link(const Cube& cube) {
  std::vector<Hop> hops;
  cube.topology().route(0, 1, hops);
  FaultPlan plan;
  plan.link_kills.push_back({/*from_round=*/0, hops.front().from,
                             hops.front().port});
  return plan;
}

class ShiftFaults : public ::testing::TestWithParam<TopologyKind> {};

TEST_P(ShiftFaults, DeadRingNodeThrows) {
  FaultPlan plan;
  plan.node_kills.push_back({/*from_round=*/0, /*node=*/5});
  Cube cube(4, CostParams::cm2(), preset_opts(GetParam()));
  cube.enable_faults(plan);
  EXPECT_THROW(shift_workout(cube), FaultError);
}

TEST_P(ShiftFaults, DeadLinkIsRoutedAround) {
  Cube plain(4, CostParams::cm2(), preset_opts(GetParam()));
  const auto want = shift_workout(plain);
  Cube faulty(4, CostParams::cm2(), preset_opts(GetParam()));
  faulty.enable_faults(dead_first_ring_link(faulty));
  EXPECT_EQ(shift_workout(faulty), want);
  EXPECT_GT(faulty.clock().stats().fault_reroutes, 0u);
  EXPECT_GT(faulty.clock().now_us(), plain.clock().now_us());
}

TEST_P(ShiftFaults, DropsAndCorruptionAreRetried) {
  Cube plain(4, CostParams::cm2(), preset_opts(GetParam()));
  const auto want = shift_workout(plain);
  Cube faulty(4, CostParams::cm2(), preset_opts(GetParam()));
  faulty.enable_faults(FaultPlan::transient(29, /*drop=*/0.1,
                                            /*corrupt=*/0.1));
  EXPECT_EQ(shift_workout(faulty), want);
  EXPECT_GT(faulty.clock().stats().fault_retries, 0u);
  EXPECT_GT(faulty.clock().stats().fault_chksum_fails, 0u);
}

TEST_P(ShiftFaults, FailedShiftLeavesTheBufferAndTheCubeReusable) {
  // A node that dies after the first leg: the stride-3 shift, several legs
  // on the 16-ring, charges leg 0 and then throws on a later leg.  The
  // FaultError must leave every tile and length exactly as before the call.
  const auto product = [](Cube& cube) {
    Grid grid(cube, cube.dim(), 0);
    DistMatrix<double> A(grid, 40, 24);
    DistMatrix<double> B(grid, 24, 18);
    A.load(random_matrix(40, 24, 41));
    B.load(random_matrix(24, 18, 42));
    return matmul_hyper(A, B).to_host();
  };
  FaultPlan plan;
  plan.node_kills.push_back({/*from_round=*/1, /*node=*/5});
  Cube cube(4, CostParams::cm2(), preset_opts(GetParam()));
  cube.enable_faults(plan);
  DistBuffer<double> buf(cube);
  buf.reserve_each(6);
  cube.each_proc([&](proc_t q) {
    for (std::size_t j = 0; j < (std::size_t{q} * 3) % 7; ++j)
      buf.push_back(q, static_cast<double>(q) + 0.5 * static_cast<double>(j));
  });
  std::vector<std::vector<double>> before;
  cube.each_proc([&](proc_t q) { before.push_back(buf.host_vec(q)); });
  const SubcubeSet ring = SubcubeSet::contiguous(0, cube.dim());
  ASSERT_GT(shift_rounds(ring, 3), 1);
  EXPECT_THROW(shift_blocks(cube, buf, ring, 3, RingOrder::Gray), FaultError);
  EXPECT_GT(cube.clock().stats().comm_steps, 0u)
      << "no leg ran before the throw";
  cube.each_proc([&](proc_t q) {
    EXPECT_EQ(buf.host_vec(q), before[q]) << "q=" << q;
  });

  // The same cube, its fault plan detached, then runs matmul_hyper exactly
  // like a fresh cube: the same result, and the same clock and SimStats
  // from the reset on (buf stays alive, so neither pool holds a spare).
  cube.disable_faults();
  cube.clock().reset();
  Cube fresh(4, CostParams::cm2(), preset_opts(GetParam()));
  EXPECT_EQ(product(cube), product(fresh));
  EXPECT_EQ(cube.clock().now_us(), fresh.clock().now_us());
  EXPECT_TRUE(cube.clock().stats() == fresh.clock().stats());
}

TEST_P(ShiftFaults, FailedMatmulLeavesItsOperandsAndTheCubeReusable) {
  // On the 16-ring the product's K − 1 = 3 replicate shifts are rounds 0
  // to 2; node 5 dies at round 3, the first stride-4 stream shift, in
  // which it sends its block of B.  matmul_hyper charges its whole
  // schedule before it computes anything, so the FaultError leaves A and
  // B as they were and no team step has run.
  const auto product = [](Cube& cube) {
    Grid grid(cube, cube.dim(), 0);
    DistMatrix<double> A(grid, 40, 24);
    DistMatrix<double> B(grid, 24, 18);
    A.load(random_matrix(40, 24, 43));
    B.load(random_matrix(24, 18, 44));
    return matmul_hyper(A, B).to_host();
  };
  FaultPlan plan;
  plan.node_kills.push_back({/*from_round=*/3, /*node=*/5});
  Cube cube(4, CostParams::cm2(), preset_opts(GetParam()));
  cube.enable_faults(plan);
  Grid grid(cube, cube.dim(), 0);
  DistMatrix<double> A(grid, 40, 24);
  DistMatrix<double> B(grid, 24, 18);
  A.load(random_matrix(40, 24, 41));
  B.load(random_matrix(24, 18, 42));
  const std::vector<double> a0 = A.to_host(), b0 = B.to_host();
  const std::uint64_t steps = cube.team().steps_dispatched();
  EXPECT_THROW((void)matmul_hyper(A, B), FaultError);
  EXPECT_GE(cube.clock().stats().comm_steps, 3u)
      << "the replicate rounds ran before the throw";
  EXPECT_EQ(cube.team().steps_dispatched(), steps)
      << "a failed product runs no team step";
  const std::vector<double> a1 = A.to_host(), b1 = B.to_host();
  EXPECT_EQ(std::memcmp(a0.data(), a1.data(), a0.size() * sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(b0.data(), b1.data(), b0.size() * sizeof(double)), 0);

  // The same cube, its fault plan detached, then multiplies exactly like a
  // fresh cube: the same result, and the same clock and SimStats from the
  // reset on.  The failed call released its result's arena to the pool;
  // trimming it leaves the pool as a fresh cube's (A and B stay alive and
  // leased), so the pool counters match too.
  cube.disable_faults();
  cube.buffers().trim();
  cube.clock().reset();
  Cube fresh(4, CostParams::cm2(), preset_opts(GetParam()));
  EXPECT_EQ(product(cube), product(fresh));
  EXPECT_EQ(cube.clock().now_us(), fresh.clock().now_us());
  EXPECT_TRUE(cube.clock().stats() == fresh.clock().stats());
}

INSTANTIATE_TEST_SUITE_P(
    Presets, ShiftFaults,
    ::testing::Values(TopologyKind::Hypercube, TopologyKind::Mesh,
                      TopologyKind::Torus, TopologyKind::Dragonfly),
    [](const ::testing::TestParamInfo<TopologyKind>& info) {
      return std::string(to_string(info.param));
    });

// A data-only broadcast charges its rounds over its roots' payloads and
// places them only after the last round, so a FaultError part-way leaves
// the buffer exactly as it was, and the cube is reusable.
class BroadcastFaults : public ::testing::TestWithParam<TopologyKind> {};

TEST_P(BroadcastFaults, FailedBroadcastLeavesTheBufferAndTheCubeReusable) {
  // Node 5 dies after round 0: the pipelined broadcast from processor 0
  // reaches it only in round 3, so it charges rounds 0 to 2 and throws.
  const auto solve = [](Cube& cube) {
    Grid grid(cube, 2, 2);
    const std::size_t n = 48;
    const HostMatrix H = diag_dominant_matrix(n, 48);
    DistMatrix<double> A(grid, n, n, MatrixLayout::cyclic());
    A.load(H.data());
    const DistLuResult lu = lu_factor(A);
    return lu_solve(A, lu, random_vector(n, 49));
  };
  FaultPlan plan;
  plan.node_kills.push_back({/*from_round=*/1, /*node=*/5});
  Cube cube(4, CostParams::cm2(), preset_opts(GetParam()));
  cube.enable_faults(plan);
  const SubcubeSet whole = SubcubeSet::contiguous(0, cube.dim());
  const std::size_t n = 10;
  DistBuffer<double> buf(cube);
  buf.reserve_each(n);
  cube.each_proc([&](proc_t q) {
    for (std::size_t j = 0; j < (q == 0 ? n : (std::size_t{q} * 3) % 7); ++j)
      buf.push_back(q, static_cast<double>(q) + 0.5 * static_cast<double>(j));
  });
  std::vector<std::vector<double>> before;
  cube.each_proc([&](proc_t q) { before.push_back(buf.host_vec(q)); });
  EXPECT_THROW(broadcast_pipelined(cube, buf, whole, 0,
                                   [n](proc_t) { return n; }, 3),
               FaultError);
  EXPECT_GT(cube.clock().stats().comm_steps, 0u)
      << "no round ran before the throw";
  cube.each_proc([&](proc_t q) {
    EXPECT_EQ(buf.host_vec(q), before[q]) << "q=" << q;
  });

  // The same cube, its fault plan detached, then factors and solves
  // exactly like a fresh cube: the same x, and the same clock and SimStats
  // from the reset on (buf stays alive, so neither pool holds a spare).
  cube.disable_faults();
  cube.clock().reset();
  Cube fresh(4, CostParams::cm2(), preset_opts(GetParam()));
  EXPECT_EQ(solve(cube), solve(fresh));
  EXPECT_EQ(cube.clock().now_us(), fresh.clock().now_us());
  EXPECT_TRUE(cube.clock().stats() == fresh.clock().stats());
}

TEST_P(BroadcastFaults, FailedSagLeavesTheBufferAndTheCubeReusable) {
  // Node 5 dies after round 0: scatter + all-gather from processor 0
  // reaches it only in the scatter's last round, so it charges rounds 0 to
  // 2 and throws.  Its rounds are walked over the root's payload and the
  // payload placed once, so the FaultError leaves every tile as it was.
  const auto solve = [](Cube& cube) {
    Grid grid(cube, 2, 2);
    const std::size_t n = 48;
    const HostMatrix H = diag_dominant_matrix(n, 48);
    DistMatrix<double> A(grid, n, n, MatrixLayout::cyclic());
    A.load(H.data());
    const DistLuResult lu = lu_factor(A);
    return lu_solve(A, lu, random_vector(n, 49));
  };
  FaultPlan plan;
  plan.node_kills.push_back({/*from_round=*/1, /*node=*/5});
  Cube cube(4, CostParams::cm2(), preset_opts(GetParam()));
  cube.enable_faults(plan);
  const SubcubeSet whole = SubcubeSet::contiguous(0, cube.dim());
  const std::size_t n = 40;  // every one of the 16 blocks is non-empty
  DistBuffer<double> buf(cube);
  buf.reserve_each(n);
  cube.each_proc([&](proc_t q) {
    for (std::size_t j = 0; j < (q == 0 ? n : (std::size_t{q} * 3) % 7); ++j)
      buf.push_back(q, static_cast<double>(q) + 0.5 * static_cast<double>(j));
  });
  std::vector<std::vector<double>> before;
  cube.each_proc([&](proc_t q) { before.push_back(buf.host_vec(q)); });
  EXPECT_THROW(broadcast_sag(cube, buf, whole, 0, [n](proc_t) { return n; }),
               FaultError);
  EXPECT_GT(cube.clock().stats().comm_steps, 0u)
      << "no round ran before the throw";
  cube.each_proc([&](proc_t q) {
    EXPECT_EQ(buf.host_vec(q), before[q]) << "q=" << q;
  });

  // The same cube, its fault plan detached, then factors and solves
  // exactly like a fresh cube.
  cube.disable_faults();
  cube.clock().reset();
  Cube fresh(4, CostParams::cm2(), preset_opts(GetParam()));
  EXPECT_EQ(solve(cube), solve(fresh));
  EXPECT_EQ(cube.clock().now_us(), fresh.clock().now_us());
  EXPECT_TRUE(cube.clock().stats() == fresh.clock().stats());
}

INSTANTIATE_TEST_SUITE_P(
    Presets, BroadcastFaults,
    ::testing::Values(TopologyKind::Hypercube, TopologyKind::Mesh,
                      TopologyKind::Torus, TopologyKind::Dragonfly),
    [](const ::testing::TestParamInfo<TopologyKind>& info) {
      return std::string(to_string(info.param));
    });

// The doubling all-reduce charges its rounds over the members' tiles and
// folds them only after the last round, so a FaultError part-way leaves
// the buffer exactly as it was (the staged doubling it replaced left the
// earlier rounds' partial combines behind), and the cube is reusable.
class AllreduceFaults : public ::testing::TestWithParam<TopologyKind> {};

TEST_P(AllreduceFaults, FailedAllreduceLeavesTheBufferAndTheCubeReusable) {
  // Node 5 dies after round 0: every member sends in every round, so round
  // 0 is charged and round 1 throws.
  const auto solve = [](Cube& cube) {
    Grid grid(cube, 2, 2);
    const std::size_t n = 48;
    const HostMatrix H = diag_dominant_matrix(n, 48);
    DistMatrix<double> A(grid, n, n, MatrixLayout::cyclic());
    A.load(H.data());
    const DistLuResult lu = lu_factor(A);
    return lu_solve(A, lu, random_vector(n, 49));
  };
  FaultPlan plan;
  plan.node_kills.push_back({/*from_round=*/1, /*node=*/5});
  Cube cube(4, CostParams::cm2(), preset_opts(GetParam()));
  cube.enable_faults(plan);
  const SubcubeSet whole = SubcubeSet::contiguous(0, cube.dim());
  DistBuffer<double> buf(cube);
  buf.reserve_each(10);
  cube.each_proc([&](proc_t q) {
    for (std::size_t j = 0; j < 10; ++j)
      buf.push_back(q, static_cast<double>(q) + 0.5 * static_cast<double>(j));
  });
  std::vector<std::vector<double>> before;
  cube.each_proc([&](proc_t q) { before.push_back(buf.host_vec(q)); });
  const std::uint64_t steps = cube.team().steps_dispatched();
  EXPECT_THROW(allreduce(cube, buf, whole, Plus<double>{}), FaultError);
  EXPECT_EQ(cube.clock().stats().comm_steps, 1u)
      << "round 0 ran before the throw";
  EXPECT_EQ(cube.team().steps_dispatched(), steps)
      << "a failed all-reduce runs no team step";
  cube.each_proc([&](proc_t q) {
    EXPECT_EQ(buf.host_vec(q), before[q]) << "q=" << q;
  });

  // The same cube, its fault plan detached, then factors and solves
  // exactly like a fresh cube: the same x, and the same clock and SimStats
  // from the reset on (buf stays alive, so neither pool holds a spare).
  cube.disable_faults();
  cube.clock().reset();
  Cube fresh(4, CostParams::cm2(), preset_opts(GetParam()));
  EXPECT_EQ(solve(cube), solve(fresh));
  EXPECT_EQ(cube.clock().now_us(), fresh.clock().now_us());
  EXPECT_TRUE(cube.clock().stats() == fresh.clock().stats());
}

INSTANTIATE_TEST_SUITE_P(
    Presets, AllreduceFaults,
    ::testing::Values(TopologyKind::Hypercube, TopologyKind::Mesh,
                      TopologyKind::Torus, TopologyKind::Dragonfly),
    [](const ::testing::TestParamInfo<TopologyKind>& info) {
      return std::string(to_string(info.param));
    });

// A staged round (exchange, exchange_allport, relay) is settled — charged
// and, under a fault plan, recovered — before its one delivery step, so a
// round that throws FaultError has called recv on no processor, even for
// the messages that got through.
TEST(FaultRecovery, FailedStagedRoundDeliversNothing) {
  // Half of all messages are dropped and none may be retried: both rounds
  // throw, each after some of its messages got through.
  const int dims[] = {0, 1, 2};
  const std::vector<double> payload = {1.5, -2.0, 0.25};
  const auto allreduced = [](Cube& cube) {
    DistBuffer<double> buf(cube);
    cube.each_proc([&](proc_t q) {
      buf.assign(q, std::vector<double>{0.5 * q, 1.0 / (q + 1.0), -3.0 * q});
    });
    const double t0 = cube.clock().now_us();
    allreduce(cube, buf, SubcubeSet::contiguous(0, cube.dim()),
              Plus<double>{});
    std::vector<std::vector<double>> out;
    cube.each_proc([&](proc_t q) { out.push_back(buf.host_vec(q)); });
    return std::pair{out, cube.clock().now_us() - t0};
  };
  for (const TopologyKind kind :
       {TopologyKind::Hypercube, TopologyKind::Mesh, TopologyKind::Torus,
        TopologyKind::Dragonfly}) {
    SCOPED_TRACE(to_string(kind));
    Cube cube(3, CostParams::cm2(), preset_opts(kind));
    cube.enable_faults(FaultPlan::transient(7, /*drop=*/0.5, 0.0),
                       RecoveryPolicy{/*max_retries=*/0, /*backoff_us=*/1.0});
    std::atomic<int> recvs{0};
    EXPECT_THROW(
        cube.exchange<double>(
            0, [&](proc_t) { return std::span<const double>(payload); },
            [&](proc_t, std::span<const double>) { ++recvs; }),
        FaultError);
    EXPECT_THROW(cube.exchange_allport<double>(
                     std::span<const int>(dims),
                     [&](proc_t, std::size_t) {
                       return std::span<const double>(payload);
                     },
                     [&](proc_t, std::size_t, std::span<const double>) {
                       ++recvs;
                     }),
                 FaultError);
    EXPECT_EQ(recvs.load(), 0);

    // Its plan detached, the cube all-reduces like a fresh one.
    cube.disable_faults();
    Cube fresh(3, CostParams::cm2(), preset_opts(kind));
    EXPECT_EQ(allreduced(cube), allreduced(fresh));
  }
}

TEST(ShiftFaults, MatmulHyperOnTheDragonflyRecovers) {
  const auto product = [](Cube& cube) {
    Grid grid(cube, 6, 0);
    DistMatrix<double> A(grid, 64, 64);
    DistMatrix<double> B(grid, 64, 64);
    A.load(random_matrix(64, 64, 31));
    B.load(random_matrix(64, 64, 32));
    return matmul_hyper(A, B).to_host();
  };
  Cube plain(6, CostParams::cm2(), preset_opts(TopologyKind::Dragonfly));
  const std::vector<double> want = product(plain);
  Cube faulty(6, CostParams::cm2(), preset_opts(TopologyKind::Dragonfly));
  FaultPlan plan = dead_first_ring_link(faulty);
  plan.seed = 37;
  plan.drop_prob = 0.05;
  faulty.enable_faults(plan);
  EXPECT_EQ(product(faulty), want);
  EXPECT_GT(faulty.clock().stats().fault_reroutes, 0u);
  EXPECT_GT(faulty.clock().stats().fault_retries, 0u);
}

// ---------------------------------------------------------------------------
// The naive general router under faults.

TEST(FaultRouter, TransientFaultsDoNotChangeDeliveries) {
  const auto run = [](Cube& cube) {
    NaiveRouter router(cube);
    std::vector<std::vector<Packet>> packets(cube.procs());
    for (proc_t q = 0; q < cube.procs(); ++q)
      packets[q].push_back(
          Packet{static_cast<proc_t>(cube.procs() - 1 - q), q,
                 static_cast<double>(q) + 0.5});
    std::vector<double> arrived(cube.procs(), -1.0);
    std::vector<int> count(cube.procs(), 0);
    (void)router.run(packets, [&](proc_t dst, std::uint64_t, double v) {
      arrived[dst] = v;
      ++count[dst];
    });
    for (int c : count) EXPECT_EQ(c, 1) << "exactly-once delivery";
    return arrived;
  };
  Cube plain(4, CostParams::cm2());
  Cube faulty(4, CostParams::cm2());
  faulty.enable_faults(FaultPlan::transient(21, 0.2, 0.1));
  EXPECT_EQ(run(faulty), run(plain));
  EXPECT_GT(faulty.clock().stats().fault_retries, 0u);
  EXPECT_GT(faulty.clock().now_us(), plain.clock().now_us());
}

TEST(FaultRouter, DeadLinkIsDodgedViaAnotherDimension) {
  // 0 → 7 normally leaves over dim 0; kill that link and the packet must
  // still arrive (dim 1 or 2 is an equally short first hop).
  FaultPlan plan;
  plan.link_kills.push_back({0, /*node=*/0, /*dim=*/0});
  Cube cube(3, CostParams::cm2(), hypercube_opts());
  cube.enable_faults(plan);
  NaiveRouter router(cube);
  std::vector<std::vector<Packet>> packets(cube.procs());
  packets[0].push_back(Packet{7, 42, 3.25});
  bool delivered = false;
  (void)router.run(packets, [&](proc_t dst, std::uint64_t tag, double v) {
    EXPECT_EQ(dst, 7u);
    EXPECT_EQ(tag, 42u);
    EXPECT_EQ(v, 3.25);
    delivered = true;
  });
  EXPECT_TRUE(delivered);
}

TEST(FaultRouter, DeadLastHopForcesASidewaysDetour) {
  // 0 → 1 differs only in dim 0; with (0,1) dead the router must detour
  // sideways (a reroute) and still deliver.
  FaultPlan plan;
  plan.link_kills.push_back({0, /*node=*/0, /*dim=*/0});
  Cube cube(3, CostParams::cm2(), hypercube_opts());
  cube.enable_faults(plan);
  NaiveRouter router(cube);
  std::vector<std::vector<Packet>> packets(cube.procs());
  packets[0].push_back(Packet{1, 7, -1.5});
  bool delivered = false;
  (void)router.run(packets, [&](proc_t dst, std::uint64_t tag, double v) {
    EXPECT_EQ(dst, 1u);
    EXPECT_EQ(tag, 7u);
    EXPECT_EQ(v, -1.5);
    delivered = true;
  });
  EXPECT_TRUE(delivered);
  EXPECT_GT(cube.clock().stats().fault_reroutes, 0u);
}

TEST(FaultRouter, HundredPercentDropExhaustsTheBudget) {
  Cube cube(2, CostParams::cm2());
  cube.enable_faults(FaultPlan::transient(2, 1.0, 0.0));
  NaiveRouter router(cube);
  std::vector<std::vector<Packet>> packets(cube.procs());
  packets[0].push_back(Packet{3, 0, 1.0});
  EXPECT_THROW(
      (void)router.run(packets, [](proc_t, std::uint64_t, double) {}),
      FaultError);
}

// ---------------------------------------------------------------------------
// Graceful embedding remap off a failed node.

TEST(FaultRemap, ReplicatedVectorRecoversTheLostPiece) {
  Cube cube(4, CostParams::cm2());
  Grid grid(cube, 2, 2);
  DistVector<double> v(grid, 24, Align::Cols);
  v.load(random_vector(24, 3));
  const std::vector<double> want = v.to_host();

  const proc_t failed = 5;
  // The node's local piece is lost with it (the hot spare boots blank).
  for (double& x : v.data().tile(failed)) x = -999.0;
  remap_off_failed(v, failed);

  EXPECT_TRUE(v.replicas_consistent());
  EXPECT_EQ(v.to_host(), want);
  const std::string json = profile_to_json(cube.clock());
  EXPECT_NE(json.find("fault_remap"), std::string::npos)
      << "remap cost must be attributed in the profile";
}

TEST(FaultRemap, EveryNodeIsRecoverable) {
  Cube cube(3, CostParams::cm2());
  Grid grid(cube, 2, 1);
  for (proc_t failed = 0; failed < cube.procs(); ++failed) {
    DistVector<double> v(grid, 10, Align::Rows);
    v.load(random_vector(10, 4));
    const std::vector<double> want = v.to_host();
    for (double& x : v.data().tile(failed)) x = 1e300;
    remap_off_failed(v, failed);
    EXPECT_EQ(v.to_host(), want) << "failed node " << failed;
  }
}

TEST(FaultRemap, LinearVectorIsUnrecoverable) {
  Cube cube(3, CostParams::cm2());
  Grid grid(cube, 2, 1);
  DistVector<double> v(grid, 16, Align::Linear);
  v.load(random_vector(16, 5));
  EXPECT_THROW(remap_off_failed(v, 2), FaultError);
}

}  // namespace
}  // namespace vmp
