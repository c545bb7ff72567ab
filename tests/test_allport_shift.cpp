// Tests: all-port nESBT broadcast, Gray-code ring shifts, and the
// relay / all-port machine rounds they are built on.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "comm/allport.hpp"
#include "comm/shift.hpp"
#include "fault/fault.hpp"
#include "util/workloads.hpp"
#include "param_printers.hpp"

namespace vmp {
namespace {

// Cost-exact goldens assume the paper machine: pin the hypercube preset
// so the CI mesh leg (VMP_TOPOLOGY=mesh) leaves the charges alone.
Cube::Options pin_hypercube() {
  Cube::Options o;
  o.topology = TopologyKind::Hypercube;
  return o;
}

// ---------------------------------------------------------------------------
// exchange_allport
// ---------------------------------------------------------------------------

TEST(AllportExchange, MovesDataOnEveryPortInOneStep) {
  Cube cube(3, CostParams::unit(), pin_hypercube());
  const int dims[] = {0, 1, 2};
  DistBuffer<int> got(cube, 3);
  cube.exchange_allport<int>(
      std::span<const int>(dims),
      [&](proc_t q, std::size_t idx) -> std::span<const int> {
        static thread_local std::vector<int> tmp;
        tmp.assign(1, static_cast<int>(q * 10 + idx));
        return std::span<const int>(tmp);
      },
      [&](proc_t q, std::size_t idx, std::span<const int> in) {
        got.tile(q)[idx] = in[0];
      });
  cube.each_proc([&](proc_t q) {
    for (std::size_t idx = 0; idx < 3; ++idx) {
      const proc_t partner = q ^ (1u << idx);
      EXPECT_EQ(got.tile(q)[idx], static_cast<int>(partner * 10 + idx));
    }
  });
  // One all-port step: τ + 1·t_c = 2 under the unit model.
  EXPECT_DOUBLE_EQ(cube.clock().now_us(), 2.0);
  EXPECT_EQ(cube.clock().stats().comm_steps, 1u);
  EXPECT_EQ(cube.clock().stats().messages, 24u);
}

TEST(AllportExchange, RejectsDuplicateOrBadDims) {
  Cube cube(3, CostParams::unit());
  const int dup[] = {0, 0};
  const int bad[] = {5};
  const auto send = [](proc_t, std::size_t) { return std::span<const int>{}; };
  const auto recv = [](proc_t, std::size_t, std::span<const int>) {};
  EXPECT_THROW(cube.exchange_allport<int>(std::span<const int>(dup), send, recv),
               ContractError);
  EXPECT_THROW(cube.exchange_allport<int>(std::span<const int>(bad), send, recv),
               ContractError);
}

// ---------------------------------------------------------------------------
// relay
// ---------------------------------------------------------------------------

TEST(NeighborExchange, IrregularPartnersInOneStep) {
  // Processors pair across different dimensions in the same round: pair
  // (0,1) across dim 0, pair (2,6) across dim 2, others sit out.
  Cube cube(3, CostParams::unit());
  const auto partner = [](proc_t q) -> proc_t {
    switch (q) {
      case 0: return 1;
      case 1: return 0;
      case 2: return 6;
      case 6: return 2;
      default: return q;
    }
  };
  DistBuffer<int> buf(cube);
  cube.each_proc([&](proc_t q) { buf.assign(q, 2, int(q)); });
  DistBuffer<int> got(cube);
  got.reserve_each(2);  // delivery assigns; slab growth is host-only
  cube.relay<int>(
      partner, [&](proc_t q) { return std::span<const int>(buf.tile(q)); },
      [&](proc_t q, std::span<const int> in) {
        got.assign(q, in);
      });
  EXPECT_EQ(got.host_vec(0), std::vector<int>({1, 1}));
  EXPECT_EQ(got.host_vec(1), std::vector<int>({0, 0}));
  EXPECT_EQ(got.host_vec(2), std::vector<int>({6, 6}));
  EXPECT_EQ(got.host_vec(6), std::vector<int>({2, 2}));
  EXPECT_TRUE(got.tile(3).empty());
  EXPECT_EQ(cube.clock().stats().comm_steps, 1u);
}

TEST(NeighborExchange, RejectsOutOfCubeAndRepeatedDestinations) {
  Cube cube(3, CostParams::unit());
  const auto send = [](proc_t) { return std::span<const int>{}; };
  const auto recv = [](proc_t, std::span<const int>) {};
  // A partner outside the cube: q ^ 2^dim is one bit away and symmetric,
  // but delivery would read past the staging slots.
  EXPECT_THROW(cube.relay<int>(
                   [](proc_t q) -> proc_t { return q ^ 8u; }, send, recv),
               ContractError);
  // Two sources for one destination: not a permutation.
  EXPECT_THROW(cube.relay<int>(
                   [](proc_t q) -> proc_t { return q == 2 ? 3 : q; }, send,
                   recv),
               ContractError);
}

TEST(Relay, CycleIsChargedAsStoreAndForwardLegs) {
  // The 3-cycle 0 → 3 → 5 → 0 moves every message two bits.  Leg 0 leaves
  // the sources across their lowest differing bit, which parks the
  // messages from 0 and 3 both on node 1; leg 1 sends them on from there
  // together, so it pays for both.
  Cube cube(3, CostParams::unit(), pin_hypercube());
  const auto cycle = [](proc_t q) -> proc_t {
    switch (q) {
      case 0: return 3;
      case 3: return 5;
      case 5: return 0;
      default: return q;
    }
  };
  const int payload[] = {10, 11, 12, 13, 14, 15, 16, 17};
  std::vector<std::vector<int>> got(cube.procs());
  const int legs = cube.relay<int>(
      cycle, [&](proc_t q) { return std::span<const int>(payload + q, 1); },
      [&](proc_t q, std::span<const int> in) {
        got[q].assign(in.begin(), in.end());
      });
  EXPECT_EQ(legs, 2);
  EXPECT_EQ(got[3], std::vector<int>{10});
  EXPECT_EQ(got[5], std::vector<int>{13});
  EXPECT_EQ(got[0], std::vector<int>{15});
  EXPECT_TRUE(got[1].empty());
  const SimStats& st = cube.clock().stats();
  EXPECT_EQ(st.comm_steps, 2u);
  EXPECT_EQ(st.messages, 6u);
  EXPECT_EQ(st.elements_serial, 1u + 2u);
  const CostParams u = CostParams::unit();
  EXPECT_EQ(cube.clock().now_us(),
            2 * u.startup_us + 3 * u.per_elem_us);
  // relay_cost prices the same legs without touching the clock.
  EXPECT_EQ(cube.relay_cost(cycle, 1), cube.clock().now_us());
  EXPECT_EQ(cube.clock().stats().comm_steps, 2u);
}

// ---------------------------------------------------------------------------
// nESBT broadcast
// ---------------------------------------------------------------------------

class EsbtSweep : public ::testing::TestWithParam<
                      std::tuple<int, std::size_t, std::uint32_t>> {};

TEST_P(EsbtSweep, MatchesBinomialBroadcastResult) {
  const auto [d, n, root_step] = GetParam();
  Cube cube(d, CostParams::unit());
  const SubcubeSet sc = SubcubeSet::contiguous(0, d);
  for (std::uint32_t root = 0; root < sc.size();
       root += std::max(1u, root_step)) {
    DistBuffer<double> buf(cube);
    const std::vector<double> payload = random_vector(n, 81 + root);
    cube.each_proc([&](proc_t q) {
      if (sc.rank(q) == root) buf.assign(q, payload);
    });
    broadcast_esbt(cube, buf, sc, root, [n](proc_t) { return n; });
    cube.each_proc(
        [&](proc_t q) { EXPECT_EQ(buf.host_vec(q), payload) << "q=" << q; });
  }
}

TEST_P(EsbtSweep, BeatsBinomialOnTransferTimeForLargePayloads) {
  const auto [d, n, root_step] = GetParam();
  (void)root_step;
  if (d < 3 || n < 1024) GTEST_SKIP();
  // The k-fold all-port transfer win is a cube-wiring property.
  Cube cube(d, CostParams::cm2(), pin_hypercube());
  const SubcubeSet sc = SubcubeSet::contiguous(0, d);

  DistBuffer<double> b1(cube);
  b1.assign(0, random_vector(n, 82));
  cube.clock().reset();
  broadcast(cube, b1, sc, 0);
  const double t_binomial = cube.clock().now_us();

  DistBuffer<double> b2(cube);
  b2.assign(0, random_vector(n, 82));
  cube.clock().reset();
  broadcast_esbt(cube, b2, sc, 0, [n](proc_t) { return n; });
  const double t_esbt = cube.clock().now_us();

  EXPECT_LT(t_esbt, t_binomial);
  // The gain approaches d for transfer-dominated payloads.
  EXPECT_GT(t_binomial / t_esbt, static_cast<double>(d) / 2.5);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EsbtSweep,
    ::testing::Values(std::tuple{1, 7ul, 1u}, std::tuple{2, 16ul, 1u},
                      std::tuple{3, 5ul, 2u}, std::tuple{4, 64ul, 5u},
                      std::tuple{5, 33ul, 11u}, std::tuple{6, 2048ul, 21u},
                      std::tuple{4, 1ul, 5u}, std::tuple{4, 0ul, 5u},
                      std::tuple{6, 8192ul, 63u}));

// ---------------------------------------------------------------------------
// Ring shifts
// ---------------------------------------------------------------------------

class ShiftSweep
    : public ::testing::TestWithParam<std::tuple<int, int, RingOrder>> {};

TEST_P(ShiftSweep, RotatesBlocksByOnePosition) {
  const auto [d, by, order] = GetParam();
  Cube cube(d, CostParams::unit());
  const SubcubeSet sc = SubcubeSet::contiguous(0, d);
  DistBuffer<double> buf(cube);
  cube.each_proc([&](proc_t q) {
    buf.assign(q, 3, static_cast<double>(ring_pos(order, sc.rank(q))));
  });
  shift_blocks(cube, buf, sc, by, order);
  const std::uint32_t P = sc.size();
  cube.each_proc([&](proc_t q) {
    const std::uint32_t pos = ring_pos(order, sc.rank(q));
    const std::uint32_t src = (pos + P - static_cast<std::uint32_t>(by)) % P;
    ASSERT_EQ(buf.len(q), 3u);
    EXPECT_EQ(buf.tile(q)[0], static_cast<double>(src)) << "q=" << q;
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ShiftSweep,
    ::testing::Combine(::testing::Values(1, 2, 4, 5),
                       ::testing::Values(1, -1, 2, 3, -5),
                       ::testing::Values(RingOrder::Gray, RingOrder::Binary)));

TEST(Shift, StrideChargesStoreAndForwardRounds) {
  // A Gray stride-s shift is charged as the dimension-order relay it would
  // be on the wire: exactly shift_rounds(sc, s) lockstep rounds — 1 for
  // unit strides, never more than d.  Cost-exact: pin the paper machine.
  Cube cube(4, CostParams::unit(), pin_hypercube());
  const SubcubeSet sc = SubcubeSet::contiguous(0, 4);
  EXPECT_EQ(shift_rounds(sc, 1), 1);
  EXPECT_EQ(shift_rounds(sc, -1), 1);
  for (const int by : {1, -1, 2, 3, 4, 8, -5}) {
    DistBuffer<double> buf(cube);
    cube.each_proc([&](proc_t q) { buf.assign(q, 4, static_cast<double>(q)); });
    cube.clock().reset();
    shift_blocks(cube, buf, sc, by, RingOrder::Gray);
    const int rounds = shift_rounds(sc, by);
    EXPECT_GE(rounds, 1);
    EXPECT_LE(rounds, sc.k());
    EXPECT_EQ(cube.clock().stats().comm_steps,
              static_cast<std::uint64_t>(rounds))
        << "by=" << by;
  }
}

TEST(Shift, CostModelMatchesChargedTime) {
  // shift_cost_model must price exactly what shift_blocks charges, on
  // whatever topology the run uses (the matmul_auto selector leans on it).
  Cube cube(4, CostParams::cm2());
  const SubcubeSet sc = SubcubeSet::contiguous(0, 4);
  const std::size_t n = 32;
  for (const int by : {1, -1, 2, 4, 5}) {
    DistBuffer<double> buf(cube);
    cube.each_proc([&](proc_t q) { buf.assign(q, random_vector(n, q)); });
    const double model = shift_cost_model(cube, sc, by, n);
    cube.clock().reset();
    shift_blocks(cube, buf, sc, by, RingOrder::Gray);
    EXPECT_DOUBLE_EQ(cube.clock().now_us(), model) << "by=" << by;
  }
}

namespace {

// One randomized stride workout: ragged tiles (some empty), P random
// strides, then the closing shift that brings the net displacement back to
// zero.  Returns the final tile contents and the simulated finish time.
struct ShiftRun {
  std::vector<std::vector<double>> tiles;
  double t_us = 0.0;
};

ShiftRun run_shift_sequence(int d, unsigned threads, RingOrder order,
                            bool faults) {
  Cube::Options opts;
  opts.threads = threads;
  Cube cube(d, CostParams::cm2(), opts);
  // Within-budget rates: low enough that no message plausibly exhausts
  // the retry budget across the whole routed stride sequence.
  if (faults)
    cube.enable_faults(FaultPlan::transient(17, /*drop=*/0.05,
                                            /*corrupt=*/0.02));
  const SubcubeSet sc = SubcubeSet::contiguous(0, d);
  const std::uint32_t P = sc.size();
  DistBuffer<double> buf(cube);
  for (proc_t q = 0; q < cube.procs(); ++q)
    buf.assign(q, random_vector((q * 7 + 3) % 17, 1000 + q));
  std::mt19937 rng(404 + static_cast<unsigned>(d));
  int sum = 0;
  for (std::uint32_t it = 0; it < P; ++it) {
    const int by =
        static_cast<int>(rng() % (2 * P + 1)) - static_cast<int>(P);
    shift_blocks(cube, buf, sc, by, order);
    sum += by;
  }
  shift_blocks(cube, buf, sc, -sum, order);
  ShiftRun r;
  for (proc_t q = 0; q < cube.procs(); ++q)
    r.tiles.push_back(buf.host_vec(q));
  r.t_us = cube.clock().now_us();
  return r;
}

}  // namespace

TEST(Shift, RandomStridesRoundTripUnderThreadsAndFaults) {
  // Property suite for the generalized strides: after a random stride
  // sequence whose displacements cancel, every tile is bit-identically
  // back home — in Gray and Binary order, under within-budget transient
  // fault plans, at thread counts {1, 3, hardware}; and the runs are
  // bit-identical (contents AND simulated time) across thread counts.
  for (const int d : {2, 4, 5})
    for (const RingOrder order : {RingOrder::Gray, RingOrder::Binary})
      for (const bool faults : {false, true}) {
        const ShiftRun t1 = run_shift_sequence(d, 1, order, faults);
        const ShiftRun t3 = run_shift_sequence(d, 3, order, faults);
        const ShiftRun thw = run_shift_sequence(d, 0, order, faults);
        for (proc_t q = 0; q < (proc_t{1} << d); ++q)
          EXPECT_EQ(t1.tiles[q], random_vector((q * 7 + 3) % 17, 1000 + q))
              << "d=" << d << " q=" << q << " faults=" << faults;
        EXPECT_EQ(t1.tiles, t3.tiles);
        EXPECT_EQ(t1.tiles, thw.tiles);
        EXPECT_DOUBLE_EQ(t1.t_us, t3.t_us);
        EXPECT_DOUBLE_EQ(t1.t_us, thw.t_us);
      }
}

TEST(Shift, GrayIsOneStepBinaryIsManySteps) {
  const int d = 6;
  Cube cube(d, CostParams::cm2());
  const SubcubeSet sc = SubcubeSet::contiguous(0, d);
  const std::size_t n = 512;

  DistBuffer<double> g(cube);
  cube.each_proc([&](proc_t q) { g.assign(q, random_vector(n, q)); });
  cube.clock().reset();
  shift_blocks(cube, g, sc, 1, RingOrder::Gray);
  const double t_gray = cube.clock().now_us();
  const std::uint64_t steps_gray = cube.clock().stats().comm_steps;

  cube.clock().reset();
  DistBuffer<double> b(cube);
  cube.each_proc([&](proc_t q) { b.assign(q, random_vector(n, q)); });
  shift_blocks(cube, b, sc, 1, RingOrder::Binary);
  const double t_binary = cube.clock().now_us();

  EXPECT_EQ(steps_gray, 1u) << "Gray ring shift is a single cube-edge round";
  EXPECT_LT(t_gray, t_binary);
  EXPECT_GT(t_binary / t_gray, 2.0);
}

// ---------------------------------------------------------------------------
// ShiftTwin: a Gray shift_blocks charges its legs over the tiles where they
// lie (Cube::relay_views) and then relabels them (permute_tiles).  Its twin
// runs the same shift through the staged Cube::relay — send buf.tile(q),
// receive into a second buffer — inside the same "shift" region, on a
// second cube with the same options and fault plan.  After every shift the
// tiles, their lengths, the clock and whether the shift threw must agree;
// at the end, the whole trace and every SimStats field except the three
// pool counters (a relay stages through the pool, a relabeling does not).

enum class TwinPlan { None, Transient, DeadFirstRingLink };

[[nodiscard]] SimStats without_pool_counters(SimStats s) {
  s.pool_hits = s.pool_misses = s.alloc_bytes = 0;
  return s;
}

/// Shift strides {1, −1, 2, 2^⌈k/2⌉, P/2+1, −P/2} of a P = 2^k ring.
[[nodiscard]] std::vector<int> twin_strides(const SubcubeSet& sc) {
  const int P = static_cast<int>(sc.size());
  return {1, -1, 2, 1 << ((sc.k() + 1) / 2), P / 2 + 1, -P / 2};
}

/// What a twin sweep exercised: shifts that threw, retried messages and
/// rerouted messages, summed over the runs.
struct TwinTally {
  int throws = 0;
  std::uint64_t retries = 0;
  std::uint64_t reroutes = 0;
};

void run_shift_twin(TopologyKind kind, int d, const SubcubeSet& sc,
                    TwinPlan plan, unsigned lanes, TwinTally& tally) {
  Cube::Options opts;
  opts.threads = lanes;
  opts.topology = kind;
  Cube moved(d, CostParams::cm2(), opts);
  Cube staged(d, CostParams::cm2(), opts);
  for (Cube* cube : {&moved, &staged}) {
    if (plan == TwinPlan::Transient)
      cube->enable_faults(FaultPlan::transient(
          0x7a1bu + static_cast<unsigned>(d), 0.1, 0.1, 0.1, 2.5));
    if (plan == TwinPlan::DeadFirstRingLink) {
      // The physical link the ring's first message (0 → 1) leaves on.
      std::vector<Hop> hops;
      cube->topology().route(0, 1, hops);
      FaultPlan fp;
      fp.link_kills.push_back({/*from_round=*/0, hops.front().from,
                               hops.front().port});
      cube->enable_faults(fp);
    }
    cube->clock().tracer().set_recording(true);
  }
  // Ragged tiles, some empty, of distinct values.
  const auto fill = [d](Cube& cube, DistBuffer<double>& buf) {
    buf.reserve_each(7);
    for (proc_t q = 0; q < cube.procs(); ++q)
      for (std::size_t j = 0; j < (q * 5u + static_cast<unsigned>(d)) % 7u;
           ++j)
        buf.push_back(q, q + 0.125 * static_cast<double>(j));
  };
  DistBuffer<double> buf(moved), ref(staged), inbox(staged);
  fill(moved, buf);
  fill(staged, ref);
  inbox.reserve_each(ref.stride());
  const SimStats moved0 = moved.clock().stats();
  const SimStats staged0 = staged.clock().stats();

  const std::uint32_t P = sc.size();
  for (const int by : twin_strides(sc)) {
    SCOPED_TRACE("by=" + std::to_string(by));
    bool moved_threw = false, staged_threw = false;
    try {
      shift_blocks(moved, buf, sc, by, RingOrder::Gray);
    } catch (const FaultError&) {
      moved_threw = true;
    }
    const std::uint32_t step = shift_detail::norm_step(by, P);
    if (sc.k() != 0 && step != 0) {
      try {
        VMP_TRACE(staged, "shift");
        staged.each_proc([&](proc_t q) { inbox.clear(q); });
        staged.relay<double>(
            [&](proc_t q) {
              const std::uint32_t pos = ring_pos(RingOrder::Gray, sc.rank(q));
              return sc.with_rank(q,
                                  ring_proc(RingOrder::Gray, (pos + step) % P));
            },
            [&](proc_t q) { return std::span<const double>(ref.tile(q)); },
            [&](proc_t q, std::span<const double> in) { inbox.assign(q, in); });
        ref.swap(inbox);
      } catch (const FaultError&) {
        staged_threw = true;
      }
    }
    EXPECT_EQ(moved_threw, staged_threw);
    tally.throws += moved_threw ? 1 : 0;
    for (proc_t q = 0; q < moved.procs(); ++q) {
      ASSERT_EQ(buf.len(q), ref.len(q)) << "q=" << q;
      EXPECT_EQ(buf.host_vec(q), ref.host_vec(q)) << "q=" << q;
    }
    ASSERT_EQ(moved.clock().now_us(), staged.clock().now_us());
  }
  const Tracer& tm = moved.clock().tracer();
  const Tracer& ts = staged.clock().tracer();
  EXPECT_TRUE(tm.paths() == ts.paths());
  EXPECT_TRUE(tm.events() == ts.events());
  EXPECT_TRUE(tm.spans() == ts.spans());
  EXPECT_TRUE(tm.self_profiles() == ts.self_profiles());
  EXPECT_TRUE(without_pool_counters(moved.clock().stats() - moved0) ==
              without_pool_counters(staged.clock().stats() - staged0));
  tally.retries += moved.clock().stats().fault_retries;
  tally.reroutes += moved.clock().stats().fault_reroutes;
}

class ShiftTwin : public ::testing::TestWithParam<TopologyKind> {};

TEST_P(ShiftTwin, RelabeledShiftMatchesTheStagedRelay) {
  TwinTally tally;
  for (const int d : {1, 3, 4, 6}) {
    const std::uint32_t all = (proc_t{1} << d) - 1;
    // The whole cube, and a proper family: every dimension but d/2
    // (non-contiguous from d = 3 on; d = 1 leaves one-processor subcubes).
    const SubcubeSet families[] = {SubcubeSet(all),
                                   SubcubeSet(all & ~(1u << (d / 2)))};
    for (const SubcubeSet& sc : families)
      for (const TwinPlan plan : {TwinPlan::None, TwinPlan::Transient,
                                  TwinPlan::DeadFirstRingLink})
        for (const unsigned lanes : {1u, 3u}) {
          SCOPED_TRACE("d=" + std::to_string(d) +
                       " mask=" + std::to_string(sc.mask()) +
                       " plan=" + std::to_string(static_cast<int>(plan)) +
                       " lanes=" + std::to_string(lanes));
          run_shift_twin(GetParam(), d, sc, plan, lanes, tally);
        }
  }
  // The sweep reaches every recovery outcome: retries, detours, and (on
  // the d = 1 cube, whose only link is the dead one) shifts that throw.
  EXPECT_GT(tally.retries, 0u);
  EXPECT_GT(tally.reroutes, 0u);
  EXPECT_GT(tally.throws, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Presets, ShiftTwin,
    ::testing::Values(TopologyKind::Hypercube, TopologyKind::Mesh,
                      TopologyKind::Torus, TopologyKind::Dragonfly),
    [](const ::testing::TestParamInfo<TopologyKind>& info) {
      return std::string(to_string(info.param));
    });


// ---------------------------------------------------------------------------
// BroadcastTwin: broadcast, broadcast_pipelined and broadcast_esbt charge
// their rounds over their roots' payloads (Cube::exchange_views) and place
// the payloads once.  The twin is the staged schedule they replaced, kept
// here as the reference: non-roots sized to their root's payload, then the
// same rounds through exchange_allport, every holder sending its own
// segment and every receiver copying it in recv.  It runs over host copies
// of the tiles, which replace the tiles only once every round got through:
// under a FaultError both sides leave `buf` as it was.  After every call
// the tiles, their lengths, the clock and whether the call threw must
// agree; at the end, the whole trace and every SimStats field except the
// three pool counters (staged rounds stage through the slots, views do
// not).

enum class BcastKind { Binomial, Pipelined, Esbt };
enum class BcastPlan { None, Transient, DeadFirstLink, DeadNode };

/// The staged reference of one broadcast call.  `n_of(root)` is the
/// payload length of the pipelined and nESBT broadcasts; the binomial one
/// sends the root's whole tile.
template <class NFn>
void staged_broadcast(Cube& cube, DistBuffer<double>& buf, const SubcubeSet& sc,
                      std::uint32_t root, BcastKind kind, std::uint32_t nseg,
                      NFn n_of) {
  const int k = sc.k();
  if (k == 0) return;
  if (kind == BcastKind::Esbt && k == 1) kind = BcastKind::Binomial;
  std::optional<TraceRegion> region;
  if (kind == BcastKind::Binomial) region.emplace(cube, "broadcast");
  if (kind == BcastKind::Pipelined) region.emplace(cube, "broadcast_pipelined");
  const std::uint32_t S = kind == BcastKind::Binomial ? 1u
                          : kind == BcastKind::Esbt
                              ? static_cast<std::uint32_t>(k)
                              : nseg;
  const proc_t P = cube.procs();
  std::vector<std::size_t> len(P);
  std::vector<std::vector<double>> tile(P);
  for (proc_t q = 0; q < P; ++q) {
    const proc_t r = sc.with_rank(q, root);
    len[q] = kind == BcastKind::Binomial ? buf.len(r) : n_of(r);
    tile[q] = buf.host_vec(q);
    if (q != r) tile[q].assign(len[q], 0.0);
  }
  const auto cut = [&](proc_t q, std::uint32_t s) {
    return block_begin(len[q], S, s);
  };
  // One staged round: port i of every holder sends its segment seg(i).
  const auto round = [&](std::span<const int> dims, auto holder, auto seg) {
    cube.exchange_allport<double>(
        dims,
        [&](proc_t q, std::size_t i) -> std::span<const double> {
          if (!holder(sc.rank(q) ^ root, i)) return {};
          const std::uint32_t s = seg(i);
          return std::span<const double>(tile[q]).subspan(
              cut(q, s), cut(q, s + 1) - cut(q, s));
        },
        [&](proc_t q, std::size_t i, std::span<const double> in) {
          std::copy(in.begin(), in.end(),
                    tile[q].begin() +
                        static_cast<std::ptrdiff_t>(cut(q, seg(i))));
        });
  };
  if (kind == BcastKind::Esbt) {
    std::vector<int> dims(static_cast<std::size_t>(k));
    std::uint32_t processed = 0;
    for (int j = k - 1; j >= 0; --j) {
      for (int i = 0; i < k; ++i)
        dims[static_cast<std::size_t>(i)] = sc.dim_of_rank_bit((j + i) % k);
      const std::uint32_t snapshot = processed;
      round(
          dims,
          [&](std::uint32_t rr, std::size_t i) {
            return (detail::rotr_bits(rr, static_cast<int>(i), k) &
                    ~snapshot) == 0;
          },
          [](std::size_t i) { return static_cast<std::uint32_t>(i); });
      processed |= 1u << j;
    }
  } else {
    for (int t = 0; t < k + static_cast<int>(S) - 1; ++t) {
      const std::uint32_t s_lo =
          t >= k ? static_cast<std::uint32_t>(t - k + 1) : 0;
      const std::uint32_t s_hi =
          std::min<std::uint32_t>(S - 1, static_cast<std::uint32_t>(t));
      std::vector<int> dims;
      std::vector<std::uint32_t> segs, uncovered;
      for (std::uint32_t s = s_lo; s <= s_hi; ++s) {
        const int st = t - static_cast<int>(s);
        dims.push_back(sc.dim_of_rank_bit(k - 1 - st));
        segs.push_back(s);
        uncovered.push_back((std::uint32_t{1} << (k - st)) - 1);
      }
      round(
          dims,
          [&](std::uint32_t rr, std::size_t i) {
            return (rr & uncovered[i]) == 0;
          },
          [&](std::size_t i) { return segs[i]; });
    }
  }
  for (proc_t q = 0; q < P; ++q)
    if (q != sc.with_rank(q, root)) buf.assign(q, tile[q]);
}

/// Subcube payload lengths, some 0, that differ between subcubes.
[[nodiscard]] std::size_t twin_payload(const SubcubeSet& sc, int d, proc_t q) {
  static constexpr std::size_t kLens[] = {0, 5, 13, 2, 9, 1};
  const std::uint32_t id = sc.subcube_id(q);
  return kLens[(static_cast<std::size_t>(std::popcount(id)) + id % 5 +
                static_cast<std::size_t>(d)) %
               6];
}

void run_broadcast_twin(TopologyKind kind, int d, const SubcubeSet& sc,
                        BcastPlan plan, unsigned lanes, TwinTally& tally) {
  Cube::Options opts;
  opts.threads = lanes;
  opts.topology = kind;
  Cube moved(d, CostParams::cm2(), opts);
  Cube staged(d, CostParams::cm2(), opts);
  for (Cube* cube : {&moved, &staged}) {
    FaultPlan fp;
    if (plan == BcastPlan::Transient)
      fp = FaultPlan::transient(0xb7cau + static_cast<unsigned>(d), 0.1, 0.1,
                                0.1, 2.5);
    if (plan == BcastPlan::DeadFirstLink) {
      // The physical link the message 0 → 1 leaves on.
      std::vector<Hop> hops;
      cube->topology().route(0, 1, hops);
      fp.link_kills.push_back({/*from_round=*/0, hops.front().from,
                               hops.front().port});
    }
    if (plan == BcastPlan::DeadNode)
      fp.node_kills.push_back({/*from_round=*/1, cube->procs() - 1});
    if (plan != BcastPlan::None) cube->enable_faults(fp);
    cube->clock().tracer().set_recording(true);
  }
  const auto n_of = [&](proc_t q) { return twin_payload(sc, d, q); };
  // Roots hold their payload, sometimes one element more (the pipelined
  // and nESBT broadcasts send the first n_of of it); every other member
  // holds stale data of its own length.
  const auto fill = [&](DistBuffer<double>& buf, std::uint32_t root) {
    buf.reserve_each(16);
    for (proc_t q = 0; q < buf.procs(); ++q) {
      const bool is_root = sc.rank(q) == root;
      const std::size_t n =
          is_root ? n_of(q) + sc.subcube_id(q) % 2 : (q * 5u + 3u) % 7u;
      std::vector<double> v(n);
      for (std::size_t j = 0; j < n; ++j)
        v[j] = (is_root ? 1.0 : -1.0) * (q + 0.125 * static_cast<double>(j));
      buf.assign(q, v);
    }
  };
  DistBuffer<double> buf(moved), ref(staged);
  const SimStats moved0 = moved.clock().stats();
  const SimStats staged0 = staged.clock().stats();

  std::size_t nmax = 0;
  for (proc_t q = 0; q < moved.procs(); ++q) nmax = std::max(nmax, n_of(q));
  const std::uint32_t P = sc.size();
  for (const std::uint32_t root : {0u, P / 2, P - 1}) {
    std::vector<std::pair<BcastKind, std::uint32_t>> calls = {
        {BcastKind::Binomial, 1}, {BcastKind::Esbt, 0}};
    for (const std::size_t s :
         {std::size_t{1}, std::size_t{2}, std::size_t{3},
          static_cast<std::size_t>(sc.k()), nmax, nmax + 1})
      if (s >= 1) calls.push_back({BcastKind::Pipelined,
                                   static_cast<std::uint32_t>(s)});
    for (const auto& [what, nseg] : calls) {
      SCOPED_TRACE("root=" + std::to_string(root) +
                   " kind=" + std::to_string(static_cast<int>(what)) +
                   " S=" + std::to_string(nseg));
      fill(buf, root);
      fill(ref, root);
      bool moved_threw = false, staged_threw = false;
      try {
        if (what == BcastKind::Binomial) broadcast(moved, buf, sc, root);
        if (what == BcastKind::Esbt) broadcast_esbt(moved, buf, sc, root, n_of);
        if (what == BcastKind::Pipelined)
          broadcast_pipelined(moved, buf, sc, root, n_of, nseg);
      } catch (const FaultError&) {
        moved_threw = true;
      }
      try {
        staged_broadcast(staged, ref, sc, root, what, nseg, n_of);
      } catch (const FaultError&) {
        staged_threw = true;
      }
      EXPECT_EQ(moved_threw, staged_threw);
      tally.throws += moved_threw ? 1 : 0;
      for (proc_t q = 0; q < moved.procs(); ++q) {
        ASSERT_EQ(buf.len(q), ref.len(q)) << "q=" << q;
        EXPECT_EQ(buf.host_vec(q), ref.host_vec(q)) << "q=" << q;
      }
      ASSERT_EQ(moved.clock().now_us(), staged.clock().now_us());
    }
  }
  const Tracer& tm = moved.clock().tracer();
  const Tracer& ts = staged.clock().tracer();
  EXPECT_TRUE(tm.paths() == ts.paths());
  EXPECT_TRUE(tm.events() == ts.events());
  EXPECT_TRUE(tm.spans() == ts.spans());
  EXPECT_TRUE(tm.self_profiles() == ts.self_profiles());
  EXPECT_TRUE(without_pool_counters(moved.clock().stats() - moved0) ==
              without_pool_counters(staged.clock().stats() - staged0));
  tally.retries += moved.clock().stats().fault_retries;
  tally.reroutes += moved.clock().stats().fault_reroutes;
}

class BroadcastTwin : public ::testing::TestWithParam<TopologyKind> {};

TEST_P(BroadcastTwin, ViewChargedBroadcastsMatchTheStagedRounds) {
  TwinTally tally;
  for (const int d : {1, 3, 4, 6}) {
    const std::uint32_t all = (proc_t{1} << d) - 1;
    const int gr = (d + 1) / 2;  // Grid::square's split
    // The whole cube, the grid's rows and columns, and every dimension but
    // d/2 (non-contiguous from d = 3 on).
    const SubcubeSet families[] = {
        SubcubeSet(all), SubcubeSet::contiguous(0, d - gr),
        SubcubeSet::contiguous(d - gr, gr), SubcubeSet(all & ~(1u << (d / 2)))};
    for (const SubcubeSet& sc : families)
      for (const BcastPlan plan : {BcastPlan::None, BcastPlan::Transient,
                                   BcastPlan::DeadFirstLink,
                                   BcastPlan::DeadNode})
        for (const unsigned lanes : {1u, 3u}) {
          SCOPED_TRACE("d=" + std::to_string(d) +
                       " mask=" + std::to_string(sc.mask()) +
                       " plan=" + std::to_string(static_cast<int>(plan)) +
                       " lanes=" + std::to_string(lanes));
          run_broadcast_twin(GetParam(), d, sc, plan, lanes, tally);
        }
  }
  // The sweep reaches every recovery outcome: retries, detours, and calls
  // that throw (the dead node, and the d = 1 cube's only link).
  EXPECT_GT(tally.retries, 0u);
  EXPECT_GT(tally.reroutes, 0u);
  EXPECT_GT(tally.throws, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Presets, BroadcastTwin,
    ::testing::Values(TopologyKind::Hypercube, TopologyKind::Mesh,
                      TopologyKind::Torus, TopologyKind::Dragonfly),
    [](const ::testing::TestParamInfo<TopologyKind>& info) {
      return std::string(to_string(info.param));
    });

}  // namespace
}  // namespace vmp
