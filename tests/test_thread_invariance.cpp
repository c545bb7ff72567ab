// Thread-count invariance sweep (tentpole check of the persistent SPMD
// worker-team engine): host threads change wall-clock speed only, NEVER
// the simulated machine.  The full eight-primitive workload — plus a fused
// pipeline, a routing transpose and a distributed scan, with and without a
// deterministic fault plan — must produce bit-identical results, identical
// `now_us`, identical SimStats (allocation counters included: staging slots
// grow per processor, not per lane) and charge-for-charge identical event
// traces under every lane count, including the fully inline zero-worker
// configuration and the hardware-concurrency one (threads = 0).
//
// Why this holds by construction: the team's ownership partition only
// decides WHICH lane runs a processor, per-processor work is independent
// within a step, and the per-step statistics are reduced from per-lane
// integer partials whose sums and maxima are partition-independent (see
// docs/threading.md).  This suite is the enforcement mechanism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "algorithms/matmul.hpp"
#include "algorithms/matvec.hpp"
#include "comm/allport.hpp"
#include "comm/collectives.hpp"
#include "comm/dist_buffer.hpp"
#include "core/kernels.hpp"
#include "core/primitives.hpp"
#include "core/scan_ops.hpp"
#include "core/transpose.hpp"
#include "fault/fault.hpp"
#include "hypercube/team.hpp"
#include "util/rng.hpp"
#include "util/workloads.hpp"

namespace vmp {
namespace {

const std::uint64_t kBaseSeed = announce_seed("test_thread_invariance");

struct TrialConfig {
  int d, gr, gc;
  std::size_t nrows, ncols;
  bool cyclic;
  bool ipsc;
  std::uint64_t data_seed;

  [[nodiscard]] std::string reproducer(int trial) const {
    return "reproduce: VMP_SEED=" + std::to_string(kBaseSeed) +
           " ./test_thread_invariance  (trial " + std::to_string(trial) +
           ": d=" + std::to_string(d) + " gr=" + std::to_string(gr) +
           " gc=" + std::to_string(gc) + " n=" + std::to_string(nrows) + "x" +
           std::to_string(ncols) + (cyclic ? " cyclic" : " blocked") +
           (ipsc ? " ipsc" : " cm2") + ")";
  }
};

[[nodiscard]] TrialConfig draw(int trial) {
  SplitMix64 rng(kBaseSeed + static_cast<std::uint64_t>(trial) * 0x9e37ull);
  TrialConfig c;
  c.d = 1 + static_cast<int>(rng.below(8));  // 1..8 → 2..256 processors
  c.gr = static_cast<int>(rng.below(static_cast<std::uint64_t>(c.d) + 1));
  c.gc = c.d - c.gr;
  c.nrows = 1 + rng.below(48);
  c.ncols = 1 + rng.below(48);
  c.cyclic = rng.below(2) == 0;
  c.ipsc = rng.below(2) == 0;
  c.data_seed = rng.next();
  return c;
}

/// Everything one run of the workload produces, snapshotted so machines
/// with different lane counts can be compared field for field.
struct Snapshot {
  std::vector<std::vector<double>> results;
  double now_us = 0.0;
  SimStats stats;
  std::vector<std::string> trace_paths;
  std::vector<TraceEvent> trace_events;
  std::uint64_t fanned_out = 0;
};

/// The full eight-primitive sweep plus a fused pipeline, a dimension-order
/// routing transpose and a distributed scan — every engine path: compute
/// steps, one-port and all-port exchanges, sessions, and (when `faulty`)
/// the recovery-aware delivery.
[[nodiscard]] Snapshot run_workload(const TrialConfig& c, unsigned threads,
                                    bool faulty) {
  Cube cube(c.d, c.ipsc ? CostParams::ipsc() : CostParams::cm2(),
            Cube::Options{threads});
  if (faulty)
    cube.enable_faults(FaultPlan::transient(c.data_seed, 0.02, 0.01));
  cube.clock().tracer().set_recording(true);
  Grid grid(cube, c.gr, c.gc);

  const MatrixLayout layout =
      c.cyclic ? MatrixLayout::cyclic() : MatrixLayout::blocked();
  const Part part = c.cyclic ? Part::Cyclic : Part::Block;
  const std::vector<double> host =
      random_matrix(c.nrows, c.ncols, static_cast<unsigned>(c.data_seed));
  DistMatrix<double> A(grid, c.nrows, c.ncols, layout);
  A.load(host);
  const std::vector<double> vc_host =
      random_vector(c.ncols, static_cast<unsigned>(c.data_seed >> 8));
  const std::vector<double> vr_host =
      random_vector(c.nrows, static_cast<unsigned>(c.data_seed >> 16));
  DistVector<double> vc(grid, c.ncols, Align::Cols, part);
  DistVector<double> vr(grid, c.nrows, Align::Rows, part);
  vc.load(vc_host);
  vr.load(vr_host);

  SplitMix64 rng(c.data_seed ^ 0xfeedULL);
  const std::size_t pick_i = rng.below(c.nrows);
  const std::size_t pick_j = rng.below(c.ncols);

  Snapshot s;
  // 1–8: the four primitive families along both axes.
  s.results.push_back(reduce_rows(A, Plus<double>{}).to_host());
  s.results.push_back(reduce_cols(A, Max<double>{}).to_host());
  s.results.push_back(extract_row(A, pick_i).to_host());
  s.results.push_back(extract_col(A, pick_j).to_host());
  s.results.push_back(distribute_rows(vc, c.nrows).to_host());
  s.results.push_back(distribute_cols(vr, c.ncols).to_host());
  insert_row(A, pick_i, vc);
  s.results.push_back(A.to_host());
  insert_col(A, pick_j, vr);
  s.results.push_back(A.to_host());
  // Fused pipeline (one-pass compute + the composed comm sequence).
  s.results.push_back(fused_matvec(A, vc).to_host());
  // Dimension-order combining routing (transpose) — team sessions around
  // the k-round sweep.
  s.results.push_back(transpose(A).to_host());
  // Distributed scan: local pass, lg p scan rounds, local pass.
  DistVector<double> sv(grid, c.nrows, Align::Rows, Part::Block);
  sv.load(vr_host);
  vec_scan_inclusive(sv, Plus<double>{});
  s.results.push_back(sv.to_host());

  s.now_us = cube.clock().now_us();
  s.stats = cube.clock().stats();
  s.trace_paths = cube.clock().tracer().paths();
  s.trace_events = cube.clock().tracer().events();
  s.fanned_out = cube.team().fanned_out();
  return s;
}

class ThreadSweep : public ::testing::TestWithParam<int> {};

TEST_P(ThreadSweep, SimulatedMachineBitIdenticalAcrossLaneCounts) {
  const int trial = GetParam();
  const TrialConfig c = draw(trial);
  SCOPED_TRACE(c.reproducer(trial));

  for (const bool faulty : {false, true}) {
    const Snapshot ref = run_workload(c, /*threads=*/1, faulty);
    // 0 resolves to one lane per hardware thread — whatever this host has.
    for (const unsigned threads : {2u, 3u, 0u}) {
      const Snapshot got = run_workload(c, threads, faulty);
      const std::string what = std::string(faulty ? "faulty" : "fault-free") +
                               " threads=" + std::to_string(threads);
      ASSERT_EQ(ref.results.size(), got.results.size()) << what;
      for (std::size_t i = 0; i < ref.results.size(); ++i)
        EXPECT_EQ(ref.results[i], got.results[i])
            << what << " result stream " << i;
      EXPECT_EQ(ref.now_us, got.now_us) << what << " simulated clock";
      EXPECT_TRUE(ref.stats == got.stats)
          << what << " SimStats diverge (messages " << ref.stats.messages
          << " vs " << got.stats.messages << ", pool "
          << ref.stats.pool_hits << "/" << ref.stats.pool_misses << " vs "
          << got.stats.pool_hits << "/" << got.stats.pool_misses << ")";
      EXPECT_EQ(ref.trace_paths, got.trace_paths) << what;
      EXPECT_TRUE(ref.trace_events == got.trace_events)
          << what << " event traces diverge";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ThreadSweep, ::testing::Range(0, 16));

// The sweep's shapes (at most 48×48) keep nearly every step below the
// inline cuts, so at 2 and 3 lanes it mostly runs the inline path.  One
// 400×400 trial makes the primitives' own compute steps fan out.
TEST(ThreadSweepLarge, FannedOutPrimitivesBitIdenticalAcrossLaneCounts) {
  const TrialConfig c{4, 2, 2, 400, 400, false, false, kBaseSeed};
  for (const bool faulty : {false, true}) {
    const Snapshot ref = run_workload(c, /*threads=*/1, faulty);
    for (const unsigned threads : {2u, 3u}) {
      const Snapshot got = run_workload(c, threads, faulty);
      const std::string what = std::string(faulty ? "faulty" : "fault-free") +
                               " threads=" + std::to_string(threads);
      EXPECT_GT(got.fanned_out, 0u) << what;
      ASSERT_EQ(ref.results.size(), got.results.size()) << what;
      for (std::size_t i = 0; i < ref.results.size(); ++i)
        EXPECT_EQ(ref.results[i], got.results[i])
            << what << " result stream " << i;
      EXPECT_EQ(ref.now_us, got.now_us) << what << " simulated clock";
      EXPECT_TRUE(ref.stats == got.stats) << what << " SimStats diverge";
      EXPECT_EQ(ref.trace_paths, got.trace_paths) << what;
      EXPECT_TRUE(ref.trace_events == got.trace_events)
          << what << " event traces diverge";
    }
  }
}

// SIMD × lane-count twin sweep: the kernel backend's default dispatch mode
// must be bit-identical to the scalar loops under EVERY lane count and
// fault plan — results, simulated clock, SimStats and event traces all
// compared with the backend forced off vs on.  This is the cross product
// the tentpole contract promises: vectorization, like threading, changes
// wall-clock speed only, never the simulated machine.
TEST_P(ThreadSweep, SimdToggleBitIdenticalAcrossLaneCounts) {
  const int trial = GetParam();
  const TrialConfig c = draw(trial);
  SCOPED_TRACE(c.reproducer(trial));

  for (const bool faulty : {false, true}) {
    const bool prev = kern::simd::set_enabled(false);
    const Snapshot off = run_workload(c, /*threads=*/1, faulty);
    kern::simd::set_enabled(true);
    for (const unsigned threads : {1u, 3u}) {
      const Snapshot got = run_workload(c, threads, faulty);
      const std::string what = std::string(faulty ? "faulty" : "fault-free") +
                               " simd-on threads=" + std::to_string(threads);
      ASSERT_EQ(off.results.size(), got.results.size()) << what;
      for (std::size_t i = 0; i < off.results.size(); ++i)
        EXPECT_EQ(off.results[i], got.results[i])
            << what << " result stream " << i;
      EXPECT_EQ(off.now_us, got.now_us) << what << " simulated clock";
      EXPECT_TRUE(off.stats == got.stats) << what << " SimStats diverge";
      EXPECT_EQ(off.trace_paths, got.trace_paths) << what;
      EXPECT_TRUE(off.trace_events == got.trace_events)
          << what << " event traces diverge";
    }
    kern::simd::set_enabled(prev);
  }
}

TEST(ThreadOptions, VmpThreadsEnvIsTheDefault) {
  // Options{} reads VMP_THREADS at construction: unset → 1 lane, N → N
  // lanes, 0 → one lane per hardware thread; never more than one lane per
  // processor.
  ASSERT_EQ(setenv("VMP_THREADS", "3", 1), 0);
  EXPECT_EQ(env_threads(), 3u);
  {
    Cube cube(2, CostParams::unit());
    EXPECT_EQ(cube.threads(), 3u);
  }
  ASSERT_EQ(setenv("VMP_THREADS", "0", 1), 0);
  EXPECT_EQ(env_threads(), 0u);
  {
    Cube cube(2, CostParams::unit());
    EXPECT_EQ(cube.threads(), std::min(WorkerTeam::resolve_lanes(0), 4u));
    EXPECT_GE(cube.threads(), 1u);
  }
  ASSERT_EQ(unsetenv("VMP_THREADS"), 0);
  EXPECT_EQ(env_threads(), 1u);
  {
    Cube cube(2, CostParams::unit());
    EXPECT_EQ(cube.threads(), 1u);
  }
  // Explicit Options always win over the environment.
  ASSERT_EQ(setenv("VMP_THREADS", "7", 1), 0);
  {
    Cube cube(2, CostParams::unit(), Cube::Options{2});
    EXPECT_EQ(cube.threads(), 2u);
  }
  ASSERT_EQ(unsetenv("VMP_THREADS"), 0);
}

TEST(ThreadOptions, MalformedVmpThreadsIsRejected) {
  // A value that is not a decimal lane count fails in the parse, which
  // runs when Cube::Options{} is built — before any team is; unset or
  // empty still means 1 lane.
  for (const char* bad :
       {"abc", "4x", "-1", "+2", " 3", "4294967296", "99999999999999999999"}) {
    ASSERT_EQ(setenv("VMP_THREADS", bad, 1), 0);
    try {
      (void)env_threads();
      ADD_FAILURE() << "VMP_THREADS=" << bad << " was accepted";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("VMP_THREADS"), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("\"") + bad + "\""), std::string::npos)
          << what;
    }
    EXPECT_THROW((void)Cube::Options{}, Error) << bad;
    EXPECT_THROW({ Cube cube(2, CostParams::unit()); }, Error) << bad;
  }
  ASSERT_EQ(setenv("VMP_THREADS", "4294967295", 1), 0);
  EXPECT_EQ(env_threads(), 4294967295u);
  ASSERT_EQ(setenv("VMP_THREADS", "", 1), 0);
  EXPECT_EQ(env_threads(), 1u);
  ASSERT_EQ(unsetenv("VMP_THREADS"), 0);
}

TEST(SeedOptions, MalformedVmpSeedIsRejected) {
  // VMP_SEED takes a decimal number or 0x-prefixed hex; unset or empty
  // means the default seed.  Any other value throws, naming the variable
  // and its value, instead of quietly running the default seed.
  const char* orig = std::getenv("VMP_SEED");
  const std::string saved = orig == nullptr ? "" : orig;
  for (const char* bad : {"abc", "12x", "-1", "+2", " 3", "1e3", "0x", "0xg",
                          "18446744073709551616"}) {
    ASSERT_EQ(setenv("VMP_SEED", bad, 1), 0);
    try {
      (void)env_seed();
      ADD_FAILURE() << "VMP_SEED=" << bad << " was accepted";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("VMP_SEED"), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("\"") + bad + "\""), std::string::npos)
          << what;
    }
  }
  ASSERT_EQ(setenv("VMP_SEED", "42", 1), 0);
  EXPECT_EQ(env_seed(), 42u);
  ASSERT_EQ(setenv("VMP_SEED", "0x2A", 1), 0);
  EXPECT_EQ(env_seed(), 42u);
  ASSERT_EQ(setenv("VMP_SEED", "18446744073709551615", 1), 0);
  EXPECT_EQ(env_seed(), 18446744073709551615u);
  ASSERT_EQ(setenv("VMP_SEED", "", 1), 0);
  EXPECT_EQ(env_seed(), 20260806u);
  ASSERT_EQ(unsetenv("VMP_SEED"), 0);
  EXPECT_EQ(env_seed(), 20260806u);
  if (orig != nullptr) ASSERT_EQ(setenv("VMP_SEED", saved.c_str(), 1), 0);
}

TEST(SimdOptions, MalformedVmpSimdIsRejected) {
  // VMP_SIMD takes 0/off/OFF or 1/on/ON; unset or empty leaves the backend
  // on.  Any other value — "no", "false", another case, a blank — makes
  // Cube construction throw instead of quietly leaving the backend on.
  const char* orig = std::getenv("VMP_SIMD");
  const std::string saved = orig == nullptr ? "" : orig;
  for (const char* bad :
       {"no", "false", "yes", "true", "2", "Off", "On", " 0", "1 ", "avx2"}) {
    ASSERT_EQ(setenv("VMP_SIMD", bad, 1), 0);
    try {
      (void)env_simd();
      ADD_FAILURE() << "VMP_SIMD=" << bad << " was accepted";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("VMP_SIMD"), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("\"") + bad + "\""), std::string::npos)
          << what;
    }
    EXPECT_THROW({ Cube cube(2, CostParams::unit()); }, Error) << bad;
    EXPECT_THROW({ Cube cube(2, CostParams::unit(), Cube::Options{1}); },
                 Error)
        << bad;
  }
  for (const char* off : {"0", "off", "OFF"}) {
    ASSERT_EQ(setenv("VMP_SIMD", off, 1), 0);
    EXPECT_FALSE(env_simd()) << off;
    EXPECT_NO_THROW({ Cube cube(2, CostParams::unit()); }) << off;
  }
  for (const char* on : {"", "1", "on", "ON"}) {
    ASSERT_EQ(setenv("VMP_SIMD", on, 1), 0);
    EXPECT_TRUE(env_simd()) << on;
    EXPECT_NO_THROW({ Cube cube(2, CostParams::unit()); }) << on;
  }
  ASSERT_EQ(unsetenv("VMP_SIMD"), 0);
  EXPECT_TRUE(env_simd());
  if (orig != nullptr) ASSERT_EQ(setenv("VMP_SIMD", saved.c_str(), 1), 0);
}

TEST(ThreadOptions, LanesNeverExceedProcessors) {
  // A lane beyond one per processor would own nothing in any step: a
  // 4-processor cube asked for 64 lanes runs 4.
  ASSERT_EQ(setenv("VMP_THREADS", "64", 1), 0);
  {
    Cube cube(2, CostParams::unit());
    EXPECT_EQ(cube.threads(), 4u);
  }
  ASSERT_EQ(unsetenv("VMP_THREADS"), 0);
  Cube one(0, CostParams::unit(), Cube::Options{8});
  EXPECT_EQ(one.threads(), 1u);
}

// Mixed-step invariance.  Each step decides from its own work whether to
// fan out across the lanes or run inline on the host (WorkerTeam::fans_out),
// and a round's staging step predicts its bytes from the previous round's.
// This sequence alternates every step kind above and below both inline cuts
// (big → small → small → big), so at 2 and 3 lanes both paths run back to
// back in every order: a round staged inline right after one staged across
// the lanes (only lane 0's partial may be merged — the other lanes' hold
// the earlier round's), an inline staging step before a fanned-out
// delivery, and the reverse.  The machine must still match the 1-lane one
// bit for bit, with and without a within-budget fault plan.
struct MixedRun {
  std::vector<std::vector<double>> mem;
  double now_us = 0.0;
  SimStats stats;
  std::vector<std::string> trace_paths;
  std::vector<TraceEvent> trace_events;
  std::uint64_t steps = 0;
  std::uint64_t fanned_out = 0;
  double fanout_gauge = 0.0;
};

[[nodiscard]] MixedRun run_mixed(unsigned threads, bool faulty) {
  constexpr int kDim = 4;
  Cube cube(kDim, CostParams::cm2(), Cube::Options{threads});
  if (faulty) cube.enable_faults(FaultPlan::transient(20261018, 0.02, 0.01));
  cube.clock().tracer().set_recording(true);
  cube.enable_metrics();
  const proc_t p = cube.procs();
  // Doubles per processor that put a round's staged bytes, and a compute
  // step's flops (2 per element), past both cuts; `small` stays far below.
  const std::size_t big =
      std::max(WorkerTeam::kInlineBytes / sizeof(double),
               WorkerTeam::kInlineFlops / 2) /
          p +
      1;
  const std::size_t small = 3;
  MixedRun r;
  r.mem.resize(p);
  for (proc_t q = 0; q < p; ++q)
    for (std::size_t i = 0; i < big; ++i)
      r.mem[q].push_back(static_cast<double>(q * 131 + i % 97) * 0.25);
  auto& mem = r.mem;
  const auto first = [&](proc_t q, std::size_t len) {
    return std::span<const double>(mem[q].data(), len);
  };
  const std::vector<int> dims = {0, 1, 2, 3};
  int round = 0;
  for (const std::size_t len : {big, small, small, big, small, big}) {
    const int d = round++ % kDim;
    cube.exchange<double>(
        d, [&](proc_t q) { return first(q, len); },
        [&](proc_t q, std::span<const double> in) {
          for (std::size_t i = 0; i < in.size(); ++i) mem[q][i] += 0.5 * in[i];
        });
    cube.exchange_allport<double>(
        dims, [&](proc_t q, std::size_t) { return first(q, len); },
        [&](proc_t q, std::size_t port, std::span<const double> in) {
          const double w = 0.125 * static_cast<double>(port + 1);
          for (std::size_t i = 0; i < in.size(); ++i) mem[q][i] -= w * in[i];
        });
    (void)cube.relay<double>(
        [&](proc_t q) { return (q + 3 + static_cast<proc_t>(d)) % p; },
        [&](proc_t q) { return first(q, len); },
        [&](proc_t q, std::span<const double> in) {
          for (std::size_t i = 0; i < in.size(); ++i)
            mem[q][i] = 0.75 * mem[q][i] + in[i];
        });
    cube.compute(2 * len, 2 * len * p, [&](proc_t q) {
      for (std::size_t i = 0; i < len; ++i)
        mem[q][i] = mem[q][i] * 0.999 + static_cast<double>(q);
    });
  }
  r.now_us = cube.clock().now_us();
  r.stats = cube.clock().stats();
  r.trace_paths = cube.clock().tracer().paths();
  r.trace_events = cube.clock().tracer().events();
  r.steps = cube.team().steps_dispatched();
  r.fanned_out = cube.team().fanned_out();
  cube.metrics().run_probes();
  r.fanout_gauge =
      cube.metrics().gauge("engine.fanout_steps", MetricClass::Wall).value();
  return r;
}

TEST(MixedSteps, InlineAndFannedOutStepsBitIdenticalAcrossLaneCounts) {
  for (const bool faulty : {false, true}) {
    const MixedRun ref = run_mixed(1, faulty);
    EXPECT_EQ(ref.fanned_out, 0u) << "one lane never fans out";
    if (faulty) {
      EXPECT_GT(ref.stats.fault_retries, 0u) << "the plan must fire";
    }
    for (const unsigned threads : {2u, 3u}) {
      const MixedRun got = run_mixed(threads, faulty);
      const std::string what = std::string(faulty ? "faulty" : "fault-free") +
                               " threads=" + std::to_string(threads);
      EXPECT_EQ(ref.mem, got.mem) << what << " results";
      EXPECT_EQ(ref.now_us, got.now_us) << what << " simulated clock";
      EXPECT_TRUE(ref.stats == got.stats)
          << what << " SimStats diverge (messages " << ref.stats.messages
          << " vs " << got.stats.messages << ", elements "
          << ref.stats.elements_moved << " vs " << got.stats.elements_moved
          << ", pool " << ref.stats.pool_hits << "/" << ref.stats.pool_misses
          << " vs " << got.stats.pool_hits << "/" << got.stats.pool_misses
          << ")";
      EXPECT_EQ(ref.trace_paths, got.trace_paths) << what;
      EXPECT_TRUE(ref.trace_events == got.trace_events)
          << what << " event traces diverge";
      // Both paths ran: some steps fanned out, the rest ran inline.
      EXPECT_EQ(ref.steps, got.steps) << what;
      EXPECT_GT(got.fanned_out, 0u) << what;
      EXPECT_LT(got.fanned_out, got.steps) << what;
      EXPECT_EQ(got.fanout_gauge, static_cast<double>(got.fanned_out))
          << what << " engine.fanout_steps";
    }
  }
}

// Collective invariance across lanes.  The collectives tabulate their
// geometry (payload lengths, segment cuts) on the host thread, and their
// team steps only read the tables.  Here every backend of broadcast_auto
// and of allreduce_auto runs at payloads whose first rounds stay under the
// 524288-byte inline cut and whose later rounds pass it, over the whole
// cube and over a family of 4-processor subcubes whose payload lengths
// differ, so at 2 and 3 lanes worker lanes read the tables.  The data-only
// broadcasts (binomial, pipelined, nESBT) run one team step, the delivery
// step that places their roots' payloads; they run again, with
// broadcast_auto, at payloads past the byte cut on their own.  Results,
// clock, SimStats and traces must match the 1-lane run, and at 2 and 3
// lanes every call must fan out.
struct CollectiveRun {
  std::vector<std::uint64_t> digests;  ///< per call and processor
  double now_us = 0.0;
  SimStats stats;
  std::vector<std::string> trace_paths;
  std::vector<TraceEvent> trace_events;
  std::vector<std::uint64_t> fanned_out;  ///< fanned-out steps per call
};

[[nodiscard]] CollectiveRun run_collectives(unsigned threads, bool faulty) {
  constexpr int kDim = 4;
  constexpr std::uint32_t kSegments = 4;
  Cube cube(kDim, CostParams::cm2(), Cube::Options{threads});
  if (faulty) cube.enable_faults(FaultPlan::transient(20261019, 0.02, 0.01));
  cube.clock().tracer().set_recording(true);
  // Half the byte cut per processor: a round with one sender stays inline,
  // a round in which every processor sends fans out.
  const std::size_t n = WorkerTeam::kInlineBytes / sizeof(double) / 2;
  // Past the byte cut with a single root's payload.
  const std::size_t big = WorkerTeam::kInlineBytes / sizeof(double) + 1;
  CollectiveRun r;
  for (const SubcubeSet sc : {SubcubeSet::contiguous(0, kDim),
                              SubcubeSet::contiguous(1, 2)}) {
    std::size_t base = n;
    const auto n_of = [&](proc_t q) {
      return base + static_cast<std::size_t>(sc.subcube_id(q) % 7);
    };
    const auto filled = [&](bool roots_only) {
      DistBuffer<double> buf(cube);
      cube.each_proc([&](proc_t q) {
        if (roots_only && sc.rank(q) != 1) return;
        std::vector<double> v(n_of(q));
        for (std::size_t t = 0; t < v.size(); ++t)
          v[t] = static_cast<double>(q * 131 + t % 97) * 0.25 + 1.0 / (t + 1);
        buf.assign(q, v);
      });
      return buf;
    };
    const auto run = [&](bool bcast, auto collective) {
      DistBuffer<double> buf = filled(bcast);
      const std::uint64_t before = cube.team().fanned_out();
      collective(buf);
      r.fanned_out.push_back(cube.team().fanned_out() - before);
      cube.each_proc([&](proc_t q) {
        const std::span<const double> t = buf.tile(q);
        r.digests.push_back(fnv1a(t.data(), t.size_bytes()));
      });
    };
    const Plus<double> plus;
    run(true, [&](auto& b) { broadcast(cube, b, sc, 1); });
    run(true, [&](auto& b) { broadcast_sag(cube, b, sc, 1, n_of); });
    run(true, [&](auto& b) {
      broadcast_pipelined(cube, b, sc, 1, n_of, kSegments);
    });
    run(false, [&](auto& b) { allreduce(cube, b, sc, plus); });
    run(false, [&](auto& b) { allreduce_rsag(cube, b, sc, plus); });
    run(false, [&](auto& b) {
      allreduce_pipelined(cube, b, sc, plus, kSegments);
    });
    base = big;
    run(true, [&](auto& b) { broadcast(cube, b, sc, 1); });
    run(true, [&](auto& b) {
      broadcast_pipelined(cube, b, sc, 1, n_of, kSegments);
    });
    run(true, [&](auto& b) { broadcast_esbt(cube, b, sc, 1, n_of); });
    run(true, [&](auto& b) { broadcast_auto(cube, b, sc, 1, n_of); });
  }
  r.now_us = cube.clock().now_us();
  r.stats = cube.clock().stats();
  r.trace_paths = cube.clock().tracer().paths();
  r.trace_events = cube.clock().tracer().events();
  return r;
}

TEST(CollectiveSteps, BackendsBitIdenticalAcrossLaneCounts) {
  for (const bool faulty : {false, true}) {
    const CollectiveRun ref = run_collectives(1, faulty);
    for (const std::uint64_t f : ref.fanned_out)
      EXPECT_EQ(f, 0u) << "one lane never fans out";
    if (faulty) {
      EXPECT_GT(ref.stats.fault_retries, 0u) << "the plan must fire";
    }
    for (const unsigned threads : {2u, 3u}) {
      const CollectiveRun got = run_collectives(threads, faulty);
      const std::string what = std::string(faulty ? "faulty" : "fault-free") +
                               " threads=" + std::to_string(threads);
      EXPECT_EQ(ref.digests, got.digests) << what << " results";
      EXPECT_EQ(ref.now_us, got.now_us) << what << " simulated clock";
      EXPECT_TRUE(ref.stats == got.stats) << what << " SimStats diverge";
      EXPECT_EQ(ref.trace_paths, got.trace_paths) << what;
      EXPECT_TRUE(ref.trace_events == got.trace_events)
          << what << " event traces diverge";
      ASSERT_EQ(ref.fanned_out.size(), got.fanned_out.size()) << what;
      for (std::size_t i = 0; i < got.fanned_out.size(); ++i)
        EXPECT_GT(got.fanned_out[i], 0u) << what << " call " << i;
    }
  }
}

// Accumulate-rows invariance.  matmul_hyper's phase update, matmul_summa's
// local GEMM and vecmat_fused add a run of scaled panel rows into each
// output row with one kern::axpy_rows call.  At these sizes each of their
// update steps passes the 131072-flop inline cut, so at 2 and 3 lanes worker
// lanes run the kernel; summa and vecmat have 37 or 38 local columns, so
// the kernel's 32-column blocks and both tails run.  With the SIMD backend
// on and off, results, clock and SimStats must match the 1-lane run with
// the backend off.
struct KernelRun {
  std::vector<std::uint64_t> digests;  ///< result bits per call
  double now_us = 0.0;
  SimStats stats;
  std::vector<std::uint64_t> fanned_out;  ///< fanned-out steps per call
};

[[nodiscard]] KernelRun run_accumulate_rows(unsigned threads) {
  Cube cube(6, CostParams::cm2(),
            Cube::Options{threads, TopologyKind::Dragonfly});
  KernelRun r;
  const auto call = [&](auto body) {
    const std::uint64_t before = cube.team().fanned_out();
    const std::vector<double> c = body();
    r.digests.push_back(fnv1a(c.data(), c.size() * sizeof(double)));
    r.fanned_out.push_back(cube.team().fanned_out() - before);
  };
  // 64 × 1 ring: 3 rows per processor, 8 stored A copies, 3 B rows a phase.
  Grid ring(cube, 6, 0);
  const std::size_t n = 192;
  DistMatrix<double> Ah(ring, n, n), Bh(ring, n, n);
  Ah.load(random_matrix(n, n, 501));
  Bh.load(random_matrix(n, n, 502));
  call([&] { return matmul_hyper(Ah, Bh).to_host(); });
  // 8 × 8 grid: panels of 10, C and A tiles 37 or 38 columns wide.
  Grid grid(cube, 3, 3);
  DistMatrix<double> As(grid, 96, 80), Bs(grid, 80, 300);
  As.load(random_matrix(96, 80, 503));
  Bs.load(random_matrix(80, 300, 504));
  call([&] { return matmul_summa(As, Bs).to_host(); });
  DistMatrix<double> Av(grid, 300, 300);
  Av.load(random_matrix(300, 300, 505));
  DistVector<double> x(grid, 300, Align::Rows, Part::Block);
  x.load(random_vector(300, 506));
  call([&] { return vecmat_fused(x, Av).to_host(); });
  r.now_us = cube.clock().now_us();
  r.stats = cube.clock().stats();
  return r;
}

TEST(KernelSteps, AccumulateRowsBitIdenticalAcrossLanesAndSimd) {
  const bool prev = kern::simd::set_enabled(false);
  const KernelRun ref = run_accumulate_rows(1);
  for (const bool simd : {false, true}) {
    kern::simd::set_enabled(simd);
    for (const unsigned threads : {1u, 2u, 3u}) {
      const KernelRun got = run_accumulate_rows(threads);
      const std::string what = std::string(simd ? "simd-on" : "simd-off") +
                               " threads=" + std::to_string(threads);
      EXPECT_EQ(ref.digests, got.digests) << what << " results";
      EXPECT_EQ(ref.now_us, got.now_us) << what << " simulated clock";
      EXPECT_TRUE(ref.stats == got.stats) << what << " SimStats diverge";
      ASSERT_EQ(got.fanned_out.size(), 3u) << what;
      for (std::size_t i = 0; i < got.fanned_out.size(); ++i) {
        if (threads == 1)
          EXPECT_EQ(got.fanned_out[i], 0u) << what << " call " << i;
        else
          EXPECT_GT(got.fanned_out[i], 0u) << what << " call " << i;
      }
    }
  }
  kern::simd::set_enabled(prev);
}

}  // namespace
}  // namespace vmp
