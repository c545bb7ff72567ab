// Engine-metrics tier (obs/metrics.hpp): registry semantics, the
// instrumentation wired into the worker team / buffer pool / router, and
// the two determinism contracts the design rests on:
//
//  1. Sim-class metrics are pure functions of the simulated machine —
//     bit-identical at every host-thread count, with and without fault
//     injection (compared within a fault configuration, like SimStats).
//     Wall-class metrics must be PRESENT but are excluded from equality.
//  2. Enabling metrics never perturbs the machine: results, now_us,
//     SimStats and event traces are bit-identical metrics-on vs off.
//
// Also covers the analysis companions built on the same observability
// data: critical-path extraction, per-region load-imbalance factors,
// collapsed-stack (flame-graph) export, and the snapshot sampler.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "core/naive.hpp"
#include "core/primitives.hpp"
#include "core/scan_ops.hpp"
#include "core/transpose.hpp"
#include "fault/fault.hpp"
#include "hypercube/check.hpp"
#include "obs/critical_path.hpp"
#include "obs/flamegraph.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/workloads.hpp"

namespace vmp {
namespace {

const std::uint64_t kBaseSeed = announce_seed("test_metrics");

// --------------------------------------------------------------------------
// Registry semantics.

TEST(MetricsRegistry_, HistogramBucketsByBitWidth) {
  using H = MetricsRegistry::Histogram;
  EXPECT_EQ(H::bucket_of(0), 0);
  EXPECT_EQ(H::bucket_of(1), 1);
  EXPECT_EQ(H::bucket_of(2), 2);
  EXPECT_EQ(H::bucket_of(3), 2);
  EXPECT_EQ(H::bucket_of(4), 3);
  EXPECT_EQ(H::bucket_of(1023), 10);
  EXPECT_EQ(H::bucket_of(1024), 11);
  EXPECT_EQ(H::bucket_of(UINT64_MAX), 64);
  EXPECT_EQ(H::bucket_lo(0), 0u);
  EXPECT_EQ(H::bucket_lo(1), 1u);
  EXPECT_EQ(H::bucket_lo(2), 2u);
  EXPECT_EQ(H::bucket_lo(11), 1024u);

  MetricsRegistry m;
  m.enable(/*lanes=*/2);
  MetricsRegistry::Histogram& h = m.histogram("h", MetricClass::Sim);
  h.record(0, 0);
  h.record(3, 0);
  h.record(3, 1);
  h.record(100, 1);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 106u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(2), 2u);  // both lanes' 3s merge
  EXPECT_EQ(h.bucket_count(7), 1u);  // 100 has bit width 7
}

TEST(MetricsRegistry_, CounterMergesLanesInOrderAndGaugeIsScalar) {
  MetricsRegistry m;
  m.enable(/*lanes=*/4);
  EXPECT_TRUE(m.enabled());
  EXPECT_EQ(m.lanes(), 4u);
  MetricsRegistry::Counter& c = m.counter("c", MetricClass::Wall);
  c.add(1, 0);
  c.add(10, 1);
  c.add(100, 3);
  EXPECT_EQ(c.value(), 111u);
  EXPECT_EQ(c.lane_value(1), 10u);
  EXPECT_EQ(c.lane_value(2), 0u);
  EXPECT_EQ(&m.counter("c", MetricClass::Wall), &c) << "find-or-create";

  MetricsRegistry::Gauge& g = m.gauge("g", MetricClass::Sim);
  g.set(2.5);
  g.add(0.5);
  EXPECT_EQ(g.value(), 3.0);
}

TEST(MetricsRegistry_, SamplePeriodRoundsUpToAPowerOfTwo) {
  MetricsRegistry m;
  m.enable(1, 100);
  EXPECT_EQ(m.sample_every(), 128u);
  m.enable(1, 1);
  EXPECT_EQ(m.sample_every(), 1u);
  m.enable(1, 512);
  EXPECT_EQ(m.sample_every(), 512u);
}

TEST(MetricsRegistry_, NameCollisionAcrossKindOrClassIsAContractError) {
  MetricsRegistry m;
  m.enable(1);
  (void)m.counter("x", MetricClass::Sim);
  EXPECT_THROW((void)m.gauge("x", MetricClass::Sim), ContractError);
  EXPECT_THROW((void)m.counter("x", MetricClass::Wall), ContractError);
}

TEST(MetricsRegistry_, EnableDropsPreviousRegistrations) {
  MetricsRegistry m;
  m.enable(1);
  m.counter("old", MetricClass::Sim).add(7);
  m.enable(2);
  EXPECT_TRUE(m.entries().empty());
  EXPECT_EQ(m.counter("old", MetricClass::Sim).value(), 0u);
}

// --------------------------------------------------------------------------
// One traced workload touching every instrumented subsystem: compute
// steps, one-port exchanges (collectives), the general packet router
// (a naive primitive — the optimized ones bypass it by design), sessions,
// the buffer pool — with optional fault injection.

struct MetricsRun {
  std::vector<std::vector<double>> results;
  double now_us = 0.0;
  SimStats stats;
  std::vector<TraceEvent> trace_events;
  std::map<std::string, std::string> sim;   // Sim metrics, rendered
  std::map<std::string, std::string> wall;  // Wall metric names → kind
};

[[nodiscard]] std::string render_entry(const MetricsRegistry::Entry& e) {
  char buf[64];
  switch (e.kind) {
    case MetricKind::Counter:
      return "counter:" + std::to_string(e.counter->value());
    case MetricKind::Gauge:
      std::snprintf(buf, sizeof buf, "gauge:%.17g", e.gauge->value());
      return buf;
    case MetricKind::Histogram: {
      std::string out = "hist:n=" + std::to_string(e.histogram->count()) +
                        ",sum=" + std::to_string(e.histogram->sum()) +
                        ",max=" + std::to_string(e.histogram->max());
      for (int k = 0; k < MetricsRegistry::Histogram::kBuckets; ++k)
        if (const std::uint64_t n = e.histogram->bucket_count(k); n != 0)
          out += ",[" + std::to_string(k) + "]=" + std::to_string(n);
      return out;
    }
  }
  return {};
}

[[nodiscard]] MetricsRun run_workload(unsigned threads, bool faulty,
                                      bool metrics,
                                      unsigned sample_every = 1) {
  Cube cube(4, CostParams::cm2(), Cube::Options{threads});
  if (faulty)
    cube.enable_faults(FaultPlan::transient(kBaseSeed ^ 0x5eedULL, 0.02, 0.01));
  if (metrics) cube.enable_metrics(sample_every);
  cube.clock().tracer().set_recording(true);
  Grid grid(cube, 2, 2);

  const std::size_t nr = 24, nc = 20;
  DistMatrix<double> A(grid, nr, nc);
  A.load(random_matrix(nr, nc, static_cast<unsigned>(kBaseSeed & 0xffff)));
  DistVector<double> v(grid, nr, Align::Rows, Part::Block);
  v.load(random_vector(nr, static_cast<unsigned>(kBaseSeed >> 8 & 0xffff)));

  MetricsRun r;
  r.results.push_back(reduce_rows(A, Plus<double>{}).to_host());
  r.results.push_back(extract_col(A, 3).to_host());
  r.results.push_back(transpose(A).to_host());
  r.results.push_back(naive_reduce_cols_sum(A).to_host());  // general router
  vec_scan_inclusive(v, Plus<double>{});
  r.results.push_back(v.to_host());

  r.now_us = cube.clock().now_us();
  r.stats = cube.clock().stats();
  r.trace_events = cube.clock().tracer().events();
  if (metrics) {
    cube.metrics().run_probes();
    for (const auto& [name, e] : cube.metrics().entries()) {
      if (e.cls == MetricClass::Sim)
        r.sim[name] = render_entry(e);
      else
        r.wall[name] = to_string(e.kind);
    }
  }
  return r;
}

TEST(EngineMetrics, EverySubsystemRegistersItsInstruments) {
  const MetricsRun r = run_workload(/*threads=*/1, /*faulty=*/false,
                                    /*metrics=*/true);
  // Team: deterministic step/session tallies plus sampled step items.
  EXPECT_TRUE(r.sim.count("engine.steps"));
  EXPECT_TRUE(r.sim.count("engine.sessions"));
  EXPECT_TRUE(r.sim.count("engine.session_depth"));
  EXPECT_TRUE(r.sim.count("engine.step_items"));
  EXPECT_NE(r.sim.at("engine.steps"), "gauge:0") << "workload ran steps";
  // Team wall-clock instruments (values vary run to run, presence must
  // not).
  for (const char* name :
       {"engine.lane_busy_ns", "engine.lane_spins", "engine.lane_parks",
        "engine.lane_park_ns", "engine.host_barrier_ns", "engine.step_ns",
        "engine.step_imbalance_pct", "engine.fanout_steps"})
    EXPECT_TRUE(r.wall.count(name)) << name;
  // Buffer pool occupancy gauges.
  for (const char* name :
       {"pool.free_blocks", "pool.free_bytes", "pool.leased_blocks",
        "pool.leased_bytes", "pool.heap_bytes", "pool.hits", "pool.misses"})
    EXPECT_TRUE(r.sim.count(name)) << name;
  // Router traffic (the transpose routes through the cube).
  EXPECT_TRUE(r.sim.count("router.packets"));
  EXPECT_TRUE(r.sim.count("router.cycles"));
  EXPECT_TRUE(r.sim.count("router.queue_depth"));
  EXPECT_TRUE(r.sim.count("router.dim0.hops"));
  EXPECT_NE(r.sim.at("router.packets"), "counter:0");
}

class MetricsThreadSweep
    : public ::testing::TestWithParam<std::tuple<unsigned, bool>> {};

TEST_P(MetricsThreadSweep, SimMetricsBitIdenticalAcrossLaneCounts) {
  const unsigned threads = std::get<0>(GetParam());
  const bool faulty = std::get<1>(GetParam());
  const MetricsRun ref = run_workload(/*threads=*/1, faulty, true);
  const MetricsRun got = run_workload(threads, faulty, true);
  // The machine itself must agree (the precondition for comparing
  // metrics at all)...
  ASSERT_EQ(ref.results, got.results);
  ASSERT_EQ(ref.now_us, got.now_us);
  ASSERT_TRUE(ref.stats == got.stats);
  // ...and every Sim-class metric must be bit-identical, name for name.
  EXPECT_EQ(ref.sim, got.sim);
  // Wall metrics: same instrument set, values free to differ.
  EXPECT_EQ(ref.wall, got.wall);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MetricsThreadSweep,
    ::testing::Combine(::testing::Values(2u, 3u, 0u),
                       ::testing::Values(false, true)));

TEST(EngineMetrics, EnablingMetricsNeverPerturbsTheMachine) {
  for (const bool faulty : {false, true}) {
    const MetricsRun off = run_workload(1, faulty, /*metrics=*/false);
    for (const unsigned sample_every : {1u, 512u}) {
      const MetricsRun on = run_workload(1, faulty, true, sample_every);
      const std::string what = std::string(faulty ? "faulty" : "fault-free") +
                               " sample_every=" +
                               std::to_string(sample_every);
      EXPECT_EQ(off.results, on.results) << what;
      EXPECT_EQ(off.now_us, on.now_us) << what;
      EXPECT_TRUE(off.stats == on.stats) << what;
      EXPECT_TRUE(off.trace_events == on.trace_events) << what;
    }
  }
}

TEST(EngineMetrics, SampledStepItemsFollowTheSamplePeriod) {
  // With sample_every=1 every step records its items; with a 2^k period
  // only every 2^k-th does — but both selections are deterministic, so
  // repeated runs agree exactly.
  const MetricsRun all = run_workload(1, false, true, 1);
  const MetricsRun sparse = run_workload(1, false, true, 64);
  const MetricsRun sparse2 = run_workload(1, false, true, 64);
  EXPECT_EQ(sparse.sim.at("engine.step_items"),
            sparse2.sim.at("engine.step_items"));
  EXPECT_EQ(all.sim.at("engine.steps"), sparse.sim.at("engine.steps"))
      << "the step tally counts every step regardless of sampling";
  EXPECT_NE(all.sim.at("engine.step_items"),
            sparse.sim.at("engine.step_items"))
      << "sampling must thin the per-step histogram";
}

// --------------------------------------------------------------------------
// Analysis companions.

TEST(CriticalPath, RankingCoversTheClockExactly) {
  Cube cube(4, CostParams::cm2());
  Grid grid(cube, 2, 2);
  DistMatrix<double> A(grid, 24, 20);
  A.load(random_matrix(24, 20, 11));
  (void)reduce_rows(A, Plus<double>{});
  (void)transpose(A);

  const std::vector<HotRegion> ranked = critical_path(cube.clock());
  ASSERT_FALSE(ranked.empty());
  double sum = 0.0;
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    sum += ranked[i].self_us;
    if (i > 0)
      EXPECT_LE(ranked[i].self_us, ranked[i - 1].self_us)
          << "ranking must be descending";
  }
  EXPECT_NEAR(sum, cube.clock().now_us(), 1e-6 * (1.0 + cube.clock().now_us()))
      << "self times must cover the whole clock";
  EXPECT_NEAR(ranked.back().cum_pct, 100.0, 1e-6);
  const std::string table = critical_path_to_table(cube.clock());
  EXPECT_NE(table.find("%"), std::string::npos);
}

TEST(CriticalPath, LoadImbalanceFactorsAreAtLeastOne) {
  Cube cube(4, CostParams::cm2());
  Grid grid(cube, 2, 2);
  DistMatrix<double> A(grid, 24, 20);
  A.load(random_matrix(24, 20, 12));
  (void)reduce_rows(A, Plus<double>{});
  (void)extract_col(A, 3);

  const std::vector<RegionImbalance> imb =
      load_imbalance(cube.clock(), cube.procs());
  ASSERT_FALSE(imb.empty());
  for (const RegionImbalance& r : imb) {
    // max ≥ mean: the slowest processor never did less than the average.
    if (r.elements_moved != 0) EXPECT_GE(r.comm_factor, 1.0 - 1e-9) << r.path;
    if (r.flops_total != 0) EXPECT_GE(r.compute_factor, 1.0 - 1e-9) << r.path;
  }
  EXPECT_FALSE(load_imbalance_to_table(cube.clock(), cube.procs()).empty());
}

TEST(Flamegraph, CollapsedStacksAreWellFormedAndRoundTrip) {
  Cube cube(4, CostParams::cm2());
  Grid grid(cube, 2, 2);
  DistMatrix<double> A(grid, 24, 20);
  A.load(random_matrix(24, 20, 13));
  (void)reduce_rows(A, Plus<double>{});

  const std::string doc = collapsed_stacks(cube.clock());
  ASSERT_FALSE(doc.empty());
  // Every line: "frame[;frame...] <integer-ns>".
  std::size_t pos = 0;
  while (pos < doc.size()) {
    std::size_t eol = doc.find('\n', pos);
    ASSERT_NE(eol, std::string::npos) << "every line must end with \\n";
    const std::string line = doc.substr(pos, eol - pos);
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    EXPECT_EQ(line.find('/'), std::string::npos)
        << "path separators must become ';': " << line;
    const std::string value = line.substr(sp + 1);
    EXPECT_FALSE(value.empty());
    for (char ch : value) EXPECT_TRUE(ch >= '0' && ch <= '9') << line;
    pos = eol + 1;
  }

  const std::string path = "test_metrics_flame.collapsed";
  ASSERT_TRUE(write_collapsed_stacks(path, cube.clock()));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof(buf), f)) > 0;)
    text.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(text, doc);
}

TEST(Sampler, CollectsALabeledTimeSeries) {
  Cube cube(2, CostParams::cm2());
  cube.enable_metrics();
  MetricsSampler s(cube.metrics());
  Grid grid(cube, 1, 1);
  DistMatrix<double> A(grid, 8, 8);
  A.load(random_matrix(8, 8, 14));
  (void)reduce_rows(A, Plus<double>{});
  s.sample("after_reduce", cube.clock().now_us());
  (void)extract_col(A, 1);
  s.sample("after_extract", cube.clock().now_us());
  EXPECT_EQ(s.size(), 2u);
  const std::string doc = s.to_json();
  EXPECT_NE(doc.find("\"kind\":\"series\""), std::string::npos);
  EXPECT_NE(doc.find("after_reduce"), std::string::npos);
  EXPECT_NE(doc.find("after_extract"), std::string::npos);
}

}  // namespace
}  // namespace vmp
