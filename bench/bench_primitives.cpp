// E1 — "Connection Machine timings for the primitives".
//
// Simulated machine time for each of the four primitives over matrix sizes
// and cube dimensions (CM-2-flavoured cost model).  Counters:
//   sim_us         simulated time of one primitive call
//   elems_per_proc m/p, the load-balance unit the costs should track
//   comm_steps     lockstep communication rounds (the τ count)
// Each case also embeds the per-region cost profile of the timed call.
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "vmprim.hpp"

namespace {

using namespace vmp;

const bench::Harness* g_harness = nullptr;

struct Fixture {
  Fixture(int d, std::size_t n)
      : cube(d, CostParams::cm2()),
        grid(Grid::square(cube)),
        A(grid, n, n),
        v(grid, n, Align::Cols),
        w(grid, n, Align::Rows) {
    A.load(random_matrix(n, n, 11));
    v.load(random_vector(n, 12));
    w.load(random_vector(n, 13));
    if (g_harness->metrics()) cube.enable_metrics();
  }
  Cube cube;
  Grid grid;
  DistMatrix<double> A;
  DistVector<double> v, w;
};

/// Wall time per step (ns) of a session of two `team.step(items, body)`
/// calls opened on a team gone idle: the first step wakes the parked
/// workers, the second finds them awake — as a round's staging and
/// delivery steps meet the team when a collective starts.
template <class Body>
double session_step_ns(WorkerTeam& team, std::size_t items, Body& body) {
  std::this_thread::sleep_for(std::chrono::microseconds(200));
  const auto t0 = std::chrono::steady_clock::now();
  {
    const auto session = team.session();
    team.step(items, body);
    team.step(items, body);
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() / 2;
}

double median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

void finish(bench::Case& c, Cube& cube, std::size_t n) {
  c.counter("sim_us", cube.clock().now_us());
  c.counter("elems_per_proc", static_cast<double>(n * n) / cube.procs());
  c.counter("comm_steps",
            static_cast<double>(cube.clock().stats().comm_steps));
  c.profile("run", cube.clock());
  if (g_harness->metrics()) c.metrics(cube.metrics(), cube.clock().now_us());
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("bench_primitives", argc, argv);
  g_harness = &h;
  for (int d : h.dims({4, 6, 8, 10}, {4, 6}))
    for (std::size_t n : h.sizes({64, 128, 256, 512, 1024}, {64, 128})) {
      h.run("reduce_rows", {{"dim", d}, {"n", static_cast<std::int64_t>(n)}},
            [&](bench::Case& c) {
              Fixture f(d, n);
              if (h.faults()) f.cube.enable_faults(h.fault_plan());
              f.cube.clock().reset();
              (void)reduce_rows(f.A, Plus<double>{});
              finish(c, f.cube, n);
            });
      h.run("reduce_cols", {{"dim", d}, {"n", static_cast<std::int64_t>(n)}},
            [&](bench::Case& c) {
              Fixture f(d, n);
              if (h.faults()) f.cube.enable_faults(h.fault_plan());
              f.cube.clock().reset();
              (void)reduce_cols(f.A, Plus<double>{});
              finish(c, f.cube, n);
            });
      h.run("distribute_rows",
            {{"dim", d}, {"n", static_cast<std::int64_t>(n)}},
            [&](bench::Case& c) {
              Fixture f(d, n);
              if (h.faults()) f.cube.enable_faults(h.fault_plan());
              f.cube.clock().reset();
              (void)distribute_rows(f.v, n);
              finish(c, f.cube, n);
            });
      h.run("extract_row", {{"dim", d}, {"n", static_cast<std::int64_t>(n)}},
            [&](bench::Case& c) {
              Fixture f(d, n);
              if (h.faults()) f.cube.enable_faults(h.fault_plan());
              f.cube.clock().reset();
              (void)extract_row(f.A, n / 2);
              finish(c, f.cube, n);
            });
      h.run("extract_col", {{"dim", d}, {"n", static_cast<std::int64_t>(n)}},
            [&](bench::Case& c) {
              Fixture f(d, n);
              if (h.faults()) f.cube.enable_faults(h.fault_plan());
              f.cube.clock().reset();
              (void)extract_col(f.A, n / 2);
              finish(c, f.cube, n);
            });
      h.run("insert_row", {{"dim", d}, {"n", static_cast<std::int64_t>(n)}},
            [&](bench::Case& c) {
              Fixture f(d, n);
              if (h.faults()) f.cube.enable_faults(h.fault_plan());
              f.cube.clock().reset();
              insert_row(f.A, n / 2, f.v);
              finish(c, f.cube, n);
            });
      // Host round trip: load + to_host are pure strided block copies
      // between the host image and each tile of the slab arena.  The wall
      // clock of this case is the direct measure of the contiguous-storage
      // payoff (no per-element owner lookups, no per-processor vectors).
      h.run("host_round_trip",
            {{"dim", d}, {"n", static_cast<std::int64_t>(n)}},
            [&](bench::Case& c) {
              Fixture f(d, n);
              if (h.faults()) f.cube.enable_faults(h.fault_plan());
              f.cube.clock().reset();
              f.A.load(random_matrix(n, n, 17));
              const std::vector<double> back = f.A.to_host();
              c.counter("host_bytes",
                        static_cast<double>(back.size() * sizeof(double)));
              finish(c, f.cube, n);
            });
      // Steady-state pooling: one warm pass grows the cube's staging slots
      // to bucket capacity, so the measured hot loop of exchange-heavy
      // primitives must be pure pool hits — zero heap allocations.
      // check.sh asserts pool_misses == 0 && pool_hits > 0 on these cases.
      h.run("pool_steady_state",
            {{"dim", d}, {"n", static_cast<std::int64_t>(n)}},
            [&](bench::Case& c) {
              Fixture f(d, n);
              if (h.faults()) f.cube.enable_faults(h.fault_plan());
              (void)reduce_rows(f.A, Plus<double>{});  // warm the slots
              (void)extract_row(f.A, n / 2);
              f.cube.clock().reset();
              for (int it = 0; it < 8; ++it) {
                (void)reduce_rows(f.A, Plus<double>{});
                (void)extract_row(f.A, n / 2);
              }
              const SimStats& st = f.cube.clock().stats();
              c.counter("pool_hits", static_cast<double>(st.pool_hits));
              c.counter("pool_misses", static_cast<double>(st.pool_misses));
              c.counter("alloc_bytes", static_cast<double>(st.alloc_bytes));
              finish(c, f.cube, n);
            });
    }
  // bench_engine — raw per-step dispatch cost of the worker-team engine,
  // with the simulated work held at (near) zero so nothing but protocol
  // remains: publish the step, run the (empty) per-processor loop, pass the
  // barrier, reduce the lane partials.  `steps_per_sec` / `rounds_per_sec`
  // are the wall-clock counters docs/perf.md tracks; both loops run inside
  // one session, the posture every multi-round collective uses.
  for (int d : h.dims({4, 5, 6, 7, 8}, {4, 8})) {
    h.run("engine_empty_steps", {{"dim", d}}, [&](bench::Case& c) {
      Cube cube(d, CostParams::cm2());
      // With --metrics this case doubles as the dispatch-overhead check:
      // default sampling must keep ns_per_step within a few percent of the
      // metrics-off number (docs/perf.md).
      if (h.metrics()) cube.enable_metrics();
      constexpr int kSteps = 20000;
      const auto batch = cube.session();
      const auto t0 = std::chrono::steady_clock::now();
      for (int s = 0; s < kSteps; ++s) cube.compute(0, 0, [](proc_t) {});
      const auto t1 = std::chrono::steady_clock::now();
      const double secs = std::chrono::duration<double>(t1 - t0).count();
      c.counter("steps", kSteps);
      c.counter("steps_per_sec", static_cast<double>(kSteps) / secs);
      c.counter("ns_per_step", 1e9 * secs / kSteps);
      if (h.metrics()) c.metrics(cube.metrics(), cube.clock().now_us());
    });
    h.run("engine_exchange_1elem", {{"dim", d}}, [&](bench::Case& c) {
      Cube cube(d, CostParams::cm2());
      if (h.faults()) cube.enable_faults(h.fault_plan());
      if (h.metrics()) cube.enable_metrics();
      std::vector<double> cell(cube.procs(), 1.0);
      constexpr int kRounds = 4000;
      const auto batch = cube.session();
      const auto t0 = std::chrono::steady_clock::now();
      for (int s = 0; s < kRounds; ++s)
        cube.exchange<double>(
            s % d, [&](proc_t q) { return std::span<const double>(&cell[q], 1); },
            [&](proc_t q, std::span<const double> in) { cell[q] += in[0]; });
      const auto t1 = std::chrono::steady_clock::now();
      const double secs = std::chrono::duration<double>(t1 - t0).count();
      c.counter("rounds", kRounds);
      c.counter("rounds_per_sec", static_cast<double>(kRounds) / secs);
      c.counter("ns_per_round", 1e9 * secs / kRounds);
      c.counter("sim_us", cube.clock().now_us());
      if (h.metrics()) c.metrics(cube.metrics(), cube.clock().now_us());
    });
  }
  // engine_fanout_crossover — the calibration behind WorkerTeam's inline
  // cuts (kInlineFlops, kInlineBytes).  One raw team step over the 2^d
  // processors, timed on a 2-lane team (every step fans out) and on a
  // 1-lane team (every step runs inline), for two per-processor bodies over
  // power-of-two step sizes: an axpy for the flop cut (2 flops per element,
  // as the rank-1 update counts them) and a memcpy for the byte cut.  Each
  // sample is a two-step session on an idle team (session_step_ns), so the
  // fanned-out side pays one wake-up per two steps: back-to-back steps
  // alone would hide the wake-up that a solve's isolated steps pay, lone
  // steps would charge it to every step of a collective's rounds.
  // Counters per size: `flops=F.inline_ns`/`.fanout_ns` and
  // `bytes=B.inline_ns`/`.fanout_ns`, the median of alternating samples;
  // `flop_cut`/`byte_cut` are the largest sizes at which inline was not
  // slower.
  for (int d : h.dims({6}, {6}))
    h.run("engine_fanout_crossover", {{"dim", d}}, [&](bench::Case& c) {
      const std::size_t items = std::size_t{1} << d;
      WorkerTeam fan(2), one(1);
      const int reps = h.quick() ? 5 : 15;
      // Times the body on both teams at each size in [lo, hi] and returns
      // the largest size at which inline was not slower (0 if none).
      const auto sweep = [&](const std::string& unit, std::size_t lo,
                             std::size_t hi, auto&& make_body) {
        std::size_t cut = 0;
        for (std::size_t size = lo; size <= hi; size *= 2) {
          auto body = make_body(size);
          std::vector<double> fan_ns, one_ns;
          for (int r = 0; r < reps; ++r) {
            fan_ns.push_back(session_step_ns(fan, items, body));
            one_ns.push_back(session_step_ns(one, items, body));
          }
          const double inline_ns = median(one_ns), fanout_ns = median(fan_ns);
          const std::string key = unit + "=" + std::to_string(size);
          c.counter(key + ".inline_ns", inline_ns);
          c.counter(key + ".fanout_ns", fanout_ns);
          if (inline_ns <= fanout_ns) cut = size;
        }
        return cut;
      };
      std::vector<double> x, y;
      const std::size_t flop_cut = sweep(
          "flops", std::size_t{1} << 10, std::size_t{1} << 21,
          [&](std::size_t flops) {
            const std::size_t len = flops / 2 / items;
            x.assign(len * items, 1.0);
            y.assign(len * items, 0.0);
            return [&, len](unsigned, std::size_t lo, std::size_t hi) {
              for (std::size_t q = lo; q < hi; ++q)
                kern::axpy(std::span<double>(y).subspan(q * len, len), 1e-9,
                           std::span<const double>(x).subspan(q * len, len));
            };
          });
      std::vector<std::byte> src, dst;
      const std::size_t byte_cut = sweep(
          "bytes", std::size_t{1} << 12, std::size_t{1} << 23,
          [&](std::size_t bytes) {
            const std::size_t len = bytes / items;
            src.assign(len * items, std::byte{1});
            dst.assign(len * items, std::byte{0});
            return [&, len](unsigned, std::size_t lo, std::size_t hi) {
              for (std::size_t q = lo; q < hi; ++q)
                std::memcpy(dst.data() + q * len, src.data() + q * len, len);
            };
          });
      c.counter("flop_cut", static_cast<double>(flop_cut));
      c.counter("byte_cut", static_cast<double>(byte_cut));
    });
  // vector_lanes — vector maps and folds at 1 and 2 lanes.  Each op runs
  // once per piece, on the piece's holder, which copies its result to the
  // other replicas; the holders sit on the grid diagonal, so on the square
  // grid they spread over both lanes' processor ranges.  Rows and Cols
  // vectors of 2^18 elements on Grid::square; counters
  // `<Align>.<op>.lanes1_us` / `.lanes2_us`, the median wall time per call
  // of alternating calls on a 1-lane and a 2-lane cube.
  for (int d : h.dims({6}, {6}))
    h.run("vector_lanes", {{"dim", d}}, [&](bench::Case& c) {
      const std::size_t n = std::size_t{1} << 18;
      const int reps = h.quick() ? 5 : 21;
      Cube one(d, CostParams::cm2(), Cube::Options{1});
      Cube two(d, CostParams::cm2(), Cube::Options{2});
      Grid g1 = Grid::square(one), g2 = Grid::square(two);
      const std::vector<double> hx = random_vector(n, 14);
      const std::vector<double> hy = random_vector(n, 15);
      double sink = 0.0;
      for (const Align align : {Align::Rows, Align::Cols}) {
        DistVector<double> x1(g1, n, align), y1(g1, n, align);
        DistVector<double> x2(g2, n, align), y2(g2, n, align);
        x1.load(hx);
        x2.load(hx);
        y1.load(hy);
        y2.load(hy);
        const auto time = [&](const char* name, auto op) {
          std::vector<double> us1, us2;
          const auto call_us = [&](DistVector<double>& y,
                                   const DistVector<double>& x) {
            const auto t0 = std::chrono::steady_clock::now();
            op(y, x);
            const auto t1 = std::chrono::steady_clock::now();
            return std::chrono::duration<double, std::micro>(t1 - t0).count();
          };
          for (int r = 0; r < reps; ++r) {
            us1.push_back(call_us(y1, x1));
            us2.push_back(call_us(y2, x2));
          }
          const std::string key = std::string(to_string(align)) + "." + name;
          c.counter(key + ".lanes1_us", median(us1));
          c.counter(key + ".lanes2_us", median(us2));
        };
        time("apply_indexed", [](DistVector<double>& y,
                                 const DistVector<double>&) {
          vec_apply_indexed(y, [](double v, std::size_t g) {
            return g % 3 == 0 ? -v : v;
          });
        });
        time("axpy", [](DistVector<double>& y, const DistVector<double>& x) {
          vec_axpy(y, 1e-9, x);
        });
        time("dot", [&](DistVector<double>& y, const DistVector<double>& x) {
          sink += dot(y, x);
        });
      }
      c.counter("checksum", sink);
    });
  return h.finish();
}
