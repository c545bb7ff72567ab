// Micro-benchmark of the strided-kernel layer (core/kernels.hpp): every
// vectorizable kernel timed with the SIMD backend forced OFF and ON over
// the same buffers, so the report carries the measured speedup and the
// perf gate can guard the vector paths against regression.
//
// Counters per case:
//   wall_scalar_ms / wall_simd_ms   host wall-clock for the rep loop with
//                                   the backend disabled / enabled
//   scalar_over_simd                measured speedup (1.0 on scalar builds)
//   checksum                        fold of the outputs (defeats dead-code
//                                   elimination; also a cheap cross-config
//                                   sanity check)
// axpy_rows also times the same update as one axpy call per panel row
// (axpy_loop_ms, SIMD on) and reports loop_over_rows = axpy_loop_ms /
// wall_simd_ms, the register-blocked kernel's gain over that loop.
// The case labels carry the compiled backend name, so baselines recorded
// on different ISAs are distinguishable at a glance.
//
// Under --metrics each case also runs one trivial simulated step on a
// 1-cube with the metrics registry enabled, so the report embeds the
// standard vmp-metrics-v1 snapshot (engine.steps included) like every
// other bench in the gate sweep.
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"
#include "vmprim.hpp"

namespace {

using namespace vmp;

double wall_ms_of(const std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Compiler barrier: force the buffer to be materialized.
inline void clobber(const void* p) { asm volatile("" : : "g"(p) : "memory"); }

std::vector<double> make_data(std::size_t n, unsigned seed) {
  return random_vector(n, seed);
}

/// Time `body` under both backend settings; record counters and a checksum.
/// Returns the SIMD-on wall time.
template <class Body>
double time_both(bench::Case& c, std::size_t reps, Body body) {
  double sums[2] = {0.0, 0.0};
  double walls[2] = {0.0, 0.0};
  for (const int cfg : {0, 1}) {
    const bool prev = kern::simd::set_enabled(cfg == 1);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < reps; ++r) sums[cfg] += body();
    walls[cfg] = wall_ms_of(t0);
    kern::simd::set_enabled(prev);
  }
  c.counter("wall_scalar_ms", walls[0]);
  c.counter("wall_simd_ms", walls[1]);
  c.counter("scalar_over_simd", walls[0] / walls[1]);
  c.counter("checksum", sums[0]);
  c.counter("checksum_simd", sums[1]);
  return walls[1];
}

/// One trivial simulated step so --metrics reports carry the standard
/// engine snapshot (the gate's schema check requires engine.steps).
void attach_metrics(const bench::Harness& h, bench::Case& c) {
  if (!h.metrics()) return;
  Cube cube(1, CostParams::unit());
  cube.enable_metrics();
  DistBuffer<double> buf(cube, 8);
  cube.compute(8, [&](proc_t q) { kern::fill(buf.tile(q), 1.0); });
  c.metrics(cube.metrics(), cube.clock().now_us());
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("bench_kernels", argc, argv);
  const std::string backend = kern::simd::backend();

  for (std::size_t n : h.sizes({4096, 65536}, {4096})) {
    const auto nn = static_cast<std::int64_t>(n);
    // Fixed total traffic per configuration, independent of n.
    const std::size_t reps = (std::size_t{1} << 22) / n;

    h.run("fill", {{"n", nn}}, [&](bench::Case& c) {
      std::vector<double> dst = make_data(n, 11);
      time_both(c, reps, [&] {
        kern::fill(std::span<double>(dst), 3.25);
        clobber(dst.data());
        return dst[0];
      });
      attach_metrics(h, c);
      c.label(backend);
    });

    h.run("copy", {{"n", nn}}, [&](bench::Case& c) {
      const std::vector<double> src = make_data(n, 12);
      std::vector<double> dst(n, 0.0);
      time_both(c, reps, [&] {
        kern::copy(std::span<const double>(src), std::span<double>(dst));
        clobber(dst.data());
        return dst[n - 1];
      });
      attach_metrics(h, c);
      c.label(backend);
    });

    h.run("axpy", {{"n", nn}}, [&](bench::Case& c) {
      const std::vector<double> x = make_data(n, 13);
      std::vector<double> y = make_data(n, 14);
      time_both(c, reps, [&] {
        kern::axpy(std::span<double>(y), 1.0000001,
                   std::span<const double>(x));
        clobber(y.data());
        return y[n - 1];
      });
      attach_metrics(h, c);
      c.label(backend);
    });

    h.run("zip_add", {{"n", nn}}, [&](bench::Case& c) {
      const std::vector<double> src = make_data(n, 15);
      std::vector<double> dst = make_data(n, 16);
      time_both(c, reps, [&] {
        kern::zip(std::span<double>(dst), std::span<const double>(src),
                  kern::op_fn(Plus<double>{}));
        clobber(dst.data());
        return dst[n - 1];
      });
      attach_metrics(h, c);
      c.label(backend);
    });

    h.run("zip_max", {{"n", nn}}, [&](bench::Case& c) {
      const std::vector<double> src = make_data(n, 17);
      std::vector<double> dst = make_data(n, 18);
      time_both(c, reps, [&] {
        kern::zip(std::span<double>(dst), std::span<const double>(src),
                  kern::op_fn(Max<double>{}));
        clobber(dst.data());
        return dst[n - 1];
      });
      attach_metrics(h, c);
      c.label(backend);
    });

    // Row-block kernels: a square-ish tile with the same element count.
    h.run("dot_rows", {{"n", nn}}, [&](bench::Case& c) {
      const std::size_t lcn = 64, lrn = n / lcn;
      const std::vector<double> blk = make_data(lrn * lcn, 19);
      const std::vector<double> x = make_data(lcn, 20);
      std::vector<double> out(lrn, 0.0);
      time_both(c, reps, [&] {
        kern::dot_rows(std::span<const double>(blk), lrn, lcn,
                       std::span<const double>(x), std::span<double>(out));
        clobber(out.data());
        return out[lrn - 1];
      });
      attach_metrics(h, c);
      c.label(backend);
    });

    h.run("fold_rows_max", {{"n", nn}}, [&](bench::Case& c) {
      const std::size_t lcn = 64, lrn = n / lcn;
      const std::vector<double> blk = make_data(lrn * lcn, 21);
      std::vector<double> out(lrn, 0.0);
      const Max<double> op;
      time_both(c, reps, [&] {
        kern::fold_rows(std::span<const double>(blk), lrn, lcn,
                        op.identity(), std::span<double>(out),
                        kern::op_fn(op));
        clobber(out.data());
        return out[lrn - 1];
      });
      attach_metrics(h, c);
      c.label(backend);
    });

    h.run("dot_strict", {{"n", nn}}, [&](bench::Case& c) {
      const std::vector<double> a = make_data(n, 22);
      const std::vector<double> b = make_data(n, 23);
      time_both(c, reps, [&] {
        return kern::dot(std::span<const double>(a),
                         std::span<const double>(b));
      });
      attach_metrics(h, c);
      c.label(backend);
    });

    h.run("gather_scatter", {{"n", nn}}, [&](bench::Case& c) {
      const std::size_t stride = 8;
      const std::vector<double> src = make_data(n * stride, 26);
      std::vector<double> col(n, 0.0);
      std::vector<double> back(n * stride, 0.0);
      time_both(c, reps, [&] {
        kern::gather_strided(src.data(), stride, std::span<double>(col));
        kern::scatter_strided(std::span<const double>(col), back.data(),
                              stride);
        clobber(back.data());
        return col[n - 1];
      });
      attach_metrics(h, c);
      c.label(backend);
    });
  }

  // One processor's hyper-systolic phase update in mm_dragonfly's solve:
  // 48 C-partial rows of 384 (8 stored A copies of 6 rows), each adding the
  // 6 rows of one streamed 6 × 384 B panel scaled by its A row's slice.
  h.run("axpy_rows", {{"w", 6}, {"rows", 48}, {"n", 384}},
        [&](bench::Case& c) {
          const std::size_t w = 6, rows = 48, n = 384;
          const std::size_t reps = (std::size_t{1} << 22) / (rows * n);
          const std::vector<double> a = make_data(rows * w, 27);
          const std::vector<double> panel = make_data(w * n, 28);
          std::vector<double> cpart = make_data(rows * n, 29);
          const std::span<double> cs(cpart);
          const std::span<const double> as(a), ps(panel);
          const double simd_ms = time_both(c, reps, [&] {
            for (std::size_t r = 0; r < rows; ++r)
              kern::axpy_rows(cs.subspan(r * n, n), as.subspan(r * w, w), ps,
                              n);
            clobber(cpart.data());
            return cpart[rows * n - 1];
          });
          const bool prev = kern::simd::set_enabled(true);
          double loop_sum = 0.0;
          const auto t0 = std::chrono::steady_clock::now();
          for (std::size_t rep = 0; rep < reps; ++rep) {
            for (std::size_t r = 0; r < rows; ++r)
              for (std::size_t t = 0; t < w; ++t)
                kern::axpy(cs.subspan(r * n, n), a[r * w + t],
                           ps.subspan(t * n, n));
            clobber(cpart.data());
            loop_sum += cpart[rows * n - 1];
          }
          const double loop_ms = wall_ms_of(t0);
          kern::simd::set_enabled(prev);
          c.counter("axpy_loop_ms", loop_ms);
          c.counter("loop_over_rows", loop_ms / simd_ms);
          c.counter("checksum_loop", loop_sum);
          attach_metrics(h, c);
          c.label(backend);
        });
  return h.finish();
}
