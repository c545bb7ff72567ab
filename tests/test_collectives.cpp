// Unit tests: the collective library against straight-line host references,
// swept over cube dimensions, subcube families and payload lengths.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "comm/allport.hpp"
#include "comm/collectives.hpp"
#include "fault/fault.hpp"
#include "hypercube/machine.hpp"
#include "param_printers.hpp"

namespace vmp {
namespace {

// Deterministic per-processor payloads; the host references read single
// elements through payload_at rather than building a payload per element.
double payload_at(proc_t q, std::size_t t) {
  return static_cast<double>((q + 1) * 1000 + t);
}

std::vector<double> payload(proc_t q, std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t t = 0; t < n; ++t) v[t] = payload_at(q, t);
  return v;
}

struct Case {
  int cube_dim;
  int mask_lo;
  int mask_k;
  std::size_t n;
};

void PrintTo(const Case& c, std::ostream* os) {
  *os << "d" << c.cube_dim << " lo" << c.mask_lo << " k" << c.mask_k << " n"
      << c.n;
}

class CollectiveSweep : public ::testing::TestWithParam<Case> {
 protected:
  void SetUp() override {
    const Case c = GetParam();
    cube = std::make_unique<Cube>(c.cube_dim, CostParams::unit());
    sc = std::make_unique<SubcubeSet>(
        SubcubeSet::contiguous(c.mask_lo, c.mask_k).mask());
  }

  // Host reference: for each processor, the list of subcube peers in rank
  // order.
  std::vector<proc_t> peers(proc_t q) const {
    std::vector<proc_t> out(sc->size());
    for (std::uint32_t r = 0; r < sc->size(); ++r) out[r] = sc->with_rank(q, r);
    return out;
  }

  std::unique_ptr<Cube> cube;
  std::unique_ptr<SubcubeSet> sc;
};

TEST_P(CollectiveSweep, AllreduceSum) {
  const std::size_t n = GetParam().n;
  DistBuffer<double> buf(*cube);
  cube->each_proc([&](proc_t q) { buf.assign(q, payload(q, n)); });
  allreduce(*cube, buf, *sc, Plus<double>{});
  cube->each_proc([&](proc_t q) {
    for (std::size_t t = 0; t < n; ++t) {
      double want = 0;
      for (proc_t peer : peers(q)) want += payload_at(peer, t);
      EXPECT_DOUBLE_EQ(buf.tile(q)[t], want) << "q=" << q << " t=" << t;
    }
  });
}

TEST_P(CollectiveSweep, AllreduceMin) {
  const std::size_t n = GetParam().n;
  DistBuffer<double> buf(*cube);
  cube->each_proc([&](proc_t q) { buf.assign(q, payload(q, n)); });
  allreduce(*cube, buf, *sc, Min<double>{});
  cube->each_proc([&](proc_t q) {
    for (std::size_t t = 0; t < n; ++t) {
      double want = std::numeric_limits<double>::max();
      for (proc_t peer : peers(q)) want = std::min(want, payload_at(peer, t));
      EXPECT_DOUBLE_EQ(buf.tile(q)[t], want);
    }
  });
}

TEST_P(CollectiveSweep, BroadcastFromEveryRoot) {
  const std::size_t n = GetParam().n;
  for (std::uint32_t root = 0; root < sc->size();
       root += std::max<std::uint32_t>(1, sc->size() / 4)) {
    DistBuffer<double> buf(*cube);
    cube->each_proc([&](proc_t q) {
      if (sc->rank(q) == root) buf.assign(q, payload(q, n));
    });
    broadcast(*cube, buf, *sc, root);
    cube->each_proc([&](proc_t q) {
      const proc_t holder = sc->with_rank(q, root);
      EXPECT_EQ(buf.host_vec(q), payload(holder, n)) << "q=" << q;
    });
  }
}

TEST_P(CollectiveSweep, BroadcastSagFromEveryRoot) {
  const std::size_t n = GetParam().n;
  for (std::uint32_t root = 0; root < sc->size();
       root += std::max<std::uint32_t>(1, sc->size() / 4)) {
    DistBuffer<double> buf(*cube);
    cube->each_proc([&](proc_t q) {
      if (sc->rank(q) == root) buf.assign(q, payload(q, n));
    });
    broadcast_sag(*cube, buf, *sc, root, [n](proc_t) { return n; });
    cube->each_proc([&](proc_t q) {
      const proc_t holder = sc->with_rank(q, root);
      EXPECT_EQ(buf.host_vec(q), payload(holder, n)) << "q=" << q;
    });
  }
}

TEST_P(CollectiveSweep, ExclusiveScanMatchesPrefixSums) {
  const std::size_t n = GetParam().n;
  DistBuffer<double> buf(*cube);
  cube->each_proc([&](proc_t q) { buf.assign(q, payload(q, n)); });
  scan_exclusive(*cube, buf, *sc, Plus<double>{});
  cube->each_proc([&](proc_t q) {
    const std::uint32_t r = sc->rank(q);
    for (std::size_t t = 0; t < n; ++t) {
      double want = 0;
      for (std::uint32_t rr = 0; rr < r; ++rr)
        want += payload_at(sc->with_rank(q, rr), t);
      EXPECT_DOUBLE_EQ(buf.tile(q)[t], want) << "q=" << q << " t=" << t;
    }
  });
}

TEST_P(CollectiveSweep, RouteWithinDeliversEverything) {
  const std::size_t n = GetParam().n;
  DistBuffer<RouteItem<double>> items(cube->procs() ? *cube : *cube);
  std::mt19937 rng(42);
  std::vector<std::vector<std::pair<std::uint64_t, double>>> expected(
      cube->procs());
  cube->each_proc([&](proc_t q) {
    for (std::size_t t = 0; t < n; ++t) {
      const std::uint32_t r =
          static_cast<std::uint32_t>(rng()) & (sc->size() - 1);
      const proc_t dst = sc->with_rank(q, r);
      const double val = static_cast<double>(q * 1000 + t);
      items.push_back(q, RouteItem<double>{dst, t, val});
      expected[dst].push_back({t, val});
    }
  });
  route_within(*cube, items, *sc);
  cube->each_proc([&](proc_t q) {
    ASSERT_EQ(items.len(q), expected[q].size()) << "q=" << q;
    std::vector<std::pair<std::uint64_t, double>> got;
    for (const auto& it : items.tile(q)) got.push_back({it.tag, it.value});
    std::sort(got.begin(), got.end());
    std::sort(expected[q].begin(), expected[q].end());
    EXPECT_EQ(got, expected[q]);
  });
}

TEST_P(CollectiveSweep, SimulatedTimeAdvancesForRealWork) {
  const std::size_t n = GetParam().n;
  if (sc->k() == 0 || n == 0) return;
  DistBuffer<double> buf(*cube);
  cube->each_proc([&](proc_t q) { buf.assign(q, payload(q, n)); });
  const double before = cube->clock().now_us();
  allreduce(*cube, buf, *sc, Plus<double>{});
  EXPECT_GT(cube->clock().now_us(), before);
  EXPECT_EQ(cube->clock().stats().comm_steps,
            static_cast<std::uint64_t>(sc->k()));
}

// The segment pipelines against their one-segment references, and
// reduce-scatter + all-gather against the doubling, bit for bit: every
// root, S ∈ {1, 2, 3, k, n, n+1}, on uniform lengths and on lengths that
// differ between subcubes (each distinct length gets its own segment cuts
// in the pipeline's table and its own blocks in the halving rounds).

/// Payload length of q's subcube: n, or n plus a per-subcube offset.
std::size_t subcube_len(const SubcubeSet& sc, proc_t q, std::size_t n,
                        bool ragged) {
  return ragged ? n + static_cast<std::size_t>(
                          std::popcount(sc.subcube_id(q)) % 3)
                : n;
}

/// The distinct segment counts S ∈ {1, 2, 3, k, n, n+1} that are ≥ 1.
std::vector<std::uint32_t> segment_counts(int k, std::size_t n) {
  std::vector<std::uint32_t> out;
  for (const std::size_t s :
       {std::size_t{1}, std::size_t{2}, std::size_t{3},
        static_cast<std::size_t>(k), n, n + 1}) {
    const auto S = static_cast<std::uint32_t>(s);
    if (S >= 1 && std::find(out.begin(), out.end(), S) == out.end())
      out.push_back(S);
  }
  return out;
}

/// Byte-for-byte equality of two tiles (tells -0.0 from +0.0).
template <class T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/// Sums whose rounding depends on the combining order.
double order_sensitive(proc_t q, std::size_t t) {
  return (q % 3 == 0 ? 1e16 : 1.0) * (1.0 + 0.1 * static_cast<double>(t)) /
         static_cast<double>(q + 1);
}

/// MaxLoc operands that tie on value (signed zeros) and pairwise on index,
/// so only the combining order decides which sign survives.
ValueIndex<double> tied(proc_t q, std::size_t t) {
  return {(q + t) % 3 == 0 ? -0.0 : 0.0,
          static_cast<std::int64_t>((q + t) % 2)};
}

TEST_P(CollectiveSweep, BroadcastPipelinedMatchesBinomialFromEveryRoot) {
  const std::size_t n = GetParam().n;
  for (const bool ragged : {false, true}) {
    const auto n_of = [&](proc_t q) {
      return subcube_len(*sc, q, n, ragged);
    };
    const auto rooted = [&](std::uint32_t root) {
      DistBuffer<double> buf(*cube);
      cube->each_proc([&](proc_t q) {
        if (sc->rank(q) == root) buf.assign(q, payload(q, n_of(q)));
      });
      return buf;
    };
    for (std::uint32_t root = 0; root < sc->size(); ++root) {
      DistBuffer<double> want = rooted(root);
      broadcast(*cube, want, *sc, root);
      for (const std::uint32_t S : segment_counts(sc->k(), n)) {
        DistBuffer<double> got = rooted(root);
        broadcast_pipelined(*cube, got, *sc, root, n_of, S);
        cube->each_proc([&](proc_t q) {
          EXPECT_TRUE(same_bits(got.host_vec(q), want.host_vec(q)))
              << "q=" << q << " root=" << root << " S=" << S
              << " ragged=" << ragged;
        });
      }
    }
  }
}

// Every broadcast backend, from every root, over families in which some
// subcubes' payloads are empty and every non-root member holds stale data
// of its own length: each member ends with its root's payload, so an empty
// payload leaves the whole subcube empty.  (The binomial tree used to skip
// empty messages and let a later holder forward its stale tile.)
TEST_P(CollectiveSweep, BroadcastsOverwriteStaleMembersEvenWithEmptyRoots) {
  const std::size_t n = GetParam().n;
  // Subcubes of odd popcount carry n + 1 elements, the others none (the
  // whole cube is subcube 0).
  const auto n_of = [&](proc_t q) -> std::size_t {
    return std::popcount(sc->subcube_id(q)) % 2 == 1 ? n + 1 : 0;
  };
  bool every_payload_empty = true;
  cube->each_proc([&](proc_t q) { every_payload_empty &= n_of(q) == 0; });
  for (std::uint32_t root = 0; root < sc->size(); ++root) {
    const auto seeded = [&] {
      DistBuffer<double> buf(*cube);
      buf.reserve_each(std::max<std::size_t>(n + 1, 5));
      cube->each_proc([&](proc_t q) {
        if (sc->rank(q) == root)
          buf.assign(q, payload(q, n_of(q)));
        else
          buf.assign(q, 3 + q % 3, -1.0 - q);
      });
      return buf;
    };
    const auto run = [&](const char* what, auto collective) {
      DistBuffer<double> buf = seeded();
      const double before = cube->clock().now_us();
      collective(buf);
      cube->each_proc([&](proc_t q) {
        const proc_t holder = sc->with_rank(q, root);
        EXPECT_EQ(buf.host_vec(q), payload(holder, n_of(holder)))
            << what << " q=" << q << " root=" << root;
      });
      if (every_payload_empty)
        EXPECT_EQ(cube->clock().now_us(), before) << what << " root=" << root;
    };
    run("binomial", [&](auto& b) { broadcast(*cube, b, *sc, root); });
    run("sag", [&](auto& b) { broadcast_sag(*cube, b, *sc, root, n_of); });
    run("pipelined",
        [&](auto& b) { broadcast_pipelined(*cube, b, *sc, root, n_of, 2); });
    run("esbt", [&](auto& b) { broadcast_esbt(*cube, b, *sc, root, n_of); });
    run("auto", [&](auto& b) { broadcast_auto(*cube, b, *sc, root, n_of); });
  }
}

/// `backend(buf, op)` against the doubling, bit for bit: order-sensitive
/// sums and tied MaxLocs, on uniform and on ragged lengths.
template <class Backend>
void expect_doubling_bits(Cube& cube, const SubcubeSet& sc, std::size_t n,
                          Backend backend) {
  const auto check = [&](auto op, auto value, bool ragged) {
    using V = decltype(value(proc_t{0}, std::size_t{0}));
    const auto filled = [&] {
      DistBuffer<V> buf(cube);
      cube.each_proc([&](proc_t q) {
        std::vector<V> v(subcube_len(sc, q, n, ragged));
        for (std::size_t t = 0; t < v.size(); ++t) v[t] = value(q, t);
        buf.assign(q, v);
      });
      return buf;
    };
    DistBuffer<V> want = filled();
    allreduce(cube, want, sc, op);
    DistBuffer<V> got = filled();
    backend(got, op);
    cube.each_proc([&](proc_t q) {
      EXPECT_TRUE(same_bits(got.host_vec(q), want.host_vec(q)))
          << "q=" << q << " ragged=" << ragged;
    });
  };
  for (const bool ragged : {false, true}) {
    check(Plus<double>{}, order_sensitive, ragged);
    check(MaxLoc<double>{}, tied, ragged);
  }
}

TEST_P(CollectiveSweep, AllreducePipelinedMatchesDoubling) {
  for (const std::uint32_t S : segment_counts(sc->k(), GetParam().n)) {
    SCOPED_TRACE("S=" + std::to_string(S));
    expect_doubling_bits(*cube, *sc, GetParam().n, [&](auto& buf, auto op) {
      allreduce_pipelined(*cube, buf, *sc, op, S);
    });
  }
}

TEST_P(CollectiveSweep, ReduceScatterThenAllgatherEqualsAllreduce) {
  expect_doubling_bits(*cube, *sc, GetParam().n, [&](auto& buf, auto op) {
    allreduce_rsag(*cube, buf, *sc, op);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CollectiveSweep,
    ::testing::Values(Case{0, 0, 0, 4}, Case{1, 0, 1, 1}, Case{3, 0, 3, 8},
                      Case{3, 1, 2, 5}, Case{4, 0, 4, 16}, Case{4, 2, 2, 7},
                      Case{5, 0, 5, 33}, Case{5, 1, 3, 2}, Case{6, 0, 6, 10},
                      Case{6, 3, 3, 64}, Case{4, 0, 4, 3}, Case{4, 0, 4, 0},
                      Case{5, 2, 3, 1}, Case{7, 0, 7, 129}, Case{7, 2, 4, 6},
                      Case{8, 0, 8, 5}, Case{8, 3, 5, 40},
                      Case{6, 0, 6, 1000}));

// ---------------------------------------------------------------------------
// AllreduceTwin: every all-reduce backend charges its rounds over the
// members' tiles (Cube::exchange_views) and folds each subcube once in one
// deliver step.  The twins are the staged bodies they replaced, kept here
// as references: rounds in which every member sends (a range of) its tile
// and combines what arrives (the high side taking the remote value as the
// op's left argument), each followed by the same compute charge.  Every
// call's tiles must match byte for byte — NaN payloads, signed zeros and
// MaxLoc/MinLoc ties included — the staged body's for the doubling and the
// pipeline, and the staged doubling's for reduce-scatter + all-gather,
// whose halving rounds combined in another order; so must the clock after
// every call and, at the end, the trace and every SimStats field but the
// three pool counters (staged rounds stage through the slots, the walk
// does not).
// ---------------------------------------------------------------------------

template <class T, class Op>
void staged_allreduce(Cube& cube, DistBuffer<T>& buf, const SubcubeSet& sc,
                      Op op) {
  if (sc.k() == 0) return;
  VMP_TRACE(cube, "allreduce");
  const auto batch = cube.session();
  const std::size_t n = max_local_len(cube, buf);
  for (int i = 0; i < sc.k(); ++i) {
    const int d = sc.dim_of_rank_bit(i);
    cube.exchange<T>(
        d, [&](proc_t q) -> std::span<const T> { return buf.tile(q); },
        [&](proc_t q, std::span<const T> in) {
          if (bit_of(q, d) != 0)
            kern::zip_swapped(buf.tile(q), in, kern::op_fn(op));
          else
            kern::zip(buf.tile(q), in, kern::op_fn(op));
        });
    cube.clock().charge_compute_step(n, n * cube.procs());
  }
}

/// Recursive halving: on exit the member with rank r holds the combined
/// block r of its subcube's array.
template <class T, class Op>
void staged_reduce_scatter(Cube& cube, DistBuffer<T>& buf,
                           const SubcubeSet& sc, Op op) {
  VMP_TRACE(cube, "reduce_scatter");
  const auto batch = cube.session();
  const std::uint32_t P = sc.size();
  std::vector<std::size_t> n_of(cube.procs());
  for (proc_t q = 0; q < cube.procs(); ++q) n_of[q] = buf.len(q);
  std::vector<unsigned char> got(cube.procs());
  for (int j = sc.k() - 1; j >= 0; --j) {
    const int d = sc.dim_of_rank_bit(j);
    const std::uint32_t half = 1u << j;
    const std::uint32_t width = half << 1;
    // (rank, seg_lo, split, seg_hi) of the range q covers at this level.
    const auto geometry = [&](proc_t q) {
      const std::size_t n = n_of[q];
      const std::uint32_t r = sc.rank(q);
      const std::uint32_t lo_rank = r & ~(width - 1);
      return std::tuple{r, block_begin(n, P, lo_rank),
                        block_begin(n, P, lo_rank + half),
                        block_begin(n, P, lo_rank + width)};
    };
    std::size_t max_kept = 0;
    std::uint64_t total_combines = 0;
    for (proc_t q = 0; q < cube.procs(); ++q) {
      const auto [r, seg_lo, split, seg_hi] = geometry(q);
      const std::size_t kept =
          ((r >> j) & 1u) == 0 ? split - seg_lo : seg_hi - split;
      max_kept = std::max(max_kept, kept);
      total_combines += kept;
    }
    std::fill(got.begin(), got.end(), 0);
    cube.exchange<T>(
        d,
        [&](proc_t q) -> std::span<const T> {
          const auto [r, seg_lo, split, seg_hi] = geometry(q);
          const std::span<const T> mine = buf.tile(q);
          if (((r >> j) & 1u) == 0) return mine.subspan(split - seg_lo);
          return mine.first(split - seg_lo);
        },
        [&](proc_t q, std::span<const T> in) {
          const auto [r, seg_lo, split, seg_hi] = geometry(q);
          const std::span<T> mine = buf.tile(q);
          const bool low = ((r >> j) & 1u) == 0;
          const std::size_t kept_off = low ? 0 : split - seg_lo;
          const std::size_t kept_len = low ? split - seg_lo : seg_hi - split;
          for (std::size_t t = 0; t < kept_len; ++t) {
            const T& a = mine[kept_off + t];
            mine[t] = low ? op.combine(a, in[t]) : op.combine(in[t], a);
          }
          buf.resize(q, kept_len);
          got[q] = 1;
        });
    // The partner's copy of the kept block was empty: shrink, uncombined.
    cube.each_proc([&](proc_t q) {
      if (got[q]) return;
      const auto [r, seg_lo, split, seg_hi] = geometry(q);
      const std::span<T> mine = buf.tile(q);
      const bool low = ((r >> j) & 1u) == 0;
      const std::size_t kept_off = low ? 0 : split - seg_lo;
      const std::size_t kept_len = low ? split - seg_lo : seg_hi - split;
      if (kept_off != 0)
        kern::copy(std::span<const T>(mine.subspan(kept_off, kept_len)),
                   mine.first(kept_len));
      buf.resize(q, kept_len);
    });
    cube.clock().charge_compute_step(max_kept, total_combines);
  }
}

/// Recursive doubling of the blocks: every member ends with n_of[q].
template <class T>
void staged_allgather(Cube& cube, DistBuffer<T>& buf, const SubcubeSet& sc,
                      const std::vector<std::size_t>& n_of) {
  VMP_TRACE(cube, "allgather");
  const auto batch = cube.session();
  buf.reserve_each(*std::max_element(n_of.begin(), n_of.end()));
  for (int j = 0; j < sc.k(); ++j) {
    const int d = sc.dim_of_rank_bit(j);
    cube.exchange<T>(
        d, [&](proc_t q) -> std::span<const T> { return buf.tile(q); },
        [&](proc_t q, std::span<const T> in) {
          if (((sc.rank(q) >> j) & 1u) == 0) {
            buf.append(q, in);
          } else {
            buf.prepend(q, in);
          }
        });
  }
}

template <class T, class Op>
void staged_rsag(Cube& cube, DistBuffer<T>& buf, const SubcubeSet& sc,
                 Op op) {
  if (sc.k() == 0) return;
  VMP_TRACE(cube, "allreduce_rsag");
  const auto batch = cube.session();
  std::vector<std::size_t> n_of(cube.procs());
  for (proc_t q = 0; q < cube.procs(); ++q) n_of[q] = buf.len(q);
  staged_reduce_scatter(cube, buf, sc, op);
  staged_allgather(cube, buf, sc, n_of);
}

/// Segment s runs doubling step i in round s + i, one all-port exchange
/// per round over the active segments' dimensions.
template <class T, class Op>
void staged_pipelined(Cube& cube, DistBuffer<T>& buf, const SubcubeSet& sc,
                      Op op, std::uint32_t S) {
  if (sc.k() == 0) return;
  VMP_TRACE(cube, "allreduce_pipelined");
  const auto batch = cube.session();
  const int k = sc.k();
  const detail::SegmentTable geo(cube.procs(), S, [&](std::size_t q) {
    return buf.len(static_cast<proc_t>(q));
  });
  std::array<int, detail::kMaxPipelinePorts> dims{};
  std::array<std::uint32_t, detail::kMaxPipelinePorts> segs{};
  for (int t = 0; t < k + static_cast<int>(S) - 1; ++t) {
    const std::uint32_t s_lo =
        t >= k ? static_cast<std::uint32_t>(t - k + 1) : 0;
    const std::uint32_t s_hi =
        std::min<std::uint32_t>(S - 1, static_cast<std::uint32_t>(t));
    std::size_t ports = 0;
    for (std::uint32_t s = s_lo; s <= s_hi; ++s, ++ports) {
      dims[ports] = sc.dim_of_rank_bit(t - static_cast<int>(s));
      segs[ports] = s;
    }
    cube.exchange_allport<T>(
        std::span<const int>(dims.data(), ports),
        [&](proc_t q, std::size_t idx) -> std::span<const T> {
          return geo.segment(std::span<const T>(buf.tile(q)), q, segs[idx]);
        },
        [&](proc_t q, std::size_t idx, std::span<const T> in) {
          const std::span<T> seg = geo.segment(buf.tile(q), q, segs[idx]);
          if (bit_of(q, dims[idx]) != 0)
            kern::zip_swapped(seg, in, kern::op_fn(op));
          else
            kern::zip(seg, in, kern::op_fn(op));
        });
    std::size_t max_comb = 0;
    std::uint64_t total_comb = 0;
    for (proc_t q = 0; q < cube.procs(); ++q) {
      const std::size_t len = geo.cut(q, s_hi + 1) - geo.cut(q, s_lo);
      max_comb = std::max(max_comb, len);
      total_comb += len;
    }
    cube.clock().charge_compute_step(max_comb, total_comb);
  }
}

/// One backend under test: the library call and its staged reference.
struct TwinBackend {
  enum Kind { Doubling, Rsag, Pipelined } kind = Doubling;
  std::uint32_t nseg = 1;  ///< segments, for Pipelined

  template <class T, class Op>
  void library(Cube& cube, DistBuffer<T>& buf, const SubcubeSet& sc,
               Op op) const {
    if (kind == Doubling) allreduce(cube, buf, sc, op);
    if (kind == Rsag) allreduce_rsag(cube, buf, sc, op);
    if (kind == Pipelined) allreduce_pipelined(cube, buf, sc, op, nseg);
  }
  template <class T, class Op>
  void staged(Cube& cube, DistBuffer<T>& buf, const SubcubeSet& sc,
              Op op) const {
    if (kind == Doubling) staged_allreduce(cube, buf, sc, op);
    if (kind == Rsag) staged_rsag(cube, buf, sc, op);
    if (kind == Pipelined) staged_pipelined(cube, buf, sc, op, nseg);
  }
};

[[nodiscard]] SimStats without_pool_counters(SimStats s) {
  s.pool_hits = s.pool_misses = s.alloc_bytes = 0;
  return s;
}

/// Element t of processor q: quiet NaNs with payloads naming (q, t),
/// signed zeros, infinities and ordinary values.
[[nodiscard]] double twin_value(proc_t q, std::size_t t) {
  switch ((q * 7 + t * 3) % 8) {
    case 0: return std::bit_cast<double>(0x7ff8000000000000ULL | (q << 8) | t);
    case 1: return -0.0;
    case 2: return +0.0;
    case 3: return std::bit_cast<double>(0xfff8000000000000ULL | (t << 8) | q);
    case 4: return std::numeric_limits<double>::infinity();
    case 5: return 1.5;
    case 6: return -static_cast<double>(q) - 0.25 * static_cast<double>(t);
    default: return static_cast<double>(q % 3) * 0.75;
  }
}

/// Values with ties (equal values at different indices, equal indices).
[[nodiscard]] ValueIndex<double> twin_loc(proc_t q, std::size_t t) {
  const double values[] = {1.0, -0.0, 2.0, +0.0, 2.0};
  return {values[(q + t) % 5], static_cast<std::int64_t>((q * 3 + t) % 7)};
}

struct AllreduceTwinTally {
  int calls = 0;
  int throws = 0;
  std::uint64_t retries = 0;
};

/// `lib` runs the backend, `ref` its staged body and `plain` the staged
/// doubling, each on q's len(q) values.
template <class T, class Op, class ValueFn, class LenFn>
void run_allreduce_twin_op(Cube& lib, Cube& ref, Cube& plain,
                           const SubcubeSet& sc, TwinBackend backend,
                           LenFn len, Op op, ValueFn value,
                           AllreduceTwinTally& tally) {
  DistBuffer<T> a(lib), b(ref), c(plain);
  std::vector<std::vector<T>> before;
  for (proc_t q = 0; q < lib.procs(); ++q) {
    std::vector<T> v(len(q));
    for (std::size_t t = 0; t < v.size(); ++t) v[t] = value(q, t);
    before.push_back(v);
  }
  for (DistBuffer<T>* buf : {&a, &b, &c})
    for (proc_t q = 0; q < lib.procs(); ++q) buf->assign(q, before[q]);
  bool lib_threw = false, ref_threw = false;
  try {
    backend.library(lib, a, sc, op);
  } catch (const FaultError&) {
    lib_threw = true;
  }
  try {
    backend.staged(ref, b, sc, op);
  } catch (const FaultError&) {
    ref_threw = true;
  }
  staged_allreduce(plain, c, sc, op);
  ++tally.calls;
  tally.throws += lib_threw ? 1 : 0;
  ASSERT_EQ(lib_threw, ref_threw);
  // A failed call leaves the library's tiles as they were; the staged
  // reference's hold earlier rounds' partial results.
  const DistBuffer<T>& done = backend.kind == TwinBackend::Rsag ? c : b;
  for (proc_t q = 0; q < lib.procs(); ++q) {
    const std::vector<T> want = lib_threw ? before[q] : done.host_vec(q);
    ASSERT_EQ(a.len(q), want.size()) << "q=" << q;
    if (!want.empty())
      EXPECT_EQ(
          std::memcmp(a.tile(q).data(), want.data(), want.size() * sizeof(T)),
          0)
          << "q=" << q;
  }
  ASSERT_EQ(lib.clock().now_us(), ref.clock().now_us());
}

void run_allreduce_twin(TopologyKind kind, std::uint32_t mask,
                        TwinBackend backend, std::size_t n, bool ragged,
                        unsigned lanes, bool transient, bool simd,
                        AllreduceTwinTally& tally) {
  const bool simd_was = kern::simd::set_enabled(simd);
  Cube::Options opts;
  opts.threads = lanes;
  opts.topology = kind;
  Cube lib(6, CostParams::cm2(), opts), ref(6, CostParams::cm2(), opts);
  Cube plain(6, CostParams::unit(), Cube::Options{1});
  for (Cube* cube : {&lib, &ref}) {
    if (transient)
      cube->enable_faults(
          FaultPlan::transient(0xa11du + mask, 0.05, 0.05, 0.05, 2.5));
    cube->clock().tracer().set_recording(true);
  }
  const SubcubeSet sc(mask);
  const auto len = [&](proc_t q) { return subcube_len(sc, q, n, ragged); };
  const auto run = [&](auto op, auto value) {
    using T = decltype(value(proc_t{0}, std::size_t{0}));
    run_allreduce_twin_op<T>(lib, ref, plain, sc, backend, len, op, value,
                             tally);
  };
  run(Plus<double>{}, twin_value);
  run(Multiply<double>{}, twin_value);
  run(Max<double>{}, twin_value);
  run(Min<double>{}, twin_value);
  run(MaxLoc<double>{}, twin_loc);
  run(MinLoc<double>{}, twin_loc);
  const Tracer& tl = lib.clock().tracer();
  const Tracer& tr = ref.clock().tracer();
  EXPECT_TRUE(tl.paths() == tr.paths());
  EXPECT_TRUE(tl.events() == tr.events());
  EXPECT_TRUE(without_pool_counters(lib.clock().stats()) ==
              without_pool_counters(ref.clock().stats()));
  tally.retries += lib.clock().stats().fault_retries;
  kern::simd::set_enabled(simd_was);
}

/// Grid rows and columns of an 8 × 8 grid, every other dimension, and the
/// whole cube; lengths 0, 1, 3, 37 and P − 1 (fewer elements than blocks
/// for the halving rounds), uniform and differing between subcubes; lanes
/// 1 and 3, with and without a transient plan, SIMD on and off, six ops.
/// `backends(k)` lists the backends to run on a k-dimensional family.
template <class BackendsFn>
void sweep_allreduce_twin(TopologyKind kind, BackendsFn backends) {
  AllreduceTwinTally tally;
  int expected = 0;
  for (const std::uint32_t mask : {0x7u, 0x38u, 0x15u, 0x3fu}) {
    const SubcubeSet sc(mask);
    for (const TwinBackend backend : backends(sc.k()))
      for (const std::size_t n :
           {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{37},
            std::size_t{sc.size() - 1}})
        for (const bool ragged : {false, true})
          for (const unsigned lanes : {1u, 3u})
            for (const bool transient : {false, true})
              for (const bool simd : {false, true}) {
                SCOPED_TRACE("mask=" + std::to_string(mask) +
                             " S=" + std::to_string(backend.nseg) +
                             " n=" + std::to_string(n) +
                             (ragged ? " ragged" : " uniform") +
                             " lanes=" + std::to_string(lanes) +
                             (transient ? " transient" : " clean") +
                             (simd ? " simd" : " scalar"));
                run_allreduce_twin(kind, mask, backend, n, ragged, lanes,
                                   transient, simd, tally);
                expected += 6;
              }
  }
  EXPECT_EQ(tally.calls, expected);
  EXPECT_GT(tally.retries, 0u) << "the transient plan must fire";
}

class AllreduceTwin : public ::testing::TestWithParam<TopologyKind> {};

TEST_P(AllreduceTwin, ChargeWalkAndFoldMatchTheStagedDoubling) {
  sweep_allreduce_twin(GetParam(), [](int) {
    return std::vector<TwinBackend>{{TwinBackend::Doubling}};
  });
}

TEST_P(AllreduceTwin, RsagWalkMatchesTheStagedHalvingAndGathering) {
  sweep_allreduce_twin(GetParam(), [](int) {
    return std::vector<TwinBackend>{{TwinBackend::Rsag}};
  });
}

TEST_P(AllreduceTwin, PipelinedWalkMatchesTheStagedPipeline) {
  sweep_allreduce_twin(GetParam(), [](int k) {
    const auto S = static_cast<std::uint32_t>(k + 1);
    return std::vector<TwinBackend>{{TwinBackend::Pipelined, 2},
                                    {TwinBackend::Pipelined, 3},
                                    {TwinBackend::Pipelined, S}};
  });
}

INSTANTIATE_TEST_SUITE_P(
    Presets, AllreduceTwin,
    ::testing::Values(TopologyKind::Hypercube, TopologyKind::Mesh,
                      TopologyKind::Torus, TopologyKind::Dragonfly),
    [](const ::testing::TestParamInfo<TopologyKind>& info) {
      return std::string(to_string(info.param));
    });

}  // namespace
}  // namespace vmp
