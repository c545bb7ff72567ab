// Unit tests: the collective library against straight-line host references,
// swept over cube dimensions, subcube families and payload lengths.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <random>
#include <vector>

#include "comm/allport.hpp"
#include "comm/collectives.hpp"
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

TEST_P(CollectiveSweep, ReduceScatterThenAllgatherEqualsAllreduce) {
  const std::size_t n = GetParam().n;
  DistBuffer<double> buf(*cube);
  cube->each_proc([&](proc_t q) { buf.assign(q, payload(q, n)); });
  allreduce_rsag(*cube, buf, *sc, Plus<double>{});
  cube->each_proc([&](proc_t q) {
    ASSERT_EQ(buf.len(q), n);
    for (std::size_t t = 0; t < n; ++t) {
      double want = 0;
      for (proc_t peer : peers(q)) want += payload_at(peer, t);
      EXPECT_DOUBLE_EQ(buf.tile(q)[t], want);
    }
  });
}

TEST_P(CollectiveSweep, ReduceScatterBlocks) {
  const std::size_t n = GetParam().n;
  DistBuffer<double> buf(*cube);
  cube->each_proc([&](proc_t q) { buf.assign(q, payload(q, n)); });
  reduce_scatter(*cube, buf, *sc, Plus<double>{});
  const std::uint32_t P = sc->size();
  cube->each_proc([&](proc_t q) {
    const std::uint32_t r = sc->rank(q);
    ASSERT_EQ(buf.len(q), block_size(n, P, r));
    for (std::size_t s = 0; s < buf.len(q); ++s) {
      const std::size_t t = block_begin(n, P, r) + s;
      double want = 0;
      for (proc_t peer : peers(q)) want += payload_at(peer, t);
      EXPECT_DOUBLE_EQ(buf.tile(q)[s], want);
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

TEST_P(CollectiveSweep, AllgatherAssemblesInRankOrder) {
  const std::size_t n = GetParam().n;
  const std::uint32_t P = sc->size();
  DistBuffer<double> buf(*cube);
  // Block r of the reference is the slice of a global per-subcube vector.
  cube->each_proc([&](proc_t q) {
    const std::uint32_t r = sc->rank(q);
    const std::size_t b = block_begin(n, P, r);
    const std::size_t len = block_size(n, P, r);
    std::vector<double> piece(len);
    for (std::size_t s = 0; s < len; ++s)
      piece[s] = static_cast<double>(sc->subcube_id(q) * 100000 + b + s);
    buf.assign(q, piece);
  });
  allgather(*cube, buf, *sc, n);
  cube->each_proc([&](proc_t q) {
    ASSERT_EQ(buf.len(q), n);
    for (std::size_t t = 0; t < n; ++t)
      EXPECT_DOUBLE_EQ(buf.tile(q)[t],
                       static_cast<double>(sc->subcube_id(q) * 100000 + t));
  });
}

TEST_P(CollectiveSweep, ReduceToEveryRank) {
  const std::size_t n = GetParam().n;
  for (std::uint32_t root = 0; root < sc->size();
       root += std::max<std::uint32_t>(1, sc->size() / 4)) {
    DistBuffer<double> buf(*cube);
    cube->each_proc([&](proc_t q) { buf.assign(q, payload(q, n)); });
    reduce_to_rank(*cube, buf, *sc, Plus<double>{}, root);
    cube->each_proc([&](proc_t q) {
      if (sc->rank(q) != root) return;
      for (std::size_t t = 0; t < n; ++t) {
        double want = 0;
        for (proc_t peer : peers(q)) want += payload_at(peer, t);
        EXPECT_DOUBLE_EQ(buf.tile(q)[t], want);
      }
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

TEST_P(CollectiveSweep, InclusiveScanMatchesPrefixSums) {
  const std::size_t n = GetParam().n;
  DistBuffer<double> buf(*cube);
  cube->each_proc([&](proc_t q) { buf.assign(q, payload(q, n)); });
  scan_inclusive(*cube, buf, *sc, Plus<double>{});
  cube->each_proc([&](proc_t q) {
    const std::uint32_t r = sc->rank(q);
    for (std::size_t t = 0; t < n; ++t) {
      double want = 0;
      for (std::uint32_t rr = 0; rr <= r; ++rr)
        want += payload_at(sc->with_rank(q, rr), t);
      EXPECT_DOUBLE_EQ(buf.tile(q)[t], want);
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

// The segment pipelines against their one-segment references, bit for
// bit: every root, S ∈ {1, 2, 3, k, n, n+1}, on uniform lengths and on
// lengths that differ between subcubes (each distinct length gets its own
// segment cuts in the pipeline's table).

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

TEST_P(CollectiveSweep, AllreducePipelinedMatchesDoubling) {
  const std::size_t n = GetParam().n;
  const auto check = [&](auto op, auto value, bool ragged) {
    using V = decltype(value(proc_t{0}, std::size_t{0}));
    const auto filled = [&] {
      DistBuffer<V> buf(*cube);
      cube->each_proc([&](proc_t q) {
        std::vector<V> v(subcube_len(*sc, q, n, ragged));
        for (std::size_t t = 0; t < v.size(); ++t) v[t] = value(q, t);
        buf.assign(q, v);
      });
      return buf;
    };
    DistBuffer<V> want = filled();
    allreduce(*cube, want, *sc, op);
    for (const std::uint32_t S : segment_counts(sc->k(), n)) {
      DistBuffer<V> got = filled();
      allreduce_pipelined(*cube, got, *sc, op, S);
      cube->each_proc([&](proc_t q) {
        EXPECT_TRUE(same_bits(got.host_vec(q), want.host_vec(q)))
            << "q=" << q << " S=" << S << " ragged=" << ragged;
      });
    }
  };
  for (const bool ragged : {false, true}) {
    check(Plus<double>{}, order_sensitive, ragged);
    check(MaxLoc<double>{}, tied, ragged);
  }
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

}  // namespace
}  // namespace vmp
