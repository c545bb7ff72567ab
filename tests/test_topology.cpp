// Topology conformance battery (tentpole check of the topology-parametric
// machine core) and the hypercube twin sweep.
//
// Conformance, on every preset (hypercube / mesh / torus / dragonfly,
// minimal and Valiant): neighbor symmetry, link enumeration completeness,
// minimal-route validity and termination, min_first_ports minimality,
// route_avoiding correctness under killed links and nodes, and the charge
// decomposition (comm + compute + router + host == now_us) of a real
// workload on each preset.
//
// The twin sweep is the API-redesign contract: the hypercube preset IS the
// historical machine.  A cube built through the seed-era two-argument
// constructor (no Options, VMP_TOPOLOGY cleared) and one built with an
// explicit `Options{.topology = Hypercube}` must be bit-identical in
// results, simulated clock, SimStats and charge-for-charge event traces,
// with and without a fault plan.  Results (never charges) must also be
// identical across every other preset — algorithms are topology-blind.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <queue>
#include <set>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "algorithms/matmul.hpp"
#include "algorithms/matvec.hpp"
#include "comm/shift.hpp"
#include "core/primitives.hpp"
#include "core/scan_ops.hpp"
#include "core/transpose.hpp"
#include "fault/fault.hpp"
#include "net/dragonfly_topology.hpp"
#include "net/hypercube_topology.hpp"
#include "net/mesh_topology.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"
#include "util/workloads.hpp"

namespace vmp {
namespace {

const std::uint64_t kBaseSeed = announce_seed("test_topology");

// --------------------------------------------------------------------------
// Conformance helpers.

[[nodiscard]] std::vector<std::unique_ptr<Topology>> presets(int dim) {
  std::vector<std::unique_ptr<Topology>> out;
  out.push_back(std::make_unique<HypercubeTopology>(dim));
  out.push_back(std::make_unique<MeshTorusTopology>(dim, /*wrap=*/false));
  out.push_back(std::make_unique<MeshTorusTopology>(dim, /*wrap=*/true));
  out.push_back(std::make_unique<DragonflyTopology>(dim));
  out.push_back(std::make_unique<DragonflyTopology>(
      dim, DragonflyTopology::RouteMode::Valiant));
  return out;
}

/// BFS hop distances from `src` over live ports — the reference metric the
/// topology's own routes are judged against.
[[nodiscard]] std::vector<int> bfs_dist(const Topology& t, proc_t src) {
  std::vector<int> dist(t.node_count(), -1);
  std::queue<proc_t> q;
  dist[src] = 0;
  q.push(src);
  while (!q.empty()) {
    const proc_t at = q.front();
    q.pop();
    for (int p = 0; p < t.max_ports(); ++p) {
      const proc_t nb = t.port_neighbor(at, p);
      if (nb == kNoNeighbor || dist[nb] >= 0) continue;
      dist[nb] = dist[at] + 1;
      q.push(nb);
    }
  }
  return dist;
}

/// Every hop must cross a real port of its `from` node onto `to`, chain
/// src → … → dst, and carry that port's axis.
void expect_valid_route(const Topology& t, proc_t src, proc_t dst,
                        const std::vector<Hop>& hops, std::size_t max_len) {
  ASSERT_LE(hops.size(), max_len) << t.name();
  proc_t at = src;
  for (const Hop& h : hops) {
    EXPECT_EQ(h.from, at) << t.name() << " broken hop chain";
    EXPECT_EQ(t.port_neighbor(h.from, h.port), h.to)
        << t.name() << " hop does not follow a port";
    EXPECT_EQ(t.port_axis(h.from, h.port), h.axis) << t.name();
    at = h.to;
  }
  EXPECT_EQ(at, dst) << t.name() << " route does not reach its destination";
}

class TopologyConformance : public ::testing::TestWithParam<int> {};

TEST_P(TopologyConformance, NeighborsAreSymmetricAndInRange) {
  const int d = GetParam();
  for (const auto& t : presets(d)) {
    const proc_t n = t->node_count();
    EXPECT_EQ(n, proc_t{1} << d) << t->name();
    for (proc_t a = 0; a < n; ++a) {
      for (int p = 0; p < t->max_ports(); ++p) {
        const proc_t b = t->port_neighbor(a, p);
        if (b == kNoNeighbor) continue;
        ASSERT_LT(b, n) << t->name();
        EXPECT_NE(b, a) << t->name() << " self-loop";
        const std::vector<proc_t> back = t->neighbors(b);
        EXPECT_NE(std::find(back.begin(), back.end(), a), back.end())
            << t->name() << " edge " << a << "->" << b << " not symmetric";
      }
    }
  }
}

TEST_P(TopologyConformance, LinkEnumerationIsCompleteAndConsistent) {
  const int d = GetParam();
  for (const auto& t : presets(d)) {
    const std::vector<Link> links = t->links();
    EXPECT_EQ(links.size(), t->link_count()) << t->name();
    // Dense ids, endpoints adjacent over a port of the link's axis.
    std::set<std::uint64_t> ids;
    for (const Link& l : links) {
      EXPECT_EQ(l.id, static_cast<std::uint64_t>(ids.size())) << t->name();
      ids.insert(l.id);
      bool connects = false;
      for (int p = 0; p < t->max_ports(); ++p)
        if (t->port_neighbor(l.a, p) == l.b && t->port_axis(l.a, p) == l.axis)
          connects = true;
      EXPECT_TRUE(connects)
          << t->name() << " link " << l.id << " endpoints not adjacent";
    }
    // Completeness: every (node, port) edge resolves to an enumerated id,
    // and every id is reached from both endpoints (undirected naming).
    std::map<std::uint64_t, std::set<proc_t>> touched;
    for (proc_t a = 0; a < t->node_count(); ++a)
      for (int p = 0; p < t->max_ports(); ++p) {
        const proc_t b = t->port_neighbor(a, p);
        if (b == kNoNeighbor) continue;
        const std::uint64_t id = t->link_id(a, p);
        ASSERT_LT(id, t->link_count()) << t->name();
        touched[id].insert(a);
      }
    EXPECT_EQ(touched.size(), t->link_count())
        << t->name() << " some enumerated link is reachable from no port";
    for (const Link& l : links) {
      EXPECT_TRUE(touched[l.id].count(l.a) && touched[l.id].count(l.b))
          << t->name() << " link " << l.id
          << " not addressable from both endpoints";
    }
  }
  // The cube's analytic enumeration: d·2^(d-1) edges.
  HypercubeTopology cube(d);
  EXPECT_EQ(cube.link_count(),
            static_cast<std::uint64_t>(d) * (proc_t{1} << d) / 2);
}

TEST_P(TopologyConformance, MinimalRoutesAreValidShortestAndTerminate) {
  const int d = GetParam();
  SplitMix64 rng(kBaseSeed ^ 0x1001u);
  for (const auto& t : presets(d)) {
    const proc_t n = t->node_count();
    const auto* df = dynamic_cast<const DragonflyTopology*>(t.get());
    const bool valiant =
        df != nullptr && df->route_mode() == DragonflyTopology::RouteMode::Valiant;
    for (int trial = 0; trial < 64; ++trial) {
      const proc_t src = static_cast<proc_t>(rng.below(n));
      const proc_t dst = static_cast<proc_t>(rng.below(n));
      std::vector<Hop> hops;
      t->route(src, dst, hops);
      // Valiant misroutes through a random intermediate group: valid and
      // bounded, but deliberately not minimal.
      const std::size_t cap =
          valiant ? 2 * static_cast<std::size_t>(t->diameter()) + 1
                  : static_cast<std::size_t>(t->diameter());
      expect_valid_route(*t, src, dst, hops, std::max<std::size_t>(cap, 1));
      const std::vector<int> dist = bfs_dist(*t, src);
      ASSERT_GE(dist[dst], 0) << t->name() << " disconnected";
      if (!valiant)
        EXPECT_EQ(hops.size(), static_cast<std::size_t>(dist[dst]))
            << t->name() << " route " << src << "->" << dst << " not minimal";
      if (src != dst) {
        ASSERT_FALSE(hops.empty());
        // first_hop is always the canonical *minimal* step (the packet
        // router never misroutes), so under Valiant it is checked against
        // the distance metric rather than the detouring route().
        const Hop first = t->first_hop(src, dst);
        if (!valiant) {
          EXPECT_EQ(first.to, hops.front().to)
              << t->name() << " first_hop disagrees with route()";
        } else {
          const std::vector<int> dfi = bfs_dist(*t, first.to);
          EXPECT_EQ(dfi[dst] + 1, dist[dst])
              << t->name() << " first_hop not a shortest-path step";
        }
        // Every advertised minimal first port actually shortens the path.
        std::vector<int> ports;
        t->min_first_ports(src, dst, ports);
        EXPECT_FALSE(ports.empty()) << t->name();
        for (const int p : ports) {
          const proc_t nb = t->port_neighbor(src, p);
          ASSERT_NE(nb, kNoNeighbor) << t->name();
          const std::vector<int> dnb = bfs_dist(*t, nb);
          EXPECT_EQ(dnb[dst] + 1, dist[dst])
              << t->name() << " min_first_ports port " << p
              << " does not start a shortest path " << src << "->" << dst;
        }
      } else {
        EXPECT_TRUE(hops.empty()) << t->name();
      }
    }
  }
}

TEST_P(TopologyConformance, RouteAvoidingRoutesAroundKilledLinksAndNodes) {
  const int d = GetParam();
  SplitMix64 rng(kBaseSeed ^ 0x2002u);
  for (const auto& t : presets(d)) {
    const proc_t n = t->node_count();
    const std::vector<Link> links = t->links();
    for (int trial = 0; trial < 32; ++trial) {
      const Link dead = links[rng.below(links.size())];
      const proc_t dead_node =
          static_cast<proc_t>(rng.below(n));  // may coincide with endpoints
      const auto link_dead = [&](proc_t node, int port) {
        return t->link_id(node, port) == dead.id;
      };
      const auto node_dead = [&](proc_t node) { return node == dead_node; };
      const proc_t src = static_cast<proc_t>(rng.below(n));
      const proc_t dst = static_cast<proc_t>(rng.below(n));
      if (src == dead_node || dst == dead_node) continue;
      std::vector<Hop> hops;
      const bool ok = t->route_avoiding(src, dst, link_dead, node_dead, hops);
      if (!ok) {
        // Refusal is only legitimate when the faults genuinely cut
        // src from dst (possible on the open mesh).
        std::vector<int> dist(n, -1);
        std::queue<proc_t> q;
        dist[src] = 0;
        q.push(src);
        while (!q.empty()) {
          const proc_t at = q.front();
          q.pop();
          for (int p = 0; p < t->max_ports(); ++p) {
            const proc_t nb = t->port_neighbor(at, p);
            if (nb == kNoNeighbor || dist[nb] >= 0 || link_dead(at, p))
              continue;
            if (nb != dst && node_dead(nb)) continue;
            dist[nb] = dist[at] + 1;
            q.push(nb);
          }
        }
        EXPECT_LT(dist[dst], 0)
            << t->name() << " refused a live route " << src << "->" << dst;
        continue;
      }
      expect_valid_route(*t, src, dst, hops, static_cast<std::size_t>(n));
      for (const Hop& h : hops) {
        EXPECT_FALSE(link_dead(h.from, h.port))
            << t->name() << " reroute crosses the dead link";
        if (h.to != dst)
          EXPECT_NE(h.to, dead_node)
              << t->name() << " reroute passes through the dead node";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, TopologyConformance, ::testing::Values(1, 4, 6));

TEST(TopologyCharges, ChargeDecompositionSumsToNowUsOnEveryPreset) {
  // A workload with every charge family — exchanges, all-port rounds,
  // compute steps, the packet router — on each preset: the clock's
  // decomposition must stay exact, and physical link crossings can never
  // undercut the message count.
  for (const TopologyKind kind :
       {TopologyKind::Hypercube, TopologyKind::Mesh, TopologyKind::Torus,
        TopologyKind::Dragonfly}) {
    Cube::Options opts;
    opts.topology = kind;
    Cube cube(4, CostParams::cm2(), opts);
    Grid grid = Grid::square(cube);
    DistMatrix<double> A(grid, 20, 20);
    A.load(random_matrix(20, 20, 11));
    DistVector<double> v(grid, 20, Align::Cols);
    v.load(random_vector(20, 12));
    (void)matvec(A, v);
    (void)transpose(A);
    (void)reduce_rows(A, Plus<double>{});
    const SimClock& clk = cube.clock();
    EXPECT_NEAR(clk.now_us(),
                clk.comm_us() + clk.compute_us() + clk.router_us() +
                    clk.host_us(),
                1e-9 * (1.0 + clk.now_us()))
        << to_string(kind);
    EXPECT_GT(clk.comm_us(), 0.0) << to_string(kind);
    const SimStats& st = clk.stats();
    EXPECT_GE(st.link_hops, st.messages) << to_string(kind);
    if (kind == TopologyKind::Hypercube)
      EXPECT_EQ(st.link_hops, st.messages)
          << "unit-hop preset: one physical link per message";
    EXPECT_STREQ(cube.topology().name(), to_string(kind));
  }
}

// --------------------------------------------------------------------------
// The hypercube twin sweep.

struct Snapshot {
  std::vector<std::vector<double>> results;
  double now_us = 0.0;
  SimStats stats;
  std::vector<std::string> trace_paths;
  std::vector<TraceEvent> trace_events;
};

struct TrialConfig {
  int d, gr, gc;
  std::size_t nrows, ncols;
  bool cyclic;
  std::uint64_t data_seed;
};

[[nodiscard]] TrialConfig draw(int trial) {
  SplitMix64 rng(kBaseSeed + static_cast<std::uint64_t>(trial) * 0x517cull);
  TrialConfig c;
  c.d = 1 + static_cast<int>(rng.below(6));
  c.gr = static_cast<int>(rng.below(static_cast<std::uint64_t>(c.d) + 1));
  c.gc = c.d - c.gr;
  c.nrows = 1 + rng.below(32);
  c.ncols = 1 + rng.below(32);
  c.cyclic = rng.below(2) == 0;
  c.data_seed = rng.next();
  return c;
}

enum class Build { SeedCtor, ExplicitHypercube, Mesh, Torus, Dragonfly };

[[nodiscard]] Snapshot run_workload(const TrialConfig& c, Build build,
                                    bool faulty) {
  std::unique_ptr<Cube> cube;
  if (build == Build::SeedCtor) {
    // The historical construction path: two-argument constructor, no
    // Options in sight (VMP_TOPOLOGY is cleared by the fixture).
    cube = std::make_unique<Cube>(c.d, CostParams::cm2());
  } else {
    Cube::Options opts;
    opts.threads = 1;
    opts.topology = build == Build::ExplicitHypercube
                        ? TopologyKind::Hypercube
                        : build == Build::Mesh
                              ? TopologyKind::Mesh
                              : build == Build::Torus ? TopologyKind::Torus
                                                      : TopologyKind::Dragonfly;
    cube = std::make_unique<Cube>(c.d, CostParams::cm2(), opts);
  }
  if (faulty)
    cube->enable_faults(FaultPlan::transient(c.data_seed, 0.02, 0.01));
  cube->clock().tracer().set_recording(true);
  Grid grid(*cube, c.gr, c.gc);

  const MatrixLayout layout =
      c.cyclic ? MatrixLayout::cyclic() : MatrixLayout::blocked();
  const Part part = c.cyclic ? Part::Cyclic : Part::Block;
  DistMatrix<double> A(grid, c.nrows, c.ncols, layout);
  A.load(random_matrix(c.nrows, c.ncols, static_cast<unsigned>(c.data_seed)));
  DistVector<double> vc(grid, c.ncols, Align::Cols, part);
  vc.load(random_vector(c.ncols, static_cast<unsigned>(c.data_seed >> 8)));
  DistVector<double> vr(grid, c.nrows, Align::Rows, part);
  vr.load(random_vector(c.nrows, static_cast<unsigned>(c.data_seed >> 16)));

  Snapshot s;
  s.results.push_back(reduce_rows(A, Plus<double>{}).to_host());
  s.results.push_back(distribute_cols(vr, c.ncols).to_host());
  s.results.push_back(extract_row(A, c.nrows / 2).to_host());
  insert_col(A, c.ncols / 2, vr);
  s.results.push_back(A.to_host());
  s.results.push_back(matvec(A, vc).to_host());
  s.results.push_back(transpose(A).to_host());
  DistVector<double> sv(grid, c.nrows, Align::Rows, Part::Block);
  sv.load(random_vector(c.nrows, static_cast<unsigned>(c.data_seed >> 24)));
  vec_scan_inclusive(sv, Plus<double>{});
  s.results.push_back(sv.to_host());

  s.now_us = cube->clock().now_us();
  s.stats = cube->clock().stats();
  s.trace_paths = cube->clock().tracer().paths();
  s.trace_events = cube->clock().tracer().events();
  return s;
}

/// Clears VMP_TOPOLOGY for the duration of each twin trial (and restores
/// it after): the sweep pins both sides of every comparison explicitly, so
/// an inherited preset — e.g. the CI mesh leg — must not leak into the
/// seed-constructor baseline.
class TopologyTwin : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    if (const char* prev = std::getenv("VMP_TOPOLOGY")) saved_ = prev;
    ASSERT_EQ(unsetenv("VMP_TOPOLOGY"), 0);
  }
  void TearDown() override {
    if (!saved_.empty())
      ASSERT_EQ(setenv("VMP_TOPOLOGY", saved_.c_str(), 1), 0);
  }

 private:
  std::string saved_;
};

TEST_P(TopologyTwin, HypercubePresetBitIdenticalToSeedConstruction) {
  const TrialConfig c = draw(GetParam());
  SCOPED_TRACE("reproduce: VMP_SEED=" + std::to_string(kBaseSeed) +
               " ./test_topology (trial " + std::to_string(GetParam()) + ")");
  for (const bool faulty : {false, true}) {
    const Snapshot ref = run_workload(c, Build::SeedCtor, faulty);
    const Snapshot got = run_workload(c, Build::ExplicitHypercube, faulty);
    const std::string what = faulty ? "faulty" : "fault-free";
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

TEST_P(TopologyTwin, ResultsAreTopologyIndependentAndChargesNeverCheaper) {
  const TrialConfig c = draw(GetParam());
  SCOPED_TRACE("reproduce: VMP_SEED=" + std::to_string(kBaseSeed) +
               " ./test_topology (trial " + std::to_string(GetParam()) + ")");
  const Snapshot ref = run_workload(c, Build::ExplicitHypercube, false);
  for (const Build build : {Build::Mesh, Build::Torus, Build::Dragonfly}) {
    const Snapshot got = run_workload(c, build, false);
    const std::string what = "build " + std::to_string(static_cast<int>(build));
    ASSERT_EQ(ref.results.size(), got.results.size()) << what;
    for (std::size_t i = 0; i < ref.results.size(); ++i)
      EXPECT_EQ(ref.results[i], got.results[i])
          << what << " results must not depend on the physical network";
    // Same logical schedule…
    EXPECT_EQ(ref.stats.comm_steps, got.stats.comm_steps) << what;
    EXPECT_EQ(ref.stats.messages, got.stats.messages) << what;
    EXPECT_EQ(ref.stats.elements_moved, got.stats.elements_moved) << what;
    EXPECT_EQ(ref.stats.flops_charged, got.stats.flops_charged) << what;
    // …but dilation and per-hop taxes only ever add physical work.
    EXPECT_GE(got.stats.link_hops, ref.stats.link_hops) << what;
    EXPECT_GE(got.now_us, ref.now_us) << what;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, TopologyTwin, ::testing::Range(0, 12));

// --------------------------------------------------------------------------
// Round-charge pins.
//
// The three exchange-round kinds — `exchange` on every dimension, a
// multi-port and a single-port `exchange_allport`, an irregular
// `relay` with sit-outs — run with ragged lengths (empty sends
// included) on every preset, under each fault-plan family, at 1 and 3
// lanes.  Every run is pinned exactly: now_us, every SimStats field, and
// digests of the event trace (events, spans, paths, self profiles) and of
// the delivered payloads.  TopologyTwin bounds the routed presets' charges
// only from below; these goldens pin them to the last bit.

enum class RoundPlan { Clean, Transient, DeadLink };

/// Incremental FNV-1a over the bytes of scalar values.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  template <class T>
  void add(T v) {
    static_assert(std::is_arithmetic_v<T>);
    unsigned char b[sizeof(T)];
    std::memcpy(b, &v, sizeof(T));
    for (const unsigned char c : b) {
      h ^= c;
      h *= 0x100000001b3ull;
    }
  }
  void add(const std::string& s) {
    add(s.size());
    for (const char c : s) add(c);
  }
  [[nodiscard]] std::string hex() const {
    char out[17];
    std::snprintf(out, sizeof out, "%016llx",
                  static_cast<unsigned long long>(h));
    return out;
  }
};

/// Ragged send length in [0, 5]: an empty send for about one port in six.
[[nodiscard]] std::size_t ragged_len(proc_t q, int round, std::size_t port) {
  return (std::size_t{q} * 7 + static_cast<std::size_t>(round) * 3 +
          port * 5) %
         6;
}

/// A symmetric pairing that crosses several dimensions in one round and
/// leaves some processors sitting out.  The top address bit and bits 0/1
/// pick the rule, and no rule flips a bit it reads.
[[nodiscard]] proc_t irregular_partner(int d, proc_t q) {
  if (d == 1) return q ^ 1u;
  if (((q >> (d - 1)) & 1u) == 0) return q ^ 1u;  // dim 0
  if (d == 2) return q;                           // sits out
  if ((q & 1u) == 0) return q ^ 2u;               // dim 1
  if (d == 3 || (q & 2u) != 0) return q;          // sits out
  return q ^ (proc_t{1} << (d - 2));              // dim d-2
}

/// Runs the round program and renders its canonical pin line:
///   now=<now_us %.17g> st=<every SimStats field, declaration order>
///   tr=<trace digest> pl=<payload digest> thr=<rounds that threw>
[[nodiscard]] std::string run_round_kinds(TopologyKind kind, RoundPlan plan,
                                          bool none_plan, int d,
                                          unsigned lanes) {
  Cube::Options opts;
  opts.threads = lanes;
  opts.topology = kind;
  Cube cube(d, CostParams::cm2(), opts);
  if (plan == RoundPlan::Clean && none_plan)
    cube.enable_faults(FaultPlan::none());
  if (plan != RoundPlan::Clean) {
    FaultPlan fp = FaultPlan::transient(0x5eedu + static_cast<unsigned>(d),
                                        0.1, 0.1, 0.1, 2.5);
    if (plan == RoundPlan::DeadLink)
      fp.link_kills.push_back({/*from_round=*/0, /*node=*/0, /*dim=*/0});
    cube.enable_faults(fp);
  }
  cube.clock().tracer().set_recording(true);

  const proc_t p = cube.node_count();
  const std::size_t nd = static_cast<std::size_t>(d);
  constexpr std::size_t kMax = 5;
  std::vector<std::vector<double>> buf(p, std::vector<double>(kMax));
  std::vector<std::vector<std::int32_t>> ibuf(
      p, std::vector<std::int32_t>(kMax));
  std::vector<std::vector<std::int32_t>> inbox(nd * p);
  for (proc_t q = 0; q < p; ++q)
    for (std::size_t j = 0; j < kMax; ++j) {
      buf[q][j] = static_cast<double>(q) + 0.125 * static_cast<double>(j);
      ibuf[q][j] = static_cast<std::int32_t>(q * 16 + j);
    }
  const auto dspan = [&](proc_t q, std::size_t n) {
    return std::span<const double>(buf[q].data(), n);
  };

  Digest payload;
  std::atomic<int> stray{0};  // deliveries of the elided round (must stay 0)
  std::string thrown;
  int round = 0;
  // One round: a FaultError (the dead-link plan on a cube with no detour)
  // is part of the pin, and the program goes on with the next round.
  const auto guarded = [&](auto&& body) {
    try {
      body();
    } catch (const FaultError&) {
      thrown += std::to_string(round) + ",";
    }
    for (const auto& v : buf)
      for (const double x : v) payload.add(x);
    for (const auto& v : inbox) {
      payload.add(v.size());
      for (const std::int32_t x : v) payload.add(x);
    }
    ++round;
  };

  // Two passes: the first grows the staging slots, the second reuses them.
  for (int pass = 0; pass < 2; ++pass) {
    for (int k = 0; k < d; ++k)
      guarded([&] {
        cube.exchange<double>(
            k, [&](proc_t q) { return dspan(q, ragged_len(q, round, 0)); },
            [&](proc_t q, std::span<const double> in) {
              // Combines into the very buffer send exposed.
              for (std::size_t j = 0; j < in.size(); ++j)
                buf[q][j] = buf[q][j] * 0.5 + in[j];
            });
      });
    // Nobody sends: the round is elided and charges nothing.
    guarded([&] {
      cube.exchange<double>(
          0, [&](proc_t q) { return dspan(q, 0); },
          [&](proc_t, std::span<const double>) { ++stray; });
    });
    // Multi-port, dims in descending order.
    std::vector<int> dims;
    for (int k = d - 1; k >= 0; --k) dims.push_back(k);
    guarded([&] {
      cube.exchange_allport<std::int32_t>(
          dims,
          [&](proc_t q, std::size_t idx) {
            return std::span<const std::int32_t>(ibuf[q].data(),
                                                 ragged_len(q, round, idx));
          },
          [&](proc_t q, std::size_t idx, std::span<const std::int32_t> in) {
            inbox[idx * p + q].assign(in.begin(), in.end());
          });
    });
    const int one_dim[] = {d / 2};
    guarded([&] {
      cube.exchange_allport<double>(
          one_dim,
          [&](proc_t q, std::size_t) {
            return dspan(q, ragged_len(q, round, 0));
          },
          [&](proc_t q, std::size_t, std::span<const double> in) {
            for (std::size_t j = 0; j < in.size(); ++j)
              buf[q][j] -= 0.25 * in[j];
          });
    });
    guarded([&] {
      cube.relay<double>(
          [&](proc_t q) { return irregular_partner(d, q); },
          [&](proc_t q) { return dspan(q, ragged_len(q, round, 0)); },
          [&](proc_t q, std::span<const double> in) {
            for (std::size_t j = 0; j < in.size(); ++j) buf[q][j] += in[j];
          });
    });
  }

  const Tracer& tr = cube.clock().tracer();
  Digest trace;
  for (const std::string& path : tr.paths()) trace.add(path);
  for (const TraceEvent& e : tr.events()) {
    trace.add(e.ts_us);
    trace.add(e.dur_us);
    trace.add(static_cast<int>(e.kind));
    trace.add(e.dim);
    trace.add(e.messages);
    trace.add(e.elements);
    trace.add(e.flops);
    trace.add(e.packets);
    trace.add(e.path_id);
  }
  for (const RegionSpan& s : tr.spans()) {
    trace.add(s.begin_us);
    trace.add(s.end_us);
    trace.add(s.path_id);
    trace.add(s.depth);
  }
  for (const auto& [path, r] : tr.self_profiles()) {
    trace.add(path);
    for (const double us : {r.comm_us, r.compute_us, r.router_us, r.host_us})
      trace.add(us);
    for (const std::uint64_t n :
         {r.comm_steps, r.messages, r.elements_moved, r.elements_serial,
          r.flops_charged, r.flops_total, r.router_cycles, r.router_hops,
          r.mixed_dim_elements})
      trace.add(n);
    trace.add(r.dim_elements.size());
    for (const std::uint64_t n : r.dim_elements) trace.add(n);
  }

  const SimStats& s = cube.clock().stats();
  char now[32];
  std::snprintf(now, sizeof now, "%.17g", cube.clock().now_us());
  std::string line = std::string("now=") + now + " st=";
  for (const std::uint64_t v :
       {s.comm_steps, s.messages, s.elements_moved, s.elements_serial,
        s.flops_charged, s.flops_total, s.router_packets, s.router_hops,
        s.link_hops, s.fault_retries, s.fault_chksum_fails, s.fault_reroutes,
        s.alloc_bytes, s.pool_hits, s.pool_misses, s.slab_allocs,
        s.slab_bytes})
    line += std::to_string(v) + ",";
  payload.add(stray.load());
  line += " tr=" + trace.hex() + " pl=" + payload.hex() + " thr=" + thrown;
  return line;
}

struct RoundGolden {
  TopologyKind kind;
  RoundPlan plan;
  int d;
  const char* line;
};

// Recorded from the round program above; one line serves both lane
// counts, and the Clean lines serve both no injector and FaultPlan::none().
const RoundGolden kRoundGoldens[] = {
    {TopologyKind::Hypercube, RoundPlan::Clean, 1, "now=220"
     " st=8,12,32,20,0,0,0,0,12,0,0,0,128,10,2,0,0,"
     " tr=db6a0f6cbd0f059b pl=330c247818452bb5 thr="},
    {TopologyKind::Hypercube, RoundPlan::Clean, 3, "now=359"
     " st=12,101,298,59,0,0,0,0,101,0,0,0,1536,77,24,0,0,"
     " tr=39d5ccc78435f44e pl=e28f47063e835b5c thr="},
    {TopologyKind::Hypercube, RoundPlan::Clean, 4, "now=420"
     " st=14,262,788,70,0,0,0,0,262,0,0,0,3648,205,57,0,0,"
     " tr=0cbe58bf2e83294c pl=3c8d1d4288bb98ff thr="},
    {TopologyKind::Hypercube, RoundPlan::Clean, 6, "now=540"
     " st=18,1478,4436,90,0,0,0,0,1478,0,0,0,21184,1147,331,0,0,"
     " tr=f0109d41614329c7 pl=a8bb1f31ef9830f2 thr="},
    {TopologyKind::Hypercube, RoundPlan::Transient, 1, "now=252"
     " st=11,13,33,21,0,0,0,0,13,1,0,0,128,10,2,0,0,"
     " tr=1938fee7144f79bf pl=330c247818452bb5 thr="},
    {TopologyKind::Hypercube, RoundPlan::Transient, 3, "now=830"
     " st=35,128,382,116,0,0,0,0,128,27,15,0,1536,77,24,0,0,"
     " tr=d5826354a1535a28 pl=e28f47063e835b5c thr="},
    {TopologyKind::Hypercube, RoundPlan::Transient, 4, "now=1059"
     " st=48,327,980,143,0,0,0,0,327,65,37,0,3648,205,57,0,0,"
     " tr=53f8618631644457 pl=3c8d1d4288bb98ff thr="},
    {TopologyKind::Hypercube, RoundPlan::Transient, 6, "now=1937.5"
     " st=95,1823,5508,268,0,0,0,0,1823,345,172,0,21184,1147,331,0,0,"
     " tr=9ea6ac3a0c416615 pl=a8bb1f31ef9830f2 thr="},
    {TopologyKind::Hypercube, RoundPlan::DeadLink, 1, "now=220"
     " st=8,12,32,20,0,0,0,0,12,0,0,0,128,10,2,0,0,"
     " tr=0996c8a4af6591ff pl=d5da8f4bf4cbf9e5 thr=0,2,3,4,5,7,8,9,"},
    {TopologyKind::Hypercube, RoundPlan::DeadLink, 3, "now=1631.5"
     " st=63,156,461,196,0,0,0,0,156,25,13,10,1536,77,24,0,0,"
     " tr=d377f26e74c9b19c pl=e28f47063e835b5c thr="},
    {TopologyKind::Hypercube, RoundPlan::DeadLink, 4, "now=1684"
     " st=71,350,1031,194,0,0,0,0,350,64,36,8,3648,205,57,0,0,"
     " tr=16730aef72c893e4 pl=3c8d1d4288bb98ff thr="},
    {TopologyKind::Hypercube, RoundPlan::DeadLink, 6, "now=2789.5"
     " st=125,1852,5607,370,0,0,0,0,1852,344,172,10,21184,1147,331,0,0,"
     " tr=255c2e4515e64463 pl=a8bb1f31ef9830f2 thr="},
    {TopologyKind::Mesh, RoundPlan::Clean, 1, "now=220"
     " st=8,12,32,20,0,0,0,0,12,0,0,0,128,10,2,0,0,"
     " tr=3704771d913ee0eb pl=330c247818452bb5 thr="},
    {TopologyKind::Mesh, RoundPlan::Clean, 3, "now=579"
     " st=12,101,298,59,0,0,0,0,143,0,0,0,1536,77,24,0,0,"
     " tr=406ee2bce75246d9 pl=e28f47063e835b5c thr="},
    {TopologyKind::Mesh, RoundPlan::Clean, 4, "now=638"
     " st=14,262,788,70,0,0,0,0,376,0,0,0,3648,205,57,0,0,"
     " tr=53e3efac78dd3ef0 pl=3c8d1d4288bb98ff thr="},
    {TopologyKind::Mesh, RoundPlan::Clean, 6, "now=1220"
     " st=18,1478,4436,90,0,0,0,0,3218,0,0,0,21184,1147,331,0,0,"
     " tr=35f65f2b71d17ee6 pl=a8bb1f31ef9830f2 thr="},
    {TopologyKind::Mesh, RoundPlan::Transient, 1, "now=252"
     " st=11,13,33,21,0,0,0,0,13,1,0,0,128,10,2,0,0,"
     " tr=2c7ba389ee836ff8 pl=330c247818452bb5 thr="},
    {TopologyKind::Mesh, RoundPlan::Transient, 3, "now=1251"
     " st=35,128,382,116,0,0,0,0,181,27,15,0,1536,77,24,0,0,"
     " tr=9078f09b287b658d pl=e28f47063e835b5c thr="},
    {TopologyKind::Mesh, RoundPlan::Transient, 4, "now=1509"
     " st=48,327,980,143,0,0,0,0,471,65,37,0,3648,205,57,0,0,"
     " tr=04a7d8df9c1b5d88 pl=3c8d1d4288bb98ff thr="},
    {TopologyKind::Mesh, RoundPlan::Transient, 6, "now=4091.5"
     " st=95,1823,5508,268,0,0,0,0,3987,345,172,0,21184,1147,331,0,0,"
     " tr=831d39ad3ead458b pl=a8bb1f31ef9830f2 thr="},
    {TopologyKind::Mesh, RoundPlan::DeadLink, 1, "now=220"
     " st=8,12,32,20,0,0,0,0,12,0,0,0,128,10,2,0,0,"
     " tr=481404f8546c53cf pl=d5da8f4bf4cbf9e5 thr=0,2,3,4,5,7,8,9,"},
    {TopologyKind::Mesh, RoundPlan::DeadLink, 3, "now=3178"
     " st=102,194,585,324,0,0,0,0,245,23,11,20,1536,77,24,0,0,"
     " tr=62e73265276af0ae pl=e28f47063e835b5c thr="},
    {TopologyKind::Mesh, RoundPlan::DeadLink, 4, "now=3027.5"
     " st=102,382,1127,290,0,0,0,0,526,64,36,16,3648,205,57,0,0,"
     " tr=11590b1ba8446c54 pl=3c8d1d4288bb98ff thr="},
    {TopologyKind::Mesh, RoundPlan::DeadLink, 6, "now=6551.5"
     " st=181,1904,5797,577,0,0,0,0,4064,340,170,22,21184,1147,331,0,0,"
     " tr=3906ec6cb235a8b6 pl=a8bb1f31ef9830f2 thr="},
    {TopologyKind::Torus, RoundPlan::Clean, 1, "now=220"
     " st=8,12,32,20,0,0,0,0,12,0,0,0,128,10,2,0,0,"
     " tr=3704771d913ee0eb pl=330c247818452bb5 thr="},
    {TopologyKind::Torus, RoundPlan::Clean, 3, "now=588"
     " st=12,101,298,59,0,0,0,0,143,0,0,0,1536,77,24,0,0,"
     " tr=bea81013cb9fe497 pl=e28f47063e835b5c thr="},
    {TopologyKind::Torus, RoundPlan::Clean, 4, "now=656"
     " st=14,262,788,70,0,0,0,0,376,0,0,0,3648,205,57,0,0,"
     " tr=54e4c560cc5d4e47 pl=3c8d1d4288bb98ff thr="},
    {TopologyKind::Torus, RoundPlan::Clean, 6, "now=1240"
     " st=18,1478,4436,90,0,0,0,0,3218,0,0,0,21184,1147,331,0,0,"
     " tr=d036f107b254bd9c pl=a8bb1f31ef9830f2 thr="},
    {TopologyKind::Torus, RoundPlan::Transient, 1, "now=252"
     " st=11,13,33,21,0,0,0,0,13,1,0,0,128,10,2,0,0,"
     " tr=2c7ba389ee836ff8 pl=330c247818452bb5 thr="},
    {TopologyKind::Torus, RoundPlan::Transient, 3, "now=1260"
     " st=35,128,382,116,0,0,0,0,181,27,15,0,1536,77,24,0,0,"
     " tr=ee986e19d972d2de pl=e28f47063e835b5c thr="},
    {TopologyKind::Torus, RoundPlan::Transient, 4, "now=1531"
     " st=48,327,980,143,0,0,0,0,471,65,37,0,3648,205,57,0,0,"
     " tr=8f2b1c0e777d3396 pl=3c8d1d4288bb98ff thr="},
    {TopologyKind::Torus, RoundPlan::Transient, 6, "now=4118.5"
     " st=95,1823,5508,268,0,0,0,0,3987,345,172,0,21184,1147,331,0,0,"
     " tr=ab88f2202261c9fd pl=a8bb1f31ef9830f2 thr="},
    {TopologyKind::Torus, RoundPlan::DeadLink, 1, "now=220"
     " st=8,12,32,20,0,0,0,0,12,0,0,0,128,10,2,0,0,"
     " tr=481404f8546c53cf pl=d5da8f4bf4cbf9e5 thr=0,2,3,4,5,7,8,9,"},
    {TopologyKind::Torus, RoundPlan::DeadLink, 3, "now=2511"
     " st=78,171,511,248,0,0,0,0,223,24,12,18,1536,77,24,0,0,"
     " tr=bb3e5df65c3e49c7 pl=e28f47063e835b5c thr="},
    {TopologyKind::Torus, RoundPlan::DeadLink, 4, "now=2485.5"
     " st=82,361,1059,226,0,0,0,0,504,63,35,14,3648,205,57,0,0,"
     " tr=ebfe52d860889bf6 pl=3c8d1d4288bb98ff thr="},
    {TopologyKind::Torus, RoundPlan::DeadLink, 6, "now=6778.5"
     " st=189,1912,5797,577,0,0,0,0,4072,340,170,26,21184,1147,331,0,0,"
     " tr=76c84842003a5be3 pl=a8bb1f31ef9830f2 thr="},
    {TopologyKind::Dragonfly, RoundPlan::Clean, 1, "now=220"
     " st=8,12,32,20,0,0,0,0,12,0,0,0,128,10,2,0,0,"
     " tr=3704771d913ee0eb pl=330c247818452bb5 thr="},
    {TopologyKind::Dragonfly, RoundPlan::Clean, 3, "now=683"
     " st=12,101,298,59,0,0,0,0,141,0,0,0,1536,77,24,0,0,"
     " tr=2f1d88c423056a1b pl=e28f47063e835b5c thr="},
    {TopologyKind::Dragonfly, RoundPlan::Clean, 4, "now=1238"
     " st=14,262,788,70,0,0,0,0,474,0,0,0,3648,205,57,0,0,"
     " tr=90eadcbbce7e7668 pl=3c8d1d4288bb98ff thr="},
    {TopologyKind::Dragonfly, RoundPlan::Clean, 6, "now=1574"
     " st=18,1478,4436,90,0,0,0,0,2792,0,0,0,21184,1147,331,0,0,"
     " tr=74b2221bb007e87a pl=a8bb1f31ef9830f2 thr="},
    {TopologyKind::Dragonfly, RoundPlan::Transient, 1, "now=252"
     " st=11,13,33,21,0,0,0,0,13,1,0,0,128,10,2,0,0,"
     " tr=2c7ba389ee836ff8 pl=330c247818452bb5 thr="},
    {TopologyKind::Dragonfly, RoundPlan::Transient, 3, "now=1459"
     " st=35,128,382,116,0,0,0,0,178,27,15,0,1536,77,24,0,0,"
     " tr=d656cf4ac6e163f6 pl=e28f47063e835b5c thr="},
    {TopologyKind::Dragonfly, RoundPlan::Transient, 4, "now=2841"
     " st=48,327,980,143,0,0,0,0,601,65,37,0,3648,205,57,0,0,"
     " tr=9155fb5cc8618c5d pl=3c8d1d4288bb98ff thr="},
    {TopologyKind::Dragonfly, RoundPlan::Transient, 6, "now=4738.5"
     " st=95,1823,5508,268,0,0,0,0,3454,345,172,0,21184,1147,331,0,0,"
     " tr=f39e0a973c3da928 pl=a8bb1f31ef9830f2 thr="},
    {TopologyKind::Dragonfly, RoundPlan::DeadLink, 1, "now=220"
     " st=8,12,32,20,0,0,0,0,12,0,0,0,128,10,2,0,0,"
     " tr=481404f8546c53cf pl=d5da8f4bf4cbf9e5 thr=0,2,3,4,5,7,8,9,"},
    {TopologyKind::Dragonfly, RoundPlan::DeadLink, 3, "now=2970"
     " st=83,176,521,260,0,0,0,0,222,23,12,18,1536,77,24,0,0,"
     " tr=4f191f5f93e77af9 pl=e28f47063e835b5c thr="},
    {TopologyKind::Dragonfly, RoundPlan::DeadLink, 4, "now=6151"
     " st=143,418,1255,431,0,0,0,0,684,60,35,28,3648,205,57,0,0,"
     " tr=60af88ce1cb07114 pl=3c8d1d4288bb98ff thr="},
    {TopologyKind::Dragonfly, RoundPlan::DeadLink, 6, "now=7316.5"
     " st=171,1896,5727,496,0,0,0,0,3523,342,170,24,21184,1147,331,0,0,"
     " tr=3a7a8f659617cb08 pl=a8bb1f31ef9830f2 thr="},
};

class RoundCharges : public ::testing::TestWithParam<TopologyKind> {};

TEST_P(RoundCharges, PinnedOnEveryPlanDimensionAndLaneCount) {
  const TopologyKind kind = GetParam();
  int checked = 0;
  for (const RoundGolden& g : kRoundGoldens) {
    if (g.kind != kind) continue;
    for (const unsigned lanes : {1u, 3u})
      for (const bool none_plan : {false, true}) {
        if (none_plan && g.plan != RoundPlan::Clean) continue;
        SCOPED_TRACE(std::string(to_string(kind)) + " plan " +
                     std::to_string(static_cast<int>(g.plan)) + " d=" +
                     std::to_string(g.d) + " lanes=" + std::to_string(lanes) +
                     (none_plan ? " FaultPlan::none()" : ""));
        EXPECT_EQ(run_round_kinds(kind, g.plan, none_plan, g.d, lanes),
                  g.line);
        ++checked;
      }
  }
  EXPECT_EQ(checked, 32) << "4 dims x (2 + 1 + 1 plans) x 2 lane counts";
}

INSTANTIATE_TEST_SUITE_P(
    Presets, RoundCharges,
    ::testing::Values(TopologyKind::Hypercube, TopologyKind::Mesh,
                      TopologyKind::Torus, TopologyKind::Dragonfly),
    [](const ::testing::TestParamInfo<TopologyKind>& info) {
      return std::string(to_string(info.param));
    });

// --------------------------------------------------------------------------
// Shift-charge pins.
//
// Gray-order shift_blocks sequences at random strides (±1 included) over
// ragged tiles (empty ones included), on whole-cube and sub-cube rings, on
// every preset, with no injector and under FaultPlan::none(), at 1 and 3
// lanes; plus one matmul_auto and its matmul_cost per preset at d=6, n=96.
// Pinned like RoundCharges, except for the five buffer-pool counters: they
// record where the round stages its tiles, not what the round costs.

/// FNV digest of everything the tracer recorded.
[[nodiscard]] std::string trace_digest(const Tracer& tr) {
  Digest h;
  for (const std::string& path : tr.paths()) h.add(path);
  for (const TraceEvent& e : tr.events()) {
    for (const double v : {e.ts_us, e.dur_us}) h.add(v);
    h.add(static_cast<int>(e.kind));
    h.add(e.dim);
    for (const std::uint64_t v : {e.messages, e.elements, e.flops, e.packets})
      h.add(v);
    h.add(e.path_id);
  }
  for (const RegionSpan& s : tr.spans()) {
    for (const double v : {s.begin_us, s.end_us}) h.add(v);
    h.add(s.path_id);
    h.add(s.depth);
  }
  for (const auto& [path, r] : tr.self_profiles()) {
    h.add(path);
    for (const double us : {r.comm_us, r.compute_us, r.router_us, r.host_us})
      h.add(us);
    for (const std::uint64_t n :
         {r.comm_steps, r.messages, r.elements_moved, r.elements_serial,
          r.flops_charged, r.flops_total, r.router_cycles, r.router_hops,
          r.mixed_dim_elements})
      h.add(n);
    h.add(r.dim_elements.size());
    for (const std::uint64_t n : r.dim_elements) h.add(n);
  }
  return h.hex();
}

/// Pin line of a finished program:
///   now=<now_us %.17g> st=<SimStats minus the pool counters>
///   tr=<trace digest> pl=<payload digest>
[[nodiscard]] std::string charge_line(const Cube& cube, const Digest& payload) {
  const SimStats& s = cube.clock().stats();
  char now[32];
  std::snprintf(now, sizeof now, "%.17g", cube.clock().now_us());
  std::string line = std::string("now=") + now + " st=";
  for (const std::uint64_t v :
       {s.comm_steps, s.messages, s.elements_moved, s.elements_serial,
        s.flops_charged, s.flops_total, s.router_packets, s.router_hops,
        s.link_hops, s.fault_retries, s.fault_chksum_fails, s.fault_reroutes})
    line += std::to_string(v) + ",";
  return line + " tr=" + trace_digest(cube.clock().tracer()) +
         " pl=" + payload.hex();
}

[[nodiscard]] Cube::Options shift_opts(TopologyKind kind, unsigned lanes) {
  Cube::Options opts;
  opts.threads = lanes;
  opts.topology = kind;
  return opts;
}

/// Ten shifts at random strides on the whole-cube ring, then six on the
/// rings of the low-half subcubes, each step followed by a digest of every
/// tile.  Tile q starts with (q·5) mod 8 elements, so some are empty.
[[nodiscard]] std::string run_shift_program(TopologyKind kind, bool none_plan,
                                            int d, unsigned lanes) {
  Cube cube(d, CostParams::cm2(), shift_opts(kind, lanes));
  if (none_plan) cube.enable_faults(FaultPlan::none());
  cube.clock().tracer().set_recording(true);
  DistBuffer<double> buf(cube);
  buf.reserve_each(8);
  cube.each_proc([&](proc_t q) {
    for (std::size_t j = 0; j < (std::size_t{q} * 5) % 8; ++j)
      buf.push_back(q, static_cast<double>(q) + 0.125 * static_cast<double>(j));
  });
  SplitMix64 rng(0x5b1f7u);
  Digest payload;
  const auto program = [&](const SubcubeSet& sc, int shifts) {
    const int P = static_cast<int>(sc.size());
    for (int i = 0; i < shifts; ++i) {
      const int by = i == 0   ? 1
                     : i == 1 ? -1
                              : static_cast<int>(rng.below(
                                    static_cast<std::uint64_t>(4 * P + 1))) -
                                    2 * P;
      shift_blocks(cube, buf, sc, by, RingOrder::Gray);
      cube.each_proc([&](proc_t q) {
        payload.add(buf.len(q));
        for (const double x : buf.tile(q)) payload.add(x);
      });
    }
  };
  program(SubcubeSet::contiguous(0, d), 10);
  program(SubcubeSet::contiguous(0, (d + 1) / 2), 6);
  return charge_line(cube, payload);
}

/// matmul_cost's three prices, then matmul_auto, on a 1-D grid.
[[nodiscard]] std::string run_matmul_program(TopologyKind kind, bool none_plan,
                                             unsigned lanes) {
  const int d = 6;
  const std::size_t n = 96;
  Cube cube(d, CostParams::cm2(), shift_opts(kind, lanes));
  if (none_plan) cube.enable_faults(FaultPlan::none());
  cube.clock().tracer().set_recording(true);
  Grid grid(cube, d, 0);
  DistMatrix<double> A(grid, n, n);
  DistMatrix<double> B(grid, n, n);
  A.load(random_matrix(n, n, 0x5417));
  B.load(random_matrix(n, n, 0x5418));
  const MatmulCost c = matmul_cost(A, B);
  const std::vector<double> got = matmul_auto(A, B).to_host();
  Digest payload;
  for (const double x : got) payload.add(x);
  char cost[96];
  std::snprintf(cost, sizeof cost, "cost=%.17g,%.17g,%.17g ", c.rank1,
                c.summa, c.hyper);
  return cost + charge_line(cube, payload);
}

struct ShiftGolden {
  TopologyKind kind;
  int d;  ///< 0 = the matmul program
  const char* line;
};

// Recorded from the programs above; one line serves both lane counts and
// both no injector and FaultPlan::none().
const ShiftGolden kShiftGoldens[] = {
    {TopologyKind::Hypercube, 1, "now=330"
     " st=11,11,55,55,0,0,0,0,11,0,0,0,"
     " tr=8ed2683dc53e4ae8 pl=6b85af0c4e6423a5"},
    {TopologyKind::Hypercube, 3, "now=732"
     " st=23,155,616,157,0,0,0,0,155,0,0,0,"
     " tr=b28ccc94cf33511d pl=5fa72c77c11da9e9"},
    {TopologyKind::Hypercube, 4, "now=768"
     " st=24,286,1144,168,0,0,0,0,286,0,0,0,"
     " tr=939371a2e9bb1672 pl=2a37f1565cd4048d"},
    {TopologyKind::Hypercube, 6, "now=1464"
     " st=46,2080,8312,314,0,0,0,0,2080,0,0,0,"
     " tr=6606d2eb29d1da23 pl=4b743e0517c9938d"},
    {TopologyKind::Hypercube, 0, "cost=58800,49200,19564 "
     "now=19468"
     " st=28,1792,258048,5376,53568,1999872,0,0,1792,0,0,0,"
     " tr=7aa83b3ea9efb67f pl=705873b95d7cbc43"},
    {TopologyKind::Mesh, 1, "now=330"
     " st=11,11,55,55,0,0,0,0,11,0,0,0,"
     " tr=d572a5ad6f4b8075 pl=6b85af0c4e6423a5"},
    {TopologyKind::Mesh, 3, "now=1144"
     " st=23,155,616,157,0,0,0,0,207,0,0,0,"
     " tr=a428173feaf62453 pl=5fa72c77c11da9e9"},
    {TopologyKind::Mesh, 4, "now=1229"
     " st=24,286,1144,168,0,0,0,0,416,0,0,0,"
     " tr=e35551ed628ce513 pl=2a37f1565cd4048d"},
    {TopologyKind::Mesh, 6, "now=4308"
     " st=46,2080,8312,314,0,0,0,0,4732,0,0,0,"
     " tr=da224317ccd3bca5 pl=4b743e0517c9938d"},
    {TopologyKind::Mesh, 0, "cost=121776,99376,29728 "
     "now=29152"
     " st=28,1792,258048,5376,53568,1999872,0,0,4256,0,0,0,"
     " tr=c6d78209a3864253 pl=705873b95d7cbc43"},
    {TopologyKind::Torus, 1, "now=330"
     " st=11,11,55,55,0,0,0,0,11,0,0,0,"
     " tr=d572a5ad6f4b8075 pl=6b85af0c4e6423a5"},
    {TopologyKind::Torus, 3, "now=1146"
     " st=23,155,616,157,0,0,0,0,207,0,0,0,"
     " tr=f6e0febd43de64fd pl=5fa72c77c11da9e9"},
    {TopologyKind::Torus, 4, "now=1261"
     " st=24,286,1144,168,0,0,0,0,416,0,0,0,"
     " tr=5343aa29fcc22e20 pl=2a37f1565cd4048d"},
    {TopologyKind::Torus, 6, "now=4386"
     " st=46,2080,8312,314,0,0,0,0,4732,0,0,0,"
     " tr=a90a2a98c82cf9c9 pl=4b743e0517c9938d"},
    {TopologyKind::Torus, 0, "cost=121776,99376,29728 "
     "now=29248"
     " st=28,1792,258048,5376,53568,1999872,0,0,4256,0,0,0,"
     " tr=c7202314eb52f0bc pl=705873b95d7cbc43"},
    {TopologyKind::Dragonfly, 1, "now=330"
     " st=11,11,55,55,0,0,0,0,11,0,0,0,"
     " tr=d572a5ad6f4b8075 pl=6b85af0c4e6423a5"},
    {TopologyKind::Dragonfly, 3, "now=1587"
     " st=23,155,616,157,0,0,0,0,209,0,0,0,"
     " tr=a6a7c705f9e4eed9 pl=5fa72c77c11da9e9"},
    {TopologyKind::Dragonfly, 4, "now=2024"
     " st=24,286,1144,168,0,0,0,0,460,0,0,0,"
     " tr=f387a40f76b5fdc9 pl=2a37f1565cd4048d"},
    {TopologyKind::Dragonfly, 6, "now=4076"
     " st=46,2080,8312,314,0,0,0,0,3508,0,0,0,"
     " tr=d12de9cd368f87fe pl=4b743e0517c9938d"},
    {TopologyKind::Dragonfly, 0, "cost=114528,91728,30547 "
     "now=30451"
     " st=28,1792,258048,5376,53568,1999872,0,0,2800,0,0,0,"
     " tr=4de8648a230ab601 pl=705873b95d7cbc43"},
};

class ShiftCharges : public ::testing::TestWithParam<TopologyKind> {};

TEST_P(ShiftCharges, PinnedOnEveryDimensionAndLaneCount) {
  const TopologyKind kind = GetParam();
  int checked = 0;
  for (const ShiftGolden& g : kShiftGoldens) {
    if (g.kind != kind) continue;
    for (const unsigned lanes : {1u, 3u})
      for (const bool none_plan : {false, true}) {
        SCOPED_TRACE(std::string(to_string(kind)) + " d=" +
                     std::to_string(g.d) + " lanes=" + std::to_string(lanes) +
                     (none_plan ? " FaultPlan::none()" : ""));
        EXPECT_EQ(g.d == 0 ? run_matmul_program(kind, none_plan, lanes)
                           : run_shift_program(kind, none_plan, g.d, lanes),
                  g.line);
        ++checked;
      }
  }
  EXPECT_EQ(checked, 20) << "(4 dims + matmul) x 2 plans x 2 lane counts";
}

TEST_P(ShiftCharges, CostModelIsTheChargedTime) {
  const TopologyKind kind = GetParam();
  for (const int d : {1, 3, 4, 6}) {
    Cube cube(d, CostParams::cm2(), shift_opts(kind, 1));
    const SubcubeSet sc = SubcubeSet::contiguous(0, d);
    const int P = static_cast<int>(sc.size());
    for (const int by : {1, -1, 3, P / 2 + 1, -P / 2}) {
      DistBuffer<double> buf(cube, 7);
      const double model = shift_cost_model(cube, sc, by, 7);
      cube.clock().reset();
      shift_blocks(cube, buf, sc, by, RingOrder::Gray);
      EXPECT_EQ(cube.clock().now_us(), model)
          << to_string(kind) << " d=" << d << " by=" << by;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Presets, ShiftCharges,
    ::testing::Values(TopologyKind::Hypercube, TopologyKind::Mesh,
                      TopologyKind::Torus, TopologyKind::Dragonfly),
    [](const ::testing::TestParamInfo<TopologyKind>& info) {
      return std::string(to_string(info.param));
    });

// --------------------------------------------------------------------------
// Options plumbing.

TEST(TopologyOptions, ParseAndEnvRoundTrip) {
  TopologyKind k{};
  EXPECT_TRUE(parse_topology("hypercube", k));
  EXPECT_EQ(k, TopologyKind::Hypercube);
  EXPECT_TRUE(parse_topology("cube", k));  // documented alias
  EXPECT_EQ(k, TopologyKind::Hypercube);
  EXPECT_TRUE(parse_topology("mesh", k));
  EXPECT_EQ(k, TopologyKind::Mesh);
  EXPECT_TRUE(parse_topology("torus", k));
  EXPECT_EQ(k, TopologyKind::Torus);
  EXPECT_TRUE(parse_topology("dragonfly", k));
  EXPECT_EQ(k, TopologyKind::Dragonfly);
  EXPECT_FALSE(parse_topology("banyan", k));
  for (const TopologyKind kind :
       {TopologyKind::Hypercube, TopologyKind::Mesh, TopologyKind::Torus,
        TopologyKind::Dragonfly}) {
    TopologyKind back{};
    EXPECT_TRUE(parse_topology(to_string(kind), back));
    EXPECT_EQ(back, kind);
  }
}

TEST(TopologyOptions, VmpTopologyEnvIsTheDefaultAndOptionsWin) {
  std::string saved;
  if (const char* prev = std::getenv("VMP_TOPOLOGY")) saved = prev;
  ASSERT_EQ(setenv("VMP_TOPOLOGY", "torus", 1), 0);
  EXPECT_EQ(env_topology(), TopologyKind::Torus);
  {
    Cube cube(3, CostParams::unit());
    EXPECT_EQ(cube.topology_kind(), TopologyKind::Torus);
    EXPECT_FALSE(cube.unit_hop());
  }
  {
    Cube::Options opts;
    opts.topology = TopologyKind::Hypercube;
    Cube cube(3, CostParams::unit(), opts);
    EXPECT_EQ(cube.topology_kind(), TopologyKind::Hypercube);
    EXPECT_TRUE(cube.unit_hop());
    EXPECT_EQ(cube.diameter(), 3);
    EXPECT_EQ(cube.node_count(), 8u);
    EXPECT_EQ(cube.neighbors(0), (std::vector<proc_t>{1, 2, 4}));
  }
  if (saved.empty())
    ASSERT_EQ(unsetenv("VMP_TOPOLOGY"), 0);
  else
    ASSERT_EQ(setenv("VMP_TOPOLOGY", saved.c_str(), 1), 0);
}

}  // namespace
}  // namespace vmp
