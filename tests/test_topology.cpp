// Topology conformance battery (tentpole check of the topology-parametric
// machine core) and the hypercube twin sweep.
//
// Conformance, on every preset (hypercube / mesh / torus / dragonfly):
// neighbor symmetry, link enumeration completeness,
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
#include <utility>
#include <vector>

#include "algorithms/cg.hpp"
#include "algorithms/matmul.hpp"
#include "algorithms/matvec.hpp"
#include "algorithms/spmv.hpp"
#include "comm/shift.hpp"
#include "core/primitives.hpp"
#include "core/scan_ops.hpp"
#include "core/sparse_primitives.hpp"
#include "core/swap.hpp"
#include "core/transpose.hpp"
#include "embed/dist_sparse_matrix.hpp"
#include "fault/fault.hpp"
#include "net/dragonfly_topology.hpp"
#include "net/hypercube_topology.hpp"
#include "net/mesh_topology.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"
#include "util/workloads.hpp"
#include "param_printers.hpp"

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
    for (int trial = 0; trial < 64; ++trial) {
      const proc_t src = static_cast<proc_t>(rng.below(n));
      const proc_t dst = static_cast<proc_t>(rng.below(n));
      std::vector<Hop> hops;
      t->route(src, dst, hops);
      expect_valid_route(
          *t, src, dst, hops,
          std::max<std::size_t>(static_cast<std::size_t>(t->diameter()), 1));
      const std::vector<int> dist = bfs_dist(*t, src);
      ASSERT_GE(dist[dst], 0) << t->name() << " disconnected";
      EXPECT_EQ(hops.size(), static_cast<std::size_t>(dist[dst]))
          << t->name() << " route " << src << "->" << dst << " not minimal";
      if (src != dst) {
        ASSERT_FALSE(hops.empty());
        const Hop first = t->first_hop(src, dst);
        EXPECT_EQ(first.to, hops.front().to)
            << t->name() << " first_hop disagrees with route()";
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

// --------------------------------------------------------------------------
// Dragonfly wiring and routing, exhaustively over small machines: the
// structure dragonfly_topology.hpp documents, which the battery above only
// samples.

TEST(DragonflyShape, EachGroupPairSharesExactlyOneGlobalLink) {
  for (int d = 0; d <= 8; ++d) {
    const DragonflyTopology t(d);
    const proc_t routers = proc_t{1} << (d - d / 2);
    const proc_t groups = proc_t{1} << (d / 2);
    std::map<std::pair<proc_t, proc_t>, int> local, global;
    for (const Link& l : t.links()) {
      const proc_t ga = l.a / routers, gb = l.b / routers;
      if (l.axis == 0) {
        EXPECT_EQ(ga, gb) << "d=" << d << " local link " << l.id
                          << " leaves its group";
        ++local[{std::min(l.a, l.b), std::max(l.a, l.b)}];
      } else {
        ASSERT_EQ(l.axis, 1) << "d=" << d;
        EXPECT_NE(ga, gb) << "d=" << d << " global link " << l.id
                          << " stays in its group";
        ++global[{std::min(ga, gb), std::max(ga, gb)}];
      }
    }
    // Routers of a group are fully connected; groups are fully connected,
    // one cable per pair.
    EXPECT_EQ(local.size(), groups * routers * (routers - 1) / 2)
        << "d=" << d;
    EXPECT_EQ(global.size(), groups * (groups - 1) / 2) << "d=" << d;
    for (const auto& [ends, count] : local)
      EXPECT_EQ(count, 1) << "d=" << d << " routers " << ends.first << ","
                          << ends.second << " wired more than once";
    for (const auto& [ends, count] : global)
      EXPECT_EQ(count, 1) << "d=" << d << " groups " << ends.first << ","
                          << ends.second << " wired more than once";
  }
}

TEST(DragonflyShape, EveryRouteIsMinimalLocalGlobalLocal) {
  for (int d = 0; d <= 8; ++d) {
    const DragonflyTopology t(d);
    const proc_t routers = proc_t{1} << (d - d / 2);
    for (proc_t src = 0; src < t.node_count(); ++src) {
      const std::vector<int> dist = bfs_dist(t, src);
      for (proc_t dst = 0; dst < t.node_count(); ++dst) {
        std::vector<Hop> hops;
        t.route(src, dst, hops);
        expect_valid_route(t, src, dst, hops, 3);
        EXPECT_EQ(hops.size(), static_cast<std::size_t>(dist[dst]))
            << "d=" << d << " route " << src << "->" << dst << " not minimal";
        // Axes in order: an optional local hop, the one global hop iff the
        // groups differ, an optional local hop.
        std::string axes;
        for (const Hop& h : hops) axes += static_cast<char>('0' + h.axis);
        const bool cross = src / routers != dst / routers;
        if (cross) {
          EXPECT_TRUE(axes == "1" || axes == "01" || axes == "10" ||
                      axes == "010")
              << "d=" << d << " route " << src << "->" << dst << " is "
              << axes;
        } else {
          EXPECT_EQ(axes, src == dst ? "" : "0")
              << "d=" << d << " route " << src << "->" << dst;
        }
      }
    }
    // Global cables pay twice the start-up and the same bandwidth.
    EXPECT_EQ(t.axis_charge(0).startup_mult, 1.0);
    EXPECT_EQ(t.axis_charge(0).per_elem_mult, 1.0);
    EXPECT_EQ(t.axis_charge(1).startup_mult, 2.0);
    EXPECT_EQ(t.axis_charge(1).per_elem_mult, 1.0);
  }
}

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
// Primitive-charge pins.
//
// Every spelling of the four primitives — named (extract_row,
// reduce_cols, insert_col_range, …) and axis-generic — on a dense and a
// sparse (power_law_csr) matrix, plus the compositions built on them
// (matvec/vecmat and their fused forms, spmv/spmv_fused, hadamard,
// swap_rows/swap_cols, extract_diagonal, at), over every preset ×
// d ∈ {1,3,4,6} × two grid splits × three shapes × Block/Cyclic, with no
// injector and under a transient fault plan, at 1 and 3 lanes.  Pinned
// like RoundCharges: now_us, all 17 SimStats fields (pool counters
// included), the trace digest, a digest of every result, and the calls a
// FaultError stopped.

struct PrimitiveConfig {
  TopologyKind kind;
  int d;
  int gr;
  std::size_t m, n;
  Part part;
  bool faults;
};

[[nodiscard]] std::string describe(const PrimitiveConfig& c) {
  return std::string(to_string(c.kind)) + " d=" + std::to_string(c.d) +
         " gr=" + std::to_string(c.gr) + " " + std::to_string(c.m) + "x" +
         std::to_string(c.n) +
         (c.part == Part::Block ? " Block" : " Cyclic") +
         (c.faults ? " transient" : " clean");
}

/// A line index along `lines` owned by the same grid coordinate as line 0
/// (or 0 if none), and one owned by a different coordinate (or 0).
[[nodiscard]] std::size_t same_owner_line(const AxisMap& lines) {
  for (std::size_t j = 1; j < lines.n(); ++j)
    if (lines.owner(j) == lines.owner(0)) return j;
  return 0;
}
[[nodiscard]] std::size_t other_owner_line(const AxisMap& lines) {
  for (std::size_t j = lines.n(); j-- > 1;)
    if (lines.owner(j) != lines.owner(0)) return j;
  return 0;
}

/// Runs the primitive program and renders its pin line:
///   now=<now_us %.17g> st=<every SimStats field, declaration order>
///   tr=<trace digest> pl=<result digest> thr=<calls that threw>
[[nodiscard]] std::string run_primitive_program(const PrimitiveConfig& c,
                                                unsigned lanes) {
  Cube cube(c.d, CostParams::cm2(), shift_opts(c.kind, lanes));
  if (c.faults)
    cube.enable_faults(FaultPlan::transient(
        0x9f1au + static_cast<unsigned>(c.d), 0.1, 0.1, 0.1, 2.5));
  cube.clock().tracer().set_recording(true);
  Grid grid(cube, c.gr, c.d - c.gr);
  const std::size_t m = c.m, n = c.n;
  const MatrixLayout layout{c.part, c.part};
  const std::uint64_t seed = 0x7c0u + m * 64 + n;
  DistMatrix<double> A(grid, m, n, layout);
  A.load(random_matrix(m, n, seed));
  DistVector<double> vc(grid, n, Align::Cols, c.part);
  vc.load(random_vector(n, seed + 1));
  DistVector<double> vr(grid, m, Align::Rows, c.part);
  vr.load(random_vector(m, seed + 2));
  const HostCsr h = power_law_csr(m, n, 2.5, 1.1, seed + 3);
  DistSparseMatrix<double> S(grid, m, n, layout);
  S.load_csr(h.rowptr, h.colind, h.vals);

  Digest pl;
  std::string thrown;
  int call = 0;
  const auto guarded = [&](auto&& body) {
    try {
      body();
    } catch (const FaultError&) {
      thrown += std::to_string(call) + ",";
    }
    ++call;
  };
  const auto keep = [&](const auto& x) {
    for (const double v : x.to_host()) pl.add(v);
  };
  const Plus<double> plus;
  const Max<double> max;
  const Min<double> min;

  // Dense: both spellings of every primitive on both axes.
  guarded([&] { keep(reduce_rows(A, plus)); });
  guarded([&] { keep(reduce_cols(A, plus)); });
  guarded([&] { keep(reduce_rows(A, max)); });
  guarded([&] { keep(reduce_cols(A, min)); });
  for (const Axis ax : {Axis::Row, Axis::Col}) {
    guarded([&] { keep(reduce(A, ax, plus)); });
    guarded([&] { keep(reduce(A, ax, max)); });
    guarded([&] { keep(reduce(A, ax, min)); });
  }
  guarded([&] { keep(extract_row(A, m / 2)); });
  guarded([&] { keep(extract_col(A, n / 2)); });
  guarded([&] { keep(extract(A, Axis::Row, m - 1)); });
  guarded([&] { keep(extract(A, Axis::Col, 0)); });
  guarded([&] { insert_row(A, m / 3, vc); });
  guarded([&] { insert_col(A, n / 3, vr); });
  guarded([&] { insert(A, Axis::Row, m - 1, vc); });
  guarded([&] { insert(A, Axis::Col, n - 1, vr); });
  guarded([&] { insert_row_range(A, m / 2, vc, n / 3, n - n / 4); });
  guarded([&] { insert_col_range(A, n / 2, vr, m / 3, m); });
  guarded([&] { insert_range(A, Axis::Row, 0, vc, 1, n / 2); });
  guarded([&] { insert_range(A, Axis::Col, 0, vr, m / 2, m / 2); });
  keep(A);
  guarded([&] { keep(distribute_rows(vc, m)); });
  guarded([&] { keep(distribute_rows(vc, m + 2, Part::Cyclic)); });
  guarded([&] { keep(distribute_cols(vr, n, Part::Cyclic)); });
  guarded([&] { keep(distribute_cols(vr, n + 1)); });
  guarded([&] { keep(distribute(vc, Axis::Row, m + 1, Part::Cyclic)); });
  guarded([&] { keep(distribute(vr, Axis::Col, n, Part::Block)); });
  guarded([&] { keep(matvec(A, vc)); });
  guarded([&] { keep(matvec_fused(A, vc)); });
  guarded([&] { keep(vecmat(vr, A)); });
  guarded([&] { keep(vecmat_fused(vr, A)); });
  guarded([&] { swap_rows(A, 0, other_owner_line(A.rowmap())); });
  guarded([&] { swap_rows(A, 0, same_owner_line(A.rowmap())); });
  guarded([&] { swap_rows(A, m / 2, m / 2); });
  guarded([&] { swap_cols(A, 0, other_owner_line(A.colmap())); });
  guarded([&] { swap_cols(A, 0, same_owner_line(A.colmap())); });
  keep(A);

  // Sparse: every storage-generic primitive, both spellings, both axes.
  guarded([&] { keep(reduce_rows(S, plus)); });
  guarded([&] { keep(reduce_cols(S, max)); });
  guarded([&] { keep(reduce(S, Axis::Row, min)); });
  guarded([&] { keep(reduce(S, Axis::Col, plus)); });
  guarded([&] { keep(extract_row(S, m / 2)); });
  guarded([&] { keep(extract_col(S, n / 2)); });
  guarded([&] { keep(extract(S, Axis::Row, 0)); });
  guarded([&] { keep(extract(S, Axis::Col, n - 1)); });
  guarded([&] { keep(distribute_like(S, vc, Axis::Row)); });
  guarded([&] { keep(distribute_like(S, vr, Axis::Col)); });
  guarded([&] {
    keep(hadamard(S, distribute_like(S, vr, Axis::Col)));
  });
  guarded([&] { keep(spmv(S, vc)); });
  guarded([&] { keep(spmv_fused(S, vc)); });
  guarded([&] { insert_row(S, 0, vc); });
  guarded([&] { insert_col(S, 0, vr); });
  guarded([&] { insert(S, Axis::Row, m - 1, vc); });
  guarded([&] { insert(S, Axis::Col, n / 2, vr); });
  keep(S);
  for (std::size_t i = 0; i < m; i += 2)
    for (std::size_t j = 0; j < n; j += 3) pl.add(S.at(i, j));
  if (m == n) {
    guarded([&] { keep(extract_diagonal(A)); });
    guarded([&] { keep(extract_diagonal(S)); });
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
  return line + " tr=" + trace_digest(cube.clock().tracer()) +
         " pl=" + pl.hex() + " thr=" + thrown;
}

struct PrimitiveGolden {
  PrimitiveConfig config;
  const char* line;
};

// Recorded from the program above over d ∈ {1,3,4,6} × gr ∈ {d/2, d} ×
// shapes {5×3, 13×13, 33×20} × Block/Cyclic × {no injector, transient
// plan} on each preset; one line serves both lane counts.  At d = gr = 6
// the 5×3 sparse column reduction exhausts the transient plan's retry
// budget on every preset (thr=40).
const PrimitiveGolden kPrimitiveGoldens[] = {
    {{TopologyKind::Hypercube, 1, 0, 5, 3, Part::Block, false},
     "now=604 st=16,28,140,80,496,730,0,0,28,0,0,0,"
     "4992,69,19,15,4608, tr=a740f7cd8ceddc72 pl=3db480d0facae76d thr="},
    {{TopologyKind::Hypercube, 1, 0, 5, 3, Part::Block, true},
     "now=899 st=29,38,190,125,496,730,0,0,38,10,6,0,"
     "4992,69,19,15,4608, tr=6d90e4c444c9bbcd pl=3db480d0facae76d thr="},
    {{TopologyKind::Hypercube, 1, 0, 5, 3, Part::Cyclic, false},
     "now=600.75 st=16,28,140,80,483,730,0,0,28,0,0,0,"
     "4992,69,19,15,4608, tr=3226a9c240f944f2 pl=7b25ffaf5f87d905 thr="},
    {{TopologyKind::Hypercube, 1, 0, 5, 3, Part::Cyclic, true},
     "now=929.25 st=31,39,195,130,483,730,0,0,39,11,6,0,"
     "4992,69,19,15,4608, tr=0e0299d863e362c6 pl=7b25ffaf5f87d905 thr="},
    {{TopologyKind::Hypercube, 1, 0, 13, 13, Part::Block, false},
     "now=1369 st=16,28,364,208,3044,5454,0,0,28,0,0,0,"
     "14592,71,21,17,13312, tr=b195b6db63777133 pl=24a85cadde3ae39d thr="},
    {{TopologyKind::Hypercube, 1, 0, 13, 13, Part::Block, true},
     "now=1736 st=29,38,494,325,3044,5454,0,0,38,10,6,0,"
     "14592,71,21,17,13312, tr=2ac6041d86490868 pl=24a85cadde3ae39d thr="},
    {{TopologyKind::Hypercube, 1, 0, 13, 13, Part::Cyclic, false},
     "now=1359.25 st=16,28,364,208,3005,5454,0,0,28,0,0,0,"
     "14592,71,21,17,13312, tr=62d4e56f36da9bf6 pl=b2c654e3b5807ee2 thr="},
    {{TopologyKind::Hypercube, 1, 0, 13, 13, Part::Cyclic, true},
     "now=1765.25 st=30,39,507,338,3005,5454,0,0,39,11,6,0,"
     "14592,71,21,17,13312, tr=984d3b1377954d71 pl=b2c654e3b5807ee2 thr="},
    {{TopologyKind::Hypercube, 1, 0, 33, 20, Part::Block, false},
     "now=3454.75 st=16,28,924,528,10107,19641,0,0,28,0,0,0,"
     "46592,72,22,18,43520, tr=9a77b13e1380d3bc pl=4c94f14a186c486f thr="},
    {{TopologyKind::Hypercube, 1, 0, 33, 20, Part::Block, true},
     "now=4004.25 st=30,38,1254,825,10107,19641,0,0,38,10,6,0,"
     "46592,72,22,18,43520, tr=6d3383b4def8e8c0 pl=4c94f14a186c486f thr="},
    {{TopologyKind::Hypercube, 1, 0, 33, 20, Part::Cyclic, false},
     "now=3461.25 st=16,28,924,528,10133,19641,0,0,28,0,0,0,"
     "46592,72,22,18,43520, tr=52c30bfa30ce6824 pl=40daef477a74aebf thr="},
    {{TopologyKind::Hypercube, 1, 0, 33, 20, Part::Cyclic, true},
     "now=4008.25 st=29,38,1254,825,10133,19641,0,0,38,10,6,0,"
     "46592,72,22,18,43520, tr=56610cd74824e62a pl=40daef477a74aebf thr="},
    {{TopologyKind::Hypercube, 1, 1, 5, 3, Part::Block, false},
     "now=502.75 st=14,24,72,42,443,674,0,0,24,0,0,0,"
     "4992,65,19,15,4608, tr=4070d7fd6f6b3974 pl=d9fffbd2bdf0a31d thr="},
    {{TopologyKind::Hypercube, 1, 1, 5, 3, Part::Block, true},
     "now=747.25 st=25,33,99,66,443,674,0,0,33,9,5,0,"
     "4992,65,19,15,4608, tr=7c3c934794548dfe pl=d9fffbd2bdf0a31d thr="},
    {{TopologyKind::Hypercube, 1, 1, 5, 3, Part::Cyclic, false},
     "now=496.25 st=14,24,72,42,417,674,0,0,24,0,0,0,"
     "4992,65,19,15,4608, tr=72a4c47c7f44408b pl=24a5440881513275 thr="},
    {{TopologyKind::Hypercube, 1, 1, 5, 3, Part::Cyclic, true},
     "now=802.25 st=28,35,105,72,417,674,0,0,35,11,6,0,"
     "4992,65,19,15,4608, tr=99513135ef10b316 pl=24a5440881513275 thr="},
    {{TopologyKind::Hypercube, 1, 1, 13, 13, Part::Block, false},
     "now=1391.25 st=16,28,364,208,3133,5454,0,0,28,0,0,0,"
     "13824,73,19,15,12544, tr=9c194b4af96f53f7 pl=f1857f8f0d5b5109 thr="},
    {{TopologyKind::Hypercube, 1, 1, 13, 13, Part::Block, true},
     "now=1715.75 st=27,37,481,312,3133,5454,0,0,37,9,5,0,"
     "13824,73,19,15,12544, tr=596bb81a179df218 pl=f1857f8f0d5b5109 thr="},
    {{TopologyKind::Hypercube, 1, 1, 13, 13, Part::Cyclic, false},
     "now=1371.75 st=16,28,364,208,3055,5454,0,0,28,0,0,0,"
     "14336,71,21,17,13056, tr=0365174482a5dee4 pl=d73daec82600da0c thr="},
    {{TopologyKind::Hypercube, 1, 1, 13, 13, Part::Cyclic, true},
     "now=1777.75 st=30,39,507,338,3055,5454,0,0,39,11,6,0,"
     "14336,71,21,17,13056, tr=30bd8f68b41511c3 pl=d73daec82600da0c thr="},
    {{TopologyKind::Hypercube, 1, 1, 33, 20, Part::Block, false},
     "now=3226.25 st=14,24,480,280,10385,19275,0,0,24,0,0,0,"
     "38400,69,19,15,36864, tr=9550e9ae3b508614 pl=2b977edd3c98e3db thr="},
    {{TopologyKind::Hypercube, 1, 1, 33, 20, Part::Block, true},
     "now=3606.75 st=25,33,660,440,10385,19275,0,0,33,9,5,0,"
     "38400,69,19,15,36864, tr=0c65af7b58ab9535 pl=2b977edd3c98e3db thr="},
    {{TopologyKind::Hypercube, 1, 1, 33, 20, Part::Cyclic, false},
     "now=3164.5 st=14,24,480,280,10138,19275,0,0,24,0,0,0,"
     "39424,67,21,17,37888, tr=2094f59c64fc514d pl=2accccab40559c17 thr="},
    {{TopologyKind::Hypercube, 1, 1, 33, 20, Part::Cyclic, true},
     "now=3640.5 st=28,35,700,480,10138,19275,0,0,35,11,6,0,"
     "39424,67,21,17,37888, tr=0c2380151c65ed67 pl=2accccab40559c17 thr="},
    {{TopologyKind::Hypercube, 3, 1, 5, 3, Part::Block, false},
     "now=1290.75 st=45,276,582,107,235,1210,0,0,276,0,0,0,"
     "18176,281,25,15,17408, tr=5cbcca4c253bddac pl=e10a54bc12f5510d thr="},
    {{TopologyKind::Hypercube, 3, 1, 5, 3, Part::Block, true},
     "now=2615.75 st=115,339,712,199,235,1210,0,0,339,63,29,0,"
     "18176,281,25,15,17408, tr=4fccb3e1fc631a0a pl=e10a54bc12f5510d thr="},
    {{TopologyKind::Hypercube, 3, 1, 5, 3, Part::Cyclic, false},
     "now=1287.5 st=45,276,582,107,222,1210,0,0,276,0,0,0,"
     "18176,281,25,15,17408, tr=2c71ccaa24f0627b pl=dcb11b86ddeb631d thr="},
    {{TopologyKind::Hypercube, 3, 1, 5, 3, Part::Cyclic, true},
     "now=2645 st=117,339,712,200,222,1210,0,0,339,63,29,0,"
     "18176,281,25,15,17408, tr=09d0953710c2e4f1 pl=dcb11b86ddeb631d thr="},
    {{TopologyKind::Hypercube, 3, 1, 13, 13, Part::Block, false},
     "now=1788 st=48,320,1716,288,1200,6752,0,0,320,0,0,0,"
     "31232,309,39,15,27648, tr=7dd7f6d701e18dcb pl=d0142bebbd74ffa2 thr="},
    {{TopologyKind::Hypercube, 3, 1, 13, 13, Part::Block, true},
     "now=3617.5 st=134,402,2149,579,1200,6752,0,0,402,82,44,0,"
     "31232,309,39,15,27648, tr=3cdb345c2d85380c pl=d0142bebbd74ffa2 thr="},
    {{TopologyKind::Hypercube, 3, 1, 13, 13, Part::Cyclic, false},
     "now=1778.25 st=48,320,1716,288,1161,6752,0,0,320,0,0,0,"
     "32256,307,41,17,28672, tr=7d830d1f36b3c2a6 pl=3fd4cda1faa13ba6 thr="},
    {{TopologyKind::Hypercube, 3, 1, 13, 13, Part::Cyclic, true},
     "now=3653.25 st=140,402,2153,583,1161,6752,0,0,402,82,44,0,"
     "32256,307,41,17,28672, tr=2fca422e854b7387 pl=3fd4cda1faa13ba6 thr="},
    {{TopologyKind::Hypercube, 3, 1, 33, 20, Part::Block, false},
     "now=2551.25 st=46,304,3912,614,3149,22267,0,0,304,0,0,0,"
     "58880,301,33,17,53248, tr=e7f7b31f298b57f2 pl=ec18f1a4d85cbc1b thr="},
    {{TopologyKind::Hypercube, 3, 1, 33, 20, Part::Block, true},
     "now=4654.25 st=130,381,4883,1255,3149,22267,0,0,381,77,43,0,"
     "58880,301,33,17,53248, tr=be073fbbd0b068bd pl=ec18f1a4d85cbc1b thr="},
    {{TopologyKind::Hypercube, 3, 1, 33, 20, Part::Cyclic, false},
     "now=2541.5 st=46,304,3912,614,3110,22267,0,0,304,0,0,0,"
     "54784,302,32,16,49152, tr=be080dbda23d7e26 pl=0b79810c8bd652d6 thr="},
    {{TopologyKind::Hypercube, 3, 1, 33, 20, Part::Cyclic, true},
     "now=4681 st=132,380,4878,1260,3110,22267,0,0,380,76,42,0,"
     "54784,302,32,16,49152, tr=44c0628c0ed888da pl=0b79810c8bd652d6 thr="},
    {{TopologyKind::Hypercube, 3, 3, 5, 3, Part::Block, false},
     "now=1180.25 st=40,246,738,120,241,1262,0,0,246,0,0,0,"
     "18176,257,25,15,17408, tr=bab0fbc540d06d8c pl=4db6534c9b50f889 thr="},
    {{TopologyKind::Hypercube, 3, 3, 5, 3, Part::Block, true},
     "now=2394.75 st=102,304,912,237,241,1262,0,0,304,58,34,0,"
     "18176,257,25,15,17408, tr=72e802987f99ffed pl=4db6534c9b50f889 thr="},
    {{TopologyKind::Hypercube, 3, 3, 5, 3, Part::Cyclic, false},
     "now=1180.25 st=40,246,738,120,241,1262,0,0,246,0,0,0,"
     "18176,257,25,15,17408, tr=bab0fbc540d06d8c pl=4db6534c9b50f889 thr="},
    {{TopologyKind::Hypercube, 3, 3, 5, 3, Part::Cyclic, true},
     "now=2394.75 st=102,304,912,237,241,1262,0,0,304,58,34,0,"
     "18176,257,25,15,17408, tr=72e802987f99ffed pl=4db6534c9b50f889 thr="},
    {{TopologyKind::Hypercube, 3, 3, 13, 13, Part::Block, false},
     "now=2204.25 st=48,298,3874,624,1521,8600,0,0,298,0,0,0,"
     "32768,309,29,15,28672, tr=928301dcb00bb892 pl=4ed30327e6890c45 thr="},
    {{TopologyKind::Hypercube, 3, 3, 13, 13, Part::Block, true},
     "now=3986.75 st=124,367,4771,1183,1521,8600,0,0,367,69,35,0,"
     "32768,309,29,15,28672, tr=3110daa375126115 pl=4ed30327e6890c45 thr="},
    {{TopologyKind::Hypercube, 3, 3, 13, 13, Part::Cyclic, false},
     "now=2115.25 st=46,294,3822,598,1469,8600,0,0,294,0,0,0,"
     "30720,309,25,15,28672, tr=f819bc63497af157 pl=48b7b31e98187edb thr="},
    {{TopologyKind::Hypercube, 3, 3, 13, 13, Part::Cyclic, true},
     "now=4010.25 st=120,365,4745,1196,1469,8600,0,0,365,71,40,0,"
     "30720,309,25,15,28672, tr=5f92c0aab3566623 pl=48b7b31e98187edb thr="},
    {{TopologyKind::Hypercube, 3, 3, 33, 20, Part::Block, false},
     "now=2904 st=42,250,5000,840,4056,23235,0,0,250,0,0,0,"
     "55296,261,29,15,50176, tr=4a331fb300c29df3 pl=a0b3b37c75aac76f thr="},
    {{TopologyKind::Hypercube, 3, 3, 33, 20, Part::Block, true},
     "now=4599.5 st=104,306,6120,1540,4056,23235,0,0,306,56,30,0,"
     "55296,261,29,15,50176, tr=17355a34e1e7f78d pl=a0b3b37c75aac76f thr="},
    {{TopologyKind::Hypercube, 3, 3, 33, 20, Part::Cyclic, false},
     "now=2832.5 st=42,250,5000,840,3770,23235,0,0,250,0,0,0,"
     "55296,261,29,15,50176, tr=8d26ff8d1b9781ac pl=34b300c6ee474fa6 thr="},
    {{TopologyKind::Hypercube, 3, 3, 33, 20, Part::Cyclic, true},
     "now=4783 st=113,311,6220,1640,3770,23235,0,0,311,61,33,0,"
     "55296,261,29,15,50176, tr=aa0348308bc580d6 pl=34b300c6ee474fa6 thr="},
    {{TopologyKind::Hypercube, 4, 2, 5, 3, Part::Block, false},
     "now=1608 st=59,672,774,90,172,1602,0,0,672,0,0,0,"
     "35840,623,31,15,34816, tr=6db2e99512c92841 pl=e10a54bc12f5510d thr="},
    {{TopologyKind::Hypercube, 4, 2, 5, 3, Part::Block, true},
     "now=3659 st=182,809,933,176,172,1602,0,0,809,137,66,0,"
     "35840,623,31,15,34816, tr=16e46ae77254a76c pl=e10a54bc12f5510d thr="},
    {{TopologyKind::Hypercube, 4, 2, 5, 3, Part::Cyclic, false},
     "now=1608 st=59,672,774,90,172,1602,0,0,672,0,0,0,"
     "35840,623,31,15,34816, tr=6db2e99512c92841 pl=d6f67c465cfbe811 thr="},
    {{TopologyKind::Hypercube, 4, 2, 5, 3, Part::Cyclic, true},
     "now=3832 st=188,815,939,182,172,1602,0,0,815,143,69,0,"
     "35840,623,31,15,34816, tr=20a31422f4e5dbb5 pl=d6f67c465cfbe811 thr="},
    {{TopologyKind::Hypercube, 4, 2, 13, 13, Part::Block, false},
     "now=2056 st=64,832,2704,256,800,7984,0,0,832,0,0,0,"
     "39936,757,47,15,36864, tr=771ac5d41c83b69c pl=fc041bc922ab3bee thr="},
    {{TopologyKind::Hypercube, 4, 2, 13, 13, Part::Block, true},
     "now=4975.5 st=219,1022,3313,565,800,7984,0,0,1022,190,101,0,"
     "39936,757,47,15,36864, tr=2b916c8db1cc6ad2 pl=fc041bc922ab3bee thr="},
    {{TopologyKind::Hypercube, 4, 2, 13, 13, Part::Cyclic, false},
     "now=2049.5 st=64,832,2704,256,774,7984,0,0,832,0,0,0,"
     "39936,757,47,15,36864, tr=4177689ce700d1db pl=a34944fc9914beae thr="},
    {{TopologyKind::Hypercube, 4, 2, 13, 13, Part::Cyclic, true},
     "now=4967 st=217,1023,3318,567,774,7984,0,0,1023,191,102,0,"
     "39936,757,47,15,36864, tr=7c4728ea2e4e64b8 pl=a34944fc9914beae thr="},
    {{TopologyKind::Hypercube, 4, 2, 33, 20, Part::Block, false},
     "now=2388.75 st=60,768,5192,428,1843,23523,0,0,768,0,0,0,"
     "66304,681,59,15,59392, tr=93e8f51318603221 pl=ad81c732609b9b33 thr="},
    {{TopologyKind::Hypercube, 4, 2, 33, 20, Part::Block, true},
     "now=5412.25 st=203,942,6356,1013,1843,23523,0,0,942,174,92,0,"
     "66304,681,59,15,59392, tr=c8f2beef0d53f149 pl=ad81c732609b9b33 thr="},
    {{TopologyKind::Hypercube, 4, 2, 33, 20, Part::Cyclic, false},
     "now=2366 st=60,768,5192,428,1752,23523,0,0,768,0,0,0,"
     "66304,681,59,15,59392, tr=24cfb2b025e6dde8 pl=998487e29caa95ef thr="},
    {{TopologyKind::Hypercube, 4, 2, 33, 20, Part::Cyclic, true},
     "now=5454 st=206,948,6386,1023,1752,23523,0,0,948,180,95,0,"
     "66304,681,59,15,59392, tr=6897a4196f9b149a pl=998487e29caa95ef thr="},
    {{TopologyKind::Hypercube, 4, 4, 5, 3, Part::Block, false},
     "now=1551 st=53,638,1914,159,268,2342,0,0,638,0,0,0,"
     "36096,609,33,15,34816, tr=9e4ac67242b20597 pl=4db6534c9b50f889 thr="},
    {{TopologyKind::Hypercube, 4, 4, 5, 3, Part::Block, true},
     "now=3768.5 st=178,807,2421,369,268,2342,0,0,807,169,87,0,"
     "36096,609,33,15,34816, tr=261dc5e286e3fba2 pl=4db6534c9b50f889 thr="},
    {{TopologyKind::Hypercube, 4, 4, 5, 3, Part::Cyclic, false},
     "now=1551 st=53,638,1914,159,268,2342,0,0,638,0,0,0,"
     "36096,609,33,15,34816, tr=9e4ac67242b20597 pl=4db6534c9b50f889 thr="},
    {{TopologyKind::Hypercube, 4, 4, 5, 3, Part::Cyclic, true},
     "now=3768.5 st=178,807,2421,369,268,2342,0,0,807,169,87,0,"
     "36096,609,33,15,34816, tr=261dc5e286e3fba2 pl=4db6534c9b50f889 thr="},
    {{TopologyKind::Hypercube, 4, 4, 13, 13, Part::Block, false},
     "now=2661.5 st=62,768,9984,806,1222,14294,0,0,768,0,0,0,"
     "61440,740,36,16,57344, tr=1f248702e5e560ce pl=07931d6d88df635c thr="},
    {{TopologyKind::Hypercube, 4, 4, 13, 13, Part::Block, true},
     "now=6156.5 st=210,967,12571,1898,1222,14294,0,0,967,199,108,0,"
     "61440,740,36,16,57344, tr=fe115eb80ba55694 pl=07931d6d88df635c thr="},
    {{TopologyKind::Hypercube, 4, 4, 13, 13, Part::Cyclic, false},
     "now=2661.5 st=62,768,9984,806,1222,14294,0,0,768,0,0,0,"
     "61440,740,36,16,57344, tr=1f248702e5e560ce pl=07931d6d88df635c thr="},
    {{TopologyKind::Hypercube, 4, 4, 13, 13, Part::Cyclic, true},
     "now=6156.5 st=210,967,12571,1898,1222,14294,0,0,967,199,108,0,"
     "61440,740,36,16,57344, tr=fe115eb80ba55694 pl=07931d6d88df635c thr="},
    {{TopologyKind::Hypercube, 4, 4, 33, 20, Part::Block, false},
     "now=3218.25 st=69,1280,12880,730,3053,30435,0,0,1280,0,0,0,"
     "108544,1173,55,15,100352, tr=07e13a6ed0856157 pl=374471ff7ad4806b thr="},
    {{TopologyKind::Hypercube, 4, 4, 33, 20, Part::Block, true},
     "now=7293.75 st=251,1590,16010,1810,3053,30435,0,0,1590,310,170,0,"
     "108544,1173,55,15,100352, tr=8f4451e1dec87f99 pl=374471ff7ad4806b thr="},
    {{TopologyKind::Hypercube, 4, 4, 33, 20, Part::Cyclic, false},
     "now=3166.25 st=69,1280,12880,730,2845,30435,0,0,1280,0,0,0,"
     "104448,1172,56,16,96256, tr=7ee090282dd2714d pl=b4024e6ec2e35b0f thr="},
    {{TopologyKind::Hypercube, 4, 4, 33, 20, Part::Cyclic, true},
     "now=6984.75 st=244,1580,15910,1740,2845,30435,0,0,1580,300,162,0,"
     "104448,1172,56,16,96256, tr=1ebb2f232b962b59 pl=b4024e6ec2e35b0f thr="},
    {{TopologyKind::Hypercube, 6, 3, 5, 3, Part::Block, false},
     "now=2265.75 st=86,2208,2208,86,119,4444,0,0,2208,0,0,0,"
     "142400,1986,64,15,139264, tr=7cf8c86d4be204d9 pl=39d9ecc358f2fcf9 thr="},
    {{TopologyKind::Hypercube, 6, 3, 5, 3, Part::Block, true},
     "now=7036.75 st=368,2826,2826,246,119,4444,0,0,2826,618,286,0,"
     "142400,1986,64,15,139264, tr=f312297b1e1f0cb8 pl=39d9ecc358f2fcf9 thr="},
    {{TopologyKind::Hypercube, 6, 3, 5, 3, Part::Cyclic, false},
     "now=2265.75 st=86,2208,2208,86,119,4444,0,0,2208,0,0,0,"
     "142400,1986,64,15,139264, tr=7cf8c86d4be204d9 pl=39d9ecc358f2fcf9 thr="},
    {{TopologyKind::Hypercube, 6, 3, 5, 3, Part::Cyclic, true},
     "now=7036.75 st=368,2826,2826,246,119,4444,0,0,2826,618,286,0,"
     "142400,1986,64,15,139264, tr=f312297b1e1f0cb8 pl=39d9ecc358f2fcf9 thr="},
    {{TopologyKind::Hypercube, 6, 3, 13, 13, Part::Block, false},
     "now=2673.75 st=96,4768,7748,192,327,13616,0,0,4768,0,0,0,"
     "143360,4309,79,15,139264, tr=b5107eeca32a91e5 pl=c236e30628e237f2 thr="},
    {{TopologyKind::Hypercube, 6, 3, 13, 13, Part::Block, true},
     "now=9075.25 st=471,5989,9749,586,327,13616,0,0,5989,1221,594,0,"
     "143360,4309,79,15,139264, tr=2b3447b7119a9855 pl=c236e30628e237f2 thr="},
    {{TopologyKind::Hypercube, 6, 3, 13, 13, Part::Cyclic, false},
     "now=2562.5 st=92,4704,7644,184,314,13616,0,0,4704,0,0,0,"
     "143360,4245,79,15,139264, tr=1eeb3caf8ef8c98f pl=74a1525728a9d2e6 thr="},
    {{TopologyKind::Hypercube, 6, 3, 13, 13, Part::Cyclic, true},
     "now=8901 st=467,5989,9714,565,314,13616,0,0,5989,1285,601,0,"
     "143360,4245,79,15,139264, tr=4ace693867f286ff pl=74a1525728a9d2e6 thr="},
    {{TopologyKind::Hypercube, 6, 3, 33, 20, Part::Block, false},
     "now=2825 st=90,4384,14834,366,836,34659,0,0,4384,0,0,0,"
     "158464,3869,133,15,147456, tr=7c036decb37afe69 pl=9c485027dcb655fa thr="},
    {{TopologyKind::Hypercube, 6, 3, 33, 20, Part::Block, true},
     "now=9160.5 st=442,5530,18688,1072,836,34659,0,0,5530,1146,554,0,"
     "158464,3869,133,15,147456, tr=94fd3c6661b14977 pl=9c485027dcb655fa thr="},
    {{TopologyKind::Hypercube, 6, 3, 33, 20, Part::Cyclic, false},
     "now=2782 st=89,4368,14768,361,784,34659,0,0,4368,0,0,0,"
     "155648,3875,111,15,147456, tr=9faa1a435d1ed209 pl=013fd8f0b95584f6 thr="},
    {{TopologyKind::Hypercube, 6, 3, 33, 20, Part::Cyclic, true},
     "now=9389 st=452,5522,18655,1092,784,34659,0,0,5522,1154,549,0,"
     "155648,3875,111,15,147456, tr=a775949c8d73ea27 pl=013fd8f0b95584f6 thr="},
    {{TopologyKind::Hypercube, 6, 6, 5, 3, Part::Block, false},
     "now=2292.5 st=79,3710,11130,237,322,10982,0,0,3710,0,0,0,"
     "143616,3441,81,15,139264, tr=da75530ae134be50 pl=4db6534c9b50f889 thr="},
    {{TopologyKind::Hypercube, 6, 6, 5, 3, Part::Block, true},
     "now=7409.25 st=366,4671,14013,711,319,10790,0,0,4671,961,461,0,"
     "143616,3441,81,15,139264, tr=1cc58b2d1bf91ac2 pl=932bd47c847c7f42 thr=40,"},
    {{TopologyKind::Hypercube, 6, 6, 5, 3, Part::Cyclic, false},
     "now=2292.5 st=79,3710,11130,237,322,10982,0,0,3710,0,0,0,"
     "143616,3441,81,15,139264, tr=da75530ae134be50 pl=4db6534c9b50f889 thr="},
    {{TopologyKind::Hypercube, 6, 6, 5, 3, Part::Cyclic, true},
     "now=7409.25 st=366,4671,14013,711,319,10790,0,0,4671,961,461,0,"
     "143616,3441,81,15,139264, tr=1cc58b2d1bf91ac2 pl=932bd47c847c7f42 thr=40,"},
    {{TopologyKind::Hypercube, 6, 6, 13, 13, Part::Block, false},
     "now=3798 st=107,8956,58240,746,1508,60054,0,0,8956,0,0,0,"
     "239616,8372,148,16,229376, tr=c1f80b7bc2e7288c pl=07931d6d88df635c thr="},
    {{TopologyKind::Hypercube, 6, 6, 13, 13, Part::Block, true},
     "now=12723 st=568,11209,72917,2403,1508,60054,0,0,11209,2253,1172,0,"
     "239616,8372,148,16,229376, tr=c28b0b490740029d pl=07931d6d88df635c thr="},
    {{TopologyKind::Hypercube, 6, 6, 13, 13, Part::Cyclic, false},
     "now=3798 st=107,8956,58240,746,1508,60054,0,0,8956,0,0,0,"
     "239616,8372,148,16,229376, tr=c1f80b7bc2e7288c pl=07931d6d88df635c thr="},
    {{TopologyKind::Hypercube, 6, 6, 13, 13, Part::Cyclic, true},
     "now=12723 st=568,11209,72917,2403,1508,60054,0,0,11209,2253,1172,0,"
     "239616,8372,148,16,229376, tr=c28b0b490740029d pl=07931d6d88df635c thr="},
    {{TopologyKind::Hypercube, 6, 6, 33, 20, Part::Block, false},
     "now=3748.25 st=92,7418,74200,930,2073,87995,0,0,7418,0,0,0,"
     "353280,6836,146,16,335872, tr=ee7c3cb0c6eb51f2 pl=bac48b6690f334e7 thr="},
    {{TopologyKind::Hypercube, 6, 6, 33, 20, Part::Block, true},
     "now=12018.75 st=480,9318,93210,3030,2073,87995,0,0,9318,1900,968,0,"
     "353280,6836,146,16,335872, tr=6ebc7ff48a3d268c pl=bac48b6690f334e7 thr="},
    {{TopologyKind::Hypercube, 6, 6, 33, 20, Part::Cyclic, false},
     "now=3748.25 st=92,7418,74200,930,2073,87995,0,0,7418,0,0,0,"
     "353280,6836,146,16,335872, tr=ee7c3cb0c6eb51f2 pl=bac48b6690f334e7 thr="},
    {{TopologyKind::Hypercube, 6, 6, 33, 20, Part::Cyclic, true},
     "now=12018.75 st=480,9318,93210,3030,2073,87995,0,0,9318,1900,968,0,"
     "353280,6836,146,16,335872, tr=6ebc7ff48a3d268c pl=bac48b6690f334e7 thr="},
    {{TopologyKind::Mesh, 1, 0, 5, 3, Part::Block, false},
     "now=604 st=16,28,140,80,496,730,0,0,28,0,0,0,"
     "4992,69,19,15,4608, tr=a740f7cd8ceddc72 pl=3db480d0facae76d thr="},
    {{TopologyKind::Mesh, 1, 0, 5, 3, Part::Block, true},
     "now=899 st=29,38,190,125,496,730,0,0,38,10,6,0,"
     "4992,69,19,15,4608, tr=6d90e4c444c9bbcd pl=3db480d0facae76d thr="},
    {{TopologyKind::Mesh, 1, 0, 5, 3, Part::Cyclic, false},
     "now=600.75 st=16,28,140,80,483,730,0,0,28,0,0,0,"
     "4992,69,19,15,4608, tr=3226a9c240f944f2 pl=7b25ffaf5f87d905 thr="},
    {{TopologyKind::Mesh, 1, 0, 5, 3, Part::Cyclic, true},
     "now=929.25 st=31,39,195,130,483,730,0,0,39,11,6,0,"
     "4992,69,19,15,4608, tr=0e0299d863e362c6 pl=7b25ffaf5f87d905 thr="},
    {{TopologyKind::Mesh, 1, 0, 13, 13, Part::Block, false},
     "now=1369 st=16,28,364,208,3044,5454,0,0,28,0,0,0,"
     "14592,71,21,17,13312, tr=b195b6db63777133 pl=24a85cadde3ae39d thr="},
    {{TopologyKind::Mesh, 1, 0, 13, 13, Part::Block, true},
     "now=1736 st=29,38,494,325,3044,5454,0,0,38,10,6,0,"
     "14592,71,21,17,13312, tr=2ac6041d86490868 pl=24a85cadde3ae39d thr="},
    {{TopologyKind::Mesh, 1, 0, 13, 13, Part::Cyclic, false},
     "now=1359.25 st=16,28,364,208,3005,5454,0,0,28,0,0,0,"
     "14592,71,21,17,13312, tr=62d4e56f36da9bf6 pl=b2c654e3b5807ee2 thr="},
    {{TopologyKind::Mesh, 1, 0, 13, 13, Part::Cyclic, true},
     "now=1765.25 st=30,39,507,338,3005,5454,0,0,39,11,6,0,"
     "14592,71,21,17,13312, tr=984d3b1377954d71 pl=b2c654e3b5807ee2 thr="},
    {{TopologyKind::Mesh, 1, 0, 33, 20, Part::Block, false},
     "now=3454.75 st=16,28,924,528,10107,19641,0,0,28,0,0,0,"
     "46592,72,22,18,43520, tr=9a77b13e1380d3bc pl=4c94f14a186c486f thr="},
    {{TopologyKind::Mesh, 1, 0, 33, 20, Part::Block, true},
     "now=4004.25 st=30,38,1254,825,10107,19641,0,0,38,10,6,0,"
     "46592,72,22,18,43520, tr=6d3383b4def8e8c0 pl=4c94f14a186c486f thr="},
    {{TopologyKind::Mesh, 1, 0, 33, 20, Part::Cyclic, false},
     "now=3461.25 st=16,28,924,528,10133,19641,0,0,28,0,0,0,"
     "46592,72,22,18,43520, tr=52c30bfa30ce6824 pl=40daef477a74aebf thr="},
    {{TopologyKind::Mesh, 1, 0, 33, 20, Part::Cyclic, true},
     "now=4008.25 st=29,38,1254,825,10133,19641,0,0,38,10,6,0,"
     "46592,72,22,18,43520, tr=56610cd74824e62a pl=40daef477a74aebf thr="},
    {{TopologyKind::Mesh, 1, 1, 5, 3, Part::Block, false},
     "now=502.75 st=14,24,72,42,443,674,0,0,24,0,0,0,"
     "4992,65,19,15,4608, tr=4070d7fd6f6b3974 pl=d9fffbd2bdf0a31d thr="},
    {{TopologyKind::Mesh, 1, 1, 5, 3, Part::Block, true},
     "now=747.25 st=25,33,99,66,443,674,0,0,33,9,5,0,"
     "4992,65,19,15,4608, tr=7c3c934794548dfe pl=d9fffbd2bdf0a31d thr="},
    {{TopologyKind::Mesh, 1, 1, 5, 3, Part::Cyclic, false},
     "now=496.25 st=14,24,72,42,417,674,0,0,24,0,0,0,"
     "4992,65,19,15,4608, tr=72a4c47c7f44408b pl=24a5440881513275 thr="},
    {{TopologyKind::Mesh, 1, 1, 5, 3, Part::Cyclic, true},
     "now=802.25 st=28,35,105,72,417,674,0,0,35,11,6,0,"
     "4992,65,19,15,4608, tr=99513135ef10b316 pl=24a5440881513275 thr="},
    {{TopologyKind::Mesh, 1, 1, 13, 13, Part::Block, false},
     "now=1391.25 st=16,28,364,208,3133,5454,0,0,28,0,0,0,"
     "13824,73,19,15,12544, tr=9c194b4af96f53f7 pl=f1857f8f0d5b5109 thr="},
    {{TopologyKind::Mesh, 1, 1, 13, 13, Part::Block, true},
     "now=1715.75 st=27,37,481,312,3133,5454,0,0,37,9,5,0,"
     "13824,73,19,15,12544, tr=596bb81a179df218 pl=f1857f8f0d5b5109 thr="},
    {{TopologyKind::Mesh, 1, 1, 13, 13, Part::Cyclic, false},
     "now=1371.75 st=16,28,364,208,3055,5454,0,0,28,0,0,0,"
     "14336,71,21,17,13056, tr=0365174482a5dee4 pl=d73daec82600da0c thr="},
    {{TopologyKind::Mesh, 1, 1, 13, 13, Part::Cyclic, true},
     "now=1777.75 st=30,39,507,338,3055,5454,0,0,39,11,6,0,"
     "14336,71,21,17,13056, tr=30bd8f68b41511c3 pl=d73daec82600da0c thr="},
    {{TopologyKind::Mesh, 1, 1, 33, 20, Part::Block, false},
     "now=3226.25 st=14,24,480,280,10385,19275,0,0,24,0,0,0,"
     "38400,69,19,15,36864, tr=9550e9ae3b508614 pl=2b977edd3c98e3db thr="},
    {{TopologyKind::Mesh, 1, 1, 33, 20, Part::Block, true},
     "now=3606.75 st=25,33,660,440,10385,19275,0,0,33,9,5,0,"
     "38400,69,19,15,36864, tr=0c65af7b58ab9535 pl=2b977edd3c98e3db thr="},
    {{TopologyKind::Mesh, 1, 1, 33, 20, Part::Cyclic, false},
     "now=3164.5 st=14,24,480,280,10138,19275,0,0,24,0,0,0,"
     "39424,67,21,17,37888, tr=2094f59c64fc514d pl=2accccab40559c17 thr="},
    {{TopologyKind::Mesh, 1, 1, 33, 20, Part::Cyclic, true},
     "now=3640.5 st=28,35,700,480,10138,19275,0,0,35,11,6,0,"
     "39424,67,21,17,37888, tr=0c2380151c65ed67 pl=2accccab40559c17 thr="},
    {{TopologyKind::Mesh, 3, 1, 5, 3, Part::Block, false},
     "now=1723.75 st=45,276,582,107,235,1210,0,0,376,0,0,0,"
     "18176,281,25,15,17408, tr=5df5436591e0feac pl=e10a54bc12f5510d thr="},
    {{TopologyKind::Mesh, 3, 1, 5, 3, Part::Block, true},
     "now=3398.75 st=115,339,712,199,235,1210,0,0,458,63,29,0,"
     "18176,281,25,15,17408, tr=8cfe869b875196ba pl=e10a54bc12f5510d thr="},
    {{TopologyKind::Mesh, 3, 1, 5, 3, Part::Cyclic, false},
     "now=1720.5 st=45,276,582,107,222,1210,0,0,376,0,0,0,"
     "18176,281,25,15,17408, tr=ac2a337ec8d47c78 pl=dcb11b86ddeb631d thr="},
    {{TopologyKind::Mesh, 3, 1, 5, 3, Part::Cyclic, true},
     "now=3428 st=117,339,712,200,222,1210,0,0,458,63,29,0,"
     "18176,281,25,15,17408, tr=d4b5f4f1e9999ba7 pl=dcb11b86ddeb631d thr="},
    {{TopologyKind::Mesh, 3, 1, 13, 13, Part::Block, false},
     "now=2265 st=48,320,1716,288,1200,6752,0,0,420,0,0,0,"
     "31232,309,39,15,27648, tr=1033d7e908ea7dd0 pl=d0142bebbd74ffa2 thr="},
    {{TopologyKind::Mesh, 3, 1, 13, 13, Part::Block, true},
     "now=4599.5 st=134,402,2149,579,1200,6752,0,0,531,82,44,0,"
     "31232,309,39,15,27648, tr=1d89adcc016ce28b pl=d0142bebbd74ffa2 thr="},
    {{TopologyKind::Mesh, 3, 1, 13, 13, Part::Cyclic, false},
     "now=2255.25 st=48,320,1716,288,1161,6752,0,0,420,0,0,0,"
     "32256,307,41,17,28672, tr=ed63a047a022a8d8 pl=3fd4cda1faa13ba6 thr="},
    {{TopologyKind::Mesh, 3, 1, 13, 13, Part::Cyclic, true},
     "now=4585.25 st=140,402,2153,583,1161,6752,0,0,529,82,44,0,"
     "32256,307,41,17,28672, tr=80184e7db3854389 pl=3fd4cda1faa13ba6 thr="},
    {{TopologyKind::Mesh, 3, 1, 33, 20, Part::Block, false},
     "now=3138.25 st=46,304,3912,614,3149,22267,0,0,404,0,0,0,"
     "58880,301,33,17,53248, tr=9161cdea4b1886db pl=ec18f1a4d85cbc1b thr="},
    {{TopologyKind::Mesh, 3, 1, 33, 20, Part::Block, true},
     "now=5731.25 st=130,381,4883,1255,3149,22267,0,0,509,77,43,0,"
     "58880,301,33,17,53248, tr=60faf4b300735753 pl=ec18f1a4d85cbc1b thr="},
    {{TopologyKind::Mesh, 3, 1, 33, 20, Part::Cyclic, false},
     "now=3128.5 st=46,304,3912,614,3110,22267,0,0,404,0,0,0,"
     "54784,302,32,16,49152, tr=fff2db67b0c7bc16 pl=0b79810c8bd652d6 thr="},
    {{TopologyKind::Mesh, 3, 1, 33, 20, Part::Cyclic, true},
     "now=5758 st=132,380,4878,1260,3110,22267,0,0,508,76,42,0,"
     "54784,302,32,16,49152, tr=45dfbb3f49db1f10 pl=0b79810c8bd652d6 thr="},
    {{TopologyKind::Mesh, 3, 3, 5, 3, Part::Block, false},
     "now=1532.25 st=40,246,738,120,241,1262,0,0,326,0,0,0,"
     "18176,257,25,15,17408, tr=da2b5c673a5a2693 pl=4db6534c9b50f889 thr="},
    {{TopologyKind::Mesh, 3, 3, 5, 3, Part::Block, true},
     "now=3024.75 st=102,304,912,237,241,1262,0,0,403,58,34,0,"
     "18176,257,25,15,17408, tr=a6d82aeb1f039b45 pl=4db6534c9b50f889 thr="},
    {{TopologyKind::Mesh, 3, 3, 5, 3, Part::Cyclic, false},
     "now=1532.25 st=40,246,738,120,241,1262,0,0,326,0,0,0,"
     "18176,257,25,15,17408, tr=da2b5c673a5a2693 pl=4db6534c9b50f889 thr="},
    {{TopologyKind::Mesh, 3, 3, 5, 3, Part::Cyclic, true},
     "now=3024.75 st=102,304,912,237,241,1262,0,0,403,58,34,0,"
     "18176,257,25,15,17408, tr=a6d82aeb1f039b45 pl=4db6534c9b50f889 thr="},
    {{TopologyKind::Mesh, 3, 3, 13, 13, Part::Block, false},
     "now=2747.25 st=48,298,3874,624,1521,8600,0,0,396,0,0,0,"
     "32768,309,29,15,28672, tr=ac08f3d7364b5aa1 pl=4ed30327e6890c45 thr="},
    {{TopologyKind::Mesh, 3, 3, 13, 13, Part::Block, true},
     "now=4892.75 st=124,367,4771,1183,1521,8600,0,0,486,69,35,0,"
     "32768,309,29,15,28672, tr=14d853afb91d0baf pl=4ed30327e6890c45 thr="},
    {{TopologyKind::Mesh, 3, 3, 13, 13, Part::Cyclic, false},
     "now=2633.25 st=46,294,3822,598,1469,8600,0,0,390,0,0,0,"
     "30720,309,25,15,28672, tr=3fcc446708545315 pl=48b7b31e98187edb thr="},
    {{TopologyKind::Mesh, 3, 3, 13, 13, Part::Cyclic, true},
     "now=4841.25 st=120,365,4745,1196,1469,8600,0,0,481,71,40,0,"
     "30720,309,25,15,28672, tr=ed3767ba98ff96aa pl=48b7b31e98187edb thr="},
    {{TopologyKind::Mesh, 3, 3, 33, 20, Part::Block, false},
     "now=3434 st=42,250,5000,840,4056,23235,0,0,332,0,0,0,"
     "55296,261,29,15,50176, tr=d2d7a4722e99d7ce pl=a0b3b37c75aac76f thr="},
    {{TopologyKind::Mesh, 3, 3, 33, 20, Part::Block, true},
     "now=5354.5 st=104,306,6120,1540,4056,23235,0,0,401,56,30,0,"
     "55296,261,29,15,50176, tr=44cd259b09dd45bf pl=a0b3b37c75aac76f thr="},
    {{TopologyKind::Mesh, 3, 3, 33, 20, Part::Cyclic, false},
     "now=3362.5 st=42,250,5000,840,3770,23235,0,0,332,0,0,0,"
     "55296,261,29,15,50176, tr=151d38b8d62a85be pl=34b300c6ee474fa6 thr="},
    {{TopologyKind::Mesh, 3, 3, 33, 20, Part::Cyclic, true},
     "now=5588 st=113,311,6220,1640,3770,23235,0,0,408,61,33,0,"
     "55296,261,29,15,50176, tr=297f5c5857938c8e pl=34b300c6ee474fa6 thr="},
    {{TopologyKind::Mesh, 4, 2, 5, 3, Part::Block, false},
     "now=2389 st=59,672,774,90,172,1602,0,0,998,0,0,0,"
     "35840,623,31,15,34816, tr=cc0164f73a1cd92a pl=e10a54bc12f5510d thr="},
    {{TopologyKind::Mesh, 4, 2, 5, 3, Part::Block, true},
     "now=5298 st=182,809,933,176,172,1602,0,0,1199,137,66,0,"
     "35840,623,31,15,34816, tr=0ff01159c60de5df pl=e10a54bc12f5510d thr="},
    {{TopologyKind::Mesh, 4, 2, 5, 3, Part::Cyclic, false},
     "now=2389 st=59,672,774,90,172,1602,0,0,998,0,0,0,"
     "35840,623,31,15,34816, tr=cc0164f73a1cd92a pl=d6f67c465cfbe811 thr="},
    {{TopologyKind::Mesh, 4, 2, 5, 3, Part::Cyclic, true},
     "now=5596 st=188,815,939,182,172,1602,0,0,1210,143,69,0,"
     "35840,623,31,15,34816, tr=30943e8b2ce5518b pl=d6f67c465cfbe811 thr="},
    {{TopologyKind::Mesh, 4, 2, 13, 13, Part::Block, false},
     "now=2944 st=64,832,2704,256,800,7984,0,0,1232,0,0,0,"
     "39936,757,47,15,36864, tr=dc7debd9f888dfb0 pl=fc041bc922ab3bee thr="},
    {{TopologyKind::Mesh, 4, 2, 13, 13, Part::Block, true},
     "now=7055.5 st=219,1022,3313,565,800,7984,0,0,1512,190,101,0,"
     "39936,757,47,15,36864, tr=f350c04cd3cfd68f pl=fc041bc922ab3bee thr="},
    {{TopologyKind::Mesh, 4, 2, 13, 13, Part::Cyclic, false},
     "now=2937.5 st=64,832,2704,256,774,7984,0,0,1232,0,0,0,"
     "39936,757,47,15,36864, tr=78015e8cf90cfa9a pl=a34944fc9914beae thr="},
    {{TopologyKind::Mesh, 4, 2, 13, 13, Part::Cyclic, true},
     "now=7022 st=217,1023,3318,567,774,7984,0,0,1512,191,102,0,"
     "39936,757,47,15,36864, tr=c73df05aba2cb2fc pl=a34944fc9914beae thr="},
    {{TopologyKind::Mesh, 4, 2, 33, 20, Part::Block, false},
     "now=3282.75 st=60,768,5192,428,1843,23523,0,0,1136,0,0,0,"
     "66304,681,59,15,59392, tr=56852a648c0575da pl=ad81c732609b9b33 thr="},
    {{TopologyKind::Mesh, 4, 2, 33, 20, Part::Block, true},
     "now=7443.25 st=203,942,6356,1013,1843,23523,0,0,1392,174,92,0,"
     "66304,681,59,15,59392, tr=ba5079ab7bde832c pl=ad81c732609b9b33 thr="},
    {{TopologyKind::Mesh, 4, 2, 33, 20, Part::Cyclic, false},
     "now=3260 st=60,768,5192,428,1752,23523,0,0,1136,0,0,0,"
     "66304,681,59,15,59392, tr=3d0e2ca95182b49d pl=998487e29caa95ef thr="},
    {{TopologyKind::Mesh, 4, 2, 33, 20, Part::Cyclic, true},
     "now=7485 st=206,948,6386,1023,1752,23523,0,0,1398,180,95,0,"
     "66304,681,59,15,59392, tr=1adca60a5d45d71e pl=998487e29caa95ef thr="},
    {{TopologyKind::Mesh, 4, 4, 5, 3, Part::Block, false},
     "now=2255 st=53,638,1914,159,268,2342,0,0,946,0,0,0,"
     "36096,609,33,15,34816, tr=8d283854370a1e1a pl=4db6534c9b50f889 thr="},
    {{TopologyKind::Mesh, 4, 4, 5, 3, Part::Block, true},
     "now=5290.5 st=178,807,2421,369,268,2342,0,0,1194,169,87,0,"
     "36096,609,33,15,34816, tr=86ce820ae4ed2fad pl=4db6534c9b50f889 thr="},
    {{TopologyKind::Mesh, 4, 4, 5, 3, Part::Cyclic, false},
     "now=2255 st=53,638,1914,159,268,2342,0,0,946,0,0,0,"
     "36096,609,33,15,34816, tr=8d283854370a1e1a pl=4db6534c9b50f889 thr="},
    {{TopologyKind::Mesh, 4, 4, 5, 3, Part::Cyclic, true},
     "now=5290.5 st=178,807,2421,369,268,2342,0,0,1194,169,87,0,"
     "36096,609,33,15,34816, tr=86ce820ae4ed2fad pl=4db6534c9b50f889 thr="},
    {{TopologyKind::Mesh, 4, 4, 13, 13, Part::Block, false},
     "now=3722.5 st=62,768,9984,806,1222,14294,0,0,1142,0,0,0,"
     "61440,740,36,16,57344, tr=30f4628ec366540b pl=07931d6d88df635c thr="},
    {{TopologyKind::Mesh, 4, 4, 13, 13, Part::Block, true},
     "now=8346.5 st=210,967,12571,1898,1222,14294,0,0,1443,199,108,0,"
     "61440,740,36,16,57344, tr=25ebde40a84e8095 pl=07931d6d88df635c thr="},
    {{TopologyKind::Mesh, 4, 4, 13, 13, Part::Cyclic, false},
     "now=3722.5 st=62,768,9984,806,1222,14294,0,0,1142,0,0,0,"
     "61440,740,36,16,57344, tr=30f4628ec366540b pl=07931d6d88df635c thr="},
    {{TopologyKind::Mesh, 4, 4, 13, 13, Part::Cyclic, true},
     "now=8346.5 st=210,967,12571,1898,1222,14294,0,0,1443,199,108,0,"
     "61440,740,36,16,57344, tr=25ebde40a84e8095 pl=07931d6d88df635c thr="},
    {{TopologyKind::Mesh, 4, 4, 33, 20, Part::Block, false},
     "now=4988.25 st=69,1280,12880,730,3053,30435,0,0,1900,0,0,0,"
     "108544,1173,55,15,100352, tr=b7b2fe3a7a43ea9d pl=374471ff7ad4806b thr="},
    {{TopologyKind::Mesh, 4, 4, 33, 20, Part::Block, true},
     "now=10943.75 st=251,1590,16010,1810,3053,30435,0,0,2369,310,170,0,"
     "108544,1173,55,15,100352, tr=c51f192ce1c7a6c8 pl=374471ff7ad4806b thr="},
    {{TopologyKind::Mesh, 4, 4, 33, 20, Part::Cyclic, false},
     "now=4956.25 st=69,1280,12880,730,2845,30435,0,0,1900,0,0,0,"
     "104448,1172,56,16,96256, tr=f1f339f25a85f6c9 pl=b4024e6ec2e35b0f thr="},
    {{TopologyKind::Mesh, 4, 4, 33, 20, Part::Cyclic, true},
     "now=10644.75 st=244,1580,15910,1740,2845,30435,0,0,2358,300,162,0,"
     "104448,1172,56,16,96256, tr=1badc65891283d1b pl=b4024e6ec2e35b0f thr="},
    {{TopologyKind::Mesh, 6, 3, 5, 3, Part::Block, false},
     "now=5245.75 st=86,2208,2208,86,119,4444,0,0,5020,0,0,0,"
     "142400,1986,64,15,139264, tr=b47eafc1da6c5a5c pl=39d9ecc358f2fcf9 thr="},
    {{TopologyKind::Mesh, 6, 3, 5, 3, Part::Block, true},
     "now=14956.75 st=368,2826,2826,246,119,4444,0,0,6440,618,286,0,"
     "142400,1986,64,15,139264, tr=1a17ab7fc68e7e4c pl=39d9ecc358f2fcf9 thr="},
    {{TopologyKind::Mesh, 6, 3, 5, 3, Part::Cyclic, false},
     "now=5245.75 st=86,2208,2208,86,119,4444,0,0,5020,0,0,0,"
     "142400,1986,64,15,139264, tr=b47eafc1da6c5a5c pl=39d9ecc358f2fcf9 thr="},
    {{TopologyKind::Mesh, 6, 3, 5, 3, Part::Cyclic, true},
     "now=14956.75 st=368,2826,2826,246,119,4444,0,0,6440,618,286,0,"
     "142400,1986,64,15,139264, tr=1a17ab7fc68e7e4c pl=39d9ecc358f2fcf9 thr="},
    {{TopologyKind::Mesh, 6, 3, 13, 13, Part::Block, false},
     "now=6049.75 st=96,4768,7748,192,327,13616,0,0,10848,0,0,0,"
     "143360,4309,79,15,139264, tr=8f9fb96007716c57 pl=c236e30628e237f2 thr="},
    {{TopologyKind::Mesh, 6, 3, 13, 13, Part::Block, true},
     "now=19039.25 st=471,5989,9749,586,327,13616,0,0,13597,1221,594,0,"
     "143360,4309,79,15,139264, tr=d072e48b97f09b20 pl=c236e30628e237f2 thr="},
    {{TopologyKind::Mesh, 6, 3, 13, 13, Part::Cyclic, false},
     "now=5888.5 st=92,4704,7644,184,314,13616,0,0,10752,0,0,0,"
     "143360,4245,79,15,139264, tr=03a92413abca3f66 pl=74a1525728a9d2e6 thr="},
    {{TopologyKind::Mesh, 6, 3, 13, 13, Part::Cyclic, true},
     "now=18795 st=467,5989,9714,565,314,13616,0,0,13703,1285,601,0,"
     "143360,4245,79,15,139264, tr=7297dd93455e8a14 pl=74a1525728a9d2e6 thr="},
    {{TopologyKind::Mesh, 6, 3, 33, 20, Part::Block, false},
     "now=6153 st=90,4384,14834,366,836,34659,0,0,9952,0,0,0,"
     "158464,3869,133,15,147456, tr=bf8138a81db1cd96 pl=9c485027dcb655fa thr="},
    {{TopologyKind::Mesh, 6, 3, 33, 20, Part::Block, true},
     "now=18762.5 st=442,5530,18688,1072,836,34659,0,0,12539,1146,554,0,"
     "158464,3869,133,15,147456, tr=310ae2c5214a6568 pl=9c485027dcb655fa thr="},
    {{TopologyKind::Mesh, 6, 3, 33, 20, Part::Cyclic, false},
     "now=6035 st=89,4368,14768,361,784,34659,0,0,9888,0,0,0,"
     "155648,3875,111,15,147456, tr=244c93a06d1ebdaf pl=013fd8f0b95584f6 thr="},
    {{TopologyKind::Mesh, 6, 3, 33, 20, Part::Cyclic, true},
     "now=18986 st=452,5522,18655,1092,784,34659,0,0,12506,1154,549,0,"
     "155648,3875,111,15,147456, tr=9469a9b0b7e2f8b1 pl=013fd8f0b95584f6 thr="},
    {{TopologyKind::Mesh, 6, 6, 5, 3, Part::Block, false},
     "now=5183.5 st=79,3710,11130,237,322,10982,0,0,8504,0,0,0,"
     "143616,3441,81,15,139264, tr=06b2535c62f1c992 pl=4db6534c9b50f889 thr="},
    {{TopologyKind::Mesh, 6, 6, 5, 3, Part::Block, true},
     "now=15395.25 st=366,4671,14013,711,319,10790,0,0,10712,961,461,0,"
     "143616,3441,81,15,139264, tr=8a2bccdc49b8a807 pl=932bd47c847c7f42 thr=40,"},
    {{TopologyKind::Mesh, 6, 6, 5, 3, Part::Cyclic, false},
     "now=5183.5 st=79,3710,11130,237,322,10982,0,0,8504,0,0,0,"
     "143616,3441,81,15,139264, tr=06b2535c62f1c992 pl=4db6534c9b50f889 thr="},
    {{TopologyKind::Mesh, 6, 6, 5, 3, Part::Cyclic, true},
     "now=15395.25 st=366,4671,14013,711,319,10790,0,0,10712,961,461,0,"
     "143616,3441,81,15,139264, tr=8a2bccdc49b8a807 pl=932bd47c847c7f42 thr=40,"},
    {{TopologyKind::Mesh, 6, 6, 13, 13, Part::Block, false},
     "now=10196 st=107,8956,58240,746,1508,60054,0,0,20586,0,0,0,"
     "239616,8372,148,16,229376, tr=e22d029e2485accf pl=07931d6d88df635c thr="},
    {{TopologyKind::Mesh, 6, 6, 13, 13, Part::Block, true},
     "now=30701 st=568,11209,72917,2403,1508,60054,0,0,25763,2253,1172,0,"
     "239616,8372,148,16,229376, tr=e4667005edcccced pl=07931d6d88df635c thr="},
    {{TopologyKind::Mesh, 6, 6, 13, 13, Part::Cyclic, false},
     "now=10196 st=107,8956,58240,746,1508,60054,0,0,20586,0,0,0,"
     "239616,8372,148,16,229376, tr=e22d029e2485accf pl=07931d6d88df635c thr="},
    {{TopologyKind::Mesh, 6, 6, 13, 13, Part::Cyclic, true},
     "now=30701 st=568,11209,72917,2403,1508,60054,0,0,25763,2253,1172,0,"
     "239616,8372,148,16,229376, tr=e4667005edcccced pl=07931d6d88df635c thr="},
    {{TopologyKind::Mesh, 6, 6, 33, 20, Part::Block, false},
     "now=9743.25 st=92,7418,74200,930,2073,87995,0,0,17000,0,0,0,"
     "353280,6836,146,16,335872, tr=0d1f65b31b8d7852 pl=bac48b6690f334e7 thr="},
    {{TopologyKind::Mesh, 6, 6, 33, 20, Part::Block, true},
     "now=28118.75 st=480,9318,93210,3030,2073,87995,0,0,21383,1900,968,0,"
     "353280,6836,146,16,335872, tr=536d7e08d0f9aa00 pl=bac48b6690f334e7 thr="},
    {{TopologyKind::Mesh, 6, 6, 33, 20, Part::Cyclic, false},
     "now=9743.25 st=92,7418,74200,930,2073,87995,0,0,17000,0,0,0,"
     "353280,6836,146,16,335872, tr=0d1f65b31b8d7852 pl=bac48b6690f334e7 thr="},
    {{TopologyKind::Mesh, 6, 6, 33, 20, Part::Cyclic, true},
     "now=28118.75 st=480,9318,93210,3030,2073,87995,0,0,21383,1900,968,0,"
     "353280,6836,146,16,335872, tr=536d7e08d0f9aa00 pl=bac48b6690f334e7 thr="},
    {{TopologyKind::Torus, 1, 0, 5, 3, Part::Block, false},
     "now=604 st=16,28,140,80,496,730,0,0,28,0,0,0,"
     "4992,69,19,15,4608, tr=a740f7cd8ceddc72 pl=3db480d0facae76d thr="},
    {{TopologyKind::Torus, 1, 0, 5, 3, Part::Block, true},
     "now=899 st=29,38,190,125,496,730,0,0,38,10,6,0,"
     "4992,69,19,15,4608, tr=6d90e4c444c9bbcd pl=3db480d0facae76d thr="},
    {{TopologyKind::Torus, 1, 0, 5, 3, Part::Cyclic, false},
     "now=600.75 st=16,28,140,80,483,730,0,0,28,0,0,0,"
     "4992,69,19,15,4608, tr=3226a9c240f944f2 pl=7b25ffaf5f87d905 thr="},
    {{TopologyKind::Torus, 1, 0, 5, 3, Part::Cyclic, true},
     "now=929.25 st=31,39,195,130,483,730,0,0,39,11,6,0,"
     "4992,69,19,15,4608, tr=0e0299d863e362c6 pl=7b25ffaf5f87d905 thr="},
    {{TopologyKind::Torus, 1, 0, 13, 13, Part::Block, false},
     "now=1369 st=16,28,364,208,3044,5454,0,0,28,0,0,0,"
     "14592,71,21,17,13312, tr=b195b6db63777133 pl=24a85cadde3ae39d thr="},
    {{TopologyKind::Torus, 1, 0, 13, 13, Part::Block, true},
     "now=1736 st=29,38,494,325,3044,5454,0,0,38,10,6,0,"
     "14592,71,21,17,13312, tr=2ac6041d86490868 pl=24a85cadde3ae39d thr="},
    {{TopologyKind::Torus, 1, 0, 13, 13, Part::Cyclic, false},
     "now=1359.25 st=16,28,364,208,3005,5454,0,0,28,0,0,0,"
     "14592,71,21,17,13312, tr=62d4e56f36da9bf6 pl=b2c654e3b5807ee2 thr="},
    {{TopologyKind::Torus, 1, 0, 13, 13, Part::Cyclic, true},
     "now=1765.25 st=30,39,507,338,3005,5454,0,0,39,11,6,0,"
     "14592,71,21,17,13312, tr=984d3b1377954d71 pl=b2c654e3b5807ee2 thr="},
    {{TopologyKind::Torus, 1, 0, 33, 20, Part::Block, false},
     "now=3454.75 st=16,28,924,528,10107,19641,0,0,28,0,0,0,"
     "46592,72,22,18,43520, tr=9a77b13e1380d3bc pl=4c94f14a186c486f thr="},
    {{TopologyKind::Torus, 1, 0, 33, 20, Part::Block, true},
     "now=4004.25 st=30,38,1254,825,10107,19641,0,0,38,10,6,0,"
     "46592,72,22,18,43520, tr=6d3383b4def8e8c0 pl=4c94f14a186c486f thr="},
    {{TopologyKind::Torus, 1, 0, 33, 20, Part::Cyclic, false},
     "now=3461.25 st=16,28,924,528,10133,19641,0,0,28,0,0,0,"
     "46592,72,22,18,43520, tr=52c30bfa30ce6824 pl=40daef477a74aebf thr="},
    {{TopologyKind::Torus, 1, 0, 33, 20, Part::Cyclic, true},
     "now=4008.25 st=29,38,1254,825,10133,19641,0,0,38,10,6,0,"
     "46592,72,22,18,43520, tr=56610cd74824e62a pl=40daef477a74aebf thr="},
    {{TopologyKind::Torus, 1, 1, 5, 3, Part::Block, false},
     "now=502.75 st=14,24,72,42,443,674,0,0,24,0,0,0,"
     "4992,65,19,15,4608, tr=4070d7fd6f6b3974 pl=d9fffbd2bdf0a31d thr="},
    {{TopologyKind::Torus, 1, 1, 5, 3, Part::Block, true},
     "now=747.25 st=25,33,99,66,443,674,0,0,33,9,5,0,"
     "4992,65,19,15,4608, tr=7c3c934794548dfe pl=d9fffbd2bdf0a31d thr="},
    {{TopologyKind::Torus, 1, 1, 5, 3, Part::Cyclic, false},
     "now=496.25 st=14,24,72,42,417,674,0,0,24,0,0,0,"
     "4992,65,19,15,4608, tr=72a4c47c7f44408b pl=24a5440881513275 thr="},
    {{TopologyKind::Torus, 1, 1, 5, 3, Part::Cyclic, true},
     "now=802.25 st=28,35,105,72,417,674,0,0,35,11,6,0,"
     "4992,65,19,15,4608, tr=99513135ef10b316 pl=24a5440881513275 thr="},
    {{TopologyKind::Torus, 1, 1, 13, 13, Part::Block, false},
     "now=1391.25 st=16,28,364,208,3133,5454,0,0,28,0,0,0,"
     "13824,73,19,15,12544, tr=9c194b4af96f53f7 pl=f1857f8f0d5b5109 thr="},
    {{TopologyKind::Torus, 1, 1, 13, 13, Part::Block, true},
     "now=1715.75 st=27,37,481,312,3133,5454,0,0,37,9,5,0,"
     "13824,73,19,15,12544, tr=596bb81a179df218 pl=f1857f8f0d5b5109 thr="},
    {{TopologyKind::Torus, 1, 1, 13, 13, Part::Cyclic, false},
     "now=1371.75 st=16,28,364,208,3055,5454,0,0,28,0,0,0,"
     "14336,71,21,17,13056, tr=0365174482a5dee4 pl=d73daec82600da0c thr="},
    {{TopologyKind::Torus, 1, 1, 13, 13, Part::Cyclic, true},
     "now=1777.75 st=30,39,507,338,3055,5454,0,0,39,11,6,0,"
     "14336,71,21,17,13056, tr=30bd8f68b41511c3 pl=d73daec82600da0c thr="},
    {{TopologyKind::Torus, 1, 1, 33, 20, Part::Block, false},
     "now=3226.25 st=14,24,480,280,10385,19275,0,0,24,0,0,0,"
     "38400,69,19,15,36864, tr=9550e9ae3b508614 pl=2b977edd3c98e3db thr="},
    {{TopologyKind::Torus, 1, 1, 33, 20, Part::Block, true},
     "now=3606.75 st=25,33,660,440,10385,19275,0,0,33,9,5,0,"
     "38400,69,19,15,36864, tr=0c65af7b58ab9535 pl=2b977edd3c98e3db thr="},
    {{TopologyKind::Torus, 1, 1, 33, 20, Part::Cyclic, false},
     "now=3164.5 st=14,24,480,280,10138,19275,0,0,24,0,0,0,"
     "39424,67,21,17,37888, tr=2094f59c64fc514d pl=2accccab40559c17 thr="},
    {{TopologyKind::Torus, 1, 1, 33, 20, Part::Cyclic, true},
     "now=3640.5 st=28,35,700,480,10138,19275,0,0,35,11,6,0,"
     "39424,67,21,17,37888, tr=0c2380151c65ed67 pl=2accccab40559c17 thr="},
    {{TopologyKind::Torus, 3, 1, 5, 3, Part::Block, false},
     "now=1723.75 st=45,276,582,107,235,1210,0,0,376,0,0,0,"
     "18176,281,25,15,17408, tr=5df5436591e0feac pl=e10a54bc12f5510d thr="},
    {{TopologyKind::Torus, 3, 1, 5, 3, Part::Block, true},
     "now=3405.75 st=115,339,712,199,235,1210,0,0,458,63,29,0,"
     "18176,281,25,15,17408, tr=d6c08d0e9c68ee5f pl=e10a54bc12f5510d thr="},
    {{TopologyKind::Torus, 3, 1, 5, 3, Part::Cyclic, false},
     "now=1720.5 st=45,276,582,107,222,1210,0,0,376,0,0,0,"
     "18176,281,25,15,17408, tr=ac2a337ec8d47c78 pl=dcb11b86ddeb631d thr="},
    {{TopologyKind::Torus, 3, 1, 5, 3, Part::Cyclic, true},
     "now=3435 st=117,339,712,200,222,1210,0,0,458,63,29,0,"
     "18176,281,25,15,17408, tr=a4be3f63f2b5c290 pl=dcb11b86ddeb631d thr="},
    {{TopologyKind::Torus, 3, 1, 13, 13, Part::Block, false},
     "now=2272 st=48,320,1716,288,1200,6752,0,0,420,0,0,0,"
     "31232,309,39,15,27648, tr=883617994d7be941 pl=d0142bebbd74ffa2 thr="},
    {{TopologyKind::Torus, 3, 1, 13, 13, Part::Block, true},
     "now=4632.5 st=134,402,2149,579,1200,6752,0,0,531,82,44,0,"
     "31232,309,39,15,27648, tr=68a5bcf898986859 pl=d0142bebbd74ffa2 thr="},
    {{TopologyKind::Torus, 3, 1, 13, 13, Part::Cyclic, false},
     "now=2262.25 st=48,320,1716,288,1161,6752,0,0,420,0,0,0,"
     "32256,307,41,17,28672, tr=c7648bd4e81aebb8 pl=3fd4cda1faa13ba6 thr="},
    {{TopologyKind::Torus, 3, 1, 13, 13, Part::Cyclic, true},
     "now=4618.25 st=140,402,2153,583,1161,6752,0,0,529,82,44,0,"
     "32256,307,41,17,28672, tr=6ebc22b9e1d1c2cf pl=3fd4cda1faa13ba6 thr="},
    {{TopologyKind::Torus, 3, 1, 33, 20, Part::Block, false},
     "now=3155.25 st=46,304,3912,614,3149,22267,0,0,404,0,0,0,"
     "58880,301,33,17,53248, tr=814eb1aad041da8a pl=ec18f1a4d85cbc1b thr="},
    {{TopologyKind::Torus, 3, 1, 33, 20, Part::Block, true},
     "now=5814.25 st=130,381,4883,1255,3149,22267,0,0,509,77,43,0,"
     "58880,301,33,17,53248, tr=a8da95bbf2114659 pl=ec18f1a4d85cbc1b thr="},
    {{TopologyKind::Torus, 3, 1, 33, 20, Part::Cyclic, false},
     "now=3145.5 st=46,304,3912,614,3110,22267,0,0,404,0,0,0,"
     "54784,302,32,16,49152, tr=bc39203eb272da0f pl=0b79810c8bd652d6 thr="},
    {{TopologyKind::Torus, 3, 1, 33, 20, Part::Cyclic, true},
     "now=5841 st=132,380,4878,1260,3110,22267,0,0,508,76,42,0,"
     "54784,302,32,16,49152, tr=deb575b6482ba9d2 pl=0b79810c8bd652d6 thr="},
    {{TopologyKind::Torus, 3, 3, 5, 3, Part::Block, false},
     "now=1532.25 st=40,246,738,120,241,1262,0,0,326,0,0,0,"
     "18176,257,25,15,17408, tr=da2b5c673a5a2693 pl=4db6534c9b50f889 thr="},
    {{TopologyKind::Torus, 3, 3, 5, 3, Part::Block, true},
     "now=3030.75 st=102,304,912,237,241,1262,0,0,403,58,34,0,"
     "18176,257,25,15,17408, tr=68616a28519b2873 pl=4db6534c9b50f889 thr="},
    {{TopologyKind::Torus, 3, 3, 5, 3, Part::Cyclic, false},
     "now=1532.25 st=40,246,738,120,241,1262,0,0,326,0,0,0,"
     "18176,257,25,15,17408, tr=da2b5c673a5a2693 pl=4db6534c9b50f889 thr="},
    {{TopologyKind::Torus, 3, 3, 5, 3, Part::Cyclic, true},
     "now=3030.75 st=102,304,912,237,241,1262,0,0,403,58,34,0,"
     "18176,257,25,15,17408, tr=68616a28519b2873 pl=4db6534c9b50f889 thr="},
    {{TopologyKind::Torus, 3, 3, 13, 13, Part::Block, false},
     "now=2747.25 st=48,298,3874,624,1521,8600,0,0,396,0,0,0,"
     "32768,309,29,15,28672, tr=ac08f3d7364b5aa1 pl=4ed30327e6890c45 thr="},
    {{TopologyKind::Torus, 3, 3, 13, 13, Part::Block, true},
     "now=4905.75 st=124,367,4771,1183,1521,8600,0,0,486,69,35,0,"
     "32768,309,29,15,28672, tr=df3f9c95f477e11f pl=4ed30327e6890c45 thr="},
    {{TopologyKind::Torus, 3, 3, 13, 13, Part::Cyclic, false},
     "now=2633.25 st=46,294,3822,598,1469,8600,0,0,390,0,0,0,"
     "30720,309,25,15,28672, tr=3fcc446708545315 pl=48b7b31e98187edb thr="},
    {{TopologyKind::Torus, 3, 3, 13, 13, Part::Cyclic, true},
     "now=4867.25 st=120,365,4745,1196,1469,8600,0,0,481,71,40,0,"
     "30720,309,25,15,28672, tr=981b9aac95a3ed47 pl=48b7b31e98187edb thr="},
    {{TopologyKind::Torus, 3, 3, 33, 20, Part::Block, false},
     "now=3434 st=42,250,5000,840,4056,23235,0,0,332,0,0,0,"
     "55296,261,29,15,50176, tr=d2d7a4722e99d7ce pl=a0b3b37c75aac76f thr="},
    {{TopologyKind::Torus, 3, 3, 33, 20, Part::Block, true},
     "now=5374.5 st=104,306,6120,1540,4056,23235,0,0,401,56,30,0,"
     "55296,261,29,15,50176, tr=2a815803ddf2c173 pl=a0b3b37c75aac76f thr="},
    {{TopologyKind::Torus, 3, 3, 33, 20, Part::Cyclic, false},
     "now=3362.5 st=42,250,5000,840,3770,23235,0,0,332,0,0,0,"
     "55296,261,29,15,50176, tr=151d38b8d62a85be pl=34b300c6ee474fa6 thr="},
    {{TopologyKind::Torus, 3, 3, 33, 20, Part::Cyclic, true},
     "now=5608 st=113,311,6220,1640,3770,23235,0,0,408,61,33,0,"
     "55296,261,29,15,50176, tr=2c4430b102d39431 pl=34b300c6ee474fa6 thr="},
    {{TopologyKind::Torus, 4, 2, 5, 3, Part::Block, false},
     "now=2390 st=59,672,774,90,172,1602,0,0,998,0,0,0,"
     "35840,623,31,15,34816, tr=c4fe15116bac310f pl=e10a54bc12f5510d thr="},
    {{TopologyKind::Torus, 4, 2, 5, 3, Part::Block, true},
     "now=5299 st=182,809,933,176,172,1602,0,0,1199,137,66,0,"
     "35840,623,31,15,34816, tr=3b42d7501ff4134e pl=e10a54bc12f5510d thr="},
    {{TopologyKind::Torus, 4, 2, 5, 3, Part::Cyclic, false},
     "now=2390 st=59,672,774,90,172,1602,0,0,998,0,0,0,"
     "35840,623,31,15,34816, tr=c4fe15116bac310f pl=d6f67c465cfbe811 thr="},
    {{TopologyKind::Torus, 4, 2, 5, 3, Part::Cyclic, true},
     "now=5597 st=188,815,939,182,172,1602,0,0,1210,143,69,0,"
     "35840,623,31,15,34816, tr=5958276a8492f9ee pl=d6f67c465cfbe811 thr="},
    {{TopologyKind::Torus, 4, 2, 13, 13, Part::Block, false},
     "now=2952 st=64,832,2704,256,800,7984,0,0,1232,0,0,0,"
     "39936,757,47,15,36864, tr=6c86dd31fefbba3d pl=fc041bc922ab3bee thr="},
    {{TopologyKind::Torus, 4, 2, 13, 13, Part::Block, true},
     "now=7068.5 st=219,1022,3313,565,800,7984,0,0,1512,190,101,0,"
     "39936,757,47,15,36864, tr=77e5a4bf73f80717 pl=fc041bc922ab3bee thr="},
    {{TopologyKind::Torus, 4, 2, 13, 13, Part::Cyclic, false},
     "now=2945.5 st=64,832,2704,256,774,7984,0,0,1232,0,0,0,"
     "39936,757,47,15,36864, tr=b06fb013be9459b8 pl=a34944fc9914beae thr="},
    {{TopologyKind::Torus, 4, 2, 13, 13, Part::Cyclic, true},
     "now=7035 st=217,1023,3318,567,774,7984,0,0,1512,191,102,0,"
     "39936,757,47,15,36864, tr=bb21eed43c973bc1 pl=a34944fc9914beae thr="},
    {{TopologyKind::Torus, 4, 2, 33, 20, Part::Block, false},
     "now=3296.75 st=60,768,5192,428,1843,23523,0,0,1136,0,0,0,"
     "66304,681,59,15,59392, tr=eaf2d895cd44d8a1 pl=ad81c732609b9b33 thr="},
    {{TopologyKind::Torus, 4, 2, 33, 20, Part::Block, true},
     "now=7464.25 st=203,942,6356,1013,1843,23523,0,0,1392,174,92,0,"
     "66304,681,59,15,59392, tr=35654aecd857458a pl=ad81c732609b9b33 thr="},
    {{TopologyKind::Torus, 4, 2, 33, 20, Part::Cyclic, false},
     "now=3274 st=60,768,5192,428,1752,23523,0,0,1136,0,0,0,"
     "66304,681,59,15,59392, tr=584ec8e3bbc22a0e pl=998487e29caa95ef thr="},
    {{TopologyKind::Torus, 4, 2, 33, 20, Part::Cyclic, true},
     "now=7506 st=206,948,6386,1023,1752,23523,0,0,1398,180,95,0,"
     "66304,681,59,15,59392, tr=ab33e5174e74e4b5 pl=998487e29caa95ef thr="},
    {{TopologyKind::Torus, 4, 4, 5, 3, Part::Block, false},
     "now=2255 st=53,638,1914,159,268,2342,0,0,946,0,0,0,"
     "36096,609,33,15,34816, tr=8d283854370a1e1a pl=4db6534c9b50f889 thr="},
    {{TopologyKind::Torus, 4, 4, 5, 3, Part::Block, true},
     "now=5299.5 st=178,807,2421,369,268,2342,0,0,1194,169,87,0,"
     "36096,609,33,15,34816, tr=61b006d8ca2f0c43 pl=4db6534c9b50f889 thr="},
    {{TopologyKind::Torus, 4, 4, 5, 3, Part::Cyclic, false},
     "now=2255 st=53,638,1914,159,268,2342,0,0,946,0,0,0,"
     "36096,609,33,15,34816, tr=8d283854370a1e1a pl=4db6534c9b50f889 thr="},
    {{TopologyKind::Torus, 4, 4, 5, 3, Part::Cyclic, true},
     "now=5299.5 st=178,807,2421,369,268,2342,0,0,1194,169,87,0,"
     "36096,609,33,15,34816, tr=61b006d8ca2f0c43 pl=4db6534c9b50f889 thr="},
    {{TopologyKind::Torus, 4, 4, 13, 13, Part::Block, false},
     "now=3735.5 st=62,768,9984,806,1222,14294,0,0,1142,0,0,0,"
     "61440,740,36,16,57344, tr=2f35e9854aef28b5 pl=07931d6d88df635c thr="},
    {{TopologyKind::Torus, 4, 4, 13, 13, Part::Block, true},
     "now=8411.5 st=210,967,12571,1898,1222,14294,0,0,1443,199,108,0,"
     "61440,740,36,16,57344, tr=058d7434de51eca5 pl=07931d6d88df635c thr="},
    {{TopologyKind::Torus, 4, 4, 13, 13, Part::Cyclic, false},
     "now=3735.5 st=62,768,9984,806,1222,14294,0,0,1142,0,0,0,"
     "61440,740,36,16,57344, tr=2f35e9854aef28b5 pl=07931d6d88df635c thr="},
    {{TopologyKind::Torus, 4, 4, 13, 13, Part::Cyclic, true},
     "now=8411.5 st=210,967,12571,1898,1222,14294,0,0,1443,199,108,0,"
     "61440,740,36,16,57344, tr=058d7434de51eca5 pl=07931d6d88df635c thr="},
    {{TopologyKind::Torus, 4, 4, 33, 20, Part::Block, false},
     "now=5128.25 st=69,1280,12880,730,3053,30435,0,0,1900,0,0,0,"
     "108544,1173,55,15,100352, tr=06a2175313187e09 pl=374471ff7ad4806b thr="},
    {{TopologyKind::Torus, 4, 4, 33, 20, Part::Block, true},
     "now=11113.75 st=251,1590,16010,1810,3053,30435,0,0,2369,310,170,0,"
     "108544,1173,55,15,100352, tr=5150c54fc35d9ca4 pl=374471ff7ad4806b thr="},
    {{TopologyKind::Torus, 4, 4, 33, 20, Part::Cyclic, false},
     "now=5136.25 st=69,1280,12880,730,2845,30435,0,0,1900,0,0,0,"
     "104448,1172,56,16,96256, tr=7d1c6cdcd5fec546 pl=b4024e6ec2e35b0f thr="},
    {{TopologyKind::Torus, 4, 4, 33, 20, Part::Cyclic, true},
     "now=10864.75 st=244,1580,15910,1740,2845,30435,0,0,2358,300,162,0,"
     "104448,1172,56,16,96256, tr=6063c20dbe5f23b4 pl=b4024e6ec2e35b0f thr="},
    {{TopologyKind::Torus, 6, 3, 5, 3, Part::Block, false},
     "now=5245.75 st=86,2208,2208,86,119,4444,0,0,5020,0,0,0,"
     "142400,1986,64,15,139264, tr=b47eafc1da6c5a5c pl=39d9ecc358f2fcf9 thr="},
    {{TopologyKind::Torus, 6, 3, 5, 3, Part::Block, true},
     "now=14967.75 st=368,2826,2826,246,119,4444,0,0,6440,618,286,0,"
     "142400,1986,64,15,139264, tr=59ce324800f782fc pl=39d9ecc358f2fcf9 thr="},
    {{TopologyKind::Torus, 6, 3, 5, 3, Part::Cyclic, false},
     "now=5245.75 st=86,2208,2208,86,119,4444,0,0,5020,0,0,0,"
     "142400,1986,64,15,139264, tr=b47eafc1da6c5a5c pl=39d9ecc358f2fcf9 thr="},
    {{TopologyKind::Torus, 6, 3, 5, 3, Part::Cyclic, true},
     "now=14967.75 st=368,2826,2826,246,119,4444,0,0,6440,618,286,0,"
     "142400,1986,64,15,139264, tr=59ce324800f782fc pl=39d9ecc358f2fcf9 thr="},
    {{TopologyKind::Torus, 6, 3, 13, 13, Part::Block, false},
     "now=6053.75 st=96,4768,7748,192,327,13616,0,0,10848,0,0,0,"
     "143360,4309,79,15,139264, tr=e4fd9fbc2a2ea0e7 pl=c236e30628e237f2 thr="},
    {{TopologyKind::Torus, 6, 3, 13, 13, Part::Block, true},
     "now=19063.25 st=471,5989,9749,586,327,13616,0,0,13597,1221,594,0,"
     "143360,4309,79,15,139264, tr=1bfb685ea5776072 pl=c236e30628e237f2 thr="},
    {{TopologyKind::Torus, 6, 3, 13, 13, Part::Cyclic, false},
     "now=5888.5 st=92,4704,7644,184,314,13616,0,0,10752,0,0,0,"
     "143360,4245,79,15,139264, tr=03a92413abca3f66 pl=74a1525728a9d2e6 thr="},
    {{TopologyKind::Torus, 6, 3, 13, 13, Part::Cyclic, true},
     "now=18816 st=467,5989,9714,565,314,13616,0,0,13703,1285,601,0,"
     "143360,4245,79,15,139264, tr=4ee81666b527d2a0 pl=74a1525728a9d2e6 thr="},
    {{TopologyKind::Torus, 6, 3, 33, 20, Part::Block, false},
     "now=6161 st=90,4384,14834,366,836,34659,0,0,9952,0,0,0,"
     "158464,3869,133,15,147456, tr=76ac25d6dfe4ad40 pl=9c485027dcb655fa thr="},
    {{TopologyKind::Torus, 6, 3, 33, 20, Part::Block, true},
     "now=18815.5 st=442,5530,18688,1072,836,34659,0,0,12539,1146,554,0,"
     "158464,3869,133,15,147456, tr=835791b5847a005a pl=9c485027dcb655fa thr="},
    {{TopologyKind::Torus, 6, 3, 33, 20, Part::Cyclic, false},
     "now=6038 st=89,4368,14768,361,784,34659,0,0,9888,0,0,0,"
     "155648,3875,111,15,147456, tr=2d24db8c27c432bd pl=013fd8f0b95584f6 thr="},
    {{TopologyKind::Torus, 6, 3, 33, 20, Part::Cyclic, true},
     "now=19039 st=452,5522,18655,1092,784,34659,0,0,12506,1154,549,0,"
     "155648,3875,111,15,147456, tr=4de5539f3aa9b4e7 pl=013fd8f0b95584f6 thr="},
    {{TopologyKind::Torus, 6, 6, 5, 3, Part::Block, false},
     "now=5183.5 st=79,3710,11130,237,322,10982,0,0,8504,0,0,0,"
     "143616,3441,81,15,139264, tr=06b2535c62f1c992 pl=4db6534c9b50f889 thr="},
    {{TopologyKind::Torus, 6, 6, 5, 3, Part::Block, true},
     "now=15425.25 st=366,4671,14013,711,319,10790,0,0,10712,961,461,0,"
     "143616,3441,81,15,139264, tr=90f5b992333de53c pl=932bd47c847c7f42 thr=40,"},
    {{TopologyKind::Torus, 6, 6, 5, 3, Part::Cyclic, false},
     "now=5183.5 st=79,3710,11130,237,322,10982,0,0,8504,0,0,0,"
     "143616,3441,81,15,139264, tr=06b2535c62f1c992 pl=4db6534c9b50f889 thr="},
    {{TopologyKind::Torus, 6, 6, 5, 3, Part::Cyclic, true},
     "now=15425.25 st=366,4671,14013,711,319,10790,0,0,10712,961,461,0,"
     "143616,3441,81,15,139264, tr=90f5b992333de53c pl=932bd47c847c7f42 thr=40,"},
    {{TopologyKind::Torus, 6, 6, 13, 13, Part::Block, false},
     "now=10454 st=107,8956,58240,746,1508,60054,0,0,20586,0,0,0,"
     "239616,8372,148,16,229376, tr=7a3e6fe4c5f95aae pl=07931d6d88df635c thr="},
    {{TopologyKind::Torus, 6, 6, 13, 13, Part::Block, true},
     "now=31070 st=568,11209,72917,2403,1508,60054,0,0,25763,2253,1172,0,"
     "239616,8372,148,16,229376, tr=27c4d1bf45adac95 pl=07931d6d88df635c thr="},
    {{TopologyKind::Torus, 6, 6, 13, 13, Part::Cyclic, false},
     "now=10454 st=107,8956,58240,746,1508,60054,0,0,20586,0,0,0,"
     "239616,8372,148,16,229376, tr=7a3e6fe4c5f95aae pl=07931d6d88df635c thr="},
    {{TopologyKind::Torus, 6, 6, 13, 13, Part::Cyclic, true},
     "now=31070 st=568,11209,72917,2403,1508,60054,0,0,25763,2253,1172,0,"
     "239616,8372,148,16,229376, tr=27c4d1bf45adac95 pl=07931d6d88df635c thr="},
    {{TopologyKind::Torus, 6, 6, 33, 20, Part::Block, false},
     "now=10113.25 st=92,7418,74200,930,2073,87995,0,0,17000,0,0,0,"
     "353280,6836,146,16,335872, tr=71ce68dd7f2d25cd pl=bac48b6690f334e7 thr="},
    {{TopologyKind::Torus, 6, 6, 33, 20, Part::Block, true},
     "now=28648.75 st=480,9318,93210,3030,2073,87995,0,0,21383,1900,968,0,"
     "353280,6836,146,16,335872, tr=f7f49222501096a2 pl=bac48b6690f334e7 thr="},
    {{TopologyKind::Torus, 6, 6, 33, 20, Part::Cyclic, false},
     "now=10113.25 st=92,7418,74200,930,2073,87995,0,0,17000,0,0,0,"
     "353280,6836,146,16,335872, tr=71ce68dd7f2d25cd pl=bac48b6690f334e7 thr="},
    {{TopologyKind::Torus, 6, 6, 33, 20, Part::Cyclic, true},
     "now=28648.75 st=480,9318,93210,3030,2073,87995,0,0,21383,1900,968,0,"
     "353280,6836,146,16,335872, tr=f7f49222501096a2 pl=bac48b6690f334e7 thr="},
    {{TopologyKind::Dragonfly, 1, 0, 5, 3, Part::Block, false},
     "now=604 st=16,28,140,80,496,730,0,0,28,0,0,0,"
     "4992,69,19,15,4608, tr=a740f7cd8ceddc72 pl=3db480d0facae76d thr="},
    {{TopologyKind::Dragonfly, 1, 0, 5, 3, Part::Block, true},
     "now=899 st=29,38,190,125,496,730,0,0,38,10,6,0,"
     "4992,69,19,15,4608, tr=6d90e4c444c9bbcd pl=3db480d0facae76d thr="},
    {{TopologyKind::Dragonfly, 1, 0, 5, 3, Part::Cyclic, false},
     "now=600.75 st=16,28,140,80,483,730,0,0,28,0,0,0,"
     "4992,69,19,15,4608, tr=3226a9c240f944f2 pl=7b25ffaf5f87d905 thr="},
    {{TopologyKind::Dragonfly, 1, 0, 5, 3, Part::Cyclic, true},
     "now=929.25 st=31,39,195,130,483,730,0,0,39,11,6,0,"
     "4992,69,19,15,4608, tr=0e0299d863e362c6 pl=7b25ffaf5f87d905 thr="},
    {{TopologyKind::Dragonfly, 1, 0, 13, 13, Part::Block, false},
     "now=1369 st=16,28,364,208,3044,5454,0,0,28,0,0,0,"
     "14592,71,21,17,13312, tr=b195b6db63777133 pl=24a85cadde3ae39d thr="},
    {{TopologyKind::Dragonfly, 1, 0, 13, 13, Part::Block, true},
     "now=1736 st=29,38,494,325,3044,5454,0,0,38,10,6,0,"
     "14592,71,21,17,13312, tr=2ac6041d86490868 pl=24a85cadde3ae39d thr="},
    {{TopologyKind::Dragonfly, 1, 0, 13, 13, Part::Cyclic, false},
     "now=1359.25 st=16,28,364,208,3005,5454,0,0,28,0,0,0,"
     "14592,71,21,17,13312, tr=62d4e56f36da9bf6 pl=b2c654e3b5807ee2 thr="},
    {{TopologyKind::Dragonfly, 1, 0, 13, 13, Part::Cyclic, true},
     "now=1765.25 st=30,39,507,338,3005,5454,0,0,39,11,6,0,"
     "14592,71,21,17,13312, tr=984d3b1377954d71 pl=b2c654e3b5807ee2 thr="},
    {{TopologyKind::Dragonfly, 1, 0, 33, 20, Part::Block, false},
     "now=3454.75 st=16,28,924,528,10107,19641,0,0,28,0,0,0,"
     "46592,72,22,18,43520, tr=9a77b13e1380d3bc pl=4c94f14a186c486f thr="},
    {{TopologyKind::Dragonfly, 1, 0, 33, 20, Part::Block, true},
     "now=4004.25 st=30,38,1254,825,10107,19641,0,0,38,10,6,0,"
     "46592,72,22,18,43520, tr=6d3383b4def8e8c0 pl=4c94f14a186c486f thr="},
    {{TopologyKind::Dragonfly, 1, 0, 33, 20, Part::Cyclic, false},
     "now=3461.25 st=16,28,924,528,10133,19641,0,0,28,0,0,0,"
     "46592,72,22,18,43520, tr=52c30bfa30ce6824 pl=40daef477a74aebf thr="},
    {{TopologyKind::Dragonfly, 1, 0, 33, 20, Part::Cyclic, true},
     "now=4008.25 st=29,38,1254,825,10133,19641,0,0,38,10,6,0,"
     "46592,72,22,18,43520, tr=56610cd74824e62a pl=40daef477a74aebf thr="},
    {{TopologyKind::Dragonfly, 1, 1, 5, 3, Part::Block, false},
     "now=502.75 st=14,24,72,42,443,674,0,0,24,0,0,0,"
     "4992,65,19,15,4608, tr=4070d7fd6f6b3974 pl=d9fffbd2bdf0a31d thr="},
    {{TopologyKind::Dragonfly, 1, 1, 5, 3, Part::Block, true},
     "now=747.25 st=25,33,99,66,443,674,0,0,33,9,5,0,"
     "4992,65,19,15,4608, tr=7c3c934794548dfe pl=d9fffbd2bdf0a31d thr="},
    {{TopologyKind::Dragonfly, 1, 1, 5, 3, Part::Cyclic, false},
     "now=496.25 st=14,24,72,42,417,674,0,0,24,0,0,0,"
     "4992,65,19,15,4608, tr=72a4c47c7f44408b pl=24a5440881513275 thr="},
    {{TopologyKind::Dragonfly, 1, 1, 5, 3, Part::Cyclic, true},
     "now=802.25 st=28,35,105,72,417,674,0,0,35,11,6,0,"
     "4992,65,19,15,4608, tr=99513135ef10b316 pl=24a5440881513275 thr="},
    {{TopologyKind::Dragonfly, 1, 1, 13, 13, Part::Block, false},
     "now=1391.25 st=16,28,364,208,3133,5454,0,0,28,0,0,0,"
     "13824,73,19,15,12544, tr=9c194b4af96f53f7 pl=f1857f8f0d5b5109 thr="},
    {{TopologyKind::Dragonfly, 1, 1, 13, 13, Part::Block, true},
     "now=1715.75 st=27,37,481,312,3133,5454,0,0,37,9,5,0,"
     "13824,73,19,15,12544, tr=596bb81a179df218 pl=f1857f8f0d5b5109 thr="},
    {{TopologyKind::Dragonfly, 1, 1, 13, 13, Part::Cyclic, false},
     "now=1371.75 st=16,28,364,208,3055,5454,0,0,28,0,0,0,"
     "14336,71,21,17,13056, tr=0365174482a5dee4 pl=d73daec82600da0c thr="},
    {{TopologyKind::Dragonfly, 1, 1, 13, 13, Part::Cyclic, true},
     "now=1777.75 st=30,39,507,338,3055,5454,0,0,39,11,6,0,"
     "14336,71,21,17,13056, tr=30bd8f68b41511c3 pl=d73daec82600da0c thr="},
    {{TopologyKind::Dragonfly, 1, 1, 33, 20, Part::Block, false},
     "now=3226.25 st=14,24,480,280,10385,19275,0,0,24,0,0,0,"
     "38400,69,19,15,36864, tr=9550e9ae3b508614 pl=2b977edd3c98e3db thr="},
    {{TopologyKind::Dragonfly, 1, 1, 33, 20, Part::Block, true},
     "now=3606.75 st=25,33,660,440,10385,19275,0,0,33,9,5,0,"
     "38400,69,19,15,36864, tr=0c65af7b58ab9535 pl=2b977edd3c98e3db thr="},
    {{TopologyKind::Dragonfly, 1, 1, 33, 20, Part::Cyclic, false},
     "now=3164.5 st=14,24,480,280,10138,19275,0,0,24,0,0,0,"
     "39424,67,21,17,37888, tr=2094f59c64fc514d pl=2accccab40559c17 thr="},
    {{TopologyKind::Dragonfly, 1, 1, 33, 20, Part::Cyclic, true},
     "now=3640.5 st=28,35,700,480,10138,19275,0,0,35,11,6,0,"
     "39424,67,21,17,37888, tr=0c2380151c65ed67 pl=2accccab40559c17 thr="},
    {{TopologyKind::Dragonfly, 3, 1, 5, 3, Part::Block, false},
     "now=2368.75 st=45,276,582,107,235,1210,0,0,372,0,0,0,"
     "18176,281,25,15,17408, tr=c674e046e6d805a5 pl=e10a54bc12f5510d thr="},
    {{TopologyKind::Dragonfly, 3, 1, 5, 3, Part::Block, true},
     "now=4420.75 st=115,339,712,199,235,1210,0,0,455,63,29,0,"
     "18176,281,25,15,17408, tr=466b3a35be2698c1 pl=e10a54bc12f5510d thr="},
    {{TopologyKind::Dragonfly, 3, 1, 5, 3, Part::Cyclic, false},
     "now=2365.5 st=45,276,582,107,222,1210,0,0,372,0,0,0,"
     "18176,281,25,15,17408, tr=868818c4ae8f4f66 pl=dcb11b86ddeb631d thr="},
    {{TopologyKind::Dragonfly, 3, 1, 5, 3, Part::Cyclic, true},
     "now=4424 st=117,339,712,200,222,1210,0,0,453,63,29,0,"
     "18176,281,25,15,17408, tr=5876747cafefe390 pl=dcb11b86ddeb631d thr="},
    {{TopologyKind::Dragonfly, 3, 1, 13, 13, Part::Block, false},
     "now=3132 st=48,320,1716,288,1200,6752,0,0,488,0,0,0,"
     "31232,309,39,15,27648, tr=5b27f70b41622945 pl=d0142bebbd74ffa2 thr="},
    {{TopologyKind::Dragonfly, 3, 1, 13, 13, Part::Block, true},
     "now=6425.5 st=134,402,2149,579,1200,6752,0,0,616,82,44,0,"
     "31232,309,39,15,27648, tr=a05a5729224db99b pl=d0142bebbd74ffa2 thr="},
    {{TopologyKind::Dragonfly, 3, 1, 13, 13, Part::Cyclic, false},
     "now=3122.25 st=48,320,1716,288,1161,6752,0,0,488,0,0,0,"
     "32256,307,41,17,28672, tr=7d43c89945f95b76 pl=3fd4cda1faa13ba6 thr="},
    {{TopologyKind::Dragonfly, 3, 1, 13, 13, Part::Cyclic, true},
     "now=6430.25 st=140,402,2153,583,1161,6752,0,0,612,82,44,0,"
     "32256,307,41,17,28672, tr=03f44968176edb07 pl=3fd4cda1faa13ba6 thr="},
    {{TopologyKind::Dragonfly, 3, 1, 33, 20, Part::Block, false},
     "now=3811.25 st=46,304,3912,614,3149,22267,0,0,448,0,0,0,"
     "58880,301,33,17,53248, tr=17245cca85a4005c pl=ec18f1a4d85cbc1b thr="},
    {{TopologyKind::Dragonfly, 3, 1, 33, 20, Part::Block, true},
     "now=7209.25 st=130,381,4883,1255,3149,22267,0,0,565,77,43,0,"
     "58880,301,33,17,53248, tr=5727819620f3b0f7 pl=ec18f1a4d85cbc1b thr="},
    {{TopologyKind::Dragonfly, 3, 1, 33, 20, Part::Cyclic, false},
     "now=3801.5 st=46,304,3912,614,3110,22267,0,0,448,0,0,0,"
     "54784,302,32,16,49152, tr=4878a181ecc01a01 pl=0b79810c8bd652d6 thr="},
    {{TopologyKind::Dragonfly, 3, 1, 33, 20, Part::Cyclic, true},
     "now=7201 st=132,380,4878,1260,3110,22267,0,0,560,76,42,0,"
     "54784,302,32,16,49152, tr=a06b338c772229e3 pl=0b79810c8bd652d6 thr="},
    {{TopologyKind::Dragonfly, 3, 3, 5, 3, Part::Block, false},
     "now=2161.25 st=40,246,738,120,241,1262,0,0,358,0,0,0,"
     "18176,257,25,15,17408, tr=48b49ae52ce5275e pl=4db6534c9b50f889 thr="},
    {{TopologyKind::Dragonfly, 3, 3, 5, 3, Part::Block, true},
     "now=4718.75 st=102,304,912,237,241,1262,0,0,460,58,34,0,"
     "18176,257,25,15,17408, tr=5596d39ebf30b848 pl=4db6534c9b50f889 thr="},
    {{TopologyKind::Dragonfly, 3, 3, 5, 3, Part::Cyclic, false},
     "now=2161.25 st=40,246,738,120,241,1262,0,0,358,0,0,0,"
     "18176,257,25,15,17408, tr=48b49ae52ce5275e pl=4db6534c9b50f889 thr="},
    {{TopologyKind::Dragonfly, 3, 3, 5, 3, Part::Cyclic, true},
     "now=4718.75 st=102,304,912,237,241,1262,0,0,460,58,34,0,"
     "18176,257,25,15,17408, tr=5596d39ebf30b848 pl=4db6534c9b50f889 thr="},
    {{TopologyKind::Dragonfly, 3, 3, 13, 13, Part::Block, false},
     "now=3783.25 st=48,298,3874,624,1521,8600,0,0,438,0,0,0,"
     "32768,309,29,15,28672, tr=6734fa002424a1ce pl=4ed30327e6890c45 thr="},
    {{TopologyKind::Dragonfly, 3, 3, 13, 13, Part::Block, true},
     "now=6906.75 st=124,367,4771,1183,1521,8600,0,0,551,69,35,0,"
     "32768,309,29,15,28672, tr=5c4709bbe8023e89 pl=4ed30327e6890c45 thr="},
    {{TopologyKind::Dragonfly, 3, 3, 13, 13, Part::Cyclic, false},
     "now=3594.25 st=46,294,3822,598,1469,8600,0,0,430,0,0,0,"
     "30720,309,25,15,28672, tr=e6f381b8c1364f26 pl=48b7b31e98187edb thr="},
    {{TopologyKind::Dragonfly, 3, 3, 13, 13, Part::Cyclic, true},
     "now=6993.25 st=120,365,4745,1196,1469,8600,0,0,551,71,40,0,"
     "30720,309,25,15,28672, tr=5ce114bbb8ab88e0 pl=48b7b31e98187edb thr="},
    {{TopologyKind::Dragonfly, 3, 3, 33, 20, Part::Block, false},
     "now=4444 st=42,250,5000,840,4056,23235,0,0,366,0,0,0,"
     "55296,261,29,15,50176, tr=b4d0af6de3c5703c pl=a0b3b37c75aac76f thr="},
    {{TopologyKind::Dragonfly, 3, 3, 33, 20, Part::Block, true},
     "now=7454.5 st=104,306,6120,1540,4056,23235,0,0,464,56,30,0,"
     "55296,261,29,15,50176, tr=0f2c9fed3947d096 pl=a0b3b37c75aac76f thr="},
    {{TopologyKind::Dragonfly, 3, 3, 33, 20, Part::Cyclic, false},
     "now=4222.5 st=42,250,5000,840,3770,23235,0,0,360,0,0,0,"
     "55296,261,29,15,50176, tr=2b461afabf55fb63 pl=34b300c6ee474fa6 thr="},
    {{TopologyKind::Dragonfly, 3, 3, 33, 20, Part::Cyclic, true},
     "now=7488 st=113,311,6220,1640,3770,23235,0,0,461,61,33,0,"
     "55296,261,29,15,50176, tr=95f484064f6b58ed pl=34b300c6ee474fa6 thr="},
    {{TopologyKind::Dragonfly, 4, 2, 5, 3, Part::Block, false},
     "now=3764 st=59,672,774,90,172,1602,0,0,1024,0,0,0,"
     "35840,623,31,15,34816, tr=ded256b5487364c2 pl=e10a54bc12f5510d thr="},
    {{TopologyKind::Dragonfly, 4, 2, 5, 3, Part::Block, true},
     "now=7645 st=182,809,933,176,172,1602,0,0,1236,137,66,0,"
     "35840,623,31,15,34816, tr=2db8d8b7010380e3 pl=e10a54bc12f5510d thr="},
    {{TopologyKind::Dragonfly, 4, 2, 5, 3, Part::Cyclic, false},
     "now=3764 st=59,672,774,90,172,1602,0,0,1024,0,0,0,"
     "35840,623,31,15,34816, tr=ded256b5487364c2 pl=d6f67c465cfbe811 thr="},
    {{TopologyKind::Dragonfly, 4, 2, 5, 3, Part::Cyclic, true},
     "now=8243 st=188,815,939,182,172,1602,0,0,1252,143,69,0,"
     "35840,623,31,15,34816, tr=70e32a708e5d3672 pl=d6f67c465cfbe811 thr="},
    {{TopologyKind::Dragonfly, 4, 2, 13, 13, Part::Block, false},
     "now=4744 st=64,832,2704,256,800,7984,0,0,1456,0,0,0,"
     "39936,757,47,15,36864, tr=1f1da395c950bc8d pl=fc041bc922ab3bee thr="},
    {{TopologyKind::Dragonfly, 4, 2, 13, 13, Part::Block, true},
     "now=10955.5 st=219,1022,3313,565,800,7984,0,0,1804,190,101,0,"
     "39936,757,47,15,36864, tr=c8da34bb985faa70 pl=fc041bc922ab3bee thr="},
    {{TopologyKind::Dragonfly, 4, 2, 13, 13, Part::Cyclic, false},
     "now=4737.5 st=64,832,2704,256,774,7984,0,0,1456,0,0,0,"
     "39936,757,47,15,36864, tr=7e3c255b4cd2ad3f pl=a34944fc9914beae thr="},
    {{TopologyKind::Dragonfly, 4, 2, 13, 13, Part::Cyclic, true},
     "now=10950 st=217,1023,3318,567,774,7984,0,0,1811,191,102,0,"
     "39936,757,47,15,36864, tr=696a1dc7e50bed4c pl=a34944fc9914beae thr="},
    {{TopologyKind::Dragonfly, 4, 2, 33, 20, Part::Block, false},
     "now=4908.75 st=60,768,5192,428,1843,23523,0,0,1296,0,0,0,"
     "66304,681,59,15,59392, tr=e003a4207d60cdfa pl=ad81c732609b9b33 thr="},
    {{TopologyKind::Dragonfly, 4, 2, 33, 20, Part::Block, true},
     "now=10862.25 st=203,942,6356,1013,1843,23523,0,0,1607,174,92,0,"
     "66304,681,59,15,59392, tr=2ac556583a7309a8 pl=ad81c732609b9b33 thr="},
    {{TopologyKind::Dragonfly, 4, 2, 33, 20, Part::Cyclic, false},
     "now=4886 st=60,768,5192,428,1752,23523,0,0,1296,0,0,0,"
     "66304,681,59,15,59392, tr=a01e0b7866628914 pl=998487e29caa95ef thr="},
    {{TopologyKind::Dragonfly, 4, 2, 33, 20, Part::Cyclic, true},
     "now=11059 st=206,948,6386,1023,1752,23523,0,0,1623,180,95,0,"
     "66304,681,59,15,59392, tr=3513a99693c2ac1a pl=998487e29caa95ef thr="},
    {{TopologyKind::Dragonfly, 4, 4, 5, 3, Part::Block, false},
     "now=3613 st=53,638,1914,159,268,2342,0,0,1088,0,0,0,"
     "36096,609,33,15,34816, tr=f70e569009d7f505 pl=4db6534c9b50f889 thr="},
    {{TopologyKind::Dragonfly, 4, 4, 5, 3, Part::Block, true},
     "now=8238.5 st=178,807,2421,369,268,2342,0,0,1390,169,87,0,"
     "36096,609,33,15,34816, tr=f4d168890984be2f pl=4db6534c9b50f889 thr="},
    {{TopologyKind::Dragonfly, 4, 4, 5, 3, Part::Cyclic, false},
     "now=3613 st=53,638,1914,159,268,2342,0,0,1088,0,0,0,"
     "36096,609,33,15,34816, tr=f70e569009d7f505 pl=4db6534c9b50f889 thr="},
    {{TopologyKind::Dragonfly, 4, 4, 5, 3, Part::Cyclic, true},
     "now=8238.5 st=178,807,2421,369,268,2342,0,0,1390,169,87,0,"
     "36096,609,33,15,34816, tr=f4d168890984be2f pl=4db6534c9b50f889 thr="},
    {{TopologyKind::Dragonfly, 4, 4, 13, 13, Part::Block, false},
     "now=5794.5 st=62,768,9984,806,1222,14294,0,0,1318,0,0,0,"
     "61440,740,36,16,57344, tr=2a77b167e1311540 pl=07931d6d88df635c thr="},
    {{TopologyKind::Dragonfly, 4, 4, 13, 13, Part::Block, true},
     "now=12208.5 st=210,967,12571,1898,1222,14294,0,0,1659,199,108,0,"
     "61440,740,36,16,57344, tr=db06880bf08fa2d7 pl=07931d6d88df635c thr="},
    {{TopologyKind::Dragonfly, 4, 4, 13, 13, Part::Cyclic, false},
     "now=5794.5 st=62,768,9984,806,1222,14294,0,0,1318,0,0,0,"
     "61440,740,36,16,57344, tr=2a77b167e1311540 pl=07931d6d88df635c thr="},
    {{TopologyKind::Dragonfly, 4, 4, 13, 13, Part::Cyclic, true},
     "now=12208.5 st=210,967,12571,1898,1222,14294,0,0,1659,199,108,0,"
     "61440,740,36,16,57344, tr=db06880bf08fa2d7 pl=07931d6d88df635c thr="},
    {{TopologyKind::Dragonfly, 4, 4, 33, 20, Part::Block, false},
     "now=7078.25 st=69,1280,12880,730,3053,30435,0,0,2195,0,0,0,"
     "108544,1173,55,15,100352, tr=00414fb0e63356d1 pl=374471ff7ad4806b thr="},
    {{TopologyKind::Dragonfly, 4, 4, 33, 20, Part::Block, true},
     "now=15398.75 st=251,1590,16010,1810,3053,30435,0,0,2749,310,170,0,"
     "108544,1173,55,15,100352, tr=efce42359a73ae0b pl=374471ff7ad4806b thr="},
    {{TopologyKind::Dragonfly, 4, 4, 33, 20, Part::Cyclic, false},
     "now=6951.25 st=69,1280,12880,730,2845,30435,0,0,2183,0,0,0,"
     "104448,1172,56,16,96256, tr=2d70fbc8abb62fb1 pl=b4024e6ec2e35b0f thr="},
    {{TopologyKind::Dragonfly, 4, 4, 33, 20, Part::Cyclic, true},
     "now=14664.75 st=244,1580,15910,1740,2845,30435,0,0,2715,300,162,0,"
     "104448,1172,56,16,96256, tr=69aff2c1ff0e2d00 pl=b4024e6ec2e35b0f thr="},
    {{TopologyKind::Dragonfly, 6, 3, 5, 3, Part::Block, false},
     "now=5345.75 st=86,2208,2208,86,119,4444,0,0,3516,0,0,0,"
     "142400,1986,64,15,139264, tr=50d586ccb0594fa3 pl=39d9ecc358f2fcf9 thr="},
    {{TopologyKind::Dragonfly, 6, 3, 5, 3, Part::Block, true},
     "now=15288.75 st=368,2826,2826,246,119,4444,0,0,4513,618,286,0,"
     "142400,1986,64,15,139264, tr=9f16b412aad35245 pl=39d9ecc358f2fcf9 thr="},
    {{TopologyKind::Dragonfly, 6, 3, 5, 3, Part::Cyclic, false},
     "now=5345.75 st=86,2208,2208,86,119,4444,0,0,3516,0,0,0,"
     "142400,1986,64,15,139264, tr=50d586ccb0594fa3 pl=39d9ecc358f2fcf9 thr="},
    {{TopologyKind::Dragonfly, 6, 3, 5, 3, Part::Cyclic, true},
     "now=15288.75 st=368,2826,2826,246,119,4444,0,0,4513,618,286,0,"
     "142400,1986,64,15,139264, tr=9f16b412aad35245 pl=39d9ecc358f2fcf9 thr="},
    {{TopologyKind::Dragonfly, 6, 3, 13, 13, Part::Block, false},
     "now=6801.75 st=96,4768,7748,192,327,13616,0,0,8940,0,0,0,"
     "143360,4309,79,15,139264, tr=36a59ad8267ba2e4 pl=c236e30628e237f2 thr="},
    {{TopologyKind::Dragonfly, 6, 3, 13, 13, Part::Block, true},
     "now=21187.25 st=471,5989,9749,586,327,13616,0,0,11229,1221,594,0,"
     "143360,4309,79,15,139264, tr=8fcbc5b6d5159fd6 pl=c236e30628e237f2 thr="},
    {{TopologyKind::Dragonfly, 6, 3, 13, 13, Part::Cyclic, false},
     "now=6518.5 st=92,4704,7644,184,314,13616,0,0,8820,0,0,0,"
     "143360,4245,79,15,139264, tr=296b378fad514cf8 pl=74a1525728a9d2e6 thr="},
    {{TopologyKind::Dragonfly, 6, 3, 13, 13, Part::Cyclic, true},
     "now=20929 st=467,5989,9714,565,314,13616,0,0,11274,1285,601,0,"
     "143360,4245,79,15,139264, tr=5cc2d61b7671a687 pl=74a1525728a9d2e6 thr="},
    {{TopologyKind::Dragonfly, 6, 3, 33, 20, Part::Block, false},
     "now=6689 st=90,4384,14834,366,836,34659,0,0,7884,0,0,0,"
     "158464,3869,133,15,147456, tr=e2af5687f5803660 pl=9c485027dcb655fa thr="},
    {{TopologyKind::Dragonfly, 6, 3, 33, 20, Part::Block, true},
     "now=20121.5 st=442,5530,18688,1072,836,34659,0,0,9961,1146,554,0,"
     "158464,3869,133,15,147456, tr=e6ca66f3dc5e866c pl=9c485027dcb655fa thr="},
    {{TopologyKind::Dragonfly, 6, 3, 33, 20, Part::Cyclic, false},
     "now=6646 st=89,4368,14768,361,784,34659,0,0,7868,0,0,0,"
     "155648,3875,111,15,147456, tr=c5a87e369d6c6795 pl=013fd8f0b95584f6 thr="},
    {{TopologyKind::Dragonfly, 6, 3, 33, 20, Part::Cyclic, true},
     "now=20527 st=452,5522,18655,1092,784,34659,0,0,9967,1154,549,0,"
     "155648,3875,111,15,147456, tr=e1362dae75c85550 pl=013fd8f0b95584f6 thr="},
    {{TopologyKind::Dragonfly, 6, 6, 5, 3, Part::Block, false},
     "now=5759.5 st=79,3710,11130,237,322,10982,0,0,6786,0,0,0,"
     "143616,3441,81,15,139264, tr=3bade24f3afd7c08 pl=4db6534c9b50f889 thr="},
    {{TopologyKind::Dragonfly, 6, 6, 5, 3, Part::Block, true},
     "now=16585.25 st=366,4671,14013,711,319,10790,0,0,8578,961,461,0,"
     "143616,3441,81,15,139264, tr=03f9821c8732480e pl=932bd47c847c7f42 thr=40,"},
    {{TopologyKind::Dragonfly, 6, 6, 5, 3, Part::Cyclic, false},
     "now=5759.5 st=79,3710,11130,237,322,10982,0,0,6786,0,0,0,"
     "143616,3441,81,15,139264, tr=3bade24f3afd7c08 pl=4db6534c9b50f889 thr="},
    {{TopologyKind::Dragonfly, 6, 6, 5, 3, Part::Cyclic, true},
     "now=16585.25 st=366,4671,14013,711,319,10790,0,0,8578,961,461,0,"
     "143616,3441,81,15,139264, tr=03f9821c8732480e pl=932bd47c847c7f42 thr=40,"},
    {{TopologyKind::Dragonfly, 6, 6, 13, 13, Part::Block, false},
     "now=10377 st=107,8956,58240,746,1508,60054,0,0,16439,0,0,0,"
     "239616,8372,148,16,229376, tr=a170319597a239dc pl=07931d6d88df635c thr="},
    {{TopologyKind::Dragonfly, 6, 6, 13, 13, Part::Block, true},
     "now=29265 st=568,11209,72917,2403,1508,60054,0,0,20522,2253,1172,0,"
     "239616,8372,148,16,229376, tr=7c4563682a9499cd pl=07931d6d88df635c thr="},
    {{TopologyKind::Dragonfly, 6, 6, 13, 13, Part::Cyclic, false},
     "now=10377 st=107,8956,58240,746,1508,60054,0,0,16439,0,0,0,"
     "239616,8372,148,16,229376, tr=a170319597a239dc pl=07931d6d88df635c thr="},
    {{TopologyKind::Dragonfly, 6, 6, 13, 13, Part::Cyclic, true},
     "now=29265 st=568,11209,72917,2403,1508,60054,0,0,20522,2253,1172,0,"
     "239616,8372,148,16,229376, tr=7c4563682a9499cd pl=07931d6d88df635c thr="},
    {{TopologyKind::Dragonfly, 6, 6, 33, 20, Part::Block, false},
     "now=10143.25 st=92,7418,74200,930,2073,87995,0,0,13550,0,0,0,"
     "353280,6836,146,16,335872, tr=d4a90f0191a2c6e3 pl=bac48b6690f334e7 thr="},
    {{TopologyKind::Dragonfly, 6, 6, 33, 20, Part::Block, true},
     "now=27293.75 st=480,9318,93210,3030,2073,87995,0,0,16957,1900,968,0,"
     "353280,6836,146,16,335872, tr=f5330a9a5245abca pl=bac48b6690f334e7 thr="},
    {{TopologyKind::Dragonfly, 6, 6, 33, 20, Part::Cyclic, false},
     "now=10143.25 st=92,7418,74200,930,2073,87995,0,0,13550,0,0,0,"
     "353280,6836,146,16,335872, tr=d4a90f0191a2c6e3 pl=bac48b6690f334e7 thr="},
    {{TopologyKind::Dragonfly, 6, 6, 33, 20, Part::Cyclic, true},
     "now=27293.75 st=480,9318,93210,3030,2073,87995,0,0,16957,1900,968,0,"
     "353280,6836,146,16,335872, tr=f5330a9a5245abca pl=bac48b6690f334e7 thr="},
};

class PrimitiveCharges : public ::testing::TestWithParam<TopologyKind> {};

TEST_P(PrimitiveCharges, PinnedOnEveryShapePartitionPlanAndLaneCount) {
  const TopologyKind kind = GetParam();
  int checked = 0;
  for (const PrimitiveGolden& g : kPrimitiveGoldens) {
    if (g.config.kind != kind) continue;
    for (const unsigned lanes : {1u, 3u}) {
      SCOPED_TRACE(describe(g.config) + " lanes=" + std::to_string(lanes));
      EXPECT_EQ(run_primitive_program(g.config, lanes), g.line);
      ++checked;
    }
  }
  EXPECT_EQ(checked, 192)
      << "4 dims x 2 splits x 3 shapes x 2 partitions x 2 plans x 2 lanes";
}

INSTANTIATE_TEST_SUITE_P(
    Presets, PrimitiveCharges,
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

TEST(TopologyOptions, UnknownVmpTopologyIsRejected) {
  // An unknown name fails in the parse, which runs when Cube::Options{} is
  // built — before any team or topology is; unset or empty still means
  // the hypercube.
  std::string saved;
  if (const char* prev = std::getenv("VMP_TOPOLOGY")) saved = prev;
  for (const char* bad : {"banyan", "Mesh", "torus ", "dragonfly2"}) {
    ASSERT_EQ(setenv("VMP_TOPOLOGY", bad, 1), 0);
    try {
      (void)env_topology();
      ADD_FAILURE() << "VMP_TOPOLOGY=" << bad << " was accepted";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("VMP_TOPOLOGY"), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("\"") + bad + "\""), std::string::npos)
          << what;
    }
    EXPECT_THROW((void)Cube::Options{}, Error) << bad;
    EXPECT_THROW({ Cube cube(3, CostParams::unit()); }, Error) << bad;
  }
  ASSERT_EQ(setenv("VMP_TOPOLOGY", "", 1), 0);
  EXPECT_EQ(env_topology(), TopologyKind::Hypercube);
  if (saved.empty())
    ASSERT_EQ(unsetenv("VMP_TOPOLOGY"), 0);
  else
    ASSERT_EQ(setenv("VMP_TOPOLOGY", saved.c_str(), 1), 0);
}

}  // namespace
}  // namespace vmp
