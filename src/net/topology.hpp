/// \file topology.hpp
/// \brief The machine-facing network abstraction: nodes, ports, links,
/// minimal routes, and per-hop charge parameters.
///
/// The `Cube` machine keeps the paper's *logical* programming model — a
/// lockstep Boolean cube of `2^dim` processors exchanging along address
/// bits — but the network those exchanges physically cross is described by
/// a `Topology`.  The hypercube preset maps every logical cube edge onto
/// one physical link (`unit_hop() == true`), which is the configuration
/// the paper's optimality claims are stated for and the library's default;
/// mesh/torus and dragonfly presets route each logical edge over several
/// physical links, paying dilation and link contention, so every bench
/// doubles as a topology ablation ("how much of the win is the cube?").
///
/// Addressing model shared by all implementations:
///
///  * nodes are dense ids in `[0, node_count())`;
///  * each node has `max_ports()` numbered output ports;
///    `port_neighbor(n, p)` is the node behind port `p` (or `kNoNeighbor`
///    for absent ports, e.g. mesh boundaries);
///  * every physical link has a dense undirected id in
///    `[0, link_count())`; `link_id(n, p)` names the link behind a port.
///    Fault plans address link kills as (node, port) pairs and the
///    injector canonicalizes them through `link_id`, so one kill severs
///    the link for both endpoints;
///  * links are grouped into *axes* (`port_axis`, `axis_count()`): the
///    cube's dimensions, a mesh's grid axes, dragonfly's local/global
///    classes.  Axes size the per-axis traffic histograms in `src/obs/`
///    and carry the per-hop charge multipliers (`axis_charge`).
///
/// Routing: `route` appends the canonical deterministic minimal route,
/// `first_hop`/`min_first_ports` serve the packet router's per-cycle
/// decisions, and `route_avoiding` computes a minimal *live* route around
/// dead links/nodes for fault recovery (BFS by default; the hypercube
/// overrides it with the paper machine's 3-hop parallel-path detour for
/// adjacent pairs, keeping the seed fault path bit-identical).
///
/// See docs/topology.md for the preset shapes and how to add a topology.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "hypercube/check.hpp"

namespace vmp {

/// Processor / node id; addresses are dense in [0, node_count()).
using proc_t = std::uint32_t;

/// Marker returned by port_neighbor for ports that do not exist at this
/// node (mesh boundary, dragonfly's unused global-channel slots).
inline constexpr proc_t kNoNeighbor = 0xffffffffu;

/// Built-in topology presets selectable via Cube::Options / VMP_TOPOLOGY.
enum class TopologyKind { Hypercube, Mesh, Torus, Dragonfly };

/// Per-axis charge multipliers: one hop across a link of this axis costs
/// `startup_mult · τ` in start-up and moves elements at
/// `per_elem_mult · t_c` each.  The hypercube and mesh presets use {1, 1}
/// everywhere; dragonfly charges its global (inter-group) links more.
struct AxisCharge {
  double startup_mult = 1.0;
  double per_elem_mult = 1.0;
};

/// One hop of a route: the directed traversal of the link behind `port`
/// at `from`.
struct Hop {
  proc_t from = 0;
  proc_t to = 0;
  int axis = 0;  ///< charge/histogram axis of the crossed link
  int port = 0;  ///< output port at `from` (keys fault lookups / link ids)
};

/// One undirected physical link.
struct Link {
  std::uint64_t id = 0;
  proc_t a = 0;  ///< lower-id endpoint as enumerated
  proc_t b = 0;
  int axis = 0;
};

class Topology {
 public:
  virtual ~Topology() = default;

  [[nodiscard]] virtual const char* name() const = 0;
  [[nodiscard]] virtual TopologyKind kind() const = 0;
  [[nodiscard]] virtual proc_t node_count() const = 0;
  [[nodiscard]] virtual int axis_count() const = 0;
  [[nodiscard]] virtual const char* axis_name(int axis) const;
  [[nodiscard]] virtual int diameter() const = 0;

  /// Upper bound on port numbers at any node (absent ports return
  /// kNoNeighbor from port_neighbor).
  [[nodiscard]] virtual int max_ports() const = 0;
  [[nodiscard]] virtual proc_t port_neighbor(proc_t node, int port) const = 0;
  [[nodiscard]] virtual int port_axis(proc_t node, int port) const = 0;

  /// Undirected link id behind an EXISTING port (REQUIREs validity).
  [[nodiscard]] virtual std::uint64_t link_id(proc_t node, int port) const;
  [[nodiscard]] virtual std::uint64_t link_count() const;
  /// Every undirected link once, ordered by id.
  [[nodiscard]] virtual std::vector<Link> links() const;

  [[nodiscard]] virtual AxisCharge axis_charge(int axis) const {
    (void)axis;
    return AxisCharge{};
  }

  /// True when every logical cube edge is exactly one physical link —
  /// the machine then charges the paper's exact `τ + n·t_c` per round.
  [[nodiscard]] virtual bool unit_hop() const { return false; }

  /// Append the canonical deterministic minimal route src → dst
  /// (empty when src == dst).
  virtual void route(proc_t src, proc_t dst, std::vector<Hop>& out) const = 0;

  /// First hop of the canonical minimal route (REQUIREs src != dst).
  /// O(1); this is what the packet router asks every cycle.
  [[nodiscard]] virtual Hop first_hop(proc_t from, proc_t dst) const = 0;

  /// Every port at `from` that starts SOME minimal route to dst, in
  /// deterministic preference order (the canonical route's port first for
  /// presets with a unique canonical choice; the hypercube lists all
  /// differing address bits ascending, matching the seed router).
  virtual void min_first_ports(proc_t from, proc_t dst,
                               std::vector<int>& out) const = 0;

  using LinkDeadFn = std::function<bool(proc_t node, int port)>;
  using NodeDeadFn = std::function<bool(proc_t node)>;

  /// Shortest live route src → dst avoiding dead links and dead interior
  /// nodes (the endpoints are the caller's responsibility).  Returns false
  /// when the survivors disconnect the pair.  Deterministic: breadth-first
  /// in (node, port) order by default.
  [[nodiscard]] virtual bool route_avoiding(proc_t src, proc_t dst,
                                            const LinkDeadFn& link_dead,
                                            const NodeDeadFn& node_dead,
                                            std::vector<Hop>& out) const;

  /// Packet-router escape hatch when every minimal first port at `from` is
  /// dead: one live hop to take now plus a port to force from the next
  /// node (-1 when no force is needed).  Default: first hop of the live
  /// BFS route, no force.  Returns false when the packet is cut off.
  [[nodiscard]] virtual bool detour_first(proc_t from, proc_t dst,
                                          const LinkDeadFn& link_dead,
                                          const NodeDeadFn& node_dead,
                                          Hop& hop, int& force_port) const;

  /// Existing neighbors of `node`, in port order.
  [[nodiscard]] std::vector<proc_t> neighbors(proc_t node) const;

 protected:
  /// Table-backed link identity for the irregular presets: scans every
  /// (node, port) once, assigns dense undirected ids, and records which
  /// reverse ports map to the same link.  Derived constructors call this
  /// after their port geometry is final; the hypercube overrides link_id
  /// analytically instead (its node count can be far too large to table).
  void finalize_links();

 private:
  std::vector<std::uint64_t> link_index_;  ///< (node·max_ports + port) → id
  std::vector<Link> links_;
  bool links_built_ = false;
};

/// Preset name for reports ("hypercube", "mesh", "torus", "dragonfly").
[[nodiscard]] const char* to_string(TopologyKind kind);

/// Parse a preset name (case-sensitive; "cube" aliases "hypercube").
[[nodiscard]] bool parse_topology(std::string_view name, TopologyKind& out);

/// The VMP_TOPOLOGY environment default: unset or empty → Hypercube, a
/// name parse_topology knows → that preset; any other value throws
/// vmp::Error naming the variable and its value.
[[nodiscard]] TopologyKind env_topology();

/// Build a preset sized for a 2^dim-processor logical cube.  The mesh and
/// torus presets are 2-D grids of 2^ceil(dim/2) × 2^floor(dim/2) nodes in
/// row-major order; dragonfly uses 2^floor(dim/2) groups of 2^ceil(dim/2)
/// all-to-all routers with one global link per group pair.
[[nodiscard]] std::unique_ptr<Topology> make_topology(TopologyKind kind,
                                                      int dim);

}  // namespace vmp
