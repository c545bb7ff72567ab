#include "net/topology.hpp"

#include <cstdlib>
#include <queue>
#include <string>

#include "net/dragonfly_topology.hpp"
#include "net/hypercube_topology.hpp"
#include "net/mesh_topology.hpp"

namespace vmp {

namespace {

constexpr std::uint64_t kNoLink = ~std::uint64_t{0};

}  // namespace

const char* Topology::axis_name(int axis) const {
  (void)axis;
  return "axis";
}

std::uint64_t Topology::link_id(proc_t node, int port) const {
  VMP_REQUIRE(node < node_count() && port >= 0 && port < max_ports(),
              "link_id: node/port out of range");
  const std::uint64_t id =
      link_index_[static_cast<std::uint64_t>(node) *
                      static_cast<std::uint64_t>(max_ports()) +
                  static_cast<std::uint64_t>(port)];
  VMP_REQUIRE(id != kNoLink, "link_id: port does not exist at this node");
  return id;
}

std::uint64_t Topology::link_count() const { return links_.size(); }

std::vector<Link> Topology::links() const {
  VMP_REQUIRE(links_built_, "links(): topology did not finalize_links()");
  return links_;
}

void Topology::finalize_links() {
  const std::uint64_t n = node_count();
  const int np = max_ports();
  link_index_.assign(n * static_cast<std::uint64_t>(np), kNoLink);
  links_.clear();
  for (proc_t node = 0; node < n; ++node) {
    for (int p = 0; p < np; ++p) {
      const std::uint64_t slot =
          node * static_cast<std::uint64_t>(np) + static_cast<std::uint64_t>(p);
      if (link_index_[slot] != kNoLink) continue;
      const proc_t nb = port_neighbor(node, p);
      if (nb == kNoNeighbor) continue;
      VMP_REQUIRE(nb < n, "finalize_links: neighbor out of range");
      const std::uint64_t id = links_.size();
      const int axis = port_axis(node, p);
      link_index_[slot] = id;
      // Every reverse port at nb reaching back over the same axis names
      // the same undirected link (a 2-ary torus ring has one such port).
      for (int p2 = 0; p2 < np; ++p2)
        if (port_neighbor(nb, p2) == node && port_axis(nb, p2) == axis)
          link_index_[nb * static_cast<std::uint64_t>(np) +
                      static_cast<std::uint64_t>(p2)] = id;
      links_.push_back(Link{id, node, nb, axis});
    }
  }
  links_built_ = true;
}

std::vector<proc_t> Topology::neighbors(proc_t node) const {
  std::vector<proc_t> out;
  const int np = max_ports();
  out.reserve(static_cast<std::size_t>(np));
  for (int p = 0; p < np; ++p) {
    const proc_t nb = port_neighbor(node, p);
    if (nb != kNoNeighbor) out.push_back(nb);
  }
  return out;
}

bool Topology::route_avoiding(proc_t src, proc_t dst,
                              const LinkDeadFn& link_dead,
                              const NodeDeadFn& node_dead,
                              std::vector<Hop>& out) const {
  if (src == dst) return true;
  const proc_t n = node_count();
  const int np = max_ports();
  // Breadth-first in (node, port) order: deterministic shortest live path.
  // prev[v] = (node, port) the BFS reached v through.
  std::vector<std::pair<proc_t, int>> prev(n, {kNoNeighbor, -1});
  std::queue<proc_t> frontier;
  prev[src] = {src, -1};
  frontier.push(src);
  while (!frontier.empty()) {
    const proc_t at = frontier.front();
    frontier.pop();
    for (int p = 0; p < np; ++p) {
      const proc_t nb = port_neighbor(at, p);
      if (nb == kNoNeighbor || prev[nb].first != kNoNeighbor) continue;
      if (link_dead(at, p)) continue;
      if (nb != dst && node_dead(nb)) continue;
      prev[nb] = {at, p};
      if (nb == dst) {
        std::vector<Hop> rev;
        for (proc_t v = dst; v != src;) {
          const auto [u, up] = prev[v];
          rev.push_back(Hop{u, v, port_axis(u, up), up});
          v = u;
        }
        out.insert(out.end(), rev.rbegin(), rev.rend());
        return true;
      }
      frontier.push(nb);
    }
  }
  return false;
}

bool Topology::detour_first(proc_t from, proc_t dst, const LinkDeadFn& link_dead,
                            const NodeDeadFn& node_dead, Hop& hop,
                            int& force_port) const {
  std::vector<Hop> path;
  if (!route_avoiding(from, dst, link_dead, node_dead, path) || path.empty())
    return false;
  hop = path.front();
  force_port = -1;
  return true;
}

const char* to_string(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::Hypercube: return "hypercube";
    case TopologyKind::Mesh: return "mesh";
    case TopologyKind::Torus: return "torus";
    case TopologyKind::Dragonfly: return "dragonfly";
  }
  return "hypercube";
}

bool parse_topology(std::string_view name, TopologyKind& out) {
  if (name == "hypercube" || name == "cube") {
    out = TopologyKind::Hypercube;
  } else if (name == "mesh") {
    out = TopologyKind::Mesh;
  } else if (name == "torus") {
    out = TopologyKind::Torus;
  } else if (name == "dragonfly") {
    out = TopologyKind::Dragonfly;
  } else {
    return false;
  }
  return true;
}

TopologyKind env_topology() {
  TopologyKind kind = TopologyKind::Hypercube;
  const char* s = std::getenv("VMP_TOPOLOGY");
  if (s != nullptr && *s != '\0' && !parse_topology(s, kind))
    throw Error("VMP_TOPOLOGY=\"" + std::string(s) +
                "\" names no topology (hypercube, cube, mesh, torus or "
                "dragonfly)");
  return kind;
}

std::unique_ptr<Topology> make_topology(TopologyKind kind, int dim) {
  switch (kind) {
    case TopologyKind::Hypercube:
      return std::make_unique<HypercubeTopology>(dim);
    case TopologyKind::Mesh:
      return std::make_unique<MeshTorusTopology>(dim, /*wrap=*/false);
    case TopologyKind::Torus:
      return std::make_unique<MeshTorusTopology>(dim, /*wrap=*/true);
    case TopologyKind::Dragonfly:
      return std::make_unique<DragonflyTopology>(dim);
  }
  return std::make_unique<HypercubeTopology>(dim);
}

}  // namespace vmp
