#include "net/dragonfly_topology.hpp"

namespace vmp {

DragonflyTopology::DragonflyTopology(int dim) {
  VMP_REQUIRE(dim >= 0 && dim <= 20,
              "dragonfly preset supports dim in [0, 20]");
  const int rbits = dim - dim / 2;  // ceil(dim/2) router bits per group
  routers_ = proc_t{1} << rbits;
  groups_ = proc_t{1} << (dim / 2);
  nodes_ = proc_t{1} << dim;
  chans_per_router_ =
      groups_ > 1 ? (groups_ - 1 + routers_ - 1) / routers_ : 0;
  finalize_links();
}

void DragonflyTopology::global_link(proc_t gi, proc_t gj, proc_t& ra,
                                    proc_t& rb, proc_t& chan) const {
  chan = (gj + groups_ - gi - 1) & (groups_ - 1);
  ra = chan / chans_per_router_;
  rb = ((gi + groups_ - gj - 1) & (groups_ - 1)) / chans_per_router_;
}

proc_t DragonflyTopology::port_neighbor(proc_t node, int port) const {
  VMP_REQUIRE(node < nodes_ && port >= 0 && port < max_ports(),
              "port_neighbor: node/port out of range");
  const proc_t g = group_of(node);
  const proc_t r = router_of(node);
  const proc_t nlocal = routers_ - 1;
  if (port < static_cast<int>(nlocal)) {
    const proc_t s =
        static_cast<proc_t>(port) < r ? static_cast<proc_t>(port)
                                      : static_cast<proc_t>(port) + 1;
    return g * routers_ + s;
  }
  const proc_t chan =
      r * chans_per_router_ + (static_cast<proc_t>(port) - nlocal);
  if (groups_ <= 1 || chan >= groups_ - 1) return kNoNeighbor;
  const proc_t gj = (g + chan + 1) & (groups_ - 1);
  const proc_t rb = ((g + groups_ - gj - 1) & (groups_ - 1)) /
                    chans_per_router_;
  return gj * routers_ + rb;
}

void DragonflyTopology::route(proc_t src, proc_t dst,
                              std::vector<Hop>& out) const {
  if (src == dst) return;
  const proc_t gi = group_of(src), gj = group_of(dst);
  proc_t at = src;
  if (gi != gj) {
    proc_t ra, rb, chan;
    global_link(gi, gj, ra, rb, chan);
    if (router_of(at) != ra) {
      const proc_t to = gi * routers_ + ra;
      out.push_back(Hop{at, to, 0, local_port(router_of(at), ra)});
      at = to;
    }
    const int gport =
        static_cast<int>(routers_ - 1 + chan % chans_per_router_);
    const proc_t to = gj * routers_ + rb;
    out.push_back(Hop{at, to, 1, gport});
    at = to;
  }
  if (at != dst) {
    out.push_back(Hop{at, dst, 0, local_port(router_of(at), router_of(dst))});
  }
}

Hop DragonflyTopology::first_hop(proc_t from, proc_t dst) const {
  VMP_REQUIRE(from != dst, "first_hop: already at destination");
  const proc_t gi = group_of(from), gj = group_of(dst);
  if (gi == gj) {
    return Hop{from, dst, 0, local_port(router_of(from), router_of(dst))};
  }
  proc_t ra, rb, chan;
  global_link(gi, gj, ra, rb, chan);
  if (router_of(from) != ra) {
    const proc_t to = gi * routers_ + ra;
    return Hop{from, to, 0, local_port(router_of(from), ra)};
  }
  const int gport = static_cast<int>(routers_ - 1 + chan % chans_per_router_);
  return Hop{from, gj * routers_ + rb, 1, gport};
}

void DragonflyTopology::min_first_ports(proc_t from, proc_t dst,
                                        std::vector<int>& out) const {
  if (from == dst) return;
  out.push_back(first_hop(from, dst).port);
}

}  // namespace vmp
