/// \file dragonfly_topology.hpp
/// \brief Dragonfly preset: all-to-all router groups + global links.
///
/// The 2^dim logical processors map onto 2^floor(dim/2) groups of
/// 2^ceil(dim/2) routers (one processor per router).  Within a group the
/// routers are fully connected (axis 0, "local"); each unordered pair of
/// groups is joined by exactly ONE global link (axis 1, "global"), with
/// the booksim-style consecutive channel assignment: group i's channel
/// k ∈ [0, g-1) reaches group (i+k+1) mod g and is hosted at router
/// k / h, h = ceil((g-1)/a) channels per router.
///
/// Routing is minimal l-g-l (at most local → global → local, diameter 3).
/// Global links charge `kGlobalCharge` multipliers per hop (2× start-up,
/// 1× bandwidth): the long inter-group cables are latency, not
/// throughput, bound.
#pragma once

#include <vector>

#include "net/topology.hpp"

namespace vmp {

class DragonflyTopology final : public Topology {
 public:
  explicit DragonflyTopology(int dim);

  [[nodiscard]] const char* name() const override { return "dragonfly"; }
  [[nodiscard]] TopologyKind kind() const override {
    return TopologyKind::Dragonfly;
  }
  [[nodiscard]] proc_t node_count() const override { return nodes_; }
  [[nodiscard]] int axis_count() const override { return 2; }
  [[nodiscard]] const char* axis_name(int axis) const override {
    return axis == 0 ? "local" : "global";
  }
  [[nodiscard]] int diameter() const override {
    return groups_ > 1 ? 3 : (routers_ > 1 ? 1 : 0);
  }
  [[nodiscard]] int max_ports() const override {
    return static_cast<int>(routers_ - 1 + chans_per_router_);
  }
  [[nodiscard]] proc_t port_neighbor(proc_t node, int port) const override;
  [[nodiscard]] int port_axis(proc_t, int port) const override {
    return port < static_cast<int>(routers_ - 1) ? 0 : 1;
  }
  [[nodiscard]] AxisCharge axis_charge(int axis) const override {
    return axis == 1 ? kGlobalCharge : AxisCharge{};
  }

  void route(proc_t src, proc_t dst, std::vector<Hop>& out) const override;
  [[nodiscard]] Hop first_hop(proc_t from, proc_t dst) const override;
  void min_first_ports(proc_t from, proc_t dst,
                       std::vector<int>& out) const override;

 private:
  [[nodiscard]] proc_t group_of(proc_t node) const { return node / routers_; }
  [[nodiscard]] proc_t router_of(proc_t node) const {
    return node % routers_;
  }
  /// Port at router `r` reaching router `s` of the same group.
  [[nodiscard]] int local_port(proc_t r, proc_t s) const {
    return static_cast<int>(s < r ? s : s - 1);
  }
  /// Routers hosting the two ends of the (gi, gj) global link, plus the
  /// channel index at gi.
  void global_link(proc_t gi, proc_t gj, proc_t& ra, proc_t& rb,
                   proc_t& chan) const;

  static constexpr AxisCharge kGlobalCharge{2.0, 1.0};

  proc_t nodes_;
  proc_t groups_;
  proc_t routers_;
  proc_t chans_per_router_;
};

}  // namespace vmp
