#include "hypercube/machine.hpp"

#include <cstdlib>

#include "core/simd.hpp"

namespace vmp {

namespace {

/// Lanes the team runs: the request, resolved, but never more than one per
/// processor — a lane beyond that would own no processor in any step.
unsigned team_lanes(unsigned threads, proc_t procs) {
  return std::max(1u, std::min(WorkerTeam::resolve_lanes(threads),
                               static_cast<unsigned>(procs)));
}

}  // namespace

bool env_simd() {
  using kern::simd::detail::EnvSwitch;
  const char* s = std::getenv("VMP_SIMD");
  const EnvSwitch v = kern::simd::detail::classify_env(s);
  if (v != EnvSwitch::Bad) return v == EnvSwitch::On;
  throw Error("VMP_SIMD=\"" + std::string(s) +
              "\" is not a SIMD switch (0, off or OFF turn the kernel "
              "backend off; 1, on or ON, empty or unset leave it on)");
}

Cube::Cube(int dim, CostParams params) : Cube(dim, params, Options{}) {}

Cube::Cube(int dim, CostParams params, Options opts)
    : dim_(dim),
      procs_(dim >= 0 && dim < 31 ? (proc_t{1} << dim) : 0),
      topo_(dim >= 0 && dim < 31 ? make_topology(opts.topology, dim)
                                 : nullptr),
      clock_(params),
      team_(team_lanes(opts.threads, procs_)) {
  (void)env_simd();
  VMP_REQUIRE(dim >= 0 && dim < 31, "cube dimension must be in [0, 31)");
  unit_hop_ = topo_->unit_hop();
  clock_.set_topology(topo_->name(), topo_->axis_count());
  if (!unit_hop_) {
    dim_routes_.resize(static_cast<std::size_t>(dim_));
    link_load_.assign(2 * topo_->link_count(), 0.0);
  }
}

const detail::DimRoutes& Cube::dim_routes(int d) {
  detail::DimRoutes& R = dim_routes_[static_cast<std::size_t>(d)];
  if (R.built) return R;
  const proc_t bit = proc_t{1} << d;
  R.off.assign(procs_ + 1, 0);
  R.startup.assign(procs_, 0.0);
  R.hops.clear();
  R.lidx.clear();
  R.mult.clear();
  R.common_axis = -2;
  for (proc_t q = 0; q < procs_; ++q) {
    route_scratch_.clear();
    topo_->route(q, q ^ bit, route_scratch_);
    double startup = 0.0;
    for (const Hop& h : route_scratch_) {
      const AxisCharge c = topo_->axis_charge(h.axis);
      startup += c.startup_mult;
      const std::uint64_t lid = topo_->link_id(h.from, h.port);
      R.hops.push_back(h);
      R.lidx.push_back(
          static_cast<std::uint32_t>(2 * lid + (h.from < h.to ? 0 : 1)));
      R.mult.push_back(c.per_elem_mult);
      if (R.common_axis == -2) {
        R.common_axis = h.axis;
      } else if (R.common_axis != h.axis) {
        R.common_axis = -1;
      }
    }
    R.startup[q] = startup;
    R.off[q + 1] = static_cast<std::uint32_t>(R.hops.size());
  }
  if (R.common_axis == -2) R.common_axis = -1;
  R.built = true;
  return R;
}

void Cube::rc_begin() {
  rc_startup_ = 0.0;
  rc_hops_ = 0;
  rc_axis_ = -2;
  rc_touched_.clear();
}

void Cube::rc_add(int d, proc_t q, std::size_t len) {
  const detail::DimRoutes& R = dim_routes(d);
  if (R.startup[q] > rc_startup_) rc_startup_ = R.startup[q];
  const std::uint32_t lo = R.off[q];
  const std::uint32_t hi = R.off[q + 1];
  for (std::uint32_t i = lo; i < hi; ++i) {
    double& load = link_load_[R.lidx[i]];
    if (load == 0.0) rc_touched_.push_back(R.lidx[i]);
    load += static_cast<double>(len) * R.mult[i];
  }
  rc_hops_ += hi - lo;
  if (rc_axis_ == -2) {
    rc_axis_ = R.common_axis;
  } else if (rc_axis_ != R.common_axis) {
    rc_axis_ = -1;
  }
}

double Cube::rc_end() {
  double elem_units = 0.0;
  for (const std::uint32_t li : rc_touched_) {
    if (link_load_[li] > elem_units) elem_units = link_load_[li];
    link_load_[li] = 0.0;
  }
  return elem_units;
}

bool Cube::route_compromised(std::uint64_t round, proc_t src, int d) {
  FaultInjector& fi = *faults_;
  if (unit_hop_) return fi.link_dead(round, src, d);
  const detail::DimRoutes& R = dim_routes(d);
  const std::uint32_t lo = R.off[src];
  const std::uint32_t hi = R.off[src + 1];
  const proc_t dst = src ^ (proc_t{1} << d);
  for (std::uint32_t i = lo; i < hi; ++i) {
    const Hop& h = R.hops[i];
    if (fi.link_dead(round, h.from, h.port)) return true;
    if (h.to != dst && fi.node_dead(round, h.to)) return true;
  }
  return false;
}

bool Cube::compute_reroute(std::uint64_t round, proc_t src, proc_t dst,
                           std::vector<Hop>& hops) {
  FaultInjector& fi = *faults_;
  return topo_->route_avoiding(
      src, dst,
      [&](proc_t node, int port) { return fi.link_dead(round, node, port); },
      [&](proc_t node) { return fi.node_dead(round, node); }, hops);
}

void Cube::charge_reroute_hop(std::size_t n, const Hop& h) {
  if (unit_hop_) {
    clock_.charge_comm_step(n, 1, n, h.axis);
    return;
  }
  const AxisCharge c = topo_->axis_charge(h.axis);
  clock_.charge_comm_round(c.startup_mult,
                           static_cast<double>(n) * c.per_elem_mult, 1, n, n,
                           h.axis, 1);
}

}  // namespace vmp
