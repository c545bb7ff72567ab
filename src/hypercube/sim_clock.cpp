#include "hypercube/sim_clock.hpp"

namespace vmp {

SimStats operator-(const SimStats& a, const SimStats& b) {
  SimStats d;
  d.comm_steps = a.comm_steps - b.comm_steps;
  d.messages = a.messages - b.messages;
  d.elements_moved = a.elements_moved - b.elements_moved;
  d.elements_serial = a.elements_serial - b.elements_serial;
  d.flops_charged = a.flops_charged - b.flops_charged;
  d.flops_total = a.flops_total - b.flops_total;
  d.router_packets = a.router_packets - b.router_packets;
  d.router_hops = a.router_hops - b.router_hops;
  d.link_hops = a.link_hops - b.link_hops;
  d.fault_retries = a.fault_retries - b.fault_retries;
  d.fault_chksum_fails = a.fault_chksum_fails - b.fault_chksum_fails;
  d.fault_reroutes = a.fault_reroutes - b.fault_reroutes;
  d.alloc_bytes = a.alloc_bytes - b.alloc_bytes;
  d.pool_hits = a.pool_hits - b.pool_hits;
  d.pool_misses = a.pool_misses - b.pool_misses;
  d.slab_allocs = a.slab_allocs - b.slab_allocs;
  d.slab_bytes = a.slab_bytes - b.slab_bytes;
  return d;
}

void SimClock::charge_comm_round(double startup_units, double elem_units,
                                 std::size_t messages, std::size_t total_elems,
                                 std::size_t max_elems, int axis,
                                 std::uint64_t link_hops) {
  const double dt = round_us(startup_units, elem_units);
  const double t0 = now_us_;
  now_us_ += dt;
  comm_us_ += dt;
  stats_.comm_steps += 1;
  stats_.messages += messages;
  stats_.elements_moved += total_elems;
  stats_.elements_serial += max_elems;
  stats_.link_hops += link_hops;
  tracer_.on_charge(ChargeKind::Comm, t0, dt, axis, messages, total_elems,
                    max_elems, 0, 0, 0);
}

void SimClock::charge_compute_step(std::uint64_t max_flops,
                                   std::uint64_t total_flops) {
  const double dt = static_cast<double>(max_flops) * params_.flop_us;
  const double t0 = now_us_;
  now_us_ += dt;
  compute_us_ += dt;
  stats_.flops_charged += max_flops;
  stats_.flops_total += total_flops;
  tracer_.on_charge(ChargeKind::Compute, t0, dt, -1, 0, 0, 0, max_flops,
                    total_flops, 0);
}

void SimClock::charge_router_cycle(std::size_t packets_in_flight) {
  const double dt = params_.router_startup_us + params_.per_elem_us;
  const double t0 = now_us_;
  now_us_ += dt;
  router_us_ += dt;
  stats_.router_hops += packets_in_flight;
  tracer_.on_charge(ChargeKind::Router, t0, dt, -1, 0, 0, 0, 0, 0,
                    packets_in_flight);
}

void SimClock::charge_fault_latency(double us) {
  const double t0 = now_us_;
  now_us_ += us;
  comm_us_ += us;
  // A spike stalls the lockstep round: counts as one zero-message comm
  // round so region counter sums still reproduce the global totals.
  stats_.comm_steps += 1;
  tracer_.on_charge(ChargeKind::Comm, t0, us, -1, 0, 0, 0, 0, 0, 0);
}

void SimClock::charge_us(double us) {
  const double t0 = now_us_;
  now_us_ += us;
  host_us_ += us;
  tracer_.on_charge(ChargeKind::Host, t0, us, -1, 0, 0, 0, 0, 0, 0);
}

void SimClock::reset() {
  now_us_ = comm_us_ = compute_us_ = router_us_ = host_us_ = 0.0;
  stats_ = SimStats{};
  tracer_.reset();
}

}  // namespace vmp
