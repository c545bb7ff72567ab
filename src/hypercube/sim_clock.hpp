/// \file sim_clock.hpp
/// \brief Global simulated clock of the lockstep hypercube machine.
///
/// The machine executes SIMD-style: in every step all (participating)
/// processors perform the same action, so a single global clock suffices.
/// Each communication step advances the clock by `τ + n·t_c` where `n` is
/// the largest transfer any processor performs in that step; each compute
/// step advances it by `f·t_a` where `f` is the largest per-processor flop
/// count.  The clock also accumulates traffic statistics used by the
/// benchmark harness and by asymptotic property tests, and feeds every
/// charge to its Tracer (obs/tracer.hpp) so the charge is attributed to
/// the innermost open trace region.
///
/// Decomposition invariant, asserted by tests/test_accounting.cpp:
///
///     now_us() == comm_us() + compute_us() + router_us() + host_us()
///
/// holds to floating-point round-off — every charge lands in exactly one
/// bucket.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "hypercube/cost_model.hpp"
#include "obs/tracer.hpp"

namespace vmp {

/// Cumulative traffic / work counters, all monotonically increasing.
struct SimStats {
  std::uint64_t comm_steps = 0;      ///< lockstep communication rounds
  std::uint64_t messages = 0;        ///< point-to-point messages delivered
  std::uint64_t elements_moved = 0;  ///< total elements over all messages
  std::uint64_t elements_serial = 0; ///< per-step max elements, summed (the
                                     ///< quantity the clock charges for)
  std::uint64_t flops_charged = 0;   ///< per-step max flops, summed
  std::uint64_t flops_total = 0;     ///< total flops over all processors
  std::uint64_t router_packets = 0;  ///< packets pushed through the general
                                     ///< router (naive path only)
  std::uint64_t router_hops = 0;     ///< packet-hops through the router
  std::uint64_t link_hops = 0;       ///< physical link crossings of lockstep
                                     ///< rounds (== messages on a unit-hop
                                     ///< topology; counts dilation elsewhere)
  std::uint64_t fault_retries = 0;   ///< messages retransmitted after a
                                     ///< transient fault (drop or corruption)
  std::uint64_t fault_chksum_fails = 0;  ///< corrupted payloads the message
                                         ///< checksum caught and discarded
  std::uint64_t fault_reroutes = 0;  ///< messages sent around a dead link
  std::uint64_t alloc_bytes = 0;     ///< heap bytes newly allocated for
                                     ///< pooled hot-path buffers (misses)
  std::uint64_t pool_hits = 0;       ///< buffer-pool acquires served by reuse
  std::uint64_t pool_misses = 0;     ///< buffer-pool acquires that hit the heap
  std::uint64_t slab_allocs = 0;     ///< slab arenas (DistBuffer storage) whose
                                     ///< pool acquire had to touch the heap
  std::uint64_t slab_bytes = 0;      ///< heap bytes of those arenas (a subset
                                     ///< of alloc_bytes)

  bool operator==(const SimStats&) const = default;
};

/// Field-wise difference of two counter snapshots (later minus earlier).
[[nodiscard]] SimStats operator-(const SimStats& a, const SimStats& b);

/// The simulated clock.  Owned by the Cube; all collectives charge it.
class SimClock {
 public:
  explicit SimClock(CostParams params) : params_(params) {}

  /// One lockstep cube-edge communication round: `max_elems` is the largest
  /// per-processor transfer, `messages`/`total_elems` feed the statistics.
  /// `dim` is the cube dimension the round crossed (-1 when the round spans
  /// several dimensions at once — all-port exchanges, relay legs — or
  /// models front-end traffic); it feeds the tracer's per-dimension traffic
  /// histogram only, never the cost.  The unit-hop case of
  /// charge_comm_round: one start-up and one physical link per message.
  void charge_comm_step(std::size_t max_elems, std::size_t messages,
                        std::size_t total_elems, int dim = -1) {
    charge_comm_round(1.0, static_cast<double>(max_elems), messages,
                      total_elems, max_elems, dim, messages);
  }

  /// One lockstep round, general form; on a NON-unit-hop topology
  /// (mesh/torus, dragonfly) the machine resolves every logical cube edge
  /// into physical hops and passes the resulting charge units —
  /// `startup_units` is the largest per-message sum of per-hop start-up
  /// multipliers, `elem_units` the most loaded directed link's element
  /// count weighted by its per-element multiplier (store-and-forward
  /// lockstep contention: the busiest wire paces the round).  Advances
  /// the clock by `τ·startup_units + t_c·elem_units`; `axis` feeds the
  /// per-axis traffic histogram (-1 = mixed), `link_hops` the dilation
  /// counter.
  void charge_comm_round(double startup_units, double elem_units,
                         std::size_t messages, std::size_t total_elems,
                         std::size_t max_elems, int axis,
                         std::uint64_t link_hops);

  /// Duration of one lockstep round, `τ·startup_units + t_c·elem_units` —
  /// the one cost formula behind both comm charges above, also used to
  /// price rounds without running them (Cube::relay_cost).
  [[nodiscard]] double round_us(double startup_units,
                                double elem_units) const {
    return params_.startup_us * startup_units +
           params_.per_elem_us * elem_units;
  }

  /// One lockstep compute round: `max_flops` per-processor bound,
  /// `total_flops` over all processors.
  void charge_compute_step(std::uint64_t max_flops, std::uint64_t total_flops);

  /// One general-router delivery cycle (naive primitives): all packets
  /// advance one hop; the cycle costs a router start-up plus one element
  /// transfer time.  `packets_in_flight` feeds the statistics.
  void charge_router_cycle(std::size_t packets_in_flight);

  /// Explicit extra latency charged to the host bucket (front-end work the
  /// machine model does not otherwise price).
  void charge_us(double us);

  /// Statistics-only: record packets injected into the general router.
  void note_router_packets(std::size_t n) { stats_.router_packets += n; }

  /// Extra per-edge latency (a fault-plan spike) folded into the comm
  /// bucket without counting a lockstep round.  Callers open a fault trace
  /// region first so the charge is attributed to recovery, not progress.
  void charge_fault_latency(double us);

  /// Statistics-only fault recovery counters (charged time flows through
  /// the regular charge_* calls under fault_* trace regions).
  void note_fault_retries(std::size_t n) { stats_.fault_retries += n; }
  void note_fault_chksum_fail() { stats_.fault_chksum_fails += 1; }
  void note_fault_reroute() { stats_.fault_reroutes += 1; }

  /// Statistics-only buffer-pool counters (hypercube/buffer_pool.hpp):
  /// hot-path scratch acquisitions served by reuse vs. fresh heap memory.
  /// Host-side bookkeeping, so no simulated time is charged.
  void note_pool_hit() { stats_.pool_hits += 1; }
  void note_pool_miss(std::size_t bytes) {
    stats_.pool_misses += 1;
    stats_.alloc_bytes += bytes;
  }

  /// Batched forms: the team engine reduces per-lane hit/miss partials and
  /// folds them in with two calls instead of one per message.  Pure sums,
  /// so the totals are identical to the per-message form in any order.
  void note_pool_hits(std::uint64_t n) { stats_.pool_hits += n; }
  void note_pool_misses(std::uint64_t n, std::uint64_t bytes) {
    stats_.pool_misses += n;
    stats_.alloc_bytes += bytes;
  }

  /// Statistics-only: one slab arena (comm/dist_buffer.hpp) whose pooled
  /// acquire missed and allocated `bytes` fresh heap bytes.  Reported on
  /// top of the note_pool_miss the acquire itself records, so profiles can
  /// split heap traffic into staging scratch vs. distributed-object slabs.
  void note_slab_alloc(std::size_t bytes) {
    stats_.slab_allocs += 1;
    stats_.slab_bytes += bytes;
  }

  /// Topology identity for reports (set by the Cube at construction;
  /// standalone clocks default to the paper machine).
  void set_topology(const char* name, int axes) {
    topology_name_ = name;
    topology_axes_ = axes;
  }
  [[nodiscard]] const std::string& topology_name() const {
    return topology_name_;
  }
  [[nodiscard]] int topology_axes() const { return topology_axes_; }

  [[nodiscard]] double now_us() const { return now_us_; }
  [[nodiscard]] double comm_us() const { return comm_us_; }
  [[nodiscard]] double compute_us() const { return compute_us_; }
  [[nodiscard]] double router_us() const { return router_us_; }
  [[nodiscard]] double host_us() const { return host_us_; }
  [[nodiscard]] const SimStats& stats() const { return stats_; }
  [[nodiscard]] const CostParams& params() const { return params_; }

  /// Per-region cost attribution (see obs/tracer.hpp, obs/trace.hpp).
  [[nodiscard]] Tracer& tracer() { return tracer_; }
  [[nodiscard]] const Tracer& tracer() const { return tracer_; }

  /// Reset time, statistics and trace data to zero (cost parameters are
  /// kept; open trace regions stay open, re-stamped to time 0).
  void reset();

 private:
  CostParams params_;
  std::string topology_name_ = "hypercube";
  int topology_axes_ = 0;
  double now_us_ = 0.0;
  double comm_us_ = 0.0;
  double compute_us_ = 0.0;
  double router_us_ = 0.0;
  double host_us_ = 0.0;
  SimStats stats_;
  Tracer tracer_;
};

/// Simulated time and bucket/counter deltas over a SimTimer window.
struct SimSpan {
  double us = 0.0;
  double comm_us = 0.0;
  double compute_us = 0.0;
  double router_us = 0.0;
  double host_us = 0.0;
  SimStats stats;  ///< counter deltas over the window
};

/// RAII stopwatch over a SimClock: snapshots time, buckets and statistics
/// at construction and reports the deltas accumulated since.
class SimTimer {
 public:
  explicit SimTimer(const SimClock& clock)
      : clock_(&clock),
        start_us_(clock.now_us()),
        start_comm_us_(clock.comm_us()),
        start_compute_us_(clock.compute_us()),
        start_router_us_(clock.router_us()),
        start_host_us_(clock.host_us()),
        start_stats_(clock.stats()) {}

  [[nodiscard]] double elapsed_us() const {
    return clock_->now_us() - start_us_;
  }
  /// Counter deltas (messages / elements / flops / …) since construction.
  [[nodiscard]] SimStats stats_delta() const {
    return clock_->stats() - start_stats_;
  }
  /// Full per-scope delta: elapsed time, bucket split, and counters.
  [[nodiscard]] SimSpan span() const {
    return SimSpan{elapsed_us(),
                   clock_->comm_us() - start_comm_us_,
                   clock_->compute_us() - start_compute_us_,
                   clock_->router_us() - start_router_us_,
                   clock_->host_us() - start_host_us_,
                   stats_delta()};
  }

 private:
  const SimClock* clock_;
  double start_us_;
  double start_comm_us_;
  double start_compute_us_;
  double start_router_us_;
  double start_host_us_;
  SimStats start_stats_;
};

}  // namespace vmp
