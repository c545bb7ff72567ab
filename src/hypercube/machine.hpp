/// \file machine.hpp
/// \brief The lockstep Boolean-cube machine the whole library runs on.
///
/// `Cube` models a distributed-memory hypercube of `p = 2^dim` virtual
/// processors executing SIMD-style (as the Connection Machine did): every
/// step is collective, and the simulated clock advances once per step by
/// the cost of the slowest processor.  Two step types exist:
///
///  * `compute(...)`   — each processor runs the same local function on its
///                       own memory; charged `max_flops · t_a`.
///  * `exchange<T>(d, send, recv)` — one-port pairwise communication along
///                       cube dimension `d`; every processor whose partner
///                       offers data receives it; charged `τ + max_n · t_c`.
///
/// `exchange_allport` (one message per port over several dimensions at
/// once) and `relay` (any permutation — irregular neighbour pairings,
/// combining relays) are the same lockstep cube-edge round: all three stage
/// every send in one team step, settle the round over the staged slots,
/// and deliver in one team step.  Settling is one function for every round
/// shape, one settle per store-and-forward leg: it charges through
/// `charge_round` or, under a fault plan, runs the recovery engine, which
/// charges and moves no data — so a round that throws FaultError has
/// written no receiver.
/// `relay_views` and `exchange_views` settle the same rounds over views of
/// memory the senders already hold and move nothing.  Gray ring shifts
/// (comm/shift.hpp) pair relay_views with DistBuffer::permute_tiles, which
/// hands every tile to its new owner by relabeling, so a shift runs no
/// team step and copies no payload; the broadcasts (comm/collectives.hpp,
/// comm/allport.hpp) walk their rounds with exchange_views over their
/// roots' payloads and then run one uncharged `deliver` step in which
/// every member copies its root's payload.  Staging remains only where a
/// round's receivers overwrite what its senders read: the combining
/// collectives, all-gather, routing, and the FFT and sort exchanges.
///
/// Correctness never depends on host threading: the per-processor loops run
/// on a persistent SPMD worker team (hypercube/team.hpp, Options::threads /
/// VMP_THREADS) whose lanes own static processor ranges.  Host threads
/// change wall-clock speed only, never simulated time or results — the
/// round core's staging slots make in-place combining (all-reduce style)
/// race-free, and the per-step statistics are reduced from per-lane
/// integer partials whose sums and maxima are independent of the partition.
/// Multi-round loops open a `session()` so their steps run back to back
/// inside one team activation (see docs/threading.md).
///
/// The machine can run under deterministic fault injection
/// (`enable_faults`): seeded plans of drops, corruption, latency spikes and
/// dead links/nodes, recovered by checksummed bounded retry and
/// route-around.  Within-budget plans leave every result bit-identical;
/// beyond budget the machine throws FaultError.  See docs/faults.md.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "fault/injector.hpp"
#include "hypercube/bits.hpp"
#include "hypercube/buffer_pool.hpp"
#include "hypercube/check.hpp"
#include "hypercube/cost_model.hpp"
#include "hypercube/sim_clock.hpp"
#include "hypercube/team.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace vmp {
// proc_t (processor id, dense in [0, 2^dim)) lives in net/topology.hpp.

/// One message of a lockstep round, as seen by the fault-recovery engine:
/// the (src, dst) LOGICAL cube edge, the cube dimension it crosses, and a
/// view of the payload — in its persistent staging slot, or, for
/// Cube::relay_views and Cube::exchange_views, in the sender's own memory
/// (the engine only checksums it).  On a non-unit-hop topology the logical
/// edge resolves to a multi-hop physical route at charging time.
template <class T>
struct FaultMsg {
  proc_t src = 0;
  proc_t dst = 0;
  int dim = 0;
  const T* data = nullptr;
  std::size_t len = 0;
};

namespace detail {

/// Payload types an exchange round accepts (the round core static_asserts
/// it): memcpy-able, since staging copies raw bytes into the slots below,
/// and without extended alignment, since the slots are new-aligned.
template <class T>
inline constexpr bool kPoolStageable =
    std::is_trivially_copyable_v<T> && alignof(T) <= alignof(std::max_align_t);

/// One persistent staging slot of the exchange round core.  The
/// payload is copied here AT send() TIME (the span send() returns only has
/// to live for the duration of the call), and the slot's capacity persists
/// across rounds, so a steady-state exchange loop never touches the heap.
/// `grew` records the bytes freshly heap-allocated by this round's growth
/// (0 on reuse); the staging lane folds it into its hit/miss partial.
struct StageBuf {
  std::unique_ptr<std::byte[]> bytes;
  std::size_t cap = 0;   ///< capacity in bytes (bucket-rounded, monotone)
  std::size_t len = 0;   ///< elements staged this round
  std::size_t grew = 0;  ///< bytes newly allocated this round

  void skip() {
    len = 0;
    grew = 0;
  }

  template <class T>
  void stage(std::span<const T> s) {
    const std::size_t need = s.size() * sizeof(T);
    grew = 0;
    if (need > cap) {
      const std::size_t want = BufferPool::bucket_bytes(need);
      bytes = std::make_unique<std::byte[]>(want);
      cap = want;
      grew = want;
    }
    if (need != 0) std::memcpy(bytes.get(), s.data(), need);
    len = s.size();
  }

  template <class T>
  [[nodiscard]] const T* data() const {
    return reinterpret_cast<const T*>(bytes.get());
  }
  template <class T>
  [[nodiscard]] std::span<const T> view() const {
    return {data<T>(), len};
  }
};

/// Per-lane partial of one round's message statistics, accumulated while
/// the same lane stages its processor range and reduced in lane order at
/// the barrier.  Everything here is an integer sum or maximum, so the
/// reduced totals are identical for ANY partition of the processors across
/// lanes — this is what keeps SimStats bit-identical across thread counts.
/// Padded so lanes never share a cache line while accumulating.
struct alignas(64) ExPartial {
  std::size_t max_elems = 0;
  std::size_t total = 0;
  std::size_t messages = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  std::uint64_t miss_bytes = 0;

  /// Fold one send of `len` elements into the message statistics.  Empty
  /// sends count nothing, matching the elided-message rule.
  void count(std::size_t len) {
    if (len == 0) return;
    ++messages;
    total += len;
    if (len > max_elems) max_elems = len;
  }

  /// Fold one staged send of `len` elements that freshly allocated `grew`
  /// bytes (0 on slot reuse) into the statistics and the pool counters.
  void note(std::size_t len, std::size_t grew) {
    if (len == 0) return;
    count(len);
    if (grew != 0) {
      ++pool_misses;
      miss_bytes += grew;
    } else {
      ++pool_hits;
    }
  }

  void merge(const ExPartial& o) {
    if (o.max_elems > max_elems) max_elems = o.max_elems;
    total += o.total;
    messages += o.messages;
    pool_hits += o.pool_hits;
    pool_misses += o.pool_misses;
    miss_bytes += o.miss_bytes;
  }
};

/// Cached physical routes of one logical cube dimension on a non-unit-hop
/// topology: for every source q the hops of route(q, q ^ 2^d), with the
/// per-hop directed-link index and charge multiplier precomputed so the
/// per-round contention scan is table walks only.  Built lazily per
/// dimension on first use; dead-link detours never go through this cache
/// (kills are consulted per round).
struct DimRoutes {
  bool built = false;
  std::vector<std::uint32_t> off;    ///< procs+1 offsets into hops
  std::vector<Hop> hops;             ///< concatenated route hops
  std::vector<std::uint32_t> lidx;   ///< per hop: directed link index
  std::vector<double> mult;          ///< per hop: per-element multiplier
  std::vector<double> startup;       ///< per src: summed start-up mults
  int common_axis = -1;              ///< shared axis of every hop, or -1
};

}  // namespace detail

/// Whether the VMP_SIMD environment variable lets the kernel backend run:
/// unset, empty, "1", "on" or "ON" mean yes; "0", "off" or "OFF" mean no
/// (kern::simd::detail::classify_env, the rule core/simd.cpp's startup
/// switch reads too).  Any other value throws vmp::Error naming the
/// variable and its value.  Every Cube calls this when it is built, so a
/// value such as "no" or "false" fails loudly instead of leaving the
/// backend on.
[[nodiscard]] bool env_simd();

class Cube {
 public:
  struct Options {
    /// Host threads (team lanes) running the per-processor loops;
    /// 0 = one per hardware thread, 1 = fully serial (deterministic
    /// wall-clock, same results at any setting), never more than one per
    /// processor.  Defaults to the VMP_THREADS environment variable
    /// (unset → 1).
    unsigned threads = env_threads();

    /// Physical network the logical cube's exchanges cross (see
    /// net/topology.hpp and docs/topology.md).  Defaults to the
    /// VMP_TOPOLOGY environment variable (unset → Hypercube, on which
    /// every charge is bit-identical to the historical cube-only
    /// machine).  Algorithms are unchanged by this knob — results are
    /// topology-independent; only routes, charges and fault paths move.
    TopologyKind topology = env_topology();
  };

  explicit Cube(int dim, CostParams params = CostParams::cm2());
  Cube(int dim, CostParams params, Options opts);

  Cube(const Cube&) = delete;
  Cube& operator=(const Cube&) = delete;

  /// Logical cube dimension — the number of address bits, i.e.
  /// `log2(node_count())`.  A *logical* quantity (algorithms recurse over
  /// it regardless of the physical network); for physical-network queries
  /// prefer the topology-neutral accessors below.  Kept as the documented
  /// alias the paper-era call sites use.
  [[nodiscard]] int dim() const { return dim_; }
  /// Number of processors, `2^dim()` (alias of node_count()).
  [[nodiscard]] proc_t procs() const { return procs_; }
  /// Host lanes executing the per-processor loops (≥ 1; 1 = fully serial).
  [[nodiscard]] unsigned threads() const { return team_.lanes(); }

  /// Topology-neutral machine queries (preferred over dim()/procs() in
  /// new code): the physical network underneath the logical cube.
  [[nodiscard]] proc_t node_count() const { return procs_; }
  /// Physical neighbors of processor `p`, in port order.
  [[nodiscard]] std::vector<proc_t> neighbors(proc_t p) const {
    return topo_->neighbors(p);
  }
  /// Physical network diameter (== dim() on the hypercube preset).
  [[nodiscard]] int diameter() const { return topo_->diameter(); }
  [[nodiscard]] const Topology& topology() const { return *topo_; }
  [[nodiscard]] TopologyKind topology_kind() const { return topo_->kind(); }
  /// True when every logical cube edge is one physical link (hypercube).
  [[nodiscard]] bool unit_hop() const { return unit_hop_; }

  [[nodiscard]] SimClock& clock() { return clock_; }
  [[nodiscard]] const SimClock& clock() const { return clock_; }
  [[nodiscard]] const CostParams& costs() const { return clock_.params(); }

  /// Attach a deterministic fault plan: from now on every communication
  /// round consults the injector, checksums payloads, retries transient
  /// losses with exponential backoff, and routes around dead links.  All
  /// recovery time is charged to the simulated clock under `fault_*` trace
  /// regions; results stay bit-identical to the fault-free run as long as
  /// the plan stays within `policy`'s budget, and FaultError is thrown —
  /// never a wrong answer returned — beyond it.  With no injector attached
  /// (the default) the communication path is exactly the fault-free one.
  void enable_faults(const FaultPlan& plan, RecoveryPolicy policy = {}) {
    faults_ = std::make_unique<FaultInjector>(plan, policy);
    faults_->bind_topology(topo_.get());
  }
  void disable_faults() { faults_.reset(); }
  [[nodiscard]] FaultInjector* faults() { return faults_.get(); }
  [[nodiscard]] const FaultInjector* faults() const { return faults_.get(); }

  /// One lockstep compute step: run `fn(proc)` on every processor and charge
  /// `max_flops` (the analytic per-processor bound) to the clock.
  /// `total_flops` feeds statistics and decides whether the step is worth
  /// fanning out across the host lanes; pass the aggregate over all
  /// processors when known, else `max_flops * procs()`.
  template <class F>
  void compute(std::uint64_t max_flops, std::uint64_t total_flops, F&& fn) {
    each_step({.flops = total_flops}, fn);
    clock_.charge_compute_step(max_flops, total_flops);
  }

  /// Convenience overload: uniform per-processor flop count.
  template <class F>
  void compute(std::uint64_t flops_each, F&& fn) {
    compute(flops_each, flops_each * procs_, std::forward<F>(fn));
  }

  /// Host-side / zero-cost traversal of all processors (data loading,
  /// verification); charged nothing.  Must not be used inside timed
  /// algorithm sections for anything the machine would have to compute.
  template <class F>
  void each_proc(F&& fn) const {
    for (proc_t q = 0; q < procs_; ++q) fn(q);
  }

  /// One lockstep one-port communication round along cube dimension `d`.
  ///
  /// `send(q)` returns the span each processor offers to its partner
  /// `q ^ (1<<d)` (an empty span means "q sends nothing this round");
  /// `recv(q, data)` is invoked on every processor whose partner offered
  /// data.  Sends are staged before any delivery, so `recv` may combine
  /// into (or overwrite) the very buffer `send` exposed.
  ///
  /// Charged `τ + max_elems · t_c` — one message start-up regardless of
  /// message length, the amortization at the heart of the paper's
  /// optimized primitives.  If nobody sends, the round is free (elided).
  ///
  /// Staging lands in per-processor slots whose capacity persists across
  /// rounds, so a steady-state exchange loop performs zero heap
  /// allocations; slot reuse and growth feed the SimStats pool counters.
  /// `T` must be trivially copyable without extended alignment
  /// (detail::kPoolStageable).
  template <class T, class SendFn, class RecvFn>
  void exchange(int d, SendFn&& send, RecvFn&& recv) {
    VMP_REQUIRE(d >= 0 && d < dim_, "exchange dimension out of range");
    const proc_t bit = proc_t{1} << d;
    run_round<T>(
        1, d, [bit](proc_t q, std::size_t) { return q ^ bit; },
        [&](proc_t q, std::size_t) -> std::span<const T> { return send(q); },
        [&](proc_t q, std::size_t, std::span<const T> in) { recv(q, in); });
  }

  /// One lockstep ALL-PORT communication round: several cube dimensions are
  /// used simultaneously, one message per port.  `send(q, idx)` offers the
  /// message for `dims[idx]`; `recv(q, idx, data)` delivers what q's
  /// partner across `dims[idx]` offered.  Charged `τ + max_single_port · t_c`
  /// — the all-port model of Johnsson & Ho, where a processor drives all
  /// lg p of its ports at once and only the largest per-port transfer
  /// paces the round.
  template <class T, class SendFn, class RecvFn>
  void exchange_allport(std::span<const int> dims, SendFn&& send,
                        RecvFn&& recv) {
    check_dims(dims);
    run_round<T>(
        dims.size(), dims.size() == 1 ? dims[0] : -1,
        [dims](proc_t q, std::size_t idx) {
          return q ^ (proc_t{1} << dims[idx]);
        },
        send, recv);
  }

  /// The round of exchange_allport (one-port when `dims` has one entry)
  /// with nothing staged and nothing delivered, walked over its senders
  /// only: `msgs(fn)` calls `fn(dims[i], q, payload)` for every message,
  /// port-major (i ascending) and then processor-ascending — the order
  /// exchange_allport settles its slots in, which the routed presets' link
  /// loads and the fault engine's decisions follow.  Empty payloads are
  /// skipped.  Each payload must stay valid and unchanged for the whole
  /// call.  Checks `dims` like exchange_allport and charges, traces and
  /// (under a fault plan) recovers the same round over the enumerated
  /// memory, so clock, statistics and trace advance exactly as
  /// exchange_allport's do; only the pool counters differ, because no slot
  /// is staged.  Elided when nobody sends.  Moving the payloads is left to
  /// the caller — a broadcast copies its root's payload to every member in
  /// one `deliver` step after its last round — and runs only if this
  /// returns: a FaultError has moved nothing.
  template <class T, class MsgFn>
  void exchange_views(std::span<const int> dims, MsgFn&& msgs) {
    check_dims(dims);
    const auto each = [&msgs](auto&& fn) {
      msgs([&fn](int d, proc_t src, std::span<const T> m) {
        if (!m.empty()) fn(d, src, m);
      });
    };
    detail::ExPartial r;
    each([&r](int, proc_t, std::span<const T> m) { r.count(m.size()); });
    if (r.messages == 0) return;
    settle<T>(r.max_elems, r.messages, r.total,
              dims.size() == 1 ? dims[0] : -1, each);
  }

  /// One uncharged delivery step: `fn(q)` runs on every processor, placing
  /// data that rounds charged without moving it (exchange_views) or
  /// computing results whose steps a walk charged without running them
  /// (matmul_hyper).  `work` is what the step copies or computes; like any
  /// team step, it fans out across the lanes only past an inline cut.
  template <class F>
  void deliver(WorkerTeam::Work work, F&& fn) {
    each_step(work, fn);
  }

  /// One lockstep permutation round: processor q's payload `send(q)` goes
  /// to `dest(q)`, which must be a bijection on the cube (ContractError
  /// otherwise).  A processor with `dest(q) == q` or an empty send sits
  /// out; `recv(q, data)` is invoked on every processor whose source sent
  /// data.  Sends are staged before any delivery, so recv may overwrite
  /// the very buffer send exposed.
  ///
  /// Charged as the store-and-forward dimension-order relay it is on the
  /// wire: H = max hamming(q, dest(q)) lockstep legs, leg j carrying every
  /// message still in flight across its j-th differing bit (lowest
  /// first).  Each leg pays charge_round for its busiest sender node
  /// (messages meeting at a node combine) or, on routed presets, its most
  /// loaded link — so a round between cube neighbours is one leg.  Under a
  /// fault plan every leg runs through recover_round, and recv runs only
  /// after the last leg got through: a FaultError delivers nothing.
  /// Returns H (0 when nobody sends).
  template <class T, class DestFn, class SendFn, class RecvFn>
  int relay(DestFn&& dest, SendFn&& send, RecvFn&& recv) {
    tabulate_relay(dest);
    const proc_t* to = relay_to_.data();
    const auto to_fn = [to](proc_t q, std::size_t) { return to[q]; };
    const auto send_fn = [&](proc_t q, std::size_t) -> std::span<const T> {
      return send(q);
    };
    stage_round<T>(1, to_fn, send_fn);
    const detail::StageBuf* slot = stage_.data();
    const int legs = walk_relay<T>(
        [slot](proc_t q) { return slot[q].template view<T>(); });
    if (legs == 0) return 0;
    const proc_t* from = relay_from_.data();
    const auto from_fn = [from](proc_t q, std::size_t) { return from[q]; };
    const auto recv_fn = [&](proc_t q, std::size_t, std::span<const T> in) {
      recv(q, in);
    };
    deliver_round<T>(1, from_fn, recv_fn);
    return legs;
  }

  /// The same permutation round with nothing staged and nothing delivered:
  /// the message from q is the span `view(q)`, which must stay valid and
  /// unchanged for the whole call.  Checks and tabulates `dest` like relay
  /// and walks, charges and (under a fault plan) recovers the same legs
  /// over the viewed memory, so clock, statistics and trace advance exactly
  /// as relay's do; only the pool counters differ, because no slot is
  /// staged.  Moving the payloads is left to the caller — shift_blocks
  /// relabels its tiles (DistBuffer::permute_tiles with relay_dest()) —
  /// and runs only if this returns: a FaultError has moved nothing.
  /// Returns H, like relay.
  template <class T, class DestFn, class ViewFn>
  int relay_views(DestFn&& dest, ViewFn&& view) {
    tabulate_relay(dest);
    return walk_relay<T>(view);
  }

  /// The permutation the latest relay, relay_views or relay_cost
  /// tabulated: entry q is dest(q).
  [[nodiscard]] std::span<const proc_t> relay_dest() const {
    return relay_to_;
  }

  /// Simulated cost of a relay() in which every processor q with
  /// `dest(q) != q` sends `elems` elements: the same legs, each priced by
  /// price_round, without advancing the clock.
  template <class DestFn>
  [[nodiscard]] double relay_cost(DestFn&& dest, std::size_t elems) {
    tabulate_relay(dest);
    double us = 0.0;
    relay_legs([elems](proc_t) { return elems; },
               [&](std::size_t max_elems, std::size_t, std::size_t,
                   auto&& each) {
                 us += price_round(max_elems, [&](auto&& add) {
                   each([&](int d, proc_t node, proc_t) {
                     add(d, node, elems);
                   });
                 });
               });
    return us;
  }

  /// The persistent worker team backing the per-processor loops.
  [[nodiscard]] WorkerTeam& team() { return team_; }
  [[nodiscard]] const WorkerTeam& team() const { return team_; }

  /// Open a batch session on the team: multi-round loops (a collective's
  /// lg p dimensions, an all-port schedule, a routing sweep) hold one of
  /// these so their steps run inside a single team activation.  Purely a
  /// wall-clock hint — simulated results are identical with or without.
  [[nodiscard]] WorkerTeam::Session session() { return team_.session(); }

  /// The cube's recycling allocator for the slab arenas of its distributed
  /// objects (comm/dist_buffer.hpp).  Host-thread only.
  [[nodiscard]] BufferPool& buffers() { return buffers_; }
  [[nodiscard]] const BufferPool& buffers() const { return buffers_; }

  /// Engine metrics registry (obs/metrics.hpp).  Off by default — every
  /// instrumented hot path is gated on one pointer — and wall-clock probes
  /// only run on sampled steps, so enabling it does not perturb dispatch.
  /// Metrics never touch the SimClock: results, now_us, SimStats and
  /// traces are bit-identical with metrics on or off.
  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }

  /// Arm the metrics tier: reset the registry for this cube's lane count
  /// and wire the team, the buffer pool and (lazily, per run) the router.
  /// Host thread only, outside any step.
  void enable_metrics(
      unsigned sample_every = MetricsRegistry::kDefaultSampleEvery) {
    metrics_.enable(team_.lanes(), sample_every);
    team_.set_metrics(&metrics_);
    buffers_.set_metrics(&metrics_);
  }

  /// Detach the instrumented subsystems.  The registry keeps its values —
  /// a final snapshot after disable is the common read pattern.
  void disable_metrics() {
    team_.set_metrics(nullptr);
    buffers_.set_metrics(nullptr);
    metrics_.disable();
  }

 private:
  /// The lockstep exchange round behind exchange and exchange_allport.
  /// Port `i` of processor `q` sends `send(q, i)` to `partner(q, i)` across
  /// dimension countr_zero(q ^ partner(q, i)); the relation is symmetric
  /// per port, and a processor that is its own partner sits the port out.
  /// `recv(q, i, data)` receives what q's partner on port i sent, if
  /// anything.  Staged by stage_round, settled over the slots
  /// (`charge_dim` is the dimension every message crosses, or -1 when the
  /// round mixes dimensions), then delivered by deliver_round, with or
  /// without a fault plan.  If nobody sends, the round is elided: no
  /// delivery, no charge.
  template <class T, class PartnerFn, class SendFn, class RecvFn>
  void run_round(std::size_t ports, int charge_dim, PartnerFn&& partner,
                 SendFn&& send, RecvFn&& recv) {
    const detail::ExPartial r = stage_round<T>(ports, partner, send);
    if (r.messages == 0) return;
    const detail::StageBuf* stage = stage_.data();
    settle<T>(r.max_elems, r.messages, r.total, charge_dim, [&](auto&& fn) {
      // The staged messages, port-major, then processor-ascending.
      for (std::size_t i = 0; i < ports; ++i)
        for (proc_t q = 0; q < procs_; ++q) {
          const std::span<const T> m = stage[i * procs_ + q].template view<T>();
          if (!m.empty()) fn(std::countr_zero(q ^ partner(q, i)), q, m);
        }
    });
    deliver_round<T>(ports, partner, recv);
  }

  /// Settle one lockstep round of `messages` messages (`max_elems` the
  /// per-round maximum, `total` their sum): `each(fn)` calls
  /// `fn(dim, src, payload)` for every message, in a fixed order.  Charged
  /// once through charge_round or, with a fault plan attached, recovered
  /// by recover_round over FaultMsgs pointing into the payloads.  Moves
  /// nothing.
  template <class T, class EachMsg>
  void settle(std::size_t max_elems, std::size_t messages, std::size_t total,
              int charge_dim, EachMsg&& each) {
    if (!faults_) {
      charge_round(max_elems, messages, total, charge_dim, [&](auto&& add) {
        each([&](int d, proc_t src, std::span<const T> m) {
          add(d, src, m.size());
        });
      });
      return;
    }
    std::vector<FaultMsg<T>> msgs;
    msgs.reserve(messages);
    each([&](int d, proc_t src, std::span<const T> m) {
      msgs.push_back(FaultMsg<T>{src, src ^ (proc_t{1} << d), d, m.data(),
                                 m.size()});
    });
    recover_round<T>(std::move(msgs), max_elems, messages, total, charge_dim);
  }

  /// exchange_allport's dimension checks: in range and distinct.
  void check_dims(std::span<const int> dims) const {
    for (std::size_t a = 0; a < dims.size(); ++a) {
      VMP_REQUIRE(dims[a] >= 0 && dims[a] < dim_,
                  "exchange dimension out of range");
      for (std::size_t b = a + 1; b < dims.size(); ++b)
        VMP_REQUIRE(dims[a] != dims[b], "all-port dims must be distinct");
    }
  }

  /// One team step running `fn(q)` on every processor; `work` decides
  /// whether it fans out.
  template <class F>
  void each_step(WorkerTeam::Work work, F& fn) {
    team_.step(
        procs_,
        [&](unsigned, std::size_t lo, std::size_t hi) {
          for (std::size_t q = lo; q < hi; ++q) fn(static_cast<proc_t>(q));
        },
        WorkerTeam::fans_out(work));
  }

  /// The staging step of every round: one team step copies each port's
  /// send into its persistent slot (i·p + q) — the copy is what lets recv
  /// combine into (or overwrite) the very buffer send exposed, and send's
  /// span only has to outlive its own call — while each lane folds the
  /// round's statistics into its ExPartial, so no serial host scan runs
  /// before delivery.  Port i of q sits out (send is not called) when
  /// `dest(q, i) == q`.  Every pass walks port-major, then
  /// processor-ascending, so a one-port round's loops are the plain
  /// per-processor loops.  Returns the reduced statistics and folds the
  /// slots' reuse and growth into the pool counters.
  ///
  /// A round's bytes are known only once it is staged, so whether the
  /// staging step fans out is decided by the previous round's bytes
  /// (`round_bytes_`, 0 on a fresh cube); delivery uses this round's.
  template <class T, class DestFn, class SendFn>
  detail::ExPartial stage_round(std::size_t ports, DestFn& dest,
                                SendFn& send) {
    static_assert(detail::kPoolStageable<T>,
                  "round payloads must be trivially copyable and not "
                  "over-aligned");
    // Slots and lane partials are grown, never shrunk, so a steady-state
    // round allocates nothing.  No zeroing: every lane the step runs on
    // stores its partial below, and only those partials are merged — an
    // inline step writes lane 0's alone, and the other lanes' still hold
    // an earlier round's.  The partial accumulates in a stack local
    // (registers — the staging memcpy can't alias it) and is stored to the
    // lane's slot once.
    if (stage_.size() < ports * procs_) stage_.resize(ports * procs_);
    partials_.resize(team_.lanes());
    detail::StageBuf* stage = stage_.data();
    detail::ExPartial* parts = partials_.data();
    const unsigned ran = team_.step(
        procs_,
        [&](unsigned lane, std::size_t lo, std::size_t hi) {
          detail::ExPartial p;
          for (std::size_t i = 0; i < ports; ++i) {
            detail::StageBuf* const port = stage + i * procs_;
            for (std::size_t q = lo; q < hi; ++q) {
              const proc_t src = static_cast<proc_t>(q);
              detail::StageBuf& sb = port[q];
              if (dest(src, i) == src) {
                sb.skip();
                continue;
              }
              sb.template stage<T>(send(src, i));
              p.note(sb.len, sb.grew);
            }
          }
          parts[lane] = p;
        },
        WorkerTeam::fans_out({.bytes = round_bytes_}));
    // Reduced in lane order: sums and maxima of integers, so the totals do
    // not depend on how processors were partitioned across lanes.
    detail::ExPartial r;
    for (unsigned lane = 0; lane < ran; ++lane) r.merge(parts[lane]);
    round_bytes_ = r.total * sizeof(T);
    clock_.note_pool_hits(r.pool_hits);
    clock_.note_pool_misses(r.pool_misses, r.miss_bytes);
    return r;
  }

  /// The delivery step of every round: one team step hands each processor
  /// q, on every port i, what its source `from(q, i)` staged (nothing when
  /// the source is q itself or sent nothing).  Runs once the round's
  /// stage_round, whose bytes decide whether it fans out, has been settled.
  template <class T, class FromFn, class RecvFn>
  void deliver_round(std::size_t ports, FromFn& from, RecvFn& recv) {
    const detail::StageBuf* stage = stage_.data();
    team_.step(
        procs_,
        [&](unsigned, std::size_t lo, std::size_t hi) {
          for (std::size_t i = 0; i < ports; ++i) {
            const detail::StageBuf* const port = stage + i * procs_;
            for (std::size_t q = lo; q < hi; ++q) {
              const proc_t dst = static_cast<proc_t>(q);
              const proc_t src = from(dst, i);
              if (src == dst) continue;
              const detail::StageBuf& in = port[src];
              if (in.len != 0) recv(dst, i, in.template view<T>());
            }
          }
        },
        WorkerTeam::fans_out({.bytes = round_bytes_}));
  }

  /// Check that `dest` is a bijection on the cube and tabulate it:
  /// relay_to_[q] = dest(q), relay_from_[dest(q)] = q.
  template <class DestFn>
  void tabulate_relay(DestFn& dest) {
    relay_to_.resize(procs_);
    relay_from_.assign(procs_, procs_);  // procs_ = no source yet
    for (proc_t q = 0; q < procs_; ++q) {
      const proc_t d = dest(q);
      VMP_REQUIRE(d < procs_, "relay destination outside the cube");
      VMP_REQUIRE(relay_from_[d] == procs_,
                  "relay destinations must be distinct (dest must be a "
                  "bijection)");
      relay_to_[q] = d;
      relay_from_[d] = q;
    }
  }

  /// The leg walk of relay and relay_views over the tabulated permutation:
  /// the message from q is `view(q)` (empty = none), and each leg is
  /// settled over the viewed spans, its messages in ascending source order.
  /// Returns the number of legs.
  template <class T, class ViewFn>
  int walk_relay(ViewFn&& view) {
    return relay_legs(
        [&view](proc_t q) { return view(q).size(); },
        [&](std::size_t max_elems, std::size_t messages, std::size_t total,
            auto&& each) {
          settle<T>(max_elems, messages, total, -1, [&](auto&& fn) {
            each([&](int d, proc_t node, proc_t q) {
              fn(d, node, std::span<const T>(view(q)));
            });
          });
        });
  }

  /// Walk the store-and-forward legs of the tabulated relay, in which the
  /// message from q carries `len(q)` elements (0 = none).  Leg j moves
  /// every message still in flight across the j-th lowest bit of
  /// q ^ dest(q).  Per leg, calls `leg(max_elems, messages, total, each)`:
  /// `max_elems` is the busiest node's combined outgoing load, and
  /// `each(fn)` calls `fn(dim, node, q)` for every message in flight, in
  /// ascending q, with the node it leaves and the dimension it crosses.
  /// Returns the number of legs.
  template <class LenFn, class LegFn>
  int relay_legs(LenFn&& len, LegFn&& leg) {
    const proc_t* to = relay_to_.data();
    int legs = 0;
    for (proc_t q = 0; q < procs_; ++q)
      if (len(q) != 0) legs = std::max(legs, hamming_distance(q, to[q]));
    if (leg_load_.size() < procs_) leg_load_.assign(procs_, 0);
    for (int j = 0; j < legs; ++j) {
      const auto each = [&](auto&& fn) {
        for (proc_t q = 0; q < procs_; ++q) {
          if (len(q) == 0) continue;
          std::uint32_t left = q ^ to[q];  // bits still to cross
          for (int t = 0; t < j && left != 0; ++t) left &= left - 1;
          if (left != 0) fn(std::countr_zero(left), to[q] ^ left, q);
        }
      };
      std::size_t max_elems = 0, messages = 0, total = 0;
      each([&](int, proc_t node, proc_t q) {
        std::size_t& load = leg_load_[node];
        load += len(q);
        max_elems = std::max(max_elems, load);
        ++messages;
        total += len(q);
      });
      each([&](int, proc_t node, proc_t) { leg_load_[node] = 0; });
      leg(max_elems, messages, total, each);
    }
    return legs;
  }

  /// Charge one lockstep round.  On the unit-hop (hypercube) preset this is
  /// the exact historical `τ + max_elems·t_c` step, `charge_dim` feeding
  /// the trace's per-dimension histogram.  Elsewhere `each_msg(add)` calls
  /// `add(dim, src, len)` once per message; every logical edge resolves
  /// through the cached physical routes and the round pays for its most
  /// loaded link.
  template <class EachMsg>
  void charge_round(std::size_t max_elems, std::size_t messages,
                    std::size_t total, int charge_dim, EachMsg&& each_msg) {
    if (unit_hop_) {
      clock_.charge_comm_step(max_elems, messages, total, charge_dim);
      return;
    }
    const double elem_units = route_round(each_msg);
    clock_.charge_comm_round(rc_startup_, elem_units, messages, total,
                             max_elems, rc_axis_ == -2 ? -1 : rc_axis_,
                             rc_hops_);
  }

  /// The side-effect-free twin of charge_round: what the round would
  /// advance the clock by, leaving clock, statistics and trace untouched.
  template <class EachMsg>
  [[nodiscard]] double price_round(std::size_t max_elems,
                                   EachMsg&& each_msg) {
    if (unit_hop_)
      return clock_.round_us(1.0, static_cast<double>(max_elems));
    const double elem_units = route_round(each_msg);
    return clock_.round_us(rc_startup_, elem_units);
  }

  /// Routed presets: fold every message's cached route into the
  /// per-directed-link loads and return the most loaded link's element
  /// units; rc_startup_, rc_hops_ and rc_axis_ then describe the round.
  template <class EachMsg>
  double route_round(EachMsg& each_msg) {
    rc_begin();
    each_msg([this](int d, proc_t q, std::size_t len) { rc_add(d, q, len); });
    return rc_end();
  }

  /// Non-unit-hop round-cost accumulator (machine.cpp): rc_begin resets,
  /// rc_add folds one logical-edge message's cached route into the
  /// per-directed-link loads, rc_end returns the most loaded link's units
  /// and clears the loads.
  void rc_begin();
  void rc_add(int d, proc_t q, std::size_t len);
  [[nodiscard]] double rc_end();
  /// The cached physical routes of logical dimension `d` (built lazily).
  [[nodiscard]] const detail::DimRoutes& dim_routes(int d);

  /// True when the physical route of the logical edge (src, src^2^d) is
  /// severed this round (dead link, or dead interior node off-endpoint):
  /// the message must detour.  On the hypercube this is exactly the seed
  /// single-link liveness test.
  [[nodiscard]] bool route_compromised(std::uint64_t round, proc_t src,
                                       int d);
  /// Minimal live detour for the severed logical edge; false = cut off.
  [[nodiscard]] bool compute_reroute(std::uint64_t round, proc_t src,
                                     proc_t dst, std::vector<Hop>& hops);
  /// Charge one detour hop of `n` elements (the seed per-hop
  /// `τ + n·t_c` on the hypercube, multiplier-weighted elsewhere).
  void charge_reroute_hop(std::size_t n, const Hop& h);

  /// Fault recovery of one lockstep round's messages: charges the round
  /// and its recovery, and moves no data.
  ///
  /// Attempt 0 charges exactly the fault-free round cost (`max_elems`,
  /// `messages`, `total` are the round's fault-free statistics), so an
  /// inert plan leaves the clock bit-identical.  Every further cost is
  /// extra and attributed to a `fault_*` trace region:
  ///
  ///  * dropped or checksum-rejected messages are retransmitted under
  ///    "fault_retry" — exponential backoff plus one comm step over the
  ///    surviving senders per attempt, bounded by RecoveryPolicy;
  ///  * messages on a permanently dead link detour over three live edges
  ///    (the cube's parallel-paths guarantee) under "fault_reroute";
  ///  * per-edge latency spikes stall the round under "fault_spike".
  ///
  /// A dead endpoint, an exhausted retry budget, or a fully cut detour
  /// throws FaultError — degraded runs fail loudly, never silently.
  /// Messages are decided in settle's order.  Whoever moves the payloads
  /// does so after this returns — run_round and relay in one delivery
  /// step, the view rounds' callers after their last round — so a round
  /// that throws has written no receiver, and one that returns delivers
  /// exactly what the fault-free round delivers.
  template <class T>
  void recover_round(std::vector<FaultMsg<T>> pending, std::size_t max_elems,
                     std::size_t messages, std::size_t total,
                     int charge_dim) {
    FaultInjector& fi = *faults_;
    const std::uint64_t round = fi.begin_round();
    const RecoveryPolicy& rp = fi.policy();
    std::vector<FaultMsg<T>> rerouted, failed;
    const auto each_pending = [&](auto&& add) {
      for (const FaultMsg<T>& m : pending) add(m.dim, m.src, m.len);
    };
    int attempt = 0;
    while (!pending.empty()) {
      for (const FaultMsg<T>& m : pending) {
        if (fi.node_dead(round, m.src) || fi.node_dead(round, m.dst))
          throw FaultError(
              "node " +
              std::to_string(fi.node_dead(round, m.src) ? m.src : m.dst) +
              " is dead (round " + std::to_string(round) +
              "): lockstep round cannot complete — remap the embedding off "
              "the failed node before continuing");
      }
      if (attempt == 0) {
        charge_round(max_elems, messages, total, charge_dim, each_pending);
      } else {
        TraceRegion fault_region(clock_, "fault_retry");
        clock_.charge_us(rp.backoff_us *
                         static_cast<double>(std::uint64_t{1}
                                             << (attempt - 1)));
        std::size_t mx = 0, tot = 0;
        for (const FaultMsg<T>& m : pending) {
          mx = std::max(mx, m.len);
          tot += m.len;
        }
        charge_round(mx, pending.size(), tot, charge_dim, each_pending);
        clock_.note_fault_retries(pending.size());
      }
      double spike = 0.0;
      failed.clear();
      for (const FaultMsg<T>& m : pending) {
        if (route_compromised(round, m.src, m.dim)) {
          rerouted.push_back(m);
          continue;
        }
        const FaultOutcome oc = fi.decide(round, attempt, m.src, m.dim);
        spike = std::max(spike, oc.spike_us);
        if (oc.drop) {
          failed.push_back(m);
        } else if (oc.corrupt && checksum_rejects<T>(m, round, attempt)) {
          clock_.note_fault_chksum_fail();
          failed.push_back(m);
        }
      }
      if (spike > 0.0) {
        TraceRegion fault_region(clock_, "fault_spike");
        clock_.charge_fault_latency(spike);
      }
      pending.swap(failed);
      ++attempt;
      if (!pending.empty() && attempt > rp.max_retries)
        throw FaultError("fault recovery budget exhausted: " +
                         std::to_string(pending.size()) +
                         " message(s) undelivered after " +
                         std::to_string(rp.max_retries) +
                         " retries (round " + std::to_string(round) + ")");
    }
    for (const FaultMsg<T>& m : rerouted) reroute_around_dead_link(m, round);
  }

  /// Checksum verification of one (deterministically) corrupted payload:
  /// flips one bit of a wire copy and checks FNV-1a catches it.  True
  /// means the receiver rejected the payload (the message is retried); the
  /// caller's buffer is never touched, so corruption can only cost time.
  template <class T>
  [[nodiscard]] bool checksum_rejects(const FaultMsg<T>& m,
                                      std::uint64_t round, int attempt) const {
    const std::size_t nbytes = m.len * sizeof(T);
    if (nbytes == 0) return true;
    const auto* bytes = reinterpret_cast<const unsigned char*>(m.data);
    const std::uint64_t sum = fnv1a(bytes, nbytes);
    std::vector<unsigned char> wire(bytes, bytes + nbytes);
    const std::uint64_t h = faults_->message_hash(round, attempt, m.src, m.dim);
    wire[static_cast<std::size_t>(h % nbytes)] ^=
        static_cast<unsigned char>(1u << ((h >> 17) % 8));
    return fnv1a(wire.data(), nbytes) != sum;
  }

  /// Send one message around its severed physical route, on a live
  /// detour the topology computes (Topology::route_avoiding), charged hop
  /// by hop.  On the hypercube the detour is the historical 3-hop
  /// parallel path src → src^bit2 → dst^bit2 → dst (lowest live
  /// dimension wins) with the seed's exact per-hop charges.
  template <class T>
  void reroute_around_dead_link(const FaultMsg<T>& m, std::uint64_t round) {
    TraceRegion fault_region(clock_, "fault_reroute");
    reroute_hops_.clear();
    if (!compute_reroute(round, m.src, m.dst, reroute_hops_))
      throw FaultError("no live route around dead link (" +
                       std::to_string(m.src) + ", dim " +
                       std::to_string(m.dim) +
                       "): every detour crosses another dead edge or node");
    for (const Hop& h : reroute_hops_) charge_reroute_hop(m.len, h);
    clock_.note_fault_reroute();
  }

  int dim_;
  proc_t procs_;
  std::unique_ptr<Topology> topo_;
  bool unit_hop_ = true;
  SimClock clock_;
  WorkerTeam team_;
  BufferPool buffers_{&clock_};
  MetricsRegistry metrics_;
  std::vector<detail::StageBuf> stage_;       ///< round-core slots, i·p + q
  std::vector<detail::ExPartial> partials_;  ///< round-core lane partials
  std::uint64_t round_bytes_ = 0;  ///< bytes the latest round staged
  std::unique_ptr<FaultInjector> faults_;
  // Non-unit-hop round-charge state (untouched on the hypercube preset).
  std::vector<detail::DimRoutes> dim_routes_;
  std::vector<double> link_load_;        ///< per directed link, rc scratch
  std::vector<std::uint32_t> rc_touched_;
  double rc_startup_ = 0.0;
  std::uint64_t rc_hops_ = 0;
  int rc_axis_ = -2;
  std::vector<Hop> reroute_hops_;
  std::vector<Hop> route_scratch_;
  // Relay state: the tabulated permutation and its inverse, and the
  // per-node outgoing load of one leg (all zero between legs).
  std::vector<proc_t> relay_to_;
  std::vector<proc_t> relay_from_;
  std::vector<std::size_t> leg_load_;
};

}  // namespace vmp
