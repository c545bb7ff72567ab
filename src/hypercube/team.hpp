/// \file team.hpp
/// \brief Persistent SPMD worker team executing the machine's lockstep
///        steps as phase sequences separated by generation barriers.
///
/// The previous engine forked a mutex/condvar `parallel_for` for every
/// lockstep round; at d=8 with small tiles the fork/join protocol and the
/// serial host scans between phases dominated wall-clock.  The team model
/// matches what the machine actually is — a strict SPMD phase sequence —
/// so the host threads mirror it:
///
///  * Workers are created ONCE per Cube and pinned to a static partition:
///    lane `w` of `L` always owns items `[n·w/L, n·(w+1)/L)`.  The same
///    lane therefore touches the same slab tiles step after step
///    (owner-computes affinity, compounding the arena locality of the
///    contiguous storage layer).
///  * A step is published by bumping a generation counter; every lane runs
///    its range and reports into its own `done` slot.  The host (always
///    lane 0) runs its share inline and then waits for the lanes — one
///    release/acquire pair per lane per step instead of a locked queue
///    hand-off per chunk.
///  * Between steps workers spin briefly (yielding) and then park on a
///    condvar; inside a Session (see below) the spin budget is larger, so
///    a multi-round loop never pays a wake-up between its rounds.
///  * A step too small to repay the dispatch and the barrier runs inline
///    on the host as the 1-lane partition: the caller passes
///    `fans_out(work)`, the one rule comparing the step's flops or bytes
///    against two calibrated cuts.
///
/// Determinism: the partition depends only on (items, lanes) and every
/// per-item body the machine submits is independent, so results never
/// depend on the lane count.  Host threads change wall-clock speed only —
/// simulated time, statistics and event traces are bit-identical at every
/// thread count, including the fully inline zero-worker configuration
/// (tests/test_thread_invariance.cpp enforces this).  See
/// docs/threading.md for the protocol and the memory-ordering argument.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "obs/metrics.hpp"

namespace vmp {

/// Lane count the VMP_THREADS environment variable requests: unset or
/// empty means 1 (fully serial), "0" means one lane per hardware thread,
/// any other decimal number is taken literally (a Cube clamps it to its
/// processor count).  Anything else — a sign, a blank, a trailing
/// character, a value past UINT_MAX — throws vmp::Error naming the
/// variable and its value.  This is the default for Cube::Options::threads,
/// so every test and bench binary honours the variable without plumbing.
[[nodiscard]] unsigned env_threads();

class WorkerTeam {
 public:
  /// `threads == 0` selects std::thread::hardware_concurrency(); the team
  /// spawns `threads - 1` workers because the host participates as lane 0.
  /// `threads == 1` spawns nothing: every step runs inline and the whole
  /// protocol reduces to a function call.
  explicit WorkerTeam(unsigned threads = 1);
  ~WorkerTeam();

  WorkerTeam(const WorkerTeam&) = delete;
  WorkerTeam& operator=(const WorkerTeam&) = delete;

  /// Total lanes, workers + the participating host thread.
  [[nodiscard]] unsigned lanes() const { return nlanes_; }

  /// The lane count a request of `threads` host threads resolves to,
  /// without constructing a team (bench reports record this).
  [[nodiscard]] static unsigned resolve_lanes(unsigned threads);

  /// A step's total work as its caller counts it: arithmetic for a
  /// compute step, bytes staged for an exchange round.
  struct Work {
    std::uint64_t flops = 0;
    std::uint64_t bytes = 0;
  };

  /// The inline cuts: a step doing at most this much work runs inline on
  /// the host, because fanning it out costs more in wake-up, dispatch and
  /// barrier than the other lanes save.  Each is the median, over runs of
  /// bench_primitives' engine_fanout_crossover case (d = 6, a 2-lane team
  /// against a 1-lane one) in which the second lane had a core of its
  /// own, of the largest power of two at which inline was not slower;
  /// table in docs/threading.md.
  static constexpr std::uint64_t kInlineFlops = std::uint64_t{1} << 17;
  static constexpr std::uint64_t kInlineBytes = std::uint64_t{1} << 19;

  /// Whether a step doing `w` is worth fanning out across the lanes.
  [[nodiscard]] static constexpr bool fans_out(Work w) {
    return w.flops > kInlineFlops || w.bytes > kInlineBytes;
  }

  /// One lockstep step: run `fn(lane, lo, hi)` with the static ownership
  /// partition of [0, items) across all lanes, blocking until every lane
  /// has finished.  The host runs lane 0 inline.  With `fan_out` false (or
  /// no workers) the whole step runs inline on the host as the 1-lane
  /// partition, `fn(0, 0, items)`.  Exceptions thrown by any lane are
  /// captured and the lowest-lane one is rethrown here after the barrier
  /// (the step always completes as a barrier first).  Returns how many
  /// lanes the step was partitioned over — 1 inline, lanes() fanned out,
  /// 0 for an empty step — so a caller reducing per-lane partials merges
  /// only those the step wrote.
  template <class F>
  unsigned step(std::size_t items, F&& fn, bool fan_out = true) {
    if (items == 0) return 0;
    if (workers_.empty() || !fan_out) {
      StepScope scope(*this);
      // Metrics path: the step tally rides the StepScope increment (zero
      // extra stores — a plain store here costs whole nanoseconds because
      // the scope's locked RMW drains the store buffer), so with metrics
      // off this costs nothing and with metrics on it costs one pointer
      // test and a register mask.  Only the sampled cold branch below
      // pays the clock reads.
      if (metrics_ != nullptr &&
          (scope.step_number() & sample_mask_) == 0) [[unlikely]] {
        const std::uint64_t t0 = metrics_now_ns();
        fn(0u, std::size_t{0}, items);
        metrics_inline_probes(metrics_now_ns() - t0, items);
        return 1;
      }
      fn(0u, std::size_t{0}, items);
      return 1;
    }
    using Body = std::remove_reference_t<F>;
    run_step(items, const_cast<Body*>(std::addressof(fn)),
             [](void* ctx, unsigned lane, std::size_t lo, std::size_t hi) {
               (*static_cast<Body*>(ctx))(lane, lo, hi);
             });
    return nlanes_;
  }

  /// True while a step is executing (even inline with zero workers):
  /// storage shared between the per-item bodies must not be reallocated,
  /// and the slab layer uses this to fail loudly instead of racing.
  /// The low byte of `in_step_` is the live nesting depth; the high bits
  /// count every step ever dispatched (see StepScope).
  [[nodiscard]] bool in_step() const {
    return (in_step_.load(std::memory_order_relaxed) & kStepDepthMask) != 0;
  }

  /// Total steps dispatched over the team's lifetime (deterministic: a
  /// pure function of the machine's step sequence, identical at any lane
  /// count).  Maintained for free by the StepScope increment.
  [[nodiscard]] std::uint64_t steps_dispatched() const {
    return in_step_.load(std::memory_order_relaxed) >> kStepDepthBits;
  }

  /// How many of those steps fanned out to the workers (the rest ran
  /// inline).  Depends on the lane count; host thread only.
  [[nodiscard]] std::uint64_t fanned_out() const {
    return gen_.load(std::memory_order_relaxed);
  }

  /// RAII batch marker: while at least one Session is open the workers use
  /// a much larger spin budget before parking, so the rounds of a
  /// multi-step loop (a collective's lg p dimensions, an all-port
  /// schedule, a routing sweep) run back to back inside one team
  /// activation — no condvar round trip between them.  Sessions nest and
  /// may be opened with zero workers (then they are a no-op).  Purely a
  /// wall-clock hint: simulated results are identical with or without.
  class Session {
   public:
    Session() = default;
    Session(Session&& other) noexcept : team_(other.team_) {
      other.team_ = nullptr;
    }
    Session& operator=(Session&& other) noexcept {
      if (this != &other) {
        close();
        team_ = other.team_;
        other.team_ = nullptr;
      }
      return *this;
    }
    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;
    ~Session() { close(); }

   private:
    friend class WorkerTeam;
    explicit Session(WorkerTeam* team) : team_(team) {
      if (team_) team_->note_session_open();
    }
    void close() {
      if (team_) team_->note_session_close();
      team_ = nullptr;
    }
    WorkerTeam* team_ = nullptr;
  };

  /// Open a batch session (see Session).
  [[nodiscard]] Session session() { return Session(this); }
  [[nodiscard]] bool in_session() const {
    return session_open_.load(std::memory_order_relaxed) != 0;
  }

  /// The static ownership partition: the first item lane `lane` of `lanes`
  /// owns in a step over `items` items.  Monotone and exhaustive:
  /// lane_begin(n, L, L) == n.
  [[nodiscard]] static std::size_t lane_begin(std::size_t items, unsigned lane,
                                              unsigned lanes) {
    return items * lane / lanes;
  }

  /// Wire the engine metrics: registers the team's instruments in `m`
  /// (which must be enabled for exactly lanes() writer lanes) and turns on
  /// the per-step hooks.  `nullptr` detaches.  Host thread only, with the
  /// team quiescent — never from inside a step.
  void set_metrics(MetricsRegistry* m);

 private:
  using StepFn = void (*)(void* ctx, unsigned lane, std::size_t lo,
                          std::size_t hi);

  /// Layout of the packed `in_step_` word: live nesting depth in the low
  /// byte, lifetime step count in the high 56 bits.
  static constexpr unsigned kStepDepthBits = 8;
  static constexpr std::uint64_t kStepDepthMask =
      (std::uint64_t{1} << kStepDepthBits) - 1;
  static constexpr std::uint64_t kStepTick =
      (std::uint64_t{1} << kStepDepthBits) | 1;

  /// RAII for in_step(), covering the inline zero-worker path too.  The
  /// single increment packs two fields: +1 nesting depth (low byte,
  /// removed on exit) and +1 lifetime step tally (high bits, kept) — the
  /// step count the metrics tier samples on therefore costs zero extra
  /// stores on the hot path.
  struct StepScope {
    explicit StepScope(WorkerTeam& t)
        : team(t),
          prior(t.in_step_.fetch_add(kStepTick, std::memory_order_relaxed)) {}
    ~StepScope() { team.in_step_.fetch_sub(1, std::memory_order_relaxed); }
    /// 1-based number of the step this scope opened.
    [[nodiscard]] std::uint64_t step_number() const {
      return (prior >> kStepDepthBits) + 1;
    }
    WorkerTeam& team;
    std::uint64_t prior;
  };

  /// Per-worker barrier slot, padded so neighbouring lanes never share a
  /// cache line while reporting.  `busy_ns` is the lane's measured body
  /// time on a *sampled* step: written before the release store of `done`,
  /// read by the host after its acquire load — the existing barrier pair
  /// publishes it with no extra synchronization.
  struct alignas(64) LaneState {
    std::atomic<std::uint64_t> done{0};
    std::exception_ptr error;
    std::uint64_t busy_ns = 0;
  };

  /// Idle-time tallies a worker accumulates locally between steps and
  /// folds into the per-lane metric cells at the top of the next step
  /// (after the acquire of gen_, so the writes are ordered by the step
  /// protocol and the host never reads them mid-update).
  struct IdleStats {
    std::uint64_t spins = 0;
    std::uint64_t parks = 0;
    std::uint64_t park_ns = 0;
  };

  void run_step(std::size_t items, void* ctx, StepFn fn);
  void worker_loop(unsigned lane);
  [[nodiscard]] std::uint64_t await_command(std::uint64_t seen,
                                            IdleStats* idle);

  [[nodiscard]] static std::uint64_t metrics_now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  /// Probes of a sampled inline (zero-worker) step — kept out of line so
  /// the hot dispatch path stays small.
  void metrics_inline_probes(std::uint64_t busy_ns, std::size_t items);

  void note_session_open() {
    session_open_.fetch_add(1, std::memory_order_relaxed);
    if (metrics_ != nullptr) ++sessions_tally_;
  }
  void note_session_close() {
    session_open_.fetch_sub(1, std::memory_order_relaxed);
  }

  // Command slot.  The plain fields are published to the workers by the
  // seq_cst bump of gen_ (release side) and read after their acquire load
  // of gen_; the host rewrites them only after the previous step's
  // barrier, when no worker can still be reading.  `sample_` rides along:
  // it marks the published step as wall-clock-sampled.
  void* ctx_ = nullptr;
  StepFn fn_ = nullptr;
  std::size_t items_ = 0;
  bool sample_ = false;
  std::atomic<std::uint64_t> gen_{0};

  // Engine metrics, normally detached: with metrics_ == nullptr the hot
  // path pays exactly one pointer test.  The workers read metrics_ after
  // their acquire of gen_, so attaching/detaching between steps is safe.
  // Wall-clock instruments are written directly (sampled steps only); the
  // deterministic step count rides the in_step_ word (see StepScope) and
  // a snapshot probe publishes it as a Sim gauge at read time, beside the
  // fan-out count, which is gen_ itself.
  struct TeamMetrics {
    MetricsRegistry::Counter* lane_busy_ns = nullptr;
    MetricsRegistry::Counter* lane_spins = nullptr;
    MetricsRegistry::Counter* lane_parks = nullptr;
    MetricsRegistry::Counter* lane_park_ns = nullptr;
    MetricsRegistry::Counter* host_barrier_ns = nullptr;
    MetricsRegistry::Histogram* step_ns = nullptr;
    MetricsRegistry::Histogram* step_items = nullptr;
    MetricsRegistry::Histogram* imbalance_pct = nullptr;
  };
  TeamMetrics mx_;
  MetricsRegistry* metrics_ = nullptr;
  std::uint64_t steps_baseline_ = 0;
  std::uint64_t fanout_baseline_ = 0;
  std::uint64_t sessions_tally_ = 0;
  std::uint64_t sample_mask_ = MetricsRegistry::kDefaultSampleEvery - 1;

  unsigned nlanes_ = 1;  // fixed before any worker starts
  std::vector<std::thread> workers_;
  std::unique_ptr<LaneState[]> lane_state_;
  std::atomic<bool> stop_{false};
  std::atomic<int> parked_{0};
  std::atomic<int> session_open_{0};
  std::atomic<std::uint64_t> in_step_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
};

}  // namespace vmp
