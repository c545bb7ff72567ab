#include "hypercube/team.hpp"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <string>

#include "hypercube/check.hpp"

namespace vmp {

namespace {

/// Spin budgets (in yield iterations) before a worker parks on the
/// condvar.  Outside a session the team parks almost immediately — an idle
/// Cube must not burn a core.  Inside a session the next step is known to
/// be imminent (the caller opened the batch precisely because it is about
/// to issue a run of steps), so spinning longer trades a little CPU for
/// skipping the wake-up latency between rounds.
constexpr int kIdleSpin = 16;
constexpr int kSessionSpin = 4096;

}  // namespace

unsigned env_threads() {
  const char* s = std::getenv("VMP_THREADS");
  if (s == nullptr || *s == '\0') return 1;
  // Digits only: from_chars takes no sign or blank and reports overflow.
  const char* end = s + std::strlen(s);
  unsigned v = 0;
  const auto [ptr, ec] = std::from_chars(s, end, v);
  if (ec != std::errc{} || ptr != end)
    throw Error("VMP_THREADS=\"" + std::string(s) +
                "\" is not a lane count (a decimal number of lanes, 0 for "
                "one per hardware thread)");
  return v;
}

unsigned WorkerTeam::resolve_lanes(unsigned threads) {
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
  }
  return threads;
}

WorkerTeam::WorkerTeam(unsigned threads) {
  nlanes_ = resolve_lanes(threads);
  if (nlanes_ <= 1) {
    nlanes_ = 1;
    return;
  }
  lane_state_ = std::make_unique<LaneState[]>(nlanes_ - 1);
  workers_.reserve(nlanes_ - 1);
  for (unsigned w = 1; w < nlanes_; ++w)
    workers_.emplace_back([this, w] { worker_loop(w); });
}

WorkerTeam::~WorkerTeam() {
  if (!workers_.empty()) {
    {
      std::lock_guard<std::mutex> lk(mutex_);
      stop_.store(true, std::memory_order_seq_cst);
    }
    cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }
}

void WorkerTeam::set_metrics(MetricsRegistry* m) {
  metrics_ = nullptr;
  if (m == nullptr) return;
  // Deterministic (Sim) instruments — pure functions of the machine's
  // step sequence, bit-identical at any lane count — are published by a
  // snapshot probe.  The step count costs nothing per step (it rides the
  // StepScope increment, see team.hpp); sessions are rare enough for a
  // plain tally.
  steps_baseline_ = steps_dispatched();
  fanout_baseline_ = fanned_out();
  sessions_tally_ = 0;
  m->add_probe([this, m] {
    m->gauge("engine.steps", MetricClass::Sim)
        .set(static_cast<double>(steps_dispatched() - steps_baseline_));
    m->gauge("engine.sessions", MetricClass::Sim)
        .set(static_cast<double>(sessions_tally_));
    m->gauge("engine.session_depth", MetricClass::Sim)
        .set(session_open_.load(std::memory_order_relaxed));
    // Wall class: which steps fan out depends on the lane count.
    m->gauge("engine.fanout_steps", MetricClass::Wall)
        .set(static_cast<double>(fanned_out() - fanout_baseline_));
  });
  // Wall-clock instruments: lane utilization and dispatch behaviour.
  mx_.lane_busy_ns = &m->counter("engine.lane_busy_ns", MetricClass::Wall);
  mx_.lane_spins = &m->counter("engine.lane_spins", MetricClass::Wall);
  mx_.lane_parks = &m->counter("engine.lane_parks", MetricClass::Wall);
  mx_.lane_park_ns = &m->counter("engine.lane_park_ns", MetricClass::Wall);
  mx_.host_barrier_ns =
      &m->counter("engine.host_barrier_ns", MetricClass::Wall);
  mx_.step_ns = &m->histogram("engine.step_ns", MetricClass::Wall);
  // Items per sampled step.  Sim class: the sampled step numbers are a
  // deterministic function of the step sequence (a mask on the exact step
  // count), so this histogram is bit-identical at any lane count too.
  mx_.step_items = &m->histogram("engine.step_items", MetricClass::Sim);
  mx_.imbalance_pct =
      &m->histogram("engine.step_imbalance_pct", MetricClass::Wall);
  sample_mask_ = m->sample_every() - 1;
  metrics_ = m;
}

void WorkerTeam::metrics_inline_probes(std::uint64_t busy_ns,
                                       std::size_t items) {
  mx_.step_items->record(items);
  mx_.lane_busy_ns->add(busy_ns, 0);
  mx_.step_ns->record(busy_ns);
  mx_.imbalance_pct->record(0);
}

std::uint64_t WorkerTeam::await_command(std::uint64_t seen, IdleStats* idle) {
  int spins = 0;
  for (;;) {
    if (stop_.load(std::memory_order_acquire)) return seen;
    const std::uint64_t g = gen_.load(std::memory_order_acquire);
    if (g != seen) return g;
    const int budget = session_open_.load(std::memory_order_relaxed) != 0
                           ? kSessionSpin
                           : kIdleSpin;
    if (++spins < budget) {
      ++idle->spins;
      std::this_thread::yield();
      continue;
    }
    // Park.  The increment of parked_ and the re-read of gen_ are both
    // seq_cst, pairing with the host's seq_cst publish of gen_ followed by
    // its seq_cst read of parked_: either the host sees us parked (and
    // notifies under the mutex), or we see its new generation in the wait
    // predicate before sleeping.  No lost wake-up either way.
    ++idle->parks;
    const std::uint64_t t0 = metrics_now_ns();
    std::unique_lock<std::mutex> lk(mutex_);
    parked_.fetch_add(1, std::memory_order_seq_cst);
    cv_.wait(lk, [&] {
      return stop_.load(std::memory_order_seq_cst) ||
             gen_.load(std::memory_order_seq_cst) != seen;
    });
    parked_.fetch_sub(1, std::memory_order_relaxed);
    idle->park_ns += metrics_now_ns() - t0;
    spins = 0;
  }
}

void WorkerTeam::worker_loop(unsigned lane) {
  LaneState& st = lane_state_[lane - 1];
  const unsigned nlanes = lanes();
  std::uint64_t seen = 0;
  IdleStats idle;
  for (;;) {
    const std::uint64_t g = await_command(seen, &idle);
    if (g == seen) return;  // stop requested
    seen = g;
    // Metrics are read strictly after the acquire of gen_, and the cells
    // written here are published by the release store of done below — the
    // step protocol already orders every access, no extra atomics.
    const bool sampled = metrics_ != nullptr && sample_;
    if (metrics_ != nullptr &&
        (idle.spins | idle.parks | idle.park_ns) != 0) {
      mx_.lane_spins->add(idle.spins, lane);
      mx_.lane_parks->add(idle.parks, lane);
      mx_.lane_park_ns->add(idle.park_ns, lane);
      idle = IdleStats{};
    }
    const std::size_t lo = lane_begin(items_, lane, nlanes);
    const std::size_t hi = lane_begin(items_, lane + 1, nlanes);
    std::uint64_t busy = 0;
    if (lo != hi) {
      const std::uint64_t t0 = sampled ? metrics_now_ns() : 0;
      try {
        fn_(ctx_, lane, lo, hi);
      } catch (...) {
        st.error = std::current_exception();
      }
      if (sampled) busy = metrics_now_ns() - t0;
    }
    if (sampled) {
      st.busy_ns = busy;
      mx_.lane_busy_ns->add(busy, lane);
    }
    st.done.store(g, std::memory_order_release);
  }
}

void WorkerTeam::run_step(std::size_t items, void* ctx, StepFn fn) {
  StepScope scope(*this);
  ctx_ = ctx;
  fn_ = fn;
  items_ = items;
  bool sampled = false;
  std::uint64_t t_start = 0;
  if (metrics_ != nullptr) {
    sampled = (scope.step_number() & sample_mask_) == 0;
    sample_ = sampled;
    if (sampled) {
      mx_.step_items->record(items);
      t_start = metrics_now_ns();
    }
  }
  // Publish: the seq_cst bump releases the command fields to the workers'
  // acquire loads of gen_.
  const std::uint64_t g = gen_.fetch_add(1, std::memory_order_seq_cst) + 1;
  if (parked_.load(std::memory_order_seq_cst) != 0) {
    std::lock_guard<std::mutex> lk(mutex_);
    cv_.notify_all();
  }
  // The host is lane 0 and computes its own share while the workers run
  // theirs.
  const unsigned nlanes = lanes();
  const std::size_t hi = lane_begin(items, 1, nlanes);
  std::exception_ptr host_error;
  std::uint64_t host_busy = 0;
  if (hi != 0) {
    const std::uint64_t t0 = sampled ? metrics_now_ns() : 0;
    try {
      fn(ctx, 0, 0, hi);
    } catch (...) {
      host_error = std::current_exception();
    }
    if (sampled) host_busy = metrics_now_ns() - t0;
  }
  // Barrier: one acquire load per lane pairs with its release store of
  // done, so everything each lane wrote is visible here.  The barrier
  // always completes before any rethrow — the team must be quiescent when
  // an exception escapes.
  const std::uint64_t t_barrier = sampled ? metrics_now_ns() : 0;
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    LaneState& st = lane_state_[w];
    while (st.done.load(std::memory_order_acquire) != g)
      std::this_thread::yield();
  }
  if (sampled) {
    const std::uint64_t t_end = metrics_now_ns();
    mx_.host_barrier_ns->add(t_end - t_barrier, 0);
    mx_.lane_busy_ns->add(host_busy, 0);
    mx_.step_ns->record(t_end - t_start);
    // Busy imbalance across the lanes that owned items this step:
    // (max - min) / max, in percent.  Lane busy times were published by
    // the barrier above.
    std::uint64_t lo_busy = hi != 0 ? host_busy : UINT64_MAX;
    std::uint64_t hi_busy = hi != 0 ? host_busy : 0;
    for (unsigned lane = 1; lane < nlanes; ++lane) {
      if (lane_begin(items, lane, nlanes) == lane_begin(items, lane + 1, nlanes))
        continue;
      const std::uint64_t b = lane_state_[lane - 1].busy_ns;
      lo_busy = b < lo_busy ? b : lo_busy;
      hi_busy = b > hi_busy ? b : hi_busy;
    }
    const std::uint64_t pct =
        hi_busy == 0 || lo_busy == UINT64_MAX
            ? 0
            : (hi_busy - lo_busy) * 100 / hi_busy;
    mx_.imbalance_pct->record(pct);
    sample_ = false;
  }
  if (host_error) std::rethrow_exception(host_error);
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (lane_state_[w].error) {
      std::exception_ptr e = lane_state_[w].error;
      lane_state_[w].error = nullptr;
      std::rethrow_exception(e);
    }
  }
}

}  // namespace vmp
