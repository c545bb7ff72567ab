/// \file buffer_pool.hpp
/// \brief Size-bucketed recycling allocator for the slab arenas.
///
/// Every distributed object keeps its tiles in one arena leased from its
/// Cube's pool (comm/dist_buffer.hpp), and the temporaries of a loop —
/// a collective's workspace, a primitive's result — come and go every
/// iteration.  Allocating them from the heap each time dominates host
/// wall-clock on large runs; the BufferPool instead recycles blocks through
/// power-of-two byte buckets, so a steady-state loop performs ZERO heap
/// allocations.  (The exchange round core stages into persistent slots of
/// its own, hypercube/machine.hpp, not through the pool.)
///
/// The pool is owned by the Cube and used only from the host thread that
/// drives the lockstep rounds (blocks are acquired before and released
/// after any parallel_for), so no locking is needed.  Every acquire is
/// counted in the owning SimClock's statistics:
///
///   pool_hits    — acquires served by recycling an existing block
///   pool_misses  — acquires that had to touch the heap
///   alloc_bytes  — heap bytes newly allocated on misses
///   slab_allocs, slab_bytes — the same misses, as slab-arena storage
///
/// which surface in the vmp-profile-v1 `totals` block, making the
/// zero-allocation claim machine-checkable (scripts/check.sh asserts
/// steady-state pool hits == 100% on the primitive bench hot loop).
#pragma once

#include <bit>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "hypercube/check.hpp"
#include "hypercube/sim_clock.hpp"
#include "obs/metrics.hpp"

namespace vmp {

class BufferPool {
 public:
  /// `clock` (optional) receives the hit/miss/alloc statistics.
  explicit BufferPool(SimClock* clock = nullptr) : clock_(clock) {}

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// RAII lease of one pooled block; returns it to the pool's free list on
  /// destruction.  Movable so it can be handed to helpers; never copyable.
  class Block {
   public:
    Block() = default;
    Block(Block&& other) noexcept { *this = std::move(other); }
    Block& operator=(Block&& other) noexcept {
      release();
      pool_ = other.pool_;
      bytes_ = other.bytes_;
      bucket_ = other.bucket_;
      other.pool_ = nullptr;
      other.bytes_ = nullptr;
      return *this;
    }
    Block(const Block&) = delete;
    Block& operator=(const Block&) = delete;
    ~Block() { release(); }

    /// Start of the leased storage (aligned like ::operator new, i.e. for
    /// any type without extended alignment).  Null for an empty lease.
    [[nodiscard]] void* data() const { return bytes_; }
    /// Usable capacity — the bucket size, ≥ the requested byte count.
    [[nodiscard]] std::size_t size() const { return bytes_ ? size_of(bucket_) : 0; }

   private:
    friend class BufferPool;
    Block(BufferPool* pool, std::byte* bytes, int bucket)
        : pool_(pool), bytes_(bytes), bucket_(bucket) {}
    void release() {
      if (pool_ && bytes_) pool_->put_back(bytes_, bucket_);
      pool_ = nullptr;
      bytes_ = nullptr;
    }
    BufferPool* pool_ = nullptr;
    std::byte* bytes_ = nullptr;
    int bucket_ = 0;
  };

  /// Lease a block of at least `bytes` bytes.  Requests are rounded up to
  /// the enclosing power-of-two bucket (minimum 64 bytes) so that nearby
  /// sizes share a free list; zero-byte requests return an empty lease
  /// without touching the pool.
  [[nodiscard]] Block acquire(std::size_t bytes) {
    if (bytes == 0) return Block{};
    const int bucket = bucket_of(bytes);
    auto& list = free_[static_cast<std::size_t>(bucket)];
    if (!list.empty()) {
      std::byte* p = list.back().release();
      list.pop_back();
      ++hits_;
      ++leased_[static_cast<std::size_t>(bucket)];
      if (clock_) clock_->note_pool_hit();
      return Block{this, p, bucket};
    }
    const std::size_t sz = size_of(bucket);
    // For-overwrite: leased storage is always written before it is read
    // (arena tiles are filled/assigned), and zero-initializing a
    // power-of-two bucket would touch up to 2× the requested bytes — the
    // dominant cold-path cost for slab arenas.
    auto p = std::make_unique_for_overwrite<std::byte[]>(sz);
    ++misses_;
    heap_bytes_ += sz;
    ++leased_[static_cast<std::size_t>(bucket)];
    if (clock_) {
      clock_->note_pool_miss(sz);
      clock_->note_slab_alloc(sz);
    }
    return Block{this, p.release(), bucket};
  }

  /// Drop every free block back to the heap (leased blocks are unaffected
  /// and still return here afterwards).  Mainly for tests.
  void trim() {
    for (auto& list : free_) list.clear();
  }

  /// Lifetime counters of this pool (independent of any SimClock reset).
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  /// Total heap bytes this pool ever allocated (monotone; recycling never
  /// increases it).
  [[nodiscard]] std::uint64_t heap_bytes() const { return heap_bytes_; }
  /// Number of blocks currently sitting in the free lists.
  [[nodiscard]] std::size_t free_blocks() const {
    std::size_t n = 0;
    for (const auto& list : free_) n += list.size();
    return n;
  }

  /// The bucket capacity a request of `bytes` bytes is served from:
  /// the smallest power of two ≥ max(bytes, 64).
  [[nodiscard]] static std::size_t bucket_bytes(std::size_t bytes) {
    return bytes == 0 ? 0 : size_of(bucket_of(bytes));
  }

  /// Wire the engine metrics: registers a snapshot probe that publishes
  /// pool occupancy — free/leased block and byte totals plus a per-bucket
  /// split for every bucket that has ever held a block — at read time.
  /// Nothing runs on the acquire/release hot path beyond the existing
  /// leased counters.  All gauges are Sim-class: the pool is driven by the
  /// host-side lockstep rounds, so its occupancy is deterministic.
  void set_metrics(MetricsRegistry* m) {
    metrics_ = m;
    if (m != nullptr)
      m->add_probe([this, m] { publish_metrics(*m); });
  }

 private:
  static constexpr std::size_t kMinBytes = 64;
  static constexpr int kBuckets = 64;

  [[nodiscard]] static int bucket_of(std::size_t bytes) {
    const std::size_t want = bytes < kMinBytes ? kMinBytes : bytes;
    return static_cast<int>(std::bit_width(want - 1));  // ceil log2
  }
  [[nodiscard]] static std::size_t size_of(int bucket) {
    return std::size_t{1} << bucket;
  }

  void put_back(std::byte* p, int bucket) {
    free_[static_cast<std::size_t>(bucket)].emplace_back(p);
    --leased_[static_cast<std::size_t>(bucket)];
  }

  void publish_metrics(MetricsRegistry& m) const {
    std::size_t free_blocks_n = 0, free_bytes = 0;
    std::size_t leased_blocks = 0, leased_bytes = 0;
    for (int b = 0; b < kBuckets; ++b) {
      const std::size_t bi = static_cast<std::size_t>(b);
      const std::size_t nfree = free_[bi].size();
      const std::size_t nleased = leased_[bi];
      free_blocks_n += nfree;
      free_bytes += nfree * size_of(b);
      leased_blocks += nleased;
      leased_bytes += nleased * size_of(b);
      if (nfree == 0 && nleased == 0) continue;
      const std::string prefix = "pool.bucket_" + std::to_string(size_of(b));
      m.gauge(prefix + ".free_blocks", MetricClass::Sim)
          .set(static_cast<double>(nfree));
      m.gauge(prefix + ".leased_blocks", MetricClass::Sim)
          .set(static_cast<double>(nleased));
      m.gauge(prefix + ".bytes", MetricClass::Sim)
          .set(static_cast<double>((nfree + nleased) * size_of(b)));
    }
    m.gauge("pool.free_blocks", MetricClass::Sim)
        .set(static_cast<double>(free_blocks_n));
    m.gauge("pool.free_bytes", MetricClass::Sim)
        .set(static_cast<double>(free_bytes));
    m.gauge("pool.leased_blocks", MetricClass::Sim)
        .set(static_cast<double>(leased_blocks));
    m.gauge("pool.leased_bytes", MetricClass::Sim)
        .set(static_cast<double>(leased_bytes));
    m.gauge("pool.heap_bytes", MetricClass::Sim)
        .set(static_cast<double>(heap_bytes_));
    m.gauge("pool.hits", MetricClass::Sim).set(static_cast<double>(hits_));
    m.gauge("pool.misses", MetricClass::Sim)
        .set(static_cast<double>(misses_));
  }

  SimClock* clock_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
  std::vector<std::unique_ptr<std::byte[]>> free_[kBuckets];
  std::size_t leased_[kBuckets] = {};
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t heap_bytes_ = 0;
};

}  // namespace vmp
