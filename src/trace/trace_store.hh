/**
 * @file
 * Process-global memoized store of per-benchmark µop streams.
 *
 * Every campaign cell used to rebuild a TraceGenerator per core and
 * pull µops one at a time, even though each benchmark's stream is a
 * pure function of its profile and appears in thousands of
 * K-combinations. The store materializes each stream once as
 * fixed-size chunks (kDefaultChunkUops µops) in structure-of-arrays
 * layout — separate kind/addr/pc/dep1/dep2/latency/taken arrays — so
 * the simulators' fetch loops become sequential scans, and shares the
 * chunks read-only across all cells and scheduler workers.
 *
 * Memory is bounded by a budget (--trace-mem / WSEL_TRACE_MEM, MiB)
 * with LRU chunk eviction; a TraceGenerator checkpoint is kept at
 * every chunk boundary, so an evicted chunk is regenerated
 * deterministically by replaying exactly one chunk. Cursors pin
 * their current chunk via shared_ptr, so eviction never invalidates
 * a reader; it only changes wall time, never the stream. Pinned
 * chunks (shared_ptr use count above the store's own reference) are
 * ineligible as eviction victims — evicting one would keep the
 * memory alive through the reader while un-charging it from the
 * budget, and force a pointless rebuild on the next reader.
 * Campaign artifacts therefore stay bitwise identical to the
 * chunk-free path at every --jobs setting
 * (tests/test_trace_store.cc).
 *
 * BatchPin extends the per-cursor pin to a whole batch of cells: a
 * shard's worth of lanes pins every chunk it will touch once up
 * front, so co-scheduled cells reading the same benchmark share one
 * resident copy for the batch's lifetime instead of racing the LRU
 * per cursor-refill. Releasing the pin re-runs eviction, so the
 * budget converges as soon as the batch retires.
 *
 * Instrumented through src/obs/: trace_store.chunks_built /
 * chunk_hits / chunks_evicted counters, trace_store.resident_bytes
 * gauge and the trace_store.build_ns histogram — all touched once
 * per chunk refill, never per µop. See docs/PERFORMANCE.md.
 */

#ifndef WSEL_TRACE_TRACE_STORE_HH
#define WSEL_TRACE_TRACE_STORE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "trace/benchmark_profile.hh"
#include "trace/microop.hh"
#include "trace/trace_generator.hh"

namespace wsel
{

/**
 * One immutable span of a benchmark's µop stream in SoA layout.
 * Position-aligned on the infinite stream: chunk i covers µops
 * [i*chunkUops, (i+1)*chunkUops), independent of any simulation's
 * target length, so every target shares the same chunks.
 */
struct TraceChunk
{
    std::uint64_t firstUop = 0;
    std::uint32_t count = 0;

    std::vector<std::uint8_t> kind;
    std::vector<std::uint64_t> addr;
    std::vector<std::uint64_t> pc;
    std::vector<std::uint16_t> dep1;
    std::vector<std::uint16_t> dep2;
    std::vector<std::uint8_t> latency;
    std::vector<std::uint8_t> taken;

    /** Resident footprint charged against the store budget. */
    std::size_t
    bytes() const
    {
        return sizeof(TraceChunk) +
               static_cast<std::size_t>(count) *
                   (3 * sizeof(std::uint8_t) +
                    2 * sizeof(std::uint64_t) +
                    2 * sizeof(std::uint16_t));
    }
};

class TraceStore;

/**
 * The memoized stream of one benchmark, keyed by
 * BenchmarkProfile::parameterHash(). Owns its own profile copy (so
 * it never dangles), the build-side TraceGenerator with per-chunk
 * checkpoints, and the chunk table. Obtain via TraceStore::stream()
 * or TraceStore::cursor(); always held by shared_ptr.
 */
class TraceStream
{
  public:
    TraceStream(TraceStore &store, const BenchmarkProfile &profile,
                std::uint32_t chunk_uops);

    TraceStream(const TraceStream &) = delete;
    TraceStream &operator=(const TraceStream &) = delete;

    /**
     * Fetch chunk @p idx, building (or deterministically
     * regenerating after eviction) it if not resident. Thread-safe;
     * concurrent readers of a missing chunk build it exactly once.
     */
    std::shared_ptr<const TraceChunk> chunk(std::uint64_t idx);

    /** µops per chunk for this stream (fixed at creation). */
    std::uint32_t chunkUops() const { return chunkUops_; }

    const BenchmarkProfile &profile() const { return profile_; }

    /** Total chunk builds, including regeneration (tests). */
    std::uint64_t
    builds() const
    {
        return builds_.load(std::memory_order_relaxed);
    }

  private:
    friend class TraceStore;

    /** Chunk slot; guarded by the owning store's mutex. */
    struct Entry
    {
        std::shared_ptr<const TraceChunk> chunk;
        std::uint64_t lastUse = 0;
    };

    /** Build one chunk starting at the generator's position. */
    std::shared_ptr<TraceChunk> buildOne();

    TraceStore &store_;
    const BenchmarkProfile profile_;
    const std::uint32_t chunkUops_;

    /** @name Build side, guarded by buildMu_. */
    /** @{ */
    std::mutex buildMu_;
    TraceGenerator gen_;
    /** checkpoints_[i] = generator state at the start of chunk i. */
    std::vector<TraceDynState> checkpoints_;
    /** @} */

    /** Chunk table; guarded by the owning store's mutex. */
    std::vector<Entry> entries_;

    std::atomic<std::uint64_t> builds_{0};
};

/**
 * Lightweight per-core read head over a TraceStream. Replaces the
 * per-µop TraceGenerator::next() call in the simulators: next()
 * copies one µop out of the pinned SoA chunk and only touches the
 * store once per chunk refill. Cheap to copy; each copy advances
 * independently.
 */
class TraceCursor
{
  public:
    TraceCursor() = default;

    explicit TraceCursor(std::shared_ptr<TraceStream> stream)
        : stream_(std::move(stream))
    {
    }

    /** Next µop of the stream (endless, like the generator). */
    MicroOp
    next()
    {
        if (idx_ == count_)
            refill();
        MicroOp u;
        u.kind = static_cast<OpKind>(kind_[idx_]);
        u.addr = addr_[idx_];
        u.pc = pc_[idx_];
        u.dep1 = dep1_[idx_];
        u.dep2 = dep2_[idx_];
        u.latency = latency_[idx_];
        u.taken = taken_[idx_] != 0;
        ++idx_;
        ++pos_;
        return u;
    }

    /** µops consumed since construction / reset(). */
    std::uint64_t generated() const { return pos_; }

    /** Restart the stream (paper's thread-restart rule). */
    void
    reset()
    {
        pos_ = 0;
        if (chunk_ && chunk_->firstUop == 0) {
            idx_ = 0; // chunk 0 is still pinned: no store roundtrip
        } else {
            dropChunk();
        }
    }

    const BenchmarkProfile &profile() const
    {
        return stream_->profile();
    }

  private:
    void refill();
    void dropChunk();

    std::shared_ptr<TraceStream> stream_;
    std::shared_ptr<const TraceChunk> chunk_;

    /** @name Raw SoA pointers into *chunk_ (refill()). */
    /** @{ */
    const std::uint8_t *kind_ = nullptr;
    const std::uint64_t *addr_ = nullptr;
    const std::uint64_t *pc_ = nullptr;
    const std::uint16_t *dep1_ = nullptr;
    const std::uint16_t *dep2_ = nullptr;
    const std::uint8_t *latency_ = nullptr;
    const std::uint8_t *taken_ = nullptr;
    /** @} */

    std::uint32_t idx_ = 0;
    std::uint32_t count_ = 0; ///< 0 forces refill on first next()
    std::uint64_t pos_ = 0;
};

/**
 * RAII pin over every trace chunk a batch of cells will read.
 *
 * A batched shard pins the chunk range [0, uops) of each distinct
 * benchmark once before stepping its lanes; repeat references from
 * other lanes of the batch then resolve against the already-pinned
 * copy (counted by the batch.chunk_pins_saved instrument) instead
 * of issuing their own store round-trips and LRU races. Pinned
 * chunks are ineligible for eviction, so a tight WSEL_TRACE_MEM
 * budget cannot thrash a chunk out mid-batch only to rebuild it for
 * the next lane. Destruction (or release()) drops every pin and
 * re-runs eviction so the budget converges immediately.
 */
class BatchPin
{
  public:
    BatchPin() = default;
    ~BatchPin() { release(); }

    BatchPin(BatchPin &&) = default;
    BatchPin &operator=(BatchPin &&other) noexcept
    {
        if (this != &other) {
            release();
            store_ = other.store_;
            chunks_ = std::move(other.chunks_);
            seen_ = std::move(other.seen_);
            saved_ = other.saved_;
            other.store_ = nullptr;
            other.chunks_.clear();
            other.seen_.clear();
        }
        return *this;
    }
    BatchPin(const BatchPin &) = delete;
    BatchPin &operator=(const BatchPin &) = delete;

    /**
     * Pin every chunk covering [0, uops) of @p profile's stream in
     * @p store, building missing ones. Idempotent per chunk: a
     * chunk already pinned by this batch is counted as a saved pin
     * and not re-held.
     */
    void pin(TraceStore &store, const BenchmarkProfile &profile,
             std::uint64_t uops);

    /** Drop all pins and re-run eviction on the store. */
    void release();

    /** Distinct chunks currently held. */
    std::size_t held() const { return chunks_.size(); }

    /** Pin requests coalesced onto an already-held chunk. */
    std::uint64_t saved() const { return saved_; }

  private:
    TraceStore *store_ = nullptr;
    std::vector<std::shared_ptr<const TraceChunk>> chunks_;
    std::unordered_set<const TraceChunk *> seen_;
    std::uint64_t saved_ = 0;
};

/**
 * Thread-safe store of TraceStreams with a global LRU memory
 * budget. Use global() for the process-wide instance shared by
 * campaigns; tests construct private stores to force tiny budgets
 * and chunk sizes without perturbing each other.
 */
class TraceStore
{
  public:
    /** Default chunk size: 64 Ki µops ≈ 1.5 MiB resident. */
    static constexpr std::uint32_t kDefaultChunkUops = 64 * 1024;

    /** Default memory budget when WSEL_TRACE_MEM is unset. */
    static constexpr std::size_t kDefaultBudgetBytes =
        512ULL << 20;

    explicit TraceStore(
        std::size_t budget_bytes = kDefaultBudgetBytes,
        std::uint32_t chunk_uops = kDefaultChunkUops);

    TraceStore(const TraceStore &) = delete;
    TraceStore &operator=(const TraceStore &) = delete;

    /**
     * The process-global store. Budget comes from WSEL_TRACE_MEM
     * (MiB) when set, else kDefaultBudgetBytes; wsel_cli
     * --trace-mem overrides via setBudgetBytes(). Deliberately
     * leaked so cursors in bench static destructors stay valid.
     */
    static TraceStore &global();

    /** The (shared, memoized) stream for @p profile. */
    std::shared_ptr<TraceStream> stream(
        const BenchmarkProfile &profile);

    /** A fresh cursor positioned at µop 0 of @p profile's stream. */
    TraceCursor
    cursor(const BenchmarkProfile &profile)
    {
        return TraceCursor(stream(profile));
    }

    /**
     * Materialize every chunk covering [0, uops) of @p profile's
     * stream. Serial; campaign prewarm fans this out over
     * exec::parallel_for, one benchmark per task.
     */
    void ensureBuilt(const BenchmarkProfile &profile,
                     std::uint64_t uops);

    /** @name Budget / shape knobs (tests, CLI). */
    /** @{ */
    void setBudgetBytes(std::size_t bytes);
    std::size_t
    budgetBytes() const
    {
        return budgetBytes_.load(std::memory_order_relaxed);
    }

    /** Applies to streams created after the call (tests). */
    void setChunkUops(std::uint32_t uops);
    /** @} */

    /** Bytes currently resident across all streams. */
    std::size_t residentBytes() const;

    /**
     * Re-run eviction against the current budget. Called by
     * BatchPin::release() so a budget overshoot held open by pins
     * converges as soon as the batch retires; harmless otherwise.
     */
    void trimToBudget();

    /** Chunks evicted so far (tests; obs-independent). */
    std::uint64_t
    evictions() const
    {
        return evictions_.load(std::memory_order_relaxed);
    }

    /**
     * Drop every stream and chunk (tests reconfiguring the global
     * store). Callers must not hold live cursors across clear():
     * pinned chunks stay valid but are no longer budget-accounted.
     */
    void clear();

  private:
    friend class TraceStream;

    /** Fast path: return chunk idx if resident, bumping LRU. */
    std::shared_ptr<const TraceChunk> lookup(TraceStream &s,
                                             std::uint64_t idx);

    /** Account + install a freshly built chunk, then evict LRU. */
    void install(TraceStream &s, std::uint64_t idx,
                 std::shared_ptr<const TraceChunk> chunk);

    /**
     * Evict unpinned LRU chunks (never @p keep, never a chunk some
     * reader still holds) until under budget — or until only
     * pinned chunks remain, in which case the overshoot persists
     * exactly until the next release/install re-runs eviction.
     */
    void evictLocked(const TraceStream::Entry *keep);

    mutable std::mutex mu_;
    std::unordered_map<std::uint64_t, std::shared_ptr<TraceStream>>
        streams_;
    std::size_t residentBytes_ = 0;
    std::uint64_t tick_ = 0; ///< LRU clock

    std::atomic<std::size_t> budgetBytes_;
    std::atomic<std::uint32_t> chunkUops_;
    std::atomic<std::uint64_t> evictions_{0};
};

} // namespace wsel

#endif // WSEL_TRACE_TRACE_STORE_HH
