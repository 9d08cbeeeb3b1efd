/**
 * @file
 * Batched BADCO cell execution: B campaign cells per thread per flush.
 *
 * The population/adaptive/hybrid runners used to simulate one
 * (workload, policy) cell at a time — each cell constructing a
 * BadcoMulticoreSim, an Uncore and K heap-allocated BadcoMachines,
 * stepping them to the target, then tearing everything down. This
 * engine transposes that machine state into structure-of-arrays
 * slabs over B x K *lanes* (lane = one core of one cell): per-lane
 * window cursors, node walks, outstanding-miss minima and IPC
 * accumulators live in flat reusable arrays, and a quantum loop
 * advances all K lanes of a cell together through the rotating
 * schedule. Cells execute cell-major by default — each runs to
 * completion on one thread before that thread claims the next —
 * because cells share nothing: any cross-cell interleaving is
 * bitwise identical, and cell-major keeps exactly one uncore's
 * working set (tags, page table, prefetcher state) hot in each
 * thread's host cache while peak RSS stays flat in B. What the
 * batch amortizes is setup: each thread's uncore slot,
 * load-completion arena and wave scratch, and the runner's lane
 * slabs, are reused by every cell, the batch's cells share
 * benchmark model node arrays, and the detailed path pins each
 * row's trace chunks once per batch (trace/trace_store.hh
 * BatchPin). Cells own private Uncore instances (the paper's
 * sharing is within a cell, never across cells) stepped through
 * devirtualized calls; the packed 32-bit LLC tag arrays they probe
 * resolve through the runtime-dispatched SWAR/SSE2/AVX2 tag-scan
 * paths (cache/tagscan.hh, WSEL_SIMD).
 *
 * Threads: run() is the one place BADCO cells are spread across
 * threads. A runner built for J jobs holds B cells per thread (a
 * flush runs up to B x J cells) and J pool threads claim work one
 * group at a time — one cell in cell-major mode, one W-cell wave
 * group in wavefront mode — each with its own uncore slot,
 * load-completion arena and wave scratch. Every result lands in
 * its cell's own output slot, so the bytes do not depend on which
 * thread ran which cell or in what order (docs/PARALLELISM.md).
 *
 * Wavefront mode (--batch-wave / WSEL_BATCH_WAVE) exploits that
 * same share-nothing structure the other way: W cells advance in
 * lockstep, one quantum at a time, with W uncores resident
 * simultaneously. Each cell's lane stepping *parks* at its next
 * LLC access (mem/uncore.hh accessBegin) and the wave driver
 * resolves all parked cells' tag scans in one gathered SIMD sweep
 * (cache/tagscan.hh findMany) before resuming them — the probes
 * touch W disjoint tag arrays, so gathering is free of conflicts
 * by construction, and the per-cell operation order is untouched,
 * so shard artifacts stay byte-for-byte identical at every
 * (wave, batch, jobs) combination, including kill/resume at a
 * different wave size (tests/test_batch.cc). W is clamped so one
 * group's resident uncores fit WSEL_WAVE_MEM (MiB), and the number
 * of concurrent wave groups so all threads' resident uncores do;
 * NUMA placement of the slabs follows mem/numa.hh (WSEL_NUMA).
 *
 * Determinism contract (docs/PARALLELISM.md): every cell is an
 * independent computation — its own seed (campaignCellSeed keyed by
 * absolute rank), its own uncore, its own lanes — so interleaving
 * cells at quantum granularity cannot change any cell's result. The
 * per-lane stepping below replicates BadcoMachine::step() and the
 * BadcoMulticoreSim rotating-quantum schedule operation for
 * operation, so a batched shard is bitwise identical to the serial
 * engine at every (batch, jobs) combination (tests/test_batch.cc).
 *
 * Batch construction order: callers append cells in row-major
 * (rank, policy) order, which already maximizes shared-benchmark
 * overlap — the np cells of one workload row reference identical
 * benchmark models and are adjacent in the batch, so their model
 * node arrays stay hot across lanes.
 *
 * Knobs: --batch-cells / WSEL_BATCH_CELLS picks B per thread
 * (default 32; 1 at one thread runs one cell per run());
 * --batch-wave / WSEL_BATCH_WAVE picks W (default 1 = cell-major);
 * WSEL_WAVE_MEM caps the resident-uncore budget in MiB; the
 * caller's jobs (--jobs / WSEL_JOBS) picks J.
 * Instruments: batch.cells, batch.lanes_active, batch.wave,
 * batch.uncores_resident, batch.probes_gathered,
 * batch.chunk_pins_saved (trace/trace_store.hh BatchPin),
 * batch.simd_path (the resolved tagscan path).
 */

#ifndef WSEL_SIM_BATCH_HH
#define WSEL_SIM_BATCH_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "badco/badco_model.hh"
#include "cache/tagscan.hh"
#include "mem/uncore.hh"
#include "mem/uncore_config.hh"

namespace wsel
{

namespace exec
{
class ThreadPool;
}

/** Default cells per batch when WSEL_BATCH_CELLS is unset. */
inline constexpr std::uint32_t kDefaultBatchCells = 32;

/** Upper clamp on cells per batch (bounds lane-slab memory). */
inline constexpr std::uint32_t kMaxBatchCells = 4096;

/** Default wave width when WSEL_BATCH_WAVE is unset: cell-major. */
inline constexpr std::uint32_t kDefaultBatchWave = 1;

/** Resident-uncore budget (MiB) when WSEL_WAVE_MEM is unset. */
inline constexpr std::uint64_t kDefaultWaveMemMib = 256;

/**
 * Resolve the batch size: @p requested when nonzero, else
 * WSEL_BATCH_CELLS, else kDefaultBatchCells; clamped to
 * [1, kMaxBatchCells]. 1 means "serial" (each cell is its own
 * batch); the result is still bitwise identical at any value.
 */
std::uint32_t resolveBatchCells(std::uint32_t requested);

/**
 * Resolve the wave width: @p requested when nonzero, else
 * WSEL_BATCH_WAVE, else kDefaultBatchWave; clamped to
 * [1, kMaxBatchCells]. 1 means cell-major (today's path); the
 * engine additionally clamps so the wave's resident uncores fit
 * the WSEL_WAVE_MEM budget. Bitwise identical at any value.
 */
std::uint32_t resolveBatchWave(std::uint32_t requested);

/**
 * Approximate host bytes one resident Uncore pins while its cell
 * is in flight (LLC tag/dirty/replacement state, page table,
 * translation cache, prefetchers). Used only for the WSEL_WAVE_MEM
 * wave clamp — an estimate, never load-bearing for results.
 */
std::size_t estimateUncoreFootprint(const UncoreConfig &cfg,
                                    std::uint32_t cores);

/**
 * Executes batches of BADCO cells against SoA lane state. One
 * runner is built per shard (or per adaptive row-group) and reused
 * across its batches; add() cells until full() (or done), then
 * run() — results are written straight into each cell's caller
 * buffer. add() on a full runner flushes automatically.
 */
class BadcoBatchRunner
{
  public:
    /**
     * @param ucfgs One UncoreConfig per campaign policy; cells
     *        reference them by index. Caller-owned, must outlive
     *        the runner.
     * @param cores Cores K per cell.
     * @param target_uops Per-thread slice length.
     * @param models One BADCO model per suite benchmark
     *        (caller-owned).
     * @param batch_cells Cells per thread per flush (use
     *        resolveBatchCells).
     * @param wave Wave width W (use resolveBatchWave); 1 =
     *        cell-major. Clamped to the batch size and the
     *        WSEL_WAVE_MEM resident-uncore budget.
     * @param jobs Threads run() spreads cells over; 0 =
     *        $WSEL_JOBS, else hardware threads
     *        (exec::resolveJobs). In wave mode the thread count
     *        is further capped so every thread's W resident
     *        uncores together fit WSEL_WAVE_MEM.
     * @param cells_done When set, run() adds one per finished cell
     *        (relaxed), so another thread can watch a flush make
     *        progress — the distributed worker's heartbeat gate.
     *        Caller-owned, must outlive the runner.
     *
     * Cells run BadcoMulticoreSim's default machine (per-model
     * calibrated window, kMaxOutstanding loads, kQuantum-cycle
     * quantum) — the identity contract requires both engines to
     * agree on it.
     */
    BadcoBatchRunner(std::span<const UncoreConfig> ucfgs,
                     std::uint32_t cores, std::uint64_t target_uops,
                     const std::vector<const BadcoModel *> &models,
                     std::uint32_t batch_cells,
                     std::uint32_t wave = 1, std::size_t jobs = 0,
                     std::atomic<std::uint64_t> *cells_done =
                         nullptr);

    ~BadcoBatchRunner();

    /**
     * Append one cell. @p benches is copied (callers typically pass
     * a WorkloadCursor span that the next row invalidates);
     * @p out_ipc must point at K doubles that stay valid until the
     * batch containing this cell has run. Flushes first when full.
     *
     * Only the paper's restart protocol (§IV-A, finished threads
     * keep running) is supported — the same protocol every campaign
     * path uses.
     */
    void add(std::uint64_t seed, std::uint32_t policy,
             std::span<const std::uint32_t> benches,
             double *out_ipc);

    /** Cells appended and not yet run. */
    std::size_t pending() const { return cells_; }

    /** True when the next add() would flush. */
    bool full() const { return cells_ >= capacity_; }

    /** Cells one flush holds: B per thread, B x threads(). */
    std::uint32_t capacity() const { return capacity_; }

    /** Resolved wave width W after batch and budget clamps. */
    std::uint32_t wave() const { return wave_; }

    /** Threads run() spreads cells over, after the budget cap. */
    std::uint32_t threads() const { return threads_; }

    /** Run all pending cells to completion and clear the batch. */
    void run();

  private:
    /** Outstanding-load cap per lane (BadcoMulticoreSim default). */
    static constexpr std::uint32_t kMaxOutstanding = 16;
    /** Simulation quantum in cycles (BadcoMulticoreSim default). */
    static constexpr std::uint64_t kQuantum = 50;
    /**
     * Each cell's lanes start on a multiple of this many lane slots
     * (128 B of u64 state), so two cells never share a cache line
     * or an adjacent-line prefetch pair. Cells running on different
     * threads write their lane state back every quantum; packed
     * lanes made neighbouring cells false-share those lines
     * (BM_BatchJobs/32/4 ran ~1.3x slower packed).
     */
    static constexpr std::uint32_t kLaneAlign = 16;

    /** Where a parked wave lane re-enters runLaneWave(). Only
     *  loads park — stores/prefetches/writebacks discard their
     *  completion, so they run inline. */
    enum : std::uint8_t
    {
        kPhaseTop = 0,  ///< not parked: next node from the top
        kPhaseLoad = 1, ///< parked at a Load access
    };

    /**
     * What one pool thread owns while it runs cells: nothing in it
     * is shared with another thread, which is what keeps the
     * share-nothing contract intact under run()'s thread spread.
     * Wave vectors are indexed by wave slot [0, group size).
     */
    struct alignas(64) Worker
    {
        /** The running cell's uncore (cell-major). */
        std::optional<Uncore> uncore;
        /** Load completions of the running cell (cell-major) or,
         *  in wave mode, one loadStride-sized region per slot. */
        std::vector<std::uint64_t> loadComp;
        std::size_t loadStride = 0;

        /** Resident uncores of the in-flight wave group. */
        std::vector<std::optional<Uncore>> waveUnc;
        /** Per-cell quantum deadline t of the rotating schedule. */
        std::vector<std::uint64_t> waveT;
        /** Per-cell rotation origin (BadcoMulticoreSim's `first`). */
        std::vector<std::uint32_t> waveFirst;
        /** Lanes already visited in the current quantum rotation. */
        std::vector<std::uint32_t> waveRot;
        std::vector<std::uint8_t> waveDone;
        std::vector<std::uint8_t> waveStepping;
        /** Park phase per cell (kPhaseTop = not parked). */
        std::vector<std::uint8_t> wavePhase;
        /** The parked access, valid while wavePhase != kPhaseTop. */
        std::vector<Uncore::PendingAccess> wavePend;
        /** Way index handed back to the parked cell by the sweep. */
        std::vector<std::uint32_t> waveResume;
        /** Gather buffers of one sweep: cells, probes, way results. */
        std::vector<std::uint32_t> wavePendCell;
        std::vector<tagscan::Probe> waveProbe;
        std::vector<std::uint32_t> waveWay;
    };

    /** Cell-major: run batch cell @p b to completion on @p w. */
    void runCell(Worker &w, std::size_t b);

    /** Wavefront: run cells [g0, g0 + gn) in lockstep on @p w. */
    void runWave(Worker &w, std::size_t g0, std::size_t gn);

    void runLane(std::size_t lane, Uncore &unc, std::uint32_t core,
                 std::uint64_t until, std::uint64_t *lcomp_base);

    /**
     * runLane() with park/resume at LLC accesses: runs lane until
     * it either reaches @p until (returns false) or issues an
     * accessBegin() whose tag scan the wave driver should gather
     * (parks the lane state in @p w's wave slot and returns true).
     * On re-entry with w.wavePhase[slot] != kPhaseTop the access is
     * finished with w.waveResume[slot] first.
     */
    bool runLaneWave(Worker &w, std::size_t slot, std::size_t lane,
                     Uncore &unc, std::uint32_t core,
                     std::uint64_t until);

    std::span<const UncoreConfig> ucfgs_;
    const std::uint32_t cores_;
    /** Lane slots per cell: cores_ rounded up to kLaneAlign. */
    const std::uint32_t laneStride_;
    const std::uint64_t targetUops_;
    const std::vector<const BadcoModel *> &models_;
    const std::uint32_t batchCells_;
    std::uint32_t wave_ = 1;
    std::uint32_t threads_ = 1;
    std::uint32_t capacity_ = 1;

    std::size_t cells_ = 0;

    /** Finished-cell counter run() bumps (nullptr = none). */
    std::atomic<std::uint64_t> *const cellsDone_;

    /** Pool threads, created by the first run() that uses two. */
    std::unique_ptr<exec::ThreadPool> pool_;
    /** One per thread: workers_[t] belongs to run()'s task t. */
    std::vector<Worker> workers_;

    /** @name Per-cell state, indexed by batch slot [0, cells_). */
    /** @{ */
    std::vector<std::uint64_t> cellSeed_;
    std::vector<std::uint32_t> cellPolicy_;
    std::vector<double *> cellOut_;
    /** Load-completion entries the cell needs (sum of its lanes'). */
    std::vector<std::size_t> cellLoads_;
    /** @} */

    /** @name Per-lane SoA state, lane = cell * laneStride_ + core. */
    /** @{ */
    std::vector<std::uint64_t> clock_;
    std::vector<std::uint64_t> totalUops_;
    std::vector<std::size_t> nodeIdx_;
    std::vector<std::uint64_t> loadSeq_;
    std::vector<std::uint64_t> outMin_;
    std::vector<std::uint32_t> outCnt_;
    std::vector<std::uint64_t> cyclesToTarget_;
    std::vector<std::uint32_t> laneWindow_;
    std::vector<const BadcoModel *> laneModel_;
    /** Offset of each lane inside its cell's load-completion
     *  region (the region itself belongs to the running thread). */
    std::vector<std::size_t> loadOff_;
    /** @} */

    /** @name Slabs (capacity fixed at construction). */
    /** @{ */
    /** Outstanding loads: lane * kMaxOutstanding + j. */
    std::vector<std::uint64_t> outComp_;
    std::vector<std::uint64_t> outMark_;
    /** @} */
};

} // namespace wsel

#endif // WSEL_SIM_BATCH_HH
