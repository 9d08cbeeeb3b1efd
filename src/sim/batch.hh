/**
 * @file
 * Batched BADCO cell execution: B campaign cells per thread per flush.
 *
 * The population/adaptive/hybrid runners used to simulate one
 * (workload, policy) cell at a time — each cell constructing a
 * BadcoMulticoreSim, an Uncore and K heap-allocated BadcoMachines,
 * stepping them to the target, then tearing everything down. This
 * engine keeps that machine state in flat reusable arrays over
 * B x K *lanes* (lane = one core of one cell, a BadcoLane): node
 * walks, outstanding-load slabs and IPC accumulators, with a quantum
 * loop that advances all K lanes of a cell together through the
 * rotating schedule. Each lane steps through runBadcoLane()
 * (badco/badco_machine.hh), the same node walk a BadcoMachine runs,
 * here against the cell's concrete Uncore so the calls are
 * devirtualized. Cells execute cell-major — each runs to completion
 * on one thread before that thread claims the next — which keeps
 * exactly one uncore's working set (tags, page table, prefetcher
 * state) hot in each thread's host cache while peak RSS stays flat
 * in B. What the batch amortizes is setup: each thread's uncore
 * slot and load-completion arena, and the runner's lane slabs, are
 * reused by every cell, the batch's cells share benchmark model
 * node arrays, and the detailed path pins each row's trace chunks
 * once per batch (trace/trace_store.hh BatchPin). Cells own private
 * Uncore instances (the paper's sharing is within a cell, never
 * across cells); the packed 32-bit LLC tag arrays they probe resolve
 * through the runtime-dispatched SSE2/AVX2 tag-scan paths
 * (cache/tagscan.hh, WSEL_SIMD).
 *
 * Threads: run() is the one place BADCO cells are spread across
 * threads. A runner built for J jobs holds B cells per thread (a
 * flush runs up to B x J cells) and J pool threads claim cells one
 * at a time, each with its own uncore slot and load-completion
 * arena. Every result lands in its cell's own output slot, so the
 * bytes do not depend on which thread ran which cell or in what
 * order (docs/PARALLELISM.md).
 *
 * Determinism contract (docs/PARALLELISM.md): every cell is an
 * independent computation — its own seed (campaignCellSeed keyed by
 * absolute rank), its own uncore, its own lanes — so the order cells
 * run in cannot change any cell's result. The lanes run
 * BadcoMulticoreSim's rotating-quantum schedule over the shared node
 * walk, so a batched shard is bitwise identical to the serial engine
 * at every (batch, jobs) combination (tests/test_batch.cc,
 * tests/test_detailed_golden.cc BadcoGolden).
 *
 * Batch construction order: callers append cells in row-major
 * (rank, policy) order, which already maximizes shared-benchmark
 * overlap — the np cells of one workload row reference identical
 * benchmark models and are adjacent in the batch, so their model
 * node arrays stay hot across lanes.
 *
 * Knobs: --batch-cells / WSEL_BATCH_CELLS picks B per thread
 * (default 32; 1 at one thread runs one cell per run()); the
 * caller's jobs (--jobs / WSEL_JOBS) picks J.
 * Instruments: batch.cells, batch.lanes_active,
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

#include "badco/badco_machine.hh"
#include "badco/badco_model.hh"
#include "mem/uncore.hh"
#include "mem/uncore_config.hh"
#include "stats/logging.hh"

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

/**
 * Resolve the batch size: @p requested when nonzero, else
 * WSEL_BATCH_CELLS, else kDefaultBatchCells; clamped to
 * [1, kMaxBatchCells]. 1 means "serial" (each cell is its own
 * batch); the result is still bitwise identical at any value.
 */
std::uint32_t resolveBatchCells(std::uint32_t requested);

/**
 * Kept only for perfbench/src/layers.cc, which passes
 * resolveBatchWave(0) as BadcoBatchRunner's sixth argument: always
 * 1, and reads no environment. Nothing else may call it; delete it
 * once layers.cc drops the argument.
 */
inline std::uint32_t
resolveBatchWave(std::uint32_t)
{
    return 1;
}

/**
 * Executes batches of BADCO cells against lane state. One runner is
 * built per shard (or per adaptive row-group) and reused across its
 * batches; add() cells until full() (or done), then run() — results
 * are written straight into each cell's caller buffer. add() on a
 * full runner flushes automatically.
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
     * @param jobs Threads run() spreads cells over; 0 =
     *        $WSEL_JOBS, else hardware threads
     *        (exec::resolveJobs).
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
                     std::uint32_t batch_cells, std::size_t jobs = 0,
                     std::atomic<std::uint64_t> *cells_done =
                         nullptr);

    /**
     * Kept only for perfbench/src/layers.cc, which passes
     * resolveBatchWave(0) as a sixth argument: @p wave must be 1
     * (anything else is fatal) and jobs resolve as for 0. Nothing
     * else may call it; delete it with resolveBatchWave.
     */
    BadcoBatchRunner(std::span<const UncoreConfig> ucfgs,
                     std::uint32_t cores, std::uint64_t target_uops,
                     const std::vector<const BadcoModel *> &models,
                     std::uint32_t batch_cells, std::uint32_t wave)
        : BadcoBatchRunner(ucfgs, cores, target_uops, models,
                           batch_cells, std::size_t{0})
    {
        if (wave != 1)
            WSEL_FATAL("batch wave " << wave
                       << " is not supported; only 1 is accepted");
    }

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

    /** Threads run() spreads cells over. */
    std::uint32_t threads() const { return threads_; }

    /** Run all pending cells to completion and clear the batch. */
    void run();

  private:
    /** Outstanding-load cap per lane (BadcoMulticoreSim default). */
    static constexpr std::uint32_t kMaxOutstanding = 16;
    /** Simulation quantum in cycles (BadcoMulticoreSim default). */
    static constexpr std::uint64_t kQuantum = 50;

    /**
     * What one pool thread owns while it runs cells: nothing in it
     * is shared with another thread, which is what keeps the
     * share-nothing contract intact under run()'s thread spread.
     */
    struct alignas(64) Worker
    {
        /** The running cell's uncore. */
        std::optional<Uncore> uncore;
        /** Load completions of the running cell's lanes. */
        std::vector<std::uint64_t> loadComp;
    };

    /** Run batch cell @p b to completion on @p w. */
    void runCell(Worker &w, std::size_t b);

    std::span<const UncoreConfig> ucfgs_;
    const std::uint32_t cores_;
    const std::uint64_t targetUops_;
    const std::vector<const BadcoModel *> &models_;
    const std::uint32_t batchCells_;
    const std::uint32_t threads_;
    const std::uint32_t capacity_;

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

    /** Lanes, lane = cell * cores_ + core. */
    std::vector<BadcoLane> lanes_;

    /** Outstanding loads: lane * kMaxOutstanding + j. */
    std::vector<std::uint64_t> outComp_;
    std::vector<std::uint64_t> outMark_;
};

} // namespace wsel

#endif // WSEL_SIM_BATCH_HH
