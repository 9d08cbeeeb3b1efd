/**
 * @file
 * The BADCO cell engine: campaign cells spread over a shard's
 * threads, flushed kCellsPerThread cells per thread at a time.
 *
 * A cell is one (workload, policy) simulation: K BadcoLanes (one per
 * core) stepped through BadcoMulticoreSim's rotating-quantum
 * schedule (runBadcoQuanta) against the cell's own concrete Uncore,
 * so the uncore calls are devirtualized. Each lane walks its model
 * through runBadcoLane() (badco/badco_machine.hh), the same node walk
 * a BadcoMachine runs. A queued cell is only its seed, policy, K
 * benchmark ids and output pointer; the machine state it runs on
 * (the uncore slot, the K lanes, their outstanding-load arrays and
 * the load-completion arena) belongs to the pool thread that runs
 * it and is reused by every cell that thread runs. Each cell runs
 * to completion on one thread before that thread claims the next,
 * which keeps exactly one uncore's working set (tags, page table,
 * prefetcher state) hot in each thread's host cache. Cells own
 * private Uncore instances (the paper's sharing is within a cell,
 * never across cells); the packed 32-bit LLC tag arrays they probe
 * resolve through the SSE2 tag scan, or the scalar loop off x86-64
 * (cache/tagscan.hh, WSEL_SIMD).
 *
 * Threads: run() is the one place BADCO cells are spread across
 * threads. A runner built for J jobs flushes up to
 * kCellsPerThread x J cells, and its J pool threads claim them one
 * at a time. Every result lands in its cell's own output slot, so
 * the bytes do not depend on which thread ran which cell or in what
 * order (docs/PARALLELISM.md).
 *
 * Determinism contract (docs/PARALLELISM.md): every cell is an
 * independent computation — its own seed (campaignCellSeed keyed by
 * absolute rank), its own uncore, its own lanes — so the order cells
 * run in cannot change any cell's result. The lanes run
 * BadcoMulticoreSim's rotating-quantum schedule over the shared node
 * walk, so a shard run here is bitwise identical to the serial
 * engine at every job count (tests/test_batch.cc,
 * tests/test_detailed_golden.cc BadcoGolden).
 *
 * Knobs: the caller's jobs (--jobs / WSEL_JOBS) picks J; the flush
 * size is fixed (docs/PERFORMANCE.md, "Batched execution", has the
 * sweep that retired its knob).
 * Instruments: batch.cells, batch.lanes_active,
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

/**
 * Executes queued BADCO cells. One runner is built per shard (or
 * per adaptive campaign) and reused across its flushes; add() cells
 * until full() (or done), then run() — results are written straight
 * into each cell's caller buffer. add() on a full runner flushes
 * automatically.
 */
class BadcoBatchRunner
{
  public:
    /** Cells one flush holds per thread. */
    static constexpr std::uint32_t kCellsPerThread = 32;

    /**
     * @param ucfgs One UncoreConfig per campaign policy; cells
     *        reference them by index. Caller-owned, must outlive
     *        the runner.
     * @param cores Cores K per cell.
     * @param target_uops Per-thread slice length.
     * @param models One BADCO model per suite benchmark
     *        (caller-owned).
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
                     std::size_t jobs = 0,
                     std::atomic<std::uint64_t> *cells_done =
                         nullptr);

    /**
     * Kept only for perfbench; delete with the benchmark item.
     * perfbench/src/layers.cc passes resolveBatchCells(0) and
     * resolveBatchWave(0): the batch argument is ignored, @p wave
     * must be 1 (anything else is fatal) and jobs resolve as for 0.
     */
    BadcoBatchRunner(std::span<const UncoreConfig> ucfgs,
                     std::uint32_t cores, std::uint64_t target_uops,
                     const std::vector<const BadcoModel *> &models,
                     std::uint32_t /*batch*/, std::uint32_t wave)
        : BadcoBatchRunner(ucfgs, cores, target_uops, models,
                           std::size_t{0})
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
     * flush containing this cell has run. Flushes first when full.
     * The cell's models are validated here, on the caller's thread.
     *
     * Only the paper's restart protocol (§IV-A, finished threads
     * keep running) is supported — the same protocol every campaign
     * path uses.
     */
    void add(std::uint64_t seed, std::uint32_t policy,
             std::span<const std::uint32_t> benches,
             double *out_ipc);

    /** Cells appended and not yet run. */
    std::size_t pending() const { return cells_.size(); }

    /** True when the next add() would flush. */
    bool full() const { return cells_.size() >= capacity_; }

    /** Cells one flush holds: kCellsPerThread x threads(). */
    std::uint32_t capacity() const { return capacity_; }

    /** Threads run() spreads cells over. */
    std::uint32_t threads() const { return threads_; }

    /** Run all pending cells to completion and clear the queue. */
    void run();

  private:
    /** Outstanding-load cap per lane (BadcoMulticoreSim default). */
    static constexpr std::uint32_t kMaxOutstanding = 16;
    /** Simulation quantum in cycles (BadcoMulticoreSim default). */
    static constexpr std::uint64_t kQuantum = 50;

    /** A queued cell; its K benchmark ids are in benches_. */
    struct Cell
    {
        std::uint64_t seed;
        std::uint32_t policy;
        double *out;
    };

    /**
     * What one pool thread owns while it runs cells: nothing in it
     * is shared with another thread, which is what keeps the
     * share-nothing contract intact under run()'s thread spread.
     */
    struct alignas(64) Worker
    {
        /** The running cell's uncore. */
        std::optional<Uncore> uncore;
        /** The running cell's lanes, one per core. */
        std::vector<BadcoLane> lanes;
        /** Outstanding loads: core * kMaxOutstanding + j. */
        std::vector<std::uint64_t> outComp;
        std::vector<std::uint64_t> outMark;
        /** Load completions of the running cell's lanes. */
        std::vector<std::uint64_t> loadComp;
    };

    /** Run queued cell @p c to completion on @p w. */
    void runCell(Worker &w, std::size_t c);

    std::span<const UncoreConfig> ucfgs_;
    const std::uint32_t cores_;
    const std::uint64_t targetUops_;
    const std::vector<const BadcoModel *> &models_;
    const std::uint32_t threads_;
    const std::uint32_t capacity_;

    /** Finished-cell counter run() bumps (nullptr = none). */
    std::atomic<std::uint64_t> *const cellsDone_;

    /** Pool threads, created by the first run() that uses two. */
    std::unique_ptr<exec::ThreadPool> pool_;
    /** One per thread: workers_[t] belongs to run()'s task t. */
    std::vector<Worker> workers_;

    /** Queued cells, and their benchmarks: cell * cores_ + core. */
    std::vector<Cell> cells_;
    std::vector<std::uint32_t> benches_;
};

/**
 * Kept only for perfbench; delete with the benchmark item.
 * perfbench/src/layers.cc passes it as BadcoBatchRunner's fifth
 * argument: it returns the flush size and reads no environment.
 */
inline std::uint32_t
resolveBatchCells(std::uint32_t)
{
    return BadcoBatchRunner::kCellsPerThread;
}

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

} // namespace wsel

#endif // WSEL_SIM_BATCH_HH
