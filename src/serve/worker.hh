/**
 * @file
 * The wsel_worker process body: connect to the coordinator's Unix
 * socket, lease shards, simulate them via simulatePopulationShard,
 * commit them to the content-addressed result store, repeat until
 * told to shut down.
 *
 * The worker is crash-fodder by design: the coordinator assumes
 * any worker can vanish (SIGKILL, OOM, disk-full abort) at any
 * instruction, and the shard commit protocol (store.hh) makes that
 * safe.  For the fault-injection tests the binary arms the persist
 * fault hook from environment variables so a *deterministic* cell
 * or commit boundary raises SIGKILL on the worker itself:
 *
 *     WSEL_KILL_POINT="population.cell:37"    die at the 37th cell
 *     WSEL_KILL_POINT="serve.shard-start:1"   die picking up work
 *     WSEL_KILL_POINT="serve.shard-committed:1"  die just after
 *         the shard file is durable but before Done is sent (the
 *         zombie-completion window)
 *     WSEL_KILL_SHARD=3   only count hits while holding shard 3
 *
 * A BADCO shard runs through the same threads-inside-a-shard path
 * as the in-process population engine: WorkerOptions::jobs threads
 * share each flush of the batch runner (sim/batch.hh).  A flush of
 * B x J cells sends nothing on its own, so heartbeats come from a
 * timer thread that lives for the lease's simulation: every ttl/4
 * it sends one, but only when the shard's finished-cell count has
 * grown since the last beat.  A long flush that makes progress
 * keeps its lease; a wedged or livelocked simulation stops
 * renewing it and the coordinator reclaims the shard.  The timer
 * thread is joined before the shard is committed and before Done
 * or Failed is sent, so the socket only ever has one writer.
 */

#ifndef WSEL_SERVE_WORKER_HH
#define WSEL_SERVE_WORKER_HH

#include <cstdint>
#include <string>

namespace wsel::serve
{

struct WorkerOptions
{
    std::string socketPath;

    /** Model cache directory ("" = in-memory only). */
    std::string cacheDir;

    /**
     * Threads for model building and for the batch runner that
     * simulates each BADCO shard; 0 = $WSEL_JOBS, else hardware
     * threads.  Detailed-fidelity shards run serially.  Never
     * changes shard bytes.
     */
    std::size_t jobs = 0;
};

/**
 * Run the lease loop until the coordinator says Shutdown (returns
 * 0), the coordinator disappears (returns 1), or a spec/config
 * error makes this worker useless (FatalError propagates).
 */
int runWorker(const WorkerOptions &opts);

/**
 * Install a persist fault hook from WSEL_KILL_POINT /
 * WSEL_KILL_SHARD (see file comment); no-op when unset.  Called by
 * the wsel_worker binary before runWorker.
 */
void armKillPointsFromEnv();

} // namespace wsel::serve

#endif // WSEL_SERVE_WORKER_HH
