/**
 * @file
 * Population-scale BADCO campaign runner (paper §VI): simulate a
 * (sub)population of workloads — 12650 at 4 cores, 4.3M at
 * 8 cores — under every policy while
 *
 *  - streaming workloads by rank (WorkloadCursor; no O(N)
 *    Workload materialization),
 *  - writing IPC cells to the sharded binary campaign_v3 format
 *    (src/stats/persist_v3.hh) with per-shard checksums and atomic
 *    replace, so a killed run resumes at shard granularity and a
 *    truncated shard is quarantined and regenerated,
 *  - computing the paper's difference statistics d(w) in one
 *    streaming pass per shard: Welford mean/variance/cv, a
 *    fixed-bin histogram, and a deterministic quantile sketch that
 *    feeds workload-stratum construction (core/sampling) without
 *    ever holding a population-sized vector.
 *
 * Per-cell seeds come from campaignCellSeed(fingerprint, seed,
 * policy, absolute rank), identical to an explicit-list campaign
 * over the same ranks, and shard files carry no timing, so serial
 * and --jobs N runs produce bitwise-identical artifacts and the
 * per-shard statistics merge deterministically in shard order
 * (docs/PARALLELISM.md contract extended to shards).
 */

#ifndef WSEL_SIM_POPULATION_HH
#define WSEL_SIM_POPULATION_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "cache/replacement.hh"
#include "core/metrics/throughput.hh"
#include "core/workload/workload.hh"
#include "mem/uncore_config.hh"
#include "sim/model_store.hh"
#include "stats/histogram.hh"
#include "stats/persist_v3.hh"
#include "stats/summary.hh"

namespace wsel
{

/**
 * One policy pair to accumulate d(w) statistics for during the
 * campaign: d = difference(metric, t_x, t_y), oriented so positive
 * values support "y outperforms x" (§III: Y is the hypothesized
 * winner).
 */
struct PopulationPairSpec
{
    std::size_t x = 0; ///< policy index of X (hypothesized loser)
    std::size_t y = 0; ///< policy index of Y (hypothesized winner)
    ThroughputMetric metric = ThroughputMetric::IPCT;
    std::string label;
};

/** Streamed statistics for one pair, merged over all shards. */
struct PopulationPairSummary
{
    PopulationPairSpec spec;
    RunningStats d;    ///< one-pass Welford over d(w)
    Histogram hist;    ///< fixed-bin d(w) distribution
    QuantileSketch sketch; ///< uniform d(w) sample for strata

    PopulationPairSummary(const PopulationPairSpec &s, double lo,
                          double hi, std::size_t bins,
                          std::size_t sketch_capacity)
        : spec(s), hist(lo, hi, bins), sketch(sketch_capacity)
    {
    }

    double cv() const { return d.coefficientOfVariation(); }

    double
    inverseCv() const
    {
        const double c = cv();
        return c == 0.0 ? 0.0 : 1.0 / c;
    }
};

struct PopulationOptions
{
    std::uint64_t seed = 1;

    /**
     * Threads the batch runner spreads each shard's cells over
     * (sim/batch.hh); 0 = $WSEL_JOBS else hardware. Shards
     * themselves run one at a time, in rank order.
     */
    std::size_t jobs = 1;

    /**
     * Target cells (workloads x policies) per shard; the row count
     * is shardCells / policies, floored, min 1.  64Ki cells x 8
     * bytes = 512 KiB shard payloads.
     */
    std::size_t shardCells = 64 * 1024;

    /** Rank range [firstRank, lastRank); lastRank 0 = pop.size(). */
    std::uint64_t firstRank = 0;
    std::uint64_t lastRank = 0;

    /**
     * Reuse intact shards already in the output directory
     * (checkpoint/resume); false starts from scratch.  Invalid
     * shards are quarantined to `*.corrupt` and regenerated either
     * way.
     */
    bool resume = true;

    bool verbose = false;

    /** d(w) histogram shape (d is a throughput difference). */
    double histLo = -0.5;
    double histHi = 0.5;
    std::size_t histBins = 64;

    /** Quantile-sketch capacity (kept d(w) samples per pair). */
    std::size_t sketchCapacity = 4096;

    /**
     * Cells per batch for the batched BADCO engine (sim/batch.hh):
     * 0 resolves WSEL_BATCH_CELLS (default 32), 1 runs cells
     * serially. Results are bitwise identical at every value.
     */
    std::uint32_t batchCells = 0;
};

/** Result of a population campaign run. */
struct PopulationResult
{
    std::string dir; ///< the campaign_v3 artifact directory
    persist::V3Manifest manifest;
    std::vector<PopulationPairSummary> pairs;

    std::uint64_t cellsSimulated = 0;
    std::uint64_t cellsResumed = 0;
    std::uint64_t shardsWritten = 0;
    std::uint64_t shardsResumed = 0;

    /** Wall seconds of this run (excludes resumed shards' work). */
    double wallSeconds = 0.0;

    double
    cellsPerSec() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(cellsSimulated) /
                         wallSeconds
                   : 0.0;
    }
};

/**
 * Simulate one campaign_v3 shard's cells into @p payload (resized
 * to rowsInShard(shard) x policies x cores, row-major: workload,
 * policy, core).  This is the unit of work shared by the
 * in-process population runner and the `wsel_worker` processes of
 * the distributed campaign service (src/serve/): per-cell seeds
 * come from campaignCellSeed(m.fingerprint, base_seed, policy,
 * absolute rank), so any process producing a given shard produces
 * bitwise-identical bytes.
 *
 * @p ucfgs must hold one UncoreConfig per manifest policy (in
 * order) and @p models one BADCO model per suite benchmark.
 * @p cells_done, when set, gains one (relaxed) per finished cell —
 * the distributed worker's heartbeat thread watches it to tell a
 * shard that is making progress from a wedged one.  The
 * "population.cell" fault point fires once per simulated cell
 * (tests/fault_injection.hh; the worker binary can arm it to
 * SIGKILL itself mid-shard).
 */
void simulatePopulationShard(
    const persist::V3Manifest &m, const WorkloadPopulation &pop,
    const std::vector<UncoreConfig> &ucfgs,
    const std::vector<const BadcoModel *> &models,
    std::uint64_t base_seed, std::uint64_t shard,
    std::vector<double> &payload,
    std::atomic<std::uint64_t> *cells_done = nullptr);

/**
 * Batched variant of simulatePopulationShard: identical contract
 * and bitwise-identical payload, but cells run through the
 * BadcoBatchRunner (sim/batch.hh) in groups of @p batch_cells per
 * thread (resolved via resolveBatchCells; 1 at one job behaves
 * like the serial engine), spread over @p jobs threads (0 =
 * $WSEL_JOBS else hardware; the in-process runner and the
 * distributed worker both pass their --jobs). @p cells_done
 * gains one per cell as each finishes inside a flush. The
 * "population.cell" fault point still fires once per cell, at
 * batch-append time on the calling thread — a fault or SIGKILL
 * mid-batch abandons the whole (unwritten) shard exactly as the
 * serial engine's mid-shard fault does, so resume semantics are
 * unchanged at any batch size or job count.
 */
void simulatePopulationShardBatched(
    const persist::V3Manifest &m, const WorkloadPopulation &pop,
    const std::vector<UncoreConfig> &ucfgs,
    const std::vector<const BadcoModel *> &models,
    std::uint64_t base_seed, std::uint64_t shard,
    std::uint32_t batch_cells, std::size_t jobs,
    std::vector<double> &payload,
    std::atomic<std::uint64_t> *cells_done = nullptr);

/**
 * Detailed-fidelity twin of simulatePopulationShard: the same
 * shard geometry, row layout and campaignCellSeed contract, but
 * every cell runs on the cycle-level DetailedMulticoreSim (so the
 * manifest's fingerprint must be a "detailed" one).  The unit of
 * work behind escalated shards in mixed-fidelity campaigns
 * (docs/FIDELITY.md); its kill point is "fidelity.escalate", fired
 * once per cell.  Cells run serially on the calling thread;
 * @p cells_done gains one after each.
 */
void simulateDetailedPopulationShard(
    const persist::V3Manifest &m, const WorkloadPopulation &pop,
    const CoreConfig &core_cfg,
    const std::vector<UncoreConfig> &ucfgs,
    const std::vector<BenchmarkProfile> &suite,
    std::uint64_t base_seed, std::uint64_t shard,
    std::vector<double> &payload,
    std::atomic<std::uint64_t> *cells_done = nullptr);

/**
 * Run (or resume) a BADCO population campaign over ranks
 * [opts.firstRank, opts.lastRank) of @p pop, writing a campaign_v3
 * artifact to @p out_dir (created if missing) and returning the
 * streamed per-pair statistics.  Shards run one at a time, each
 * spread over opts.jobs threads, so memory is O(one shard),
 * independent of the population size.
 */
PopulationResult runBadcoPopulationCampaign(
    const WorkloadPopulation &pop,
    const std::vector<PolicyKind> &policies,
    std::uint64_t target_uops, BadcoModelStore &store,
    const std::vector<BenchmarkProfile> &suite,
    const std::vector<PopulationPairSpec> &pairs,
    const std::string &out_dir, const PopulationOptions &opts = {});

} // namespace wsel

#endif // WSEL_SIM_POPULATION_HH
