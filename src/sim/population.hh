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
 * The shard loop here (runShardLoop) is the one campaign engine:
 * explicit-list campaigns (sim/campaign.hh) run through it too,
 * with shard rows that are positions in their WorkloadSet.
 * Per-cell seeds come from campaignCellSeed(fingerprint, seed,
 * policy, row): the absolute rank for population ranges, the
 * position in the set for explicit lists.  Shard files carry no
 * timing, so serial and --jobs N runs produce bitwise-identical
 * artifacts and the per-shard statistics merge deterministically
 * in shard order (docs/PARALLELISM.md contract extended to
 * shards).
 */

#ifndef WSEL_SIM_POPULATION_HH
#define WSEL_SIM_POPULATION_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
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

    /** Kept only for perfbench; delete with the benchmark item.
     *  Ignored: the BADCO cell engine's flush size is fixed. */
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
 * policy, core).  This is the unit of work shared by every campaign
 * runner and by the `wsel_worker` processes of the distributed
 * campaign service (src/serve/).
 *
 * Manifest row r is element r of @p set: a population campaign
 * passes WorkloadSet::fullPopulation(pop), so rows are absolute
 * ranks; an explicit-list campaign passes its own set with
 * firstRank 0, so rows are positions in it.  Per-cell seeds come
 * from campaignCellSeed(m.fingerprint, base_seed, policy, row), so
 * any process producing a given shard produces bitwise-identical
 * bytes.
 *
 * @p ucfgs must hold one UncoreConfig per manifest policy (in
 * order) and @p models one BADCO model per suite benchmark.
 * @p cells_done, when set, gains one (relaxed) per finished cell —
 * the distributed worker's heartbeat thread watches it to tell a
 * shard that is making progress from a wedged one.  The
 * "population.cell" fault point fires once per simulated cell
 * (tests/fault_injection.hh; the worker binary can arm it to
 * SIGKILL itself mid-shard).
 *
 * This serial engine builds one BadcoMulticoreSim per cell; it is
 * the reference the batched engine is tested against.
 */
void simulatePopulationShard(
    const persist::V3Manifest &m, const WorkloadSet &set,
    const std::vector<UncoreConfig> &ucfgs,
    const std::vector<const BadcoModel *> &models,
    std::uint64_t base_seed, std::uint64_t shard,
    std::vector<double> &payload,
    std::atomic<std::uint64_t> *cells_done = nullptr);

/**
 * Batched variant of simulatePopulationShard: identical contract
 * and bitwise-identical payload, but cells run through the
 * BadcoBatchRunner (sim/batch.hh), spread over @p jobs threads (0 =
 * $WSEL_JOBS else hardware). @p cells_done gains one per cell as
 * each finishes inside a flush. The "population.cell" fault point
 * still fires once per cell, at append time on the calling thread
 * — a fault or SIGKILL mid-flush abandons the whole (unwritten)
 * shard exactly as the serial engine's mid-shard fault does, so
 * resume semantics are unchanged at any job count.
 */
void simulatePopulationShardBatched(
    const persist::V3Manifest &m, const WorkloadSet &set,
    const std::vector<UncoreConfig> &ucfgs,
    const std::vector<const BadcoModel *> &models,
    std::uint64_t base_seed, std::uint64_t shard, std::size_t jobs,
    std::vector<double> &payload,
    std::atomic<std::uint64_t> *cells_done = nullptr);

/**
 * Detailed-fidelity twin of simulatePopulationShard: the same
 * shard geometry, row layout and campaignCellSeed contract, but
 * every cell runs on the cycle-level DetailedMulticoreSim (so the
 * manifest's fingerprint must be a "detailed" one).  The unit of
 * work behind detailed campaigns and escalated shards in
 * mixed-fidelity campaigns (docs/FIDELITY.md); its kill point is
 * "fidelity.escalate", fired once per cell.  Rows are spread over
 * @p jobs threads (0 = $WSEL_JOBS else hardware; 1 runs them on the
 * calling thread); each row pins its trace chunks while its cells
 * run.  @p cells_done gains one after each cell.
 */
void simulateDetailedPopulationShard(
    const persist::V3Manifest &m, const WorkloadSet &set,
    const CoreConfig &core_cfg,
    const std::vector<UncoreConfig> &ucfgs,
    const std::vector<BenchmarkProfile> &suite,
    std::uint64_t base_seed, std::uint64_t shard, std::size_t jobs,
    std::vector<double> &payload,
    std::atomic<std::uint64_t> *cells_done = nullptr);

/**
 * Build every suite benchmark's trace chunks for @p uops up front,
 * one benchmark per task on @p jobs threads, so the detailed cells
 * that follow stream from the shared store instead of each
 * generating the µop stream (docs/PERFORMANCE.md).  Chunk content
 * is a pure function of the profile, so the build order is free.
 */
void prebuildSuiteTraces(const std::vector<BenchmarkProfile> &suite,
                         std::uint64_t uops, std::size_t jobs);

/** What one pass of runShardLoop did. */
struct ShardLoopStats
{
    std::uint64_t cellsSimulated = 0;
    std::uint64_t cellsResumed = 0;
    std::uint64_t shardsWritten = 0;
    std::uint64_t shardsResumed = 0;
    /** Wall seconds spent simulating and writing shards. */
    double simSeconds = 0.0;
};

/**
 * The shard loop behind every campaign runner: population
 * campaigns and explicit-list campaigns alike.  Shards of @p m run
 * one after another, in order, so at most one payload is live.  For
 * each shard, an intact file in @p dir is reused when @p resume is
 * set, and a damaged or foreign one (readV3Shard validates the
 * fingerprint and geometry) is quarantined to `*.corrupt`.  Missing
 * shards are filled by @p simulate and written with writeV3Shard.
 * @p consume then sees every shard's payload, resumed or
 * simulated, in shard order.  An empty @p dir writes nothing and
 * resumes nothing.  @p verbose logs one "[label] shard i/n" line
 * per simulated shard.
 */
ShardLoopStats runShardLoop(
    const persist::V3Manifest &m, const std::string &dir,
    bool resume,
    const std::function<void(std::uint64_t, std::vector<double> &)>
        &simulate,
    const std::function<void(std::uint64_t, std::span<const double>)>
        &consume,
    bool verbose, const std::string &label);

/**
 * The manifest of a campaign over ranks [first_rank, last_rank) of
 * the population of @p suite at @p cores (last_rank 0: to the end),
 * before it runs: fingerprint, policies, benchmarks, geometry and
 * instruction count.  refIpc and simSeconds are the caller's.
 * WSEL_FATAL on an empty or out-of-range rank range.
 */
persist::V3Manifest populationManifest(
    const std::string &simulator, std::uint32_t cores,
    std::uint64_t target_uops, const std::vector<PolicyKind> &policies,
    const std::vector<BenchmarkProfile> &suite,
    std::uint64_t first_rank, std::uint64_t last_rank,
    std::uint64_t shard_rows);

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
