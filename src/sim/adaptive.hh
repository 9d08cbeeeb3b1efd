/**
 * @file
 * Sequential (adaptive) campaign runner: simulate the X-vs-Y
 * comparison in deterministic batches and stop when the streamed
 * eq. 5 confidence crosses a target or a budget runs out, instead
 * of fixing the cell count up front (docs/SAMPLING.md).
 *
 * Determinism contract (the population-campaign contract extended
 * to open-ended runs): the batch *schedule* maps draw position to
 * population rank through adaptiveScheduleRank(fingerprint, seed,
 * position), per-cell seeds come from campaignCellSeed(fingerprint,
 * seed, policy, absolute rank), batch statistics merge in position
 * order, and batch files carry no timing — so a `--jobs N` run, a
 * serial run, and a SIGKILLed-and-resumed run all produce
 * bitwise-identical batch files and the identical stopping decision
 * (tests/test_adaptive.cc).  The only non-replayable stop is the
 * optional wall-clock budget, which is recorded as such in the
 * artifact.
 *
 * The ranked-set method spends a cheap pre-pass first: one
 * homogeneous BADCO run per (benchmark, policy) — 2B cells instead
 * of the population cross-product — feeds an ApproxRanker that
 * orders each draw position's candidate set; detailed batch budget
 * then goes to rank-selected workloads (core/adaptive/adaptive.hh).
 */

#ifndef WSEL_SIM_ADAPTIVE_HH
#define WSEL_SIM_ADAPTIVE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cache/replacement.hh"
#include "core/adaptive/adaptive.hh"
#include "core/adaptive/controller.hh"
#include "core/workload/workload.hh"
#include "mem/uncore_config.hh"
#include "sim/model_store.hh"
#include "stats/persist_adaptive.hh"
#include "stats/summary.hh"
#include "trace/benchmark_profile.hh"

namespace wsel
{

/** How the sequential runner picks the next workload to simulate. */
enum class AdaptiveMethod : std::uint8_t
{
    Random,    ///< uniform draw positions (paper §VI-A baseline)
    RankedSet, ///< cheap-model ranked sets (Ekman-style)
};

const char *toString(AdaptiveMethod m);
AdaptiveMethod parseAdaptiveMethod(const std::string &name);

struct AdaptiveOptions
{
    std::uint64_t seed = 1;

    /** Worker threads within a batch; 0 = $WSEL_JOBS else hardware. */
    std::size_t jobs = 1;

    /** Workloads simulated per batch (2 cells each). */
    std::uint64_t batchWorkloads = 64;

    /** The stopping rule (target confidence, budgets). */
    SequentialConfig stop;

    /**
     * Wall-clock budget in seconds; 0 = unlimited.  A wall-clock
     * stop is recorded in the artifact but is the one stop a
     * resumed run cannot replay deterministically.
     */
    double wallClockBudget = 0.0;

    AdaptiveMethod method = AdaptiveMethod::Random;

    /** Ranked-set candidates per draw (method == RankedSet). */
    std::size_t setSize = 5;

    /**
     * Repeated-subsampling redraws for the post-stop cross-check;
     * 0 disables it.
     */
    std::size_t subsampleRedraws = 256;

    /** Resume from existing batch files instead of starting over. */
    bool resume = false;

    bool verbose = false;
};

struct AdaptiveResult
{
    std::string dir;

    /** The stopping verdict (also persisted in adaptive.bin). */
    SequentialDecision verdict;

    /** The persisted record (method, trajectory, target). */
    persist::AdaptiveDecisionRecord decision;

    /** Streamed statistics of every observed d(w). */
    RunningStats d;

    /** Post-stop repeated-subsampling cross-check. */
    SubsampleEstimate subsample;

    std::uint64_t cellsSimulated = 0;
    std::uint64_t cellsResumed = 0;

    /** Cheap ranked-set pre-pass cells (2B, not budget cells). */
    std::uint64_t prepassCells = 0;
    std::uint64_t batchesRun = 0;
    std::uint64_t batchesResumed = 0;

    /** Workload cap the run was operating under. */
    std::uint64_t budgetWorkloads = 0;

    double wallSeconds = 0.0;

    /** Cells the stop saved against simulating the whole budget. */
    std::uint64_t cellsSaved() const
    {
        const std::uint64_t budget_cells = budgetWorkloads * 2;
        const std::uint64_t spent = cellsSimulated + cellsResumed;
        return budget_cells > spent ? budget_cells - spent : 0;
    }
};

/**
 * Run (or resume) a sequential BADCO campaign comparing @p x and
 * @p y under @p metric over the full population @p pop, writing
 * batch files and the stopping decision to @p out_dir.
 *
 * The campaign fingerprint is computed over the policy list
 * {x, y}, so cells agree bitwise with a fixed-size population
 * campaign over the same two policies at the same ranks.
 */
AdaptiveResult runAdaptiveCampaign(
    const WorkloadPopulation &pop, PolicyKind x, PolicyKind y,
    ThroughputMetric metric, std::uint64_t target_uops,
    BadcoModelStore &store,
    const std::vector<BenchmarkProfile> &suite,
    const std::string &out_dir, const AdaptiveOptions &opts);

/**
 * The ranked-set pre-pass by itself: per-benchmark IPC under each
 * of @p policies from homogeneous K-copy BADCO runs (row-major
 * policy x benchmark), the cheap table ApproxRanker composes.
 * Exposed for benches and tests.
 */
std::vector<std::vector<double>> approxPerBenchmarkIpcs(
    const WorkloadPopulation &pop,
    const std::vector<PolicyKind> &policies,
    std::uint64_t target_uops, BadcoModelStore &store,
    const std::vector<BenchmarkProfile> &suite, std::uint64_t seed,
    std::size_t jobs = 1);

} // namespace wsel

#endif // WSEL_SIM_ADAPTIVE_HH
