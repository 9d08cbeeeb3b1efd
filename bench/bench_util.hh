/**
 * @file
 * Shared machinery for the paper-reproduction bench binaries: env
 * knobs, cached campaign acquisition, and report formatting.
 *
 * Environment knobs (all optional):
 *  - WSEL_CACHE_DIR: results/model cache directory (default
 *    ./.wsel_cache; set empty to disable persistence).
 *  - WSEL_INSNS: µops per thread slice (default 100000; the paper
 *    uses 100M on real hardware traces).
 *  - WSEL_POP_LIMIT: cap on the 4-core BADCO population campaign
 *    (0 = the full 12650 workloads, the default).
 *  - WSEL_POP8: 8-core BADCO sample size (default 1500; paper 10000).
 *  - WSEL_DETAILED_WORKLOADS: detailed-simulator sample size for
 *    4 cores (default 60; paper 250); WSEL_DETAILED_WORKLOADS8 for
 *    8 cores (default 24).
 *  - WSEL_DRAWS: resampling count for empirical confidence
 *    (default 2000; paper 1000-10000).
 *  - WSEL_JOBS: worker threads for campaign simulation and model
 *    building (default: all hardware threads).  The IPC numbers
 *    are bitwise identical for any job count
 *    (docs/PARALLELISM.md).
 *  - WSEL_METRICS / WSEL_TRACE / WSEL_TRACE_BUF: observability
 *    outputs (docs/OBSERVABILITY.md).  WSEL_METRICS=1 prints a
 *    metrics table to stderr when the bench exits; WSEL_METRICS=
 *    FILE writes the JSON snapshot; WSEL_TRACE=FILE records a
 *    Chrome/Perfetto trace of the run.
 *  - WSEL_TRACE_MEM: resident budget of the shared trace store in
 *    MiB (default 512; docs/PERFORMANCE.md).  Evicted chunks are
 *    regenerated deterministically, so this trades memory for
 *    wall time without changing any result.
 *
 * Campaigns acquired here are fault-tolerant (docs/ROBUSTNESS.md):
 * they checkpoint finished shards to a `*.partial` directory
 * and resume after a kill, validate cached files with a checksum
 * and a configuration fingerprint (so changing WSEL_INSNS, the
 * policy list, or the suite re-simulates instead of silently
 * serving stale numbers), and quarantine corrupt caches to
 * `*.corrupt` instead of aborting.
 */

#ifndef WSEL_BENCH_BENCH_UTIL_HH
#define WSEL_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/confidence/confidence.hh"
#include "obs/obs.hh"
#include "stats/logging.hh"
#include "core/sampling/sampling.hh"
#include "sim/campaign.hh"
#include "trace/benchmark_profile.hh"

namespace wsel::bench
{

/**
 * Per-process observability bracket for the bench binaries: picks
 * up $WSEL_METRICS / $WSEL_TRACE on construction and writes the
 * configured outputs when the process exits, so every bench gets
 * `WSEL_METRICS=1 ./bench_x` reporting with no per-bench code.
 */
struct ObsSession
{
    ObsSession() { obs::initFromEnv(); }

    ~ObsSession()
    {
        // Default to the stderr table when metrics were enabled
        // programmatically without an output destination.
        if (obs::metricsEnabled() && obs::metricsOutput().empty())
            obs::setMetricsOutput("-");
        obs::flushOutputs();
    }
};

inline ObsSession obsSession;

/** Read an integer environment knob with a default. */
inline std::uint64_t
envU64(const char *name, std::uint64_t def)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return def;
    return std::strtoull(v, nullptr, 10);
}

inline std::uint64_t
targetUops()
{
    return envU64("WSEL_INSNS", 100000);
}

inline std::size_t
empiricalDraws()
{
    return static_cast<std::size_t>(envU64("WSEL_DRAWS", 2000));
}

/**
 * An ordered policy pair "a>b": the hypothesis that a outperforms b.
 * d(w) is oriented so positive values (and positive 1/cv) support
 * the hypothesis, matching Figures 4/5 where the bar sign shows
 * which policy of the pair wins.
 */
struct PolicyPair
{
    PolicyKind a; ///< hypothesized winner (left of '>')
    PolicyKind b; ///< hypothesized loser

    std::string
    label() const
    {
        return toString(a) + ">" + toString(b);
    }
};

/** The ten pairs in Figure 4/5 order. */
inline std::vector<PolicyPair>
paperPolicyPairs()
{
    using PK = PolicyKind;
    return {
        {PK::LRU, PK::Random},   {PK::LRU, PK::FIFO},
        {PK::LRU, PK::DIP},      {PK::LRU, PK::DRRIP},
        {PK::Random, PK::FIFO},  {PK::Random, PK::DIP},
        {PK::Random, PK::DRRIP}, {PK::FIFO, PK::DIP},
        {PK::FIFO, PK::DRRIP},   {PK::DIP, PK::DRRIP},
    };
}

/**
 * Difference statistics for a pair under a metric: d(w) oriented so
 * that positive mu means pair.a outperforms pair.b (Y=a, X=b in the
 * Section III model).
 */
inline DifferenceStats
pairStats(const Campaign &c, const PolicyPair &pair,
          ThroughputMetric m)
{
    const auto tb = c.perWorkloadThroughputs(c.policyIndex(pair.b),
                                             m);
    const auto ta = c.perWorkloadThroughputs(c.policyIndex(pair.a),
                                             m);
    return differenceStats(m, tb, ta);
}

/**
 * Deterministic subsample of a population as a rank-based
 * WorkloadSet: the full population costs O(1) memory (no
 * enumeration), a subsample costs O(limit) ranks.
 */
inline WorkloadSet
subsamplePopulation(const WorkloadPopulation &pop, std::size_t limit,
                    std::uint64_t seed = 2013)
{
    if (limit == 0 || limit >= pop.size()) {
        return WorkloadSet::fullPopulation(pop);
    }
    Rng rng(seed);
    std::vector<std::uint64_t> ranks;
    ranks.reserve(limit);
    for (std::size_t i : rng.sampleWithoutReplacement(
             static_cast<std::size_t>(pop.size()), limit))
        ranks.push_back(i);
    return WorkloadSet::fromRanks(pop, std::move(ranks));
}

/** Cached BADCO campaign over (a subsample of) the population. */
inline Campaign
badcoPopulationCampaign(std::uint32_t cores, std::size_t limit,
                        bool verbose = true)
{
    const std::uint64_t target = targetUops();
    const std::string key = "badco_pop_k" + std::to_string(cores) +
                            "_n" + std::to_string(limit) + "_u" +
                            std::to_string(target);
    const auto &suite = spec2006Suite();
    const std::uint64_t fp = campaignFingerprint(
        "badco", cores, target, paperPolicies(), suite);
    return cachedCampaign(key, fp, [&](const std::string &checkpoint) {
        const WorkloadPopulation pop(
            static_cast<std::uint32_t>(suite.size()), cores);
        const auto workloads = subsamplePopulation(pop, limit);
        const UncoreConfig ucfg =
            UncoreConfig::forCores(cores, PolicyKind::LRU);
        BadcoModelStore store(CoreConfig{}, target,
                              ucfg.llcHitLatency,
                              defaultCacheDir());
        CampaignOptions opts;
        opts.verbose = verbose;
        opts.jobs = 0; // auto: $WSEL_JOBS, else hardware threads
        opts.checkpointDir = checkpoint;
        std::fprintf(stderr,
                     "[wsel] simulating %zu x %zu workloads "
                     "(badco, %u cores)...\n",
                     workloads.size(), paperPolicies().size(),
                     cores);
        return runBadcoCampaign(workloads, paperPolicies(), cores,
                                target, store, suite, opts);
    });
}

/** Standard population-campaign sizes per core count. */
inline Campaign
standardBadcoCampaign(std::uint32_t cores)
{
    switch (cores) {
      case 2:
        return badcoPopulationCampaign(2, 0); // full 253
      case 4:
        return badcoPopulationCampaign(
            4, static_cast<std::size_t>(envU64("WSEL_POP_LIMIT",
                                               0)));
      case 8:
        return badcoPopulationCampaign(
            8, static_cast<std::size_t>(envU64("WSEL_POP8", 1500)));
      default:
        WSEL_FATAL("no standard campaign for " << cores << " cores");
    }
}

/** Cached detailed-simulator campaign on a random sample. */
inline Campaign
detailedSampleCampaign(std::uint32_t cores, bool verbose = true)
{
    const std::uint64_t target = targetUops();
    // 2 cores: the full 253-workload population, as in the paper.
    // 8 cores costs ~4x per workload, so its default is smaller
    // (override with WSEL_DETAILED_WORKLOADS8).
    std::size_t n;
    if (cores == 2) {
        n = 0;
    } else if (cores == 8) {
        n = static_cast<std::size_t>(
            envU64("WSEL_DETAILED_WORKLOADS8", 24));
    } else {
        n = static_cast<std::size_t>(
            envU64("WSEL_DETAILED_WORKLOADS", 60));
    }
    const std::string key = "detailed_k" + std::to_string(cores) +
                            "_n" + std::to_string(n) + "_u" +
                            std::to_string(target);
    const auto &suite = spec2006Suite();
    const std::uint64_t fp = campaignFingerprint(
        "detailed", cores, target, paperPolicies(), suite);
    return cachedCampaign(key, fp, [&](const std::string &checkpoint) {
        const WorkloadPopulation pop(
            static_cast<std::uint32_t>(suite.size()), cores);
        const auto workloads = subsamplePopulation(pop, n);
        CampaignOptions opts;
        opts.verbose = verbose;
        opts.jobs = 0; // auto: $WSEL_JOBS, else hardware threads
        opts.checkpointDir = checkpoint;
        std::fprintf(stderr,
                     "[wsel] simulating %zu x %zu workloads "
                     "(detailed, %u cores; this is the slow "
                     "simulator)...\n",
                     workloads.size(), paperPolicies().size(),
                     cores);
        return runDetailedCampaign(workloads, paperPolicies(), cores,
                                   target, CoreConfig{}, suite,
                                   opts);
    });
}

/** Render an ASCII bar for +-x in [-range, range]. */
inline std::string
bar(double x, double range, int half_width = 24)
{
    const int n = static_cast<int>(
        std::min(1.0, std::abs(x) / range) * half_width);
    std::string s(static_cast<std::size_t>(2 * half_width + 1), ' ');
    s[half_width] = '|';
    for (int i = 1; i <= n; ++i)
        s[half_width + (x >= 0 ? i : -i)] = '#';
    return s;
}

} // namespace wsel::bench

#endif // WSEL_BENCH_BENCH_UTIL_HH
