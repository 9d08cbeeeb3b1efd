/**
 * @file
 * Section V-C in miniature: different throughput metrics may need
 * different sample sizes. Runs the full 2-core population with
 * BADCO, then reports, per policy pair and metric, the population
 * 1/cv and the eq. (8) sample size — showing that all metrics agree
 * on who wins while disagreeing on how many workloads it takes to
 * prove it.
 */

#include <cstdio>

#include "core/confidence/confidence.hh"
#include "sim/campaign.hh"
#include "sim/model_store.hh"

int
main()
{
    using namespace wsel;

    const std::uint32_t cores = 2;
    const std::uint64_t target = 100000;
    const auto &suite = spec2006Suite();
    const WorkloadPopulation pop(
        static_cast<std::uint32_t>(suite.size()), cores);

    const UncoreConfig ucfg =
        UncoreConfig::forCores(cores, PolicyKind::LRU);
    BadcoModelStore store(CoreConfig{}, target, ucfg.llcHitLatency,
                          defaultCacheDir());
    CampaignOptions opts;
    opts.verbose = true;
    std::printf("simulating the full %llu-workload 2-core "
                "population with BADCO...\n",
                static_cast<unsigned long long>(pop.size()));
    const Campaign c = cachedCampaign(
        defaultCacheDir(), "example_metric_study_k2_u" + std::to_string(target),
        campaignFingerprint("badco", cores, target,
                            paperPolicies(), suite),
        [&](const std::string &checkpoint) {
            opts.checkpointDir = checkpoint;
            return runBadcoCampaign(pop.enumerateAll(),
                                    paperPolicies(), cores, target,
                                    store, suite, opts);
        });

    struct Pair
    {
        PolicyKind a, b;
    };
    const Pair pairs[] = {
        {PolicyKind::LRU, PolicyKind::FIFO},
        {PolicyKind::LRU, PolicyKind::Random},
        {PolicyKind::DIP, PolicyKind::LRU},
        {PolicyKind::DRRIP, PolicyKind::DIP},
    };

    std::printf("\n%-14s", "pair");
    for (ThroughputMetric m : paperMetrics())
        std::printf("  %6s[1/cv]  %6s[W]", toString(m).c_str(),
                    toString(m).c_str());
    std::printf("\n");

    for (const Pair &p : pairs) {
        std::printf("%-6s>%-7s", toString(p.a).c_str(),
                    toString(p.b).c_str());
        for (ThroughputMetric m : paperMetrics()) {
            const auto tb = c.perWorkloadThroughputs(
                c.policyIndex(p.b), m);
            const auto ta = c.perWorkloadThroughputs(
                c.policyIndex(p.a), m);
            const DifferenceStats ds = differenceStats(m, tb, ta);
            std::printf("  %12.3f  %9zu", ds.inverseCv(),
                        requiredSampleSize(ds.cv));
        }
        std::printf("\n");
    }

    std::printf("\ntakeaways (paper §V-C): the sign of 1/cv — who "
                "wins — is metric-independent, but the\nmagnitude "
                "is not: when using several metrics on one fixed "
                "sample, size it for the most\ndemanding metric.\n");
    return 0;
}
