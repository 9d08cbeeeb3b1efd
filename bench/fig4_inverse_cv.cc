/**
 * @file
 * Figure 4 reproduction: 1/cv for every policy pair and every
 * metric on 4 cores, measured three ways —
 *   (1) with the detailed simulator on a random workload sample,
 *   (2) with BADCO on the same sample,
 *   (3) with BADCO on the (near-)full 12650-workload population.
 * The sign shows which policy wins; the magnitude how easily a
 * random sample detects it.
 */

#include <cstdio>

#include "bench_util.hh"
#include "sim/model_store.hh"

int
main()
{
    using namespace wsel;
    using namespace wsel::bench;

    const std::uint32_t cores = 4;
    const auto &suite = spec2006Suite();
    const std::uint64_t target = targetUops();

    const Campaign det = detailedSampleCampaign(cores);

    // BADCO on exactly the detailed sample.
    const UncoreConfig u0 =
        UncoreConfig::forCores(cores, PolicyKind::LRU);
    BadcoModelStore store(CoreConfig{}, target, u0.llcHitLatency,
                          defaultCacheDir());
    const std::string key =
        "badco_on_detailed_sample_k" + std::to_string(cores) +
        "_n" + std::to_string(det.workloads.size()) + "_u" +
        std::to_string(target);
    const std::uint64_t fp = campaignFingerprint(
        "badco", cores, target, det.policies, suite);
    const Campaign bad_sample = cachedCampaign(
        defaultCacheDir(), key, fp, [&](const std::string &checkpoint) {
            CampaignOptions opts;
            opts.checkpointDir = checkpoint;
            return runBadcoCampaign(det.workloads, det.policies,
                                    cores, target, store, suite,
                                    opts);
        });

    const Campaign bad_pop = standardBadcoCampaign(cores);

    std::printf("FIGURE 4. 1/cv per policy pair and metric "
                "(4 cores)\n");
    std::printf("columns: detailed %zu-workload sample | BADCO same "
                "sample | BADCO population (%zu workloads)\n\n",
                det.workloads.size(), bad_pop.workloads.size());

    for (ThroughputMetric m : paperMetrics()) {
        std::printf("[%s]\n", toString(m).c_str());
        std::printf("  %-12s %9s %9s %9s   %s\n", "pair",
                    "detailed", "badco-s", "badco-pop",
                    "badco-pop bar (range +-4)");
        for (const PolicyPair &pair : paperPolicyPairs()) {
            const double inv_det =
                pairStats(det, pair, m).inverseCv();
            const double inv_bs =
                pairStats(bad_sample, pair, m).inverseCv();
            const double inv_bp =
                pairStats(bad_pop, pair, m).inverseCv();
            std::printf("  %-12s %9.3f %9.3f %9.3f   %s\n",
                        pair.label().c_str(), inv_det, inv_bs,
                        inv_bp, bar(inv_bp, 4.0).c_str());
        }
        std::printf("\n");
    }
    std::printf("paper shape: LRU clearly beats RND and FIFO "
                "(|1/cv| near 1); DIP/DRRIP beat LRU;\nDIP>DRRIP is "
                "the closest pair; metrics agree on every sign but "
                "differ in magnitude.\n");
    return 0;
}
