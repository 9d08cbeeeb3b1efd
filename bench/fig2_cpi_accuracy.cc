/**
 * @file
 * Figure 2 reproduction: detailed-simulator CPI vs BADCO CPI for
 * every thread of every sampled workload, on 2, 4 and 8 cores.
 * Prints the scatter points (bucketed) plus the paper's summary
 * statistics: average/max CPI error per core count and the average
 * speedup error across replacement policies (the paper: CPI error
 * 4.6/4.0/4.1 %, speedup error 0.66/0.61/1.43 %, max error < 22%).
 *
 * The comparison math lives in fidelity/calibrate.hh
 * (fidelity::compareCampaigns) and is shared with the mixed-
 * fidelity layer, which seeds its ErrorProfile from exactly this
 * detailed-vs-BADCO harness (docs/FIDELITY.md).
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "fidelity/calibrate.hh"
#include "sim/model_store.hh"
#include "sim/multicore.hh"

int
main()
{
    using namespace wsel;
    using namespace wsel::bench;

    const std::uint64_t target = targetUops();
    const auto &suite = spec2006Suite();

    std::printf("FIGURE 2. detailed CPI vs BADCO CPI\n\n");

    for (std::uint32_t cores : {2u, 4u, 8u}) {
        const Campaign det = detailedSampleCampaign(cores);

        // Re-simulate the same workloads with BADCO.
        const UncoreConfig u0 =
            UncoreConfig::forCores(cores, PolicyKind::LRU);
        BadcoModelStore store(CoreConfig{}, target, u0.llcHitLatency,
                              defaultCacheDir());
        CampaignOptions opts;
        const std::string key =
            "badco_on_detailed_sample_k" + std::to_string(cores) +
            "_n" + std::to_string(det.workloads.size()) + "_u" +
            std::to_string(target);
        const std::uint64_t fp = campaignFingerprint(
            "badco", cores, target, det.policies, suite);
        const Campaign bad = cachedCampaign(
            defaultCacheDir(), key, fp, [&](const std::string &checkpoint) {
                opts.checkpointDir = checkpoint;
                return runBadcoCampaign(det.workloads, det.policies,
                                        cores, target, store, suite,
                                        opts);
            });

        // The paper's CPI-error and speedup-error summary, shared
        // with the error-model calibration pass.
        const fidelity::CalibrationStats st =
            fidelity::compareCampaigns(det, bad);

        std::printf("%u cores (%zu workloads): avg |CPI error| = "
                    "%.2f%%  max = %.1f%%  avg speedup error = "
                    "%.2f%%\n",
                    cores, det.workloads.size(),
                    100.0 * st.cpiErr.mean(), 100.0 * st.maxCpiErr,
                    100.0 * st.speedupErr.mean());

        // Compact scatter: CPI_detailed vs CPI_badco percentiles.
        std::vector<double> ratio;
        ratio.reserve(st.cpiDetailed.size());
        for (std::size_t i = 0; i < st.cpiDetailed.size(); ++i)
            ratio.push_back(st.cpiBadco[i] / st.cpiDetailed[i]);
        std::printf("  CPI (detailed) p10/p50/p90: %.2f / %.2f / "
                    "%.2f   badco/detailed ratio p10/p50/p90: "
                    "%.2f / %.2f / %.2f   corr(CPI) = %.3f\n",
                    quantile(st.cpiDetailed, 0.1),
                    quantile(st.cpiDetailed, 0.5),
                    quantile(st.cpiDetailed, 0.9),
                    quantile(ratio, 0.1), quantile(ratio, 0.5),
                    quantile(ratio, 0.9),
                    pearsonCorrelation(st.cpiDetailed, st.cpiBadco));
    }
    std::printf("\npaper: avg CPI error 4.59/3.98/4.09%% for 2/4/8 "
                "cores, max < 22%%;\nspeedup error 0.66/0.61/1.43%%."
                " BADCO slightly underestimates CPI (ratio < 1).\n");
    return 0;
}
