#include "fidelity/calibrate.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "sim/model_store.hh"
#include "sim/multicore.hh"
#include "stats/logging.hh"
#include "stats/rng.hh"

namespace wsel::fidelity
{

namespace
{

void
checkShapes(const Campaign &det, const Campaign &bad)
{
    if (det.simulator != "detailed")
        WSEL_FATAL("calibration ground truth is a '"
                   << det.simulator << "' campaign, not detailed");
    if (det.cores != bad.cores)
        WSEL_FATAL("calibration campaigns disagree on cores ("
                   << det.cores << " vs " << bad.cores << ")");
    if (det.policies != bad.policies)
        WSEL_FATAL("calibration campaigns disagree on policies");
    if (det.workloads.size() != bad.workloads.size())
        WSEL_FATAL("calibration campaigns disagree on workloads ("
                   << det.workloads.size() << " vs "
                   << bad.workloads.size() << ")");
}

} // namespace

CalibrationStats
compareCampaigns(const Campaign &det, const Campaign &bad)
{
    checkShapes(det, bad);
    CalibrationStats out;
    const std::size_t cores = det.cores;
    const std::size_t p_lru = det.policyIndex(PolicyKind::LRU);
    for (std::size_t w = 0; w < det.workloads.size(); ++w) {
        for (std::size_t k = 0; k < cores; ++k) {
            const double cpi_d = 1.0 / det.ipc[p_lru][w][k];
            const double cpi_b = 1.0 / bad.ipc[p_lru][w][k];
            const double e = (cpi_b - cpi_d) / cpi_d;
            out.cpiErr.add(std::abs(e));
            out.maxCpiErr = std::max(out.maxCpiErr, std::abs(e));
            out.cpiDetailed.push_back(cpi_d);
            out.cpiBadco.push_back(cpi_b);
        }
    }
    for (std::size_t p = 0; p < det.policies.size(); ++p) {
        if (p == p_lru)
            continue;
        RunningStats sd, sb;
        for (std::size_t w = 0; w < det.workloads.size(); ++w) {
            for (std::size_t k = 0; k < cores; ++k) {
                sd.add(det.ipc[p][w][k] / det.ipc[p_lru][w][k]);
                sb.add(bad.ipc[p][w][k] / bad.ipc[p_lru][w][k]);
            }
        }
        out.speedupErr.add(std::abs(sb.mean() - sd.mean()) /
                           sd.mean());
    }
    return out;
}

void
calibrateProfile(ErrorProfile &profile, const Campaign &det,
                 const Campaign &bad)
{
    checkShapes(det, bad);
    const std::size_t cores = det.cores;
    det.workloads.forEach([&](std::size_t w,
                              std::span<const std::uint32_t>
                                  benches) {
        for (std::size_t p = 0; p < det.policies.size(); ++p)
            for (std::size_t k = 0; k < cores; ++k)
                profile.record(benches[k], bad.ipc[p][w][k],
                               det.ipc[p][w][k]);
    });
}

CalibrationCampaigns
runCalibrationCampaigns(std::uint32_t cores,
                        std::uint64_t target_uops,
                        std::size_t workloads, std::uint64_t seed,
                        const std::vector<BenchmarkProfile> &suite,
                        const std::vector<PolicyKind> &policies,
                        const std::string &cache_dir,
                        std::size_t jobs, bool verbose)
{
    const WorkloadPopulation pop(
        static_cast<std::uint32_t>(suite.size()), cores);
    WorkloadSet sample;
    if (workloads == 0 || workloads >= pop.size()) {
        sample = WorkloadSet::fullPopulation(pop);
    } else {
        Rng rng(seed);
        std::vector<std::uint64_t> ranks;
        ranks.reserve(workloads);
        for (std::size_t i : rng.sampleWithoutReplacement(
                 static_cast<std::size_t>(pop.size()), workloads))
            ranks.push_back(i);
        sample = WorkloadSet::fromRanks(pop, std::move(ranks));
    }

    const std::string shape =
        "calib_k" + std::to_string(cores) + "_n" +
        std::to_string(sample.size()) + "_u" +
        std::to_string(target_uops) + "_s" + std::to_string(seed);
    const UncoreConfig ucfg =
        UncoreConfig::forCores(cores, PolicyKind::LRU);

    CalibrationCampaigns out;
    {
        const std::uint64_t fp = campaignFingerprint(
            "detailed", cores, target_uops, policies, suite);
        out.detailed = cachedCampaign(
            "detailed_" + shape, fp,
            [&](const std::string &checkpoint) {
                CampaignOptions opts;
                opts.seed = seed;
                opts.verbose = verbose;
                opts.jobs = jobs;
                opts.checkpointDir = checkpoint;
                if (verbose)
                    std::fprintf(stderr,
                                 "[fidelity] calibrating: %zu "
                                 "workloads (detailed, %u "
                                 "cores)...\n",
                                 sample.size(), cores);
                return runDetailedCampaign(sample, policies, cores,
                                           target_uops,
                                           CoreConfig{}, suite,
                                           opts);
            });
    }
    {
        BadcoModelStore store(CoreConfig{}, target_uops,
                              ucfg.llcHitLatency, cache_dir);
        const std::uint64_t fp = campaignFingerprint(
            "badco", cores, target_uops, policies, suite);
        out.badco = cachedCampaign(
            "badco_" + shape, fp,
            [&](const std::string &checkpoint) {
                CampaignOptions opts;
                opts.seed = seed;
                opts.verbose = verbose;
                opts.jobs = jobs;
                opts.checkpointDir = checkpoint;
                return runBadcoCampaign(sample, policies, cores,
                                        target_uops, store, suite,
                                        opts);
            });
    }
    return out;
}

ErrorProfile
calibrateErrorProfile(std::uint32_t cores,
                      std::uint64_t target_uops,
                      std::size_t workloads, std::uint64_t seed,
                      const std::vector<BenchmarkProfile> &suite,
                      const std::vector<PolicyKind> &policies,
                      const std::string &cache_dir,
                      std::size_t jobs, bool verbose)
{
    const CalibrationCampaigns pair = runCalibrationCampaigns(
        cores, target_uops, workloads, seed, suite, policies,
        cache_dir, jobs, verbose);
    ErrorProfile profile(suite);
    calibrateProfile(profile, pair.detailed, pair.badco);
    return profile;
}

} // namespace wsel::fidelity
