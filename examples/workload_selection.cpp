/**
 * @file
 * Workload-selection tool: given a pair of LLC policies and a
 * throughput metric, produce a representative workload sample with
 * each of the paper's four methods side by side, and report each
 * method's measured confidence at that sample size. Writes the
 * selected workload lists to CSV files for use by an external
 * detailed simulator.
 */

#include <cstdio>
#include <fstream>
#include <string>

#include "core/confidence/confidence.hh"
#include "core/sampling/sampling.hh"
#include "sim/campaign.hh"
#include "sim/model_store.hh"

namespace
{

using namespace wsel;

void
writeCsv(const std::string &path,
         const std::vector<Workload> &workloads, const Sample &s,
         const std::vector<BenchmarkProfile> &suite)
{
    std::ofstream os(path);
    os << "stratum,weight,benchmarks\n";
    for (std::size_t h = 0; h < s.strata.size(); ++h) {
        for (std::size_t pos : s.strata[h].indices) {
            os << h << "," << s.strata[h].weight << ",";
            const Workload &w = workloads[pos];
            for (std::size_t k = 0; k < w.size(); ++k)
                os << (k ? "+" : "") << suite[w[k]].name;
            os << "\n";
        }
    }
    std::printf("  wrote %s\n", path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace wsel;

    const PolicyKind x =
        argc > 1 ? parsePolicyKind(argv[1]) : PolicyKind::LRU;
    const PolicyKind y =
        argc > 2 ? parsePolicyKind(argv[2]) : PolicyKind::DIP;
    const ThroughputMetric metric =
        argc > 3 ? parseMetric(argv[3]) : ThroughputMetric::IPCT;
    const std::size_t sample_size =
        argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 30;
    const std::uint32_t cores = 4;
    const std::uint64_t target = 100000;

    std::printf("selecting %zu workloads for %s vs %s under %s "
                "(%u cores)\n\n",
                sample_size, toString(y).c_str(),
                toString(x).c_str(), toString(metric).c_str(),
                cores);

    const auto &suite = spec2006Suite();
    const WorkloadPopulation pop(
        static_cast<std::uint32_t>(suite.size()), cores);
    const auto workloads = pop.enumerateAll();

    const UncoreConfig ucfg = UncoreConfig::forCores(cores, x);
    BadcoModelStore store(CoreConfig{}, target, ucfg.llcHitLatency,
                          defaultCacheDir());
    CampaignOptions opts;
    opts.verbose = true;
    const Campaign c = cachedCampaign(
        "example_selection_k4_u" + std::to_string(target),
        campaignFingerprint("badco", cores, target,
                            paperPolicies(), suite),
        [&](const std::string &checkpoint) {
            opts.checkpointDir = checkpoint;
            return runBadcoCampaign(workloads, paperPolicies(),
                                    cores, target, store, suite,
                                    opts);
        });

    const auto tx = c.perWorkloadThroughputs(c.policyIndex(x),
                                             metric);
    const auto ty = c.perWorkloadThroughputs(c.policyIndex(y),
                                             metric);
    const auto d = perWorkloadDifferences(metric, tx, ty);
    const DifferenceStats ds = differenceStats(d);
    std::printf("population cv = %.2f; eq.(8) random sample size = "
                "%zu\n\n",
                ds.cv, requiredSampleSize(ds.cv));

    // Build all four samplers.
    std::vector<std::size_t> identity(pop.size());
    for (std::size_t i = 0; i < identity.size(); ++i)
        identity[i] = i;
    std::vector<std::uint32_t> classes;
    for (const auto &p : suite)
        classes.push_back(static_cast<std::uint32_t>(p.paperClass));

    struct Entry
    {
        std::unique_ptr<Sampler> sampler;
        std::string file;
    };
    std::vector<Entry> methods;
    methods.push_back({makeRandomSampler(workloads.size()),
                       "sample_random.csv"});
    methods.push_back({makeBalancedRandomSampler(pop, identity),
                       "sample_balanced.csv"});
    methods.push_back(
        {makeBenchmarkStratifiedSampler(workloads, classes, 3),
         "sample_bench_strata.csv"});
    methods.push_back({makeWorkloadStratifiedSampler(d, {}),
                       "sample_workload_strata.csv"});

    Rng rng(2013);
    std::printf("%-18s %12s  file\n", "method",
                "confidence");
    for (auto &m : methods) {
        const double conf = empiricalConfidence(
            *m.sampler, sample_size, 2000, metric, tx, ty, rng);
        std::printf("%-18s %12.3f  %s\n",
                    m.sampler->name().c_str(), conf,
                    m.file.c_str());
        writeCsv(m.file, workloads, m.sampler->draw(sample_size, rng),
                 suite);
    }
    std::printf("\nNOTE: the workload-strata sample is only valid "
                "for this (pair, metric); rerun for others.\n");
    return 0;
}
