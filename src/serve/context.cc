#include "serve/context.hh"

#include "fidelity/escalation.hh"
#include "serve/store.hh"
#include "sim/campaign.hh"
#include "sim/multicore.hh"
#include "sim/population.hh"
#include "stats/logging.hh"

namespace wsel::serve
{

namespace
{

std::vector<BenchmarkProfile>
resolveSuite(const CampaignSpec &spec)
{
    if (spec.benchmarks.empty())
        WSEL_FATAL("campaign spec has no benchmarks");
    if (spec.cores == 0)
        WSEL_FATAL("campaign spec has zero cores");
    if (spec.policies.empty())
        WSEL_FATAL("campaign spec has no policies");
    if (spec.shardRows == 0)
        WSEL_FATAL("campaign spec has zero shardRows");
    std::vector<BenchmarkProfile> suite;
    suite.reserve(spec.benchmarks.size());
    for (const std::string &name : spec.benchmarks)
        suite.push_back(findProfile(name)); // FATAL on unknown
    return suite;
}

} // namespace

CampaignContext::CampaignContext(const CampaignSpec &spec,
                                 const std::string &cache_dir,
                                 std::size_t jobs)
    : suite_(resolveSuite(spec)),
      pop_(static_cast<std::uint32_t>(suite_.size()), spec.cores),
      seed_(spec.seed)
{
    std::vector<PolicyKind> policies;
    policies.reserve(spec.policies.size());
    for (const std::string &p : spec.policies)
        policies.push_back(parsePolicyKind(p)); // FATAL on unknown

    fidelity_ = spec.fidelity;
    // Refused at admission, not after the sweep.
    if (fidelity_ == 0 && spec.escalateBudget != 0.0) {
        if (policies.size() < 2)
            WSEL_FATAL("escalation needs two policies, X and Y");
        fidelity::checkEscalationKnobs(spec.escalateQuantile,
                                       spec.escalateBudget);
        (void)parseMetric(spec.escalateMetric);
    }
    m_ = populationManifest(fidelity_ == 0 ? "badco" : "detailed",
                            spec.cores, spec.targetUops, policies,
                            suite_, spec.firstRank, spec.lastRank,
                            spec.shardRows);

    ucfgs_.reserve(policies.size());
    for (PolicyKind p : policies)
        ucfgs_.push_back(UncoreConfig::forCores(spec.cores, p));

    if (fidelity_ == 0) {
        store_ = std::make_unique<BadcoModelStore>(
            CoreConfig{}, spec.targetUops,
            UncoreConfig::forCores(spec.cores, PolicyKind::LRU)
                .llcHitLatency,
            cache_dir);
        models_ = store_->getSuite(suite_, jobs);
    }

    geomHash_ =
        campaignGeometryHash(seed_, m_.firstRank, m_.lastRank,
                             m_.shardRows, fidelity_);
}

void
CampaignContext::computeReferenceIpcs(std::size_t jobs)
{
    if (!m_.refIpc.empty())
        return;
    if (fidelity_ == 0) {
        m_.refIpc = badcoReferenceIpcs(models_, m_.cores, m_.targetUops,
                                       seed_, jobs);
    } else {
        // Detailed fidelity: no models; references come from the
        // cycle-level simulator (as runDetailedCampaign does).
        const DetailedMulticoreSim ref_sim(
            coreCfg_, UncoreConfig::forCores(m_.cores, PolicyKind::LRU),
            1, m_.targetUops, seed_);
        m_.refIpc = ref_sim.referenceIpcs(suite_, jobs);
    }
}

} // namespace wsel::serve
