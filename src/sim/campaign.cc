#include "sim/campaign.hh"

#include <algorithm>
#include <filesystem>
#include <functional>

#include "exec/scheduler.hh"
#include "sim/population.hh"
#include "stats/logging.hh"
#include "stats/persist.hh"
#include "stats/persist_v3.hh"

namespace wsel
{

namespace
{

/**
 * Load a campaign_v3 directory (src/stats/persist_v3.hh).  Throws
 * persist::CacheInvalid on any validation failure.
 */
Campaign
loadImpl(const std::string &path)
{
    std::error_code ec;
    if (std::filesystem::is_regular_file(path, ec))
        throw persist::CacheInvalid(
            "a file, not a campaign_v3 directory (campaign_v2 text "
            "is no longer read; re-run the campaign to rewrite it)");
    persist::V3Manifest m = persist::readV3Manifest(path);
    Campaign c;
    c.fingerprint = m.fingerprint;
    c.simulator = m.simulator;
    c.cores = m.cores;
    c.targetUops = m.targetUops;
    c.simSeconds = m.simSeconds;
    c.instructions = m.instructions;
    try {
        for (const std::string &p : m.policies)
            c.policies.push_back(parsePolicyKind(p));
    } catch (const FatalError &e) {
        throw persist::CacheInvalid(
            std::string("campaign_v3 manifest: unknown policy: ") +
            e.what());
    }
    c.benchmarks = m.benchmarks;
    c.refIpc = m.refIpc;
    if (m.popBenchmarks == 0 || m.popCores == 0 ||
        m.popCores != m.cores ||
        m.popBenchmarks != m.benchmarks.size())
        throw persist::CacheInvalid(
            "campaign_v3 manifest: bad population shape");
    // A shape whose population size overflows 64 bits is damage on
    // disk, not a program bug: quarantine it like any other.
    const WorkloadPopulation pop = [&] {
        try {
            return WorkloadPopulation(m.popBenchmarks, m.popCores);
        } catch (const FatalError &e) {
            throw persist::CacheInvalid(
                std::string("campaign_v3 manifest: ") + e.what());
        }
    }();
    if (m.ranks.empty() && m.lastRank > pop.size())
        throw persist::CacheInvalid(
            "campaign_v3 manifest: rank range outside population");
    for (std::uint64_t rank : m.ranks)
        if (rank >= pop.size())
            throw persist::CacheInvalid(
                "campaign_v3 manifest: rank " + std::to_string(rank) +
                " outside the population of " +
                std::to_string(pop.size()));
    const std::size_t nw =
        static_cast<std::size_t>(m.rows());
    const std::size_t np = c.policies.size();
    // The manifest's counts drive the workload-list and matrix
    // allocations below; bound them (overflow-safely: divide,
    // don't multiply) BEFORE materializing anything so a
    // checksum-valid but hostile or corrupted manifest cannot ask
    // for an absurd materialization.  2^31 cells = 16 GiB is far
    // beyond any real campaign (the full 8-core population is
    // ~173M cells) but still refuses the 2^60-cell lies a flipped
    // size field can produce.
    constexpr std::uint64_t kMaxLoadCells = 1ULL << 31;
    const std::uint64_t cells_per_row =
        static_cast<std::uint64_t>(np) * c.cores;
    if (cells_per_row == 0 ||
        m.rows() > kMaxLoadCells / cells_per_row)
        throw persist::CacheInvalid(
            "campaign_v3 manifest: declared campaign too large to "
            "materialize (" + std::to_string(m.rows()) + " rows x " +
            std::to_string(np) + " policies x " +
            std::to_string(c.cores) + " cores)");
    c.workloads =
        m.ranks.empty()
            ? WorkloadSet::populationRange(pop, m.firstRank, m.lastRank)
            : WorkloadSet::fromRanks(pop, std::move(m.ranks));
    c.ipc.reshape(np, nw, c.cores);
    for (std::uint64_t s = 0; s < m.shardCount(); ++s) {
        const std::vector<double> payload =
            persist::readV3Shard(path, m, s);
        c.ipc.scatterRows(static_cast<std::size_t>(s * m.shardRows),
                          {payload.data(), payload.size()});
    }
    return c;
}

/**
 * Empty the campaign directory at @p path (creating it), manifest
 * first, so a save killed part-way never leaves a readable mix of
 * two campaigns.  checkCampaignTarget() vets @p path first.
 */
void
clearCampaignDir(const std::string &path)
{
    namespace fs = std::filesystem;
    checkCampaignTarget(path);
    persist::ensureDirTree(path);
    std::vector<fs::path> old;
    for (const auto &e : fs::directory_iterator(path))
        old.push_back(e.path());
    std::error_code ec;
    fs::remove(persist::v3ManifestPath(path), ec);
    for (const fs::path &p : old)
        fs::remove(p, ec);
}

/** The header fields both front ends fill the same way. */
Campaign
newCampaign(const std::string &simulator, const WorkloadSet &workloads,
            const std::vector<PolicyKind> &policies,
            std::uint32_t cores, std::uint64_t target_uops,
            const std::vector<BenchmarkProfile> &suite)
{
    if (workloads.empty() || policies.empty())
        WSEL_FATAL("campaign needs workloads and policies");
    Campaign c;
    c.simulator = simulator;
    c.cores = cores;
    c.targetUops = target_uops;
    c.policies = policies;
    for (const BenchmarkProfile &p : suite)
        c.benchmarks.push_back(p.name);
    c.workloads = workloads;
    c.fingerprint = campaignFingerprint(simulator, cores, target_uops,
                                        policies, suite);
    return c;
}

/**
 * Identity of one campaign's checkpoint shards: the configuration
 * fingerprint, the base seed and every workload of the list.  A
 * shard left by any other campaign then fails readV3Shard's
 * fingerprint check and is quarantined, never replayed.
 */
std::uint64_t
checkpointKey(const Campaign &c, std::uint64_t seed)
{
    persist::Fnv1a h;
    h.update("wsel-checkpoint-1");
    h.updateU64(c.fingerprint).updateU64(seed);
    h.updateU64(c.workloads.size());
    c.workloads.forEach(
        [&](std::size_t, std::span<const std::uint32_t> benches) {
            for (std::uint32_t b : benches)
                h.updateU64(b);
        });
    return h.digest();
}

/** Simulates one shard of the explicit-list manifest. */
using ShardFn = std::function<void(const persist::V3Manifest &,
                                   std::uint64_t,
                                   std::vector<double> &)>;

/**
 * Fill c.ipc through the population engine's shard loop
 * (sim/population.hh).  Manifest row r is position r of
 * c.workloads, so cell seeds stay
 * campaignCellSeed(fingerprint, seed, policy, position).  With a
 * checkpoint directory, shards are written there under
 * checkpointKey and intact ones are reused.
 */
void
runExplicitShards(Campaign &c, const CampaignOptions &opts,
                  const ShardFn &simulate)
{
    const std::size_t np = c.policies.size();
    const std::size_t nw = c.workloads.size();
    persist::V3Manifest m;
    m.fingerprint = c.fingerprint;
    m.simulator = c.simulator;
    m.cores = c.cores;
    m.targetUops = c.targetUops;
    for (PolicyKind p : c.policies)
        m.policies.push_back(toString(p));
    m.lastRank = nw;
    m.shardRows = std::max<std::uint64_t>(1, opts.shardCells / np);
    persist::V3Manifest key = m;
    key.fingerprint = checkpointKey(c, opts.seed);

    const std::string &dir = opts.checkpointDir;
    if (!dir.empty()) {
        namespace fs = std::filesystem;
        std::error_code ec;
        if (fs::exists(dir, ec) && !fs::is_directory(dir, ec))
            persist::quarantineArtifact(
                dir, "campaign checkpoint", "a resume journal from an "
                "older build, not a shard directory", "re-simulating");
        fs::create_directories(dir, ec);
        if (ec)
            WSEL_FATAL("cannot create checkpoint directory "
                       << dir << ": " << ec.message());
    }

    c.ipc.reshape(np, nw, c.cores);
    const ShardLoopStats st = runShardLoop(
        key, dir, true,
        [&](std::uint64_t s, std::vector<double> &payload) {
            simulate(m, s, payload);
        },
        [&](std::uint64_t s, std::span<const double> payload) {
            c.ipc.scatterRows(static_cast<std::size_t>(s * m.shardRows),
                              payload);
        },
        opts.verbose, c.simulator);
    if (st.cellsResumed > 0)
        logLine("  [campaign] resumed " +
                std::to_string(st.cellsResumed) + "/" +
                std::to_string(np * nw) + " cells from checkpoint " +
                dir);
    c.simSeconds = st.simSeconds;
    c.instructions = static_cast<std::uint64_t>(np * nw) * c.cores *
                     c.targetUops;
}

} // namespace

void
checkCampaignTarget(const std::string &path)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    if (!fs::exists(path, ec))
        return;
    if (!fs::is_directory(path, ec))
        WSEL_FATAL("cannot save campaign to " << path
                   << ": a file is in the way (campaigns are "
                      "campaign_v3 directories)");
    for (const auto &e : fs::directory_iterator(path)) {
        const std::string name = e.path().filename().string();
        if (name.rfind("manifest.bin", 0) != 0 &&
            name.rfind("shard-", 0) != 0)
            WSEL_FATAL("cannot save campaign to "
                       << path << ": it holds '" << name
                       << "', which is not part of a campaign");
    }
}

std::uint64_t
campaignFingerprint(const std::string &simulator,
                    std::uint32_t cores, std::uint64_t target_uops,
                    const std::vector<PolicyKind> &policies,
                    const std::vector<BenchmarkProfile> &suite)
{
    persist::Fnv1a h;
    h.update(simulator).update("|");
    h.updateU64(cores).updateU64(target_uops);
    h.updateU64(policies.size());
    for (PolicyKind p : policies)
        h.update(toString(p)).update(",");
    h.updateU64(suite.size());
    for (const BenchmarkProfile &p : suite) {
        h.update(p.name).update(",");
        h.updateU64(p.parameterHash());
    }
    return h.digest();
}

std::uint64_t
campaignCellSeed(std::uint64_t fingerprint,
                 std::uint64_t base_seed, std::size_t policy,
                 std::size_t workload)
{
    persist::Fnv1a h;
    h.updateU64(fingerprint);
    h.updateU64(base_seed);
    h.updateU64(policy);
    h.updateU64(workload);
    const std::uint64_t seed = h.digest();
    return seed ? seed : 0x9e3779b97f4a7c15ULL;
}

std::size_t
Campaign::policyIndex(PolicyKind kind) const
{
    for (std::size_t i = 0; i < policies.size(); ++i) {
        if (policies[i] == kind)
            return i;
    }
    WSEL_FATAL("campaign has no data for policy " << toString(kind));
}

std::vector<double>
Campaign::perWorkloadThroughputs(std::size_t policy_idx,
                                 ThroughputMetric m) const
{
    std::vector<double> t(workloads.size());
    perWorkloadThroughputsInto(policy_idx, m,
                               {t.data(), t.size()});
    return t;
}

void
Campaign::perWorkloadThroughputsInto(std::size_t policy_idx,
                                     ThroughputMetric m,
                                     std::span<double> out) const
{
    if (policy_idx >= policies.size())
        WSEL_FATAL("policy index " << policy_idx << " out of range");
    if (out.size() != workloads.size())
        WSEL_FATAL("throughput buffer has " << out.size()
                                            << " slots for "
                                            << workloads.size()
                                            << " workloads");
    std::vector<double> refs(cores, 1.0);
    workloads.forEach(
        [&](std::size_t w, std::span<const std::uint32_t> benches) {
            for (std::size_t k = 0; k < cores; ++k)
                refs[k] = refIpc[benches[k]];
            out[w] = perWorkloadThroughput(
                m, ipc.cell(policy_idx, w), refs);
        });
}

double
Campaign::mips() const
{
    if (simSeconds <= 0.0)
        return 0.0;
    return static_cast<double>(instructions) / simSeconds / 1e6;
}

void
Campaign::save(const std::string &path) const
{
    const std::size_t np = policies.size();
    const std::size_t nw = workloads.size();
    if (np == 0 || nw == 0 || ipc.policies() != np ||
        ipc.workloadCount() != nw || ipc.coresPerCell() != cores)
        WSEL_FATAL("cannot save campaign to "
                   << path << ": " << ipc.policies() << "x"
                   << ipc.workloadCount() << "x" << ipc.coresPerCell()
                   << " IPC matrix for " << np << " policies, " << nw
                   << " workloads and " << cores << " cores");
    persist::V3Manifest m;
    m.fingerprint = fingerprint;
    m.simulator = simulator;
    m.cores = cores;
    m.targetUops = targetUops;
    m.simSeconds = simSeconds;
    m.instructions = instructions;
    for (PolicyKind p : policies)
        m.policies.push_back(toString(p));
    m.benchmarks = benchmarks;
    m.refIpc = refIpc;
    m.popBenchmarks = static_cast<std::uint32_t>(benchmarks.size());
    m.popCores = cores;
    const WorkloadPopulation pop(m.popBenchmarks, m.popCores);
    if (workloads.isPopulationRange() &&
        workloads.population().numBenchmarks() == pop.numBenchmarks() &&
        workloads.population().cores() == pop.cores()) {
        m.firstRank = workloads.firstRank();
        m.lastRank = m.firstRank + nw;
    } else {
        // Every workload is a sorted multiset, so it has a rank.
        m.lastRank = nw;
        m.ranks.reserve(nw);
        workloads.forEach(
            [&](std::size_t, std::span<const std::uint32_t> benches) {
                m.ranks.push_back(pop.rank(benches));
            });
    }
    m.shardRows = std::max<std::size_t>(
        1, PopulationOptions{}.shardCells / np);

    clearCampaignDir(path);
    std::vector<double> payload;
    for (std::uint64_t s = 0; s < m.shardCount(); ++s) {
        const std::size_t first =
            static_cast<std::size_t>(s * m.shardRows);
        const std::size_t rows =
            static_cast<std::size_t>(m.rowsInShard(s));
        payload.resize(rows * np * cores);
        double *dst = payload.data();
        for (std::size_t w = first; w < first + rows; ++w)
            for (std::size_t p = 0; p < np; ++p, dst += cores)
                std::ranges::copy(ipc.cell(p, w), dst);
        persist::writeV3Shard(path, m, s, payload);
    }
    // The manifest is the commit point: it only exists once every
    // shard it describes does.
    persist::writeV3Manifest(path, m);
}

Campaign
Campaign::load(const std::string &path, LoadMode mode)
{
    try {
        return loadImpl(path);
    } catch (const persist::CacheInvalid &e) {
        if (mode == LoadMode::Strict)
            WSEL_FATAL("campaign file " << path << ": " << e.what());
        persist::quarantineArtifact(path, "corrupt campaign cache",
                                    e.what(), "re-simulating");
        throw;
    }
}

Campaign
runBadcoCampaign(const WorkloadSet &workloads,
                 const std::vector<PolicyKind> &policies,
                 std::uint32_t cores, std::uint64_t target_uops,
                 BadcoModelStore &store,
                 const std::vector<BenchmarkProfile> &suite,
                 const CampaignOptions &opts)
{
    Campaign c = newCampaign("badco", workloads, policies, cores,
                             target_uops, suite);
    const std::size_t jobs = exec::resolveJobs(opts.jobs);
    const std::vector<const BadcoModel *> models =
        store.getSuite(suite, jobs);
    c.refIpc =
        badcoReferenceIpcs(models, cores, target_uops, opts.seed, jobs);
    std::vector<UncoreConfig> ucfgs;
    for (PolicyKind p : policies)
        ucfgs.push_back(UncoreConfig::forCores(cores, p));
    runExplicitShards(c, opts,
                      [&](const persist::V3Manifest &m,
                          std::uint64_t s, std::vector<double> &out) {
                          simulatePopulationShardBatched(
                              m, workloads, ucfgs, models, opts.seed,
                              s, 0, jobs, out);
                      });
    return c;
}

Campaign
runDetailedCampaign(const WorkloadSet &workloads,
                    const std::vector<PolicyKind> &policies,
                    std::uint32_t cores, std::uint64_t target_uops,
                    const CoreConfig &core_cfg,
                    const std::vector<BenchmarkProfile> &suite,
                    const CampaignOptions &opts)
{
    Campaign c = newCampaign("detailed", workloads, policies, cores,
                             target_uops, suite);
    const std::size_t jobs = exec::resolveJobs(opts.jobs);
    prebuildSuiteTraces(suite, target_uops, jobs);
    {
        UncoreConfig ref =
            UncoreConfig::forCores(cores, PolicyKind::LRU);
        DetailedMulticoreSim ref_sim(core_cfg, ref, 1, target_uops,
                                     opts.seed);
        c.refIpc = ref_sim.referenceIpcs(suite, jobs);
    }
    std::vector<UncoreConfig> ucfgs;
    for (PolicyKind p : policies)
        ucfgs.push_back(UncoreConfig::forCores(cores, p));
    runExplicitShards(c, opts,
                      [&](const persist::V3Manifest &m,
                          std::uint64_t s, std::vector<double> &out) {
                          simulateDetailedPopulationShard(
                              m, workloads, core_cfg, ucfgs, suite,
                              opts.seed, s, jobs, out);
                      });
    return c;
}

} // namespace wsel
