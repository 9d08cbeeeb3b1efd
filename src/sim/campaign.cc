#include "sim/campaign.hh"

#include <filesystem>
#include <functional>
#include <sstream>

#include "exec/scheduler.hh"
#include "sim/population.hh"
#include "stats/logging.hh"
#include "stats/persist.hh"
#include "stats/persist_v3.hh"

namespace wsel
{

namespace
{

std::vector<std::string>
splitOn(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : s) {
        if (c == sep) {
            out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    out.push_back(cur);
    return out;
}

/**
 * Strict unsigned parse: digits only, fully consumed.  Unlike raw
 * std::stoull this rejects "-1" and "12x" and never leaks
 * std::invalid_argument/std::out_of_range to the caller.
 */
std::uint64_t
parseU64(const std::string &s, const char *what,
         std::size_t line_no)
{
    if (s.empty() || s.size() > 20)
        throw persist::CacheInvalid(
            std::string("malformed ") + what + " '" + s +
            "' at line " + std::to_string(line_no));
    std::uint64_t v = 0;
    for (char c : s) {
        if (c < '0' || c > '9')
            throw persist::CacheInvalid(
                std::string("malformed ") + what + " '" + s +
                "' at line " + std::to_string(line_no));
        v = v * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return v;
}

/** Strict double parse; CacheInvalid instead of raw std exceptions. */
double
parseDouble(const std::string &s, const char *what,
            std::size_t line_no)
{
    try {
        std::size_t pos = 0;
        const double v = std::stod(s, &pos);
        if (pos != s.size())
            throw std::invalid_argument("trailing garbage");
        return v;
    } catch (const std::exception &) {
        throw persist::CacheInvalid(
            std::string("malformed ") + what + " '" + s +
            "' at line " + std::to_string(line_no));
    }
}

std::vector<double>
parseDoubleList(const std::string &s, const char *what,
                std::size_t line_no)
{
    std::vector<double> out;
    for (const std::string &v : splitOn(s, ';'))
        out.push_back(parseDouble(v, what, line_no));
    return out;
}

/** Sequential line reader tracking 1-based line numbers. */
class LineReader
{
  public:
    explicit LineReader(const std::string &text) : is_(text) {}

    bool
    next(std::string &line)
    {
        if (!std::getline(is_, line))
            return false;
        ++lineNo_;
        return true;
    }

    std::size_t lineNo() const { return lineNo_; }

  private:
    std::istringstream is_;
    std::size_t lineNo_ = 0;
};

/**
 * Parse a v1/v2 campaign body (footer already stripped and
 * verified for v2).  Throws persist::CacheInvalid on any problem.
 */
Campaign
parseCampaignBody(const std::string &body, int version)
{
    Campaign c;
    c.formatVersion = version;
    LineReader reader(body);
    std::string line;
    auto next = [&](const char *tag) -> std::string {
        if (!reader.next(line))
            throw persist::CacheInvalid(
                std::string("truncated: missing '") + tag +
                "' line");
        const auto f = splitOn(line, ',');
        if (f.size() < 2 || f[0] != tag)
            throw persist::CacheInvalid(
                std::string("expected '") + tag + "' at line " +
                std::to_string(reader.lineNo()) + ", got '" + line +
                "'");
        return f[1];
    };
    next("wsel-campaign"); // already validated by the caller
    if (version >= 2) {
        if (!persist::parseHex(next("fingerprint"), c.fingerprint))
            throw persist::CacheInvalid(
                "malformed fingerprint at line " +
                std::to_string(reader.lineNo()));
    }
    c.simulator = next("simulator");
    c.cores = static_cast<std::uint32_t>(
        parseU64(next("cores"), "core count", reader.lineNo()));
    if (c.cores == 0 || c.cores > 1024)
        throw persist::CacheInvalid(
            "implausible core count " + std::to_string(c.cores));
    c.targetUops =
        parseU64(next("target"), "target uops", reader.lineNo());
    c.simSeconds = parseDouble(next("simseconds"), "simseconds",
                               reader.lineNo());
    c.instructions = parseU64(next("instructions"), "instructions",
                              reader.lineNo());
    try {
        for (const std::string &p : splitOn(next("policies"), ';'))
            c.policies.push_back(parsePolicyKind(p));
    } catch (const FatalError &e) {
        throw persist::CacheInvalid(
            std::string("unknown policy at line ") +
            std::to_string(reader.lineNo()) + ": " + e.what());
    }
    if (c.policies.empty())
        throw persist::CacheInvalid("empty policy list");
    for (const std::string &b : splitOn(next("benchmarks"), ';'))
        c.benchmarks.push_back(b);
    c.refIpc = parseDoubleList(next("refipc"), "reference IPC",
                               reader.lineNo());
    if (c.refIpc.size() != c.benchmarks.size())
        throw persist::CacheInvalid(
            "refipc count " + std::to_string(c.refIpc.size()) +
            " does not match " + std::to_string(c.benchmarks.size()) +
            " benchmarks");
    const std::uint64_t nw64 = parseU64(
        next("nworkloads"), "workload count", reader.lineNo());
    if (nw64 > 50'000'000)
        throw persist::CacheInvalid(
            "implausible workload count " + std::to_string(nw64));
    const std::size_t nw = static_cast<std::size_t>(nw64);
    std::vector<Workload> wls;
    wls.reserve(nw);
    for (std::size_t w = 0; w < nw; ++w) {
        if (!reader.next(line))
            throw persist::CacheInvalid("truncated workload list");
        const auto f = splitOn(line, ',');
        if (f.size() != 2 || f[0] != "w")
            throw persist::CacheInvalid(
                "bad workload line '" + line + "' at line " +
                std::to_string(reader.lineNo()));
        std::vector<std::uint32_t> benches;
        for (const std::string &b : splitOn(f[1], ';')) {
            const std::uint64_t idx = parseU64(
                b, "benchmark index", reader.lineNo());
            if (idx >= c.benchmarks.size())
                throw persist::CacheInvalid(
                    "benchmark index " + std::to_string(idx) +
                    " out of range at line " +
                    std::to_string(reader.lineNo()));
            benches.push_back(static_cast<std::uint32_t>(idx));
        }
        if (benches.size() != c.cores)
            throw persist::CacheInvalid(
                "workload at line " +
                std::to_string(reader.lineNo()) + " has " +
                std::to_string(benches.size()) + " slots, campaign "
                "has " + std::to_string(c.cores) + " cores");
        wls.push_back(Workload(std::move(benches)));
    }
    c.workloads = WorkloadSet(std::move(wls));
    c.ipc.reshape(c.policies.size(), nw, c.cores);
    // The contiguous matrix is zero-initialized, so duplicate
    // detection needs its own bitmap (a zero cell is legal).
    std::vector<char> seen(c.policies.size() * nw, 0);
    std::size_t rows = 0;
    while (reader.next(line)) {
        if (line.empty())
            continue;
        const auto f = splitOn(line, ',');
        if (f.size() != 4 || f[0] != "i")
            throw persist::CacheInvalid(
                "bad ipc line '" + line + "' at line " +
                std::to_string(reader.lineNo()));
        const std::size_t p = static_cast<std::size_t>(
            parseU64(f[1], "policy index", reader.lineNo()));
        const std::size_t w = static_cast<std::size_t>(
            parseU64(f[2], "workload index", reader.lineNo()));
        if (p >= c.policies.size() || w >= nw)
            throw persist::CacheInvalid(
                "ipc line out of range at line " +
                std::to_string(reader.lineNo()));
        if (seen[p * nw + w])
            throw persist::CacheInvalid(
                "duplicate ipc cell (" + std::to_string(p) + "," +
                std::to_string(w) + ") at line " +
                std::to_string(reader.lineNo()));
        std::vector<double> ipcs =
            parseDoubleList(f[3], "IPC value", reader.lineNo());
        if (ipcs.size() != c.cores)
            throw persist::CacheInvalid(
                "ipc cell at line " +
                std::to_string(reader.lineNo()) + " has " +
                std::to_string(ipcs.size()) + " values, expected " +
                std::to_string(c.cores));
        c.ipc.setCell(p, w, {ipcs.data(), ipcs.size()});
        seen[p * nw + w] = 1;
        ++rows;
    }
    if (rows != c.policies.size() * nw)
        throw persist::CacheInvalid(
            "has " + std::to_string(rows) + " ipc rows, expected " +
            std::to_string(c.policies.size() * nw));
    return c;
}

/** Full validated load; throws persist::CacheInvalid on problems. */
Campaign
loadImpl(const std::string &path)
{
    const std::string text = persist::readFile(path);
    const std::size_t eol = text.find('\n');
    const std::string first =
        text.substr(0, eol == std::string::npos ? text.size() : eol);
    int version = 0;
    if (first == "wsel-campaign,v1")
        version = 1;
    else if (first == "wsel-campaign,v2")
        version = 2;
    else
        throw persist::CacheInvalid(
            "not a wsel campaign file (first line '" + first + "')");
    std::string body = text;
    if (version >= 2) {
        // The footer must be the last line:
        //   footer,<ipc-row-count>,<fnv1a of all preceding bytes>
        const std::size_t pos = text.rfind("\nfooter,");
        if (pos == std::string::npos)
            throw persist::CacheInvalid(
                "truncated: missing integrity footer");
        body = text.substr(0, pos + 1);
        std::string footer = text.substr(pos + 1);
        if (!footer.empty() && footer.back() == '\n')
            footer.pop_back();
        else
            throw persist::CacheInvalid(
                "truncated: unterminated integrity footer");
        const auto f = splitOn(footer, ',');
        std::uint64_t want = 0;
        if (f.size() != 3 || !persist::parseHex(f[2], want))
            throw persist::CacheInvalid(
                "malformed integrity footer '" + footer + "'");
        const std::uint64_t rows = parseU64(f[1], "footer row count",
                                            0);
        if (persist::fnv1a(body) != want)
            throw persist::CacheInvalid(
                "checksum mismatch (file damaged or edited)");
        Campaign c = parseCampaignBody(body, version);
        if (rows != c.policies.size() * c.workloads.size())
            throw persist::CacheInvalid(
                "footer row count " + std::to_string(rows) +
                " does not match body");
        return c;
    }
    return parseCampaignBody(body, version);
}

/**
 * Load a sharded binary campaign_v3 directory (population
 * campaigns, src/stats/persist_v3.hh).  Throws
 * persist::CacheInvalid on any validation failure.
 */
Campaign
loadV3Impl(const std::string &path)
{
    const persist::V3Manifest m = persist::readV3Manifest(path);
    Campaign c;
    c.formatVersion = 3;
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
    const WorkloadPopulation pop(m.popBenchmarks, m.popCores);
    if (m.lastRank > pop.size() || m.firstRank > m.lastRank)
        throw persist::CacheInvalid(
            "campaign_v3 manifest: rank range outside population");
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
        WorkloadSet::populationRange(pop, m.firstRank, m.lastRank);
    c.ipc.reshape(np, nw, c.cores);
    for (std::uint64_t s = 0; s < m.shardCount(); ++s) {
        const std::vector<double> payload =
            persist::readV3Shard(path, m, s);
        c.ipc.scatterRows(static_cast<std::size_t>(s * m.shardRows),
                          {payload.data(), payload.size()});
    }
    return c;
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
    std::ostringstream os;
    os << "wsel-campaign,v2\n";
    os << "fingerprint," << persist::toHex(fingerprint) << "\n";
    os << "simulator," << simulator << "\n";
    os << "cores," << cores << "\n";
    os << "target," << targetUops << "\n";
    os << "simseconds," << simSeconds << "\n";
    os << "instructions," << instructions << "\n";
    os << "policies,";
    for (std::size_t i = 0; i < policies.size(); ++i)
        os << (i ? ";" : "") << toString(policies[i]);
    os << "\n";
    os << "benchmarks,";
    for (std::size_t i = 0; i < benchmarks.size(); ++i)
        os << (i ? ";" : "") << benchmarks[i];
    os << "\n";
    os << "refipc,";
    os.precision(17);
    for (std::size_t i = 0; i < refIpc.size(); ++i)
        os << (i ? ";" : "") << refIpc[i];
    os << "\n";
    os << "nworkloads," << workloads.size() << "\n";
    workloads.forEach(
        [&](std::size_t, std::span<const std::uint32_t> benches) {
            os << "w,";
            for (std::size_t k = 0; k < benches.size(); ++k)
                os << (k ? ";" : "") << benches[k];
            os << "\n";
        });
    for (std::size_t p = 0; p < policies.size(); ++p) {
        for (std::size_t w = 0; w < workloads.size(); ++w) {
            os << "i," << p << "," << w << ",";
            const auto cell = ipc.cell(p, w);
            for (std::size_t k = 0; k < cell.size(); ++k)
                os << (k ? ";" : "") << cell[k];
            os << "\n";
        }
    }
    const std::string body = os.str();
    const std::string footer =
        "footer," +
        std::to_string(policies.size() * workloads.size()) + "," +
        persist::toHex(persist::fnv1a(body)) + "\n";
    persist::atomicWriteFile(path, body + footer);
}

Campaign
Campaign::load(const std::string &path, LoadMode mode)
{
    try {
        if (persist::isV3CampaignDir(path))
            return loadV3Impl(path);
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
    {
        UncoreConfig ref =
            UncoreConfig::forCores(cores, PolicyKind::LRU);
        BadcoMulticoreSim ref_sim(ref, 1, target_uops, opts.seed);
        c.refIpc = ref_sim.referenceIpcs(models, jobs);
    }
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
