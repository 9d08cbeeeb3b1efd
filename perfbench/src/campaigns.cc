#include "campaigns.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include <sys/resource.h>

#include "fidelity/calibrate.hh"
#include "fidelity/persist_fidelity.hh"
#include "mem/uncore_config.hh"
#include "serve/protocol.hh"
#include "serve/spawn.hh"
#include "sim/hybrid.hh"
#include "stats/persist_v3.hh"
#include "tracer.hh"
#include "trace/benchmark_profile.hh"

namespace perfbench
{

namespace fs = std::filesystem;
using namespace wsel;

namespace
{

std::uint32_t
llcHitLatency(const Shape &s)
{
    return UncoreConfig::forCores(s.cores, PolicyKind::LRU)
        .llcHitLatency;
}

void
fnv(std::uint64_t &h, const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
}

serve::CoordinatorOptions
coordinatorOptions(const Shape &s, const std::string &socket,
                   const std::string &store_root,
                   const std::string &cache_dir)
{
    serve::CoordinatorOptions copts;
    copts.socketPath = socket;
    copts.storeRoot = store_root;
    copts.cacheDir = cache_dir;
    copts.jobs = s.jobs;
    copts.exitWhenIdle = true;
    return copts;
}

/** The distributed campaign with a fresh store under @p dir. */
CampaignRun
runDistributed(const Shape &s, const std::string &dir,
               const std::string &cache_dir)
{
    CampaignRun run;
    const double cpu0 = cpuSeconds();
    const Clock::time_point t0 = Clock::now();
    serve::StatusMsg st;
    bool clean = false;
    {
        ServeSession session(s, "serve.sock", dir + "/store",
                             cache_dir);
        {
            serve::Client client(session.socket());
            st = client.waitFinished(client.submit(campaignSpec(s)));
        }
        clean = session.finish();
    }
    run.wall = secondsSince(t0);
    run.cpu = cpuSeconds() - cpu0;
    if (st.state != serve::CampaignState::Done || !clean)
        throw std::runtime_error("distributed campaign did not "
                                 "finish cleanly: " + st.message);
    run.cells = s.rows() * s.policies.size();
    run.shards = st.shardsDone;
    run.dedupHits = st.shardsDeduped;
    run.quarantined = st.shardsQuarantined;
    run.artifactDir = st.dir;
    run.pairStats = foldShards(s, st.dir);
    return run;
}

} // namespace

Shape
makeShape(const std::string &workload, std::uint64_t seed, bool smoke,
          bool serial)
{
    Shape s;
    s.name = workload;
    s.uops = smoke ? 2000 : 20000;
    s.baseSeed = 1 + seed; // seed 0 runs the CLI's default seed
    s.serial = serial;
    // Each workload simulates a fixed window of contiguous ranks;
    // the seed sets the campaign seed, from which every cell's seed
    // derives.  Moving the window with the seed would change the
    // benchmark mix, and cost per cell varies by over 20 % between
    // windows of this size, more than the metrics' bounds.
    std::uint64_t rows = 0;
    std::uint64_t anchor = 0;
    if (workload == "population-4c") {
        s.kind = Kind::Population;
        rows = smoke ? 24 : 200;
        anchor = 4096;
    } else if (workload == "hybrid-4c") {
        s.kind = Kind::Hybrid;
        rows = smoke ? 16 : 128;
        anchor = 6144;
    } else if (workload == "distributed-4c") {
        s.kind = Kind::Distributed;
        rows = smoke ? 24 : 200;
        anchor = 4096;
        s.jobs = 3;
        s.shardCells = smoke ? 40 : 400;
    } else {
        throw std::invalid_argument("unknown workload " + workload);
    }
    if (s.kind == Kind::Hybrid)
        s.policies = {PolicyKind::DIP, PolicyKind::DRRIP};
    else
        s.policies = {PolicyKind::LRU, PolicyKind::Random,
                      PolicyKind::FIFO, PolicyKind::DIP,
                      PolicyKind::DRRIP};
    s.firstRank = anchor;
    s.lastRank = anchor + rows;
    if (serial && s.kind == Kind::Population)
        s.jobs = 1;
    return s;
}

const WorkloadPopulation &
populationOf(const Shape &s)
{
    static const WorkloadPopulation pop(
        static_cast<std::uint32_t>(spec2006Suite().size()), s.cores);
    return pop;
}

HybridOptions
hybridOptions(const Shape &s)
{
    HybridOptions opts;
    opts.seed = s.baseSeed;
    opts.jobs = s.jobs;
    opts.shardCells = s.shardCells;
    opts.firstRank = s.firstRank;
    opts.lastRank = s.lastRank;
    opts.budgetFraction = s.budget;
    opts.batchCells = s.serial ? 1 : 0;
    // Two escalated rows per batch file: at the default 64 the
    // window's escalations fit one batch, which runs on one thread.
    opts.batchRows = 2;
    return opts;
}

std::vector<PopulationPairSpec>
pairsOf(const Shape &s)
{
    // Every ordered pair i<j, oriented "i outperforms j", like the
    // CLI; hybrid folds its single X-vs-Y pair.
    std::vector<PopulationPairSpec> pairs;
    if (s.kind == Kind::Hybrid) {
        PopulationPairSpec p;
        p.x = 0;
        p.y = 1;
        p.label = toString(s.policies[0]) + std::string(" vs ") +
                  toString(s.policies[1]);
        pairs.push_back(p);
        return pairs;
    }
    for (std::size_t i = 0; i < s.policies.size(); ++i) {
        for (std::size_t j = i + 1; j < s.policies.size(); ++j) {
            PopulationPairSpec p;
            p.y = i;
            p.x = j;
            p.label = toString(s.policies[i]) + ">" +
                      toString(s.policies[j]);
            pairs.push_back(p);
        }
    }
    return pairs;
}

Setup
setUp(const Shape &s, const std::string &cache_dir,
      const std::string &profile_path)
{
    Setup su;
    su.cacheDir = cache_dir;
    const Clock::time_point t0 = Clock::now();
    su.store = std::make_unique<BadcoModelStore>(
        CoreConfig{}, s.uops, llcHitLatency(s), cache_dir);
    su.models = su.store->getSuite(spec2006Suite(), 4);
    su.modelSeconds = secondsSince(t0);
    if (s.kind == Kind::Hybrid)
        su.profile = fidelity::readErrorProfile(profile_path);
    su.seconds = secondsSince(t0);
    return su;
}

void
calibrateProfile(const Shape &s, const std::string &cache_dir,
                 const std::string &path)
{
    // A fixed calibration seed: every hybrid run, whatever its
    // workload seed, starts from this one profile.
    const fidelity::ErrorProfile profile =
        fidelity::calibrateErrorProfile(s.cores, s.uops, 24, 1,
                                        spec2006Suite(), s.policies,
                                        cache_dir, 4);
    fidelity::writeErrorProfile(path, profile);
}

serve::CampaignSpec
campaignSpec(const Shape &s)
{
    serve::CampaignSpec spec;
    spec.cores = s.cores;
    spec.targetUops = s.uops;
    spec.seed = s.baseSeed;
    for (PolicyKind p : s.policies)
        spec.policies.push_back(toString(p));
    for (const BenchmarkProfile &p : spec2006Suite())
        spec.benchmarks.push_back(p.name);
    spec.firstRank = s.firstRank;
    spec.lastRank = s.lastRank;
    spec.shardRows = std::max<std::uint64_t>(
        1, s.shardCells / s.policies.size());
    return spec;
}

ServeSession::ServeSession(const Shape &s, const std::string &socket,
                           const std::string &store_root,
                           const std::string &cache_dir)
    : socket_(socket),
      coordinator_(coordinatorOptions(s, socket, store_root, cache_dir))
{
    const std::string worker_bin = serve::findWorkerBinary();
    loop_ = std::thread([this] {
        try {
            coordinator_.run();
        } catch (const std::exception &e) {
            std::fprintf(stderr, "coordinator died: %s\n", e.what());
        }
    });
    try {
        for (std::size_t i = 0; i < s.jobs; ++i)
            workers_.push_back(serve::spawnProcess(
                {worker_bin, "--socket", socket, "--cache-dir",
                 cache_dir}));
    } catch (...) {
        stop();
        throw;
    }
}

ServeSession::~ServeSession()
{
    if (!finished_)
        stop();
}

void
ServeSession::stop()
{
    coordinator_.requestStop();
    for (pid_t pid : workers_)
        (void)serve::waitProcess(pid);
    loop_.join();
    finished_ = true;
}

bool
ServeSession::finish()
{
    bool clean = true;
    for (pid_t pid : workers_)
        clean = serve::exitedCleanly(serve::waitProcess(pid)) && clean;
    loop_.join();
    finished_ = true;
    return clean;
}

double
cpuSeconds()
{
    double total = 0.0;
    for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
        rusage ru{};
        getrusage(who, &ru);
        total += static_cast<double>(ru.ru_utime.tv_sec) +
                 static_cast<double>(ru.ru_stime.tv_sec) +
                 1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                            ru.ru_stime.tv_usec);
    }
    return total;
}

double
peakRssMib()
{
    long kib = 0;
    for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
        rusage ru{};
        getrusage(who, &ru);
        kib = std::max(kib, ru.ru_maxrss);
    }
    return static_cast<double>(kib) / 1024.0;
}

CampaignRun
runCampaign(const Shape &s, Setup &setup, const std::string &dir)
{
    if (s.kind == Kind::Distributed && !s.serial)
        return runDistributed(s, dir, setup.cacheDir);
    const std::vector<BenchmarkProfile> &suite = spec2006Suite();
    const WorkloadPopulation &pop = populationOf(s);
    CampaignRun run;
    run.artifactDir = dir + "/campaign";
    const double cpu0 = cpuSeconds();
    const Clock::time_point t0 = Clock::now();
    PopulationResult badco;
    if (s.kind != Kind::Hybrid) {
        PopulationOptions opts;
        opts.seed = s.baseSeed;
        opts.jobs = s.serial ? 1 : s.jobs;
        opts.batchCells = s.serial ? 1 : 0;
        opts.shardCells = s.shardCells;
        opts.firstRank = s.firstRank;
        opts.lastRank = s.lastRank;
        badco = runBadcoPopulationCampaign(pop, s.policies, s.uops,
                                           *setup.store, suite,
                                           pairsOf(s), run.artifactDir,
                                           opts);
    } else {
        // The run updates the profile in place; keep the frozen one.
        fidelity::ErrorProfile profile = setup.profile;
        HybridResult h = runHybridCampaign(
            pop, s.policies[0], s.policies[1], ThroughputMetric::IPCT,
            s.uops, *setup.store, suite, profile, run.artifactDir,
            hybridOptions(s));
        run.cells += h.detailedCellsSimulated;
        run.resumed += h.detailedCellsResumed;
        run.escalatedRows = h.report.escalated;
        badco = std::move(h.badco);
    }
    run.wall = secondsSince(t0);
    run.cpu = cpuSeconds() - cpu0;
    run.cells += badco.cellsSimulated;
    run.resumed += badco.cellsResumed;
    run.shards = badco.shardsWritten;
    // The distributed campaign's statistics come from its shards.
    run.pairStats = s.kind == Kind::Distributed
                        ? foldShards(s, run.artifactDir)
                        : pairStatsOf(badco.pairs);
    return run;
}

std::vector<PopulationPairSummary>
makeAccumulators(const Shape &s)
{
    const PopulationOptions defaults;
    std::vector<PopulationPairSummary> acc;
    for (const PopulationPairSpec &p : pairsOf(s))
        acc.emplace_back(p, defaults.histLo, defaults.histHi,
                         defaults.histBins, defaults.sketchCapacity);
    return acc;
}

void
foldShard(const persist::V3Manifest &m, const WorkloadPopulation &pop,
          std::uint64_t shard, const std::vector<double> &payload,
          std::vector<PopulationPairSummary> &acc)
{
    const std::size_t np = m.policies.size();
    const std::size_t k = m.cores;
    std::vector<double> refs(k, 1.0);
    WorkloadCursor cur(pop, m.shardFirstRank(shard));
    for (std::uint64_t r = 0; r < m.rowsInShard(shard);
         ++r, cur.next()) {
        const std::span<const std::uint32_t> benches =
            cur.benchmarks();
        for (std::size_t c = 0; c < k; ++c)
            refs[c] = m.refIpc[benches[c]];
        const double *row = payload.data() + r * np * k;
        for (PopulationPairSummary &a : acc) {
            const double tx = perWorkloadThroughput(
                a.spec.metric, {row + a.spec.x * k, k}, refs);
            const double ty = perWorkloadThroughput(
                a.spec.metric, {row + a.spec.y * k, k}, refs);
            const double d =
                perWorkloadDifference(a.spec.metric, tx, ty);
            a.d.add(d);
            a.hist.add(d);
            a.sketch.add(cur.rank(), d);
        }
    }
}

std::vector<double>
pairStatsOf(const std::vector<PopulationPairSummary> &acc)
{
    std::vector<double> out;
    for (const PopulationPairSummary &a : acc) {
        out.push_back(a.inverseCv());
        out.push_back(a.d.mean());
    }
    return out;
}

std::vector<double>
foldShards(const Shape &s, const std::string &dir)
{
    const persist::V3Manifest m = persist::readV3Manifest(dir);
    std::vector<PopulationPairSummary> total = makeAccumulators(s);
    for (std::uint64_t sh = 0; sh < m.shardCount(); ++sh) {
        std::vector<PopulationPairSummary> part = makeAccumulators(s);
        foldShard(m, populationOf(s), sh,
                  persist::readV3Shard(dir, m, sh), part);
        for (std::size_t i = 0; i < total.size(); ++i) {
            total[i].d.merge(part[i].d);
            total[i].hist.merge(part[i].hist);
            total[i].sketch.merge(part[i].sketch);
        }
    }
    return pairStatsOf(total);
}

std::string
digest(const std::string &artifact_dir,
       const std::vector<double> &pair_stats)
{
    std::vector<std::string> names;
    for (const fs::directory_entry &e :
         fs::directory_iterator(artifact_dir)) {
        const std::string n = e.path().filename().string();
        const bool artifact = n.ends_with(".bin") &&
                              n != "manifest.bin";
        if (e.is_regular_file() && artifact)
            names.push_back(n);
    }
    std::sort(names.begin(), names.end());
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::string &n : names) {
        std::ifstream in(artifact_dir + "/" + n, std::ios::binary);
        const std::string bytes(std::istreambuf_iterator<char>(in),
                                {});
        fnv(h, n.data(), n.size());
        fnv(h, bytes.data(), bytes.size());
    }
    for (double v : pair_stats)
        fnv(h, &v, sizeof v);
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(h));
    return hex;
}

} // namespace perfbench
