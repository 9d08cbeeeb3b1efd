#include "sim/population.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <sstream>
#include <utility>

#include "exec/scheduler.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/batch.hh"
#include "sim/campaign.hh"
#include "sim/multicore.hh"
#include "stats/logging.hh"
#include "stats/persist.hh"
#include "trace/trace_store.hh"

namespace wsel
{

namespace
{

namespace fs = std::filesystem;

std::vector<PopulationPairSummary>
makeAccumulators(const std::vector<PopulationPairSpec> &pairs,
                 const PopulationOptions &opts)
{
    std::vector<PopulationPairSummary> acc;
    acc.reserve(pairs.size());
    for (const PopulationPairSpec &s : pairs)
        acc.emplace_back(s, opts.histLo, opts.histHi, opts.histBins,
                         opts.sketchCapacity);
    return acc;
}

/**
 * Stream one shard's payload through the pair accumulators.  The
 * cursor walk re-derives each row's benchmark multiset so the
 * reference IPCs for speedup metrics come from the row itself, not
 * from any stored per-row state.
 */
void
accumulateShard(const persist::V3Manifest &m,
                const WorkloadPopulation &pop, std::uint64_t shard,
                std::span<const double> payload,
                const std::vector<double> &ref_ipc,
                std::vector<PopulationPairSummary> &acc)
{
    const std::size_t np = m.policies.size();
    const std::size_t k = m.cores;
    const std::uint64_t rows = m.rowsInShard(shard);
    std::vector<double> refs(k, 1.0);
    std::vector<double> t(np, 0.0);
    WorkloadCursor cur(pop, m.shardFirstRank(shard));
    for (std::uint64_t r = 0; r < rows; ++r, cur.next()) {
        const std::span<const std::uint32_t> benches =
            cur.benchmarks();
        for (std::size_t c = 0; c < k; ++c)
            refs[c] = ref_ipc[benches[c]];
        const double *row = payload.data() + r * np * k;
        for (PopulationPairSummary &a : acc) {
            const std::size_t px = a.spec.x;
            const std::size_t py = a.spec.y;
            const double tx = perWorkloadThroughput(
                a.spec.metric, {row + px * k, k}, refs);
            const double ty = perWorkloadThroughput(
                a.spec.metric, {row + py * k, k}, refs);
            const double d =
                perWorkloadDifference(a.spec.metric, tx, ty);
            a.d.add(d);
            a.hist.add(d);
            a.sketch.add(cur.rank(), d);
        }
    }
}

} // namespace

void
simulatePopulationShard(const persist::V3Manifest &m,
                        const WorkloadSet &set,
                        const std::vector<UncoreConfig> &ucfgs,
                        const std::vector<const BadcoModel *> &models,
                        std::uint64_t base_seed, std::uint64_t shard,
                        std::vector<double> &payload,
                        std::atomic<std::uint64_t> *cells_done)
{
    const std::size_t np = m.policies.size();
    if (ucfgs.size() != np)
        WSEL_FATAL("shard simulation got " << ucfgs.size()
                   << " uncore configs for " << np << " policies");
    const std::uint32_t k = m.cores;
    const std::size_t first = m.shardFirstRank(shard);
    const std::size_t rows = m.rowsInShard(shard);
    payload.assign(rows * np * k, 0.0);
    set.forEach(first, first + rows,
                [&](std::size_t row,
                    std::span<const std::uint32_t> benches) {
        double *out = payload.data() + (row - first) * np * k;
        for (std::size_t p = 0; p < np; ++p) {
            persist::faultPoint("population.cell");
            const BadcoMulticoreSim sim(
                ucfgs[p], k, m.targetUops,
                campaignCellSeed(m.fingerprint, base_seed, p, row));
            const SimResult res = sim.run(benches, models);
            for (std::uint32_t c = 0; c < k; ++c)
                out[p * k + c] = res.ipc[c];
            if (cells_done)
                cells_done->fetch_add(1, std::memory_order_relaxed);
        }
    });
}

void
simulatePopulationShardBatched(
    const persist::V3Manifest &m, const WorkloadSet &set,
    const std::vector<UncoreConfig> &ucfgs,
    const std::vector<const BadcoModel *> &models,
    std::uint64_t base_seed, std::uint64_t shard, std::size_t jobs,
    std::vector<double> &payload,
    std::atomic<std::uint64_t> *cells_done)
{
    const std::size_t np = m.policies.size();
    if (ucfgs.size() != np)
        WSEL_FATAL("shard simulation got " << ucfgs.size()
                   << " uncore configs for " << np << " policies");
    const std::uint32_t k = m.cores;
    const std::size_t first = m.shardFirstRank(shard);
    const std::size_t rows = m.rowsInShard(shard);
    payload.assign(rows * np * k, 0.0);
    BadcoBatchRunner runner({ucfgs.data(), ucfgs.size()}, k,
                            m.targetUops, models, jobs, cells_done);
    set.forEach(first, first + rows,
                [&](std::size_t row,
                    std::span<const std::uint32_t> benches) {
        double *out = payload.data() + (row - first) * np * k;
        for (std::size_t p = 0; p < np; ++p) {
            persist::faultPoint("population.cell");
            runner.add(campaignCellSeed(m.fingerprint, base_seed, p,
                                        row),
                       static_cast<std::uint32_t>(p), benches,
                       out + p * k);
        }
    });
    runner.run();
}

void
simulateDetailedPopulationShard(
    const persist::V3Manifest &m, const WorkloadSet &set,
    const CoreConfig &core_cfg,
    const std::vector<UncoreConfig> &ucfgs,
    const std::vector<BenchmarkProfile> &suite,
    std::uint64_t base_seed, std::uint64_t shard, std::size_t jobs,
    std::vector<double> &payload,
    std::atomic<std::uint64_t> *cells_done)
{
    const std::size_t np = m.policies.size();
    if (ucfgs.size() != np)
        WSEL_FATAL("shard simulation got " << ucfgs.size()
                   << " uncore configs for " << np << " policies");
    const std::uint32_t k = m.cores;
    const std::size_t first = m.shardFirstRank(shard);
    const std::size_t rows = m.rowsInShard(shard);
    payload.assign(rows * np * k, 0.0);
    auto run_row = [&](std::size_t r) {
        const std::size_t row = first + r;
        const Workload w = set[row];
        double *out = payload.data() + r * np * k;
        for (std::size_t p = 0; p < np; ++p) {
            persist::faultPoint("fidelity.escalate");
            const DetailedMulticoreSim sim(
                core_cfg, ucfgs[p], k, m.targetUops,
                campaignCellSeed(m.fingerprint, base_seed, p, row));
            const SimResult res = sim.run(w, suite);
            for (std::uint32_t c = 0; c < k; ++c)
                out[p * k + c] = res.ipc[c];
            if (cells_done)
                cells_done->fetch_add(1, std::memory_order_relaxed);
        }
    };
    // Rows are independent cells, each writing its own payload
    // slice, so spreading them over threads cannot change a byte.
    exec::forEachIndex(exec::resolveJobs(jobs), rows, run_row);
}

void
prebuildSuiteTraces(const std::vector<BenchmarkProfile> &suite,
                    std::uint64_t uops, std::size_t jobs)
{
    TraceStore &ts = TraceStore::global();
    exec::forEachIndex(exec::resolveJobs(jobs), suite.size(),
                       [&](std::size_t i) {
                           ts.ensureBuilt(suite[i], uops);
                       });
}

ShardLoopStats
runShardLoop(
    const persist::V3Manifest &m, const std::string &dir,
    bool resume,
    const std::function<void(std::uint64_t, std::vector<double> &)>
        &simulate,
    const std::function<void(std::uint64_t, std::span<const double>)>
        &consume,
    bool verbose, const std::string &label)
{
    ShardLoopStats st;
    const std::uint64_t shards = m.shardCount();
    std::vector<double> payload;
    for (std::uint64_t s = 0; s < shards; ++s) {
        const std::uint64_t cells = m.rowsInShard(s) * m.policies.size();
        if (resume && !dir.empty()) {
            try {
                payload = persist::readV3Shard(dir, m, s);
                if (obs::metricsEnabled()) {
                    static obs::Counter &resumedC =
                        obs::counter("population.cells_resumed");
                    resumedC.inc(cells);
                }
                consume(s, {payload.data(), payload.size()});
                st.cellsResumed += cells;
                ++st.shardsResumed;
                continue;
            } catch (const persist::CacheInvalid &e) {
                persist::quarantineArtifact(
                    persist::v3ShardPath(dir, s),
                    "corrupt campaign shard", e.what(),
                    "re-simulating");
            }
        }

        obs::Span sspan("population.shard",
                        "shard=" + std::to_string(s));
        const auto s0 = std::chrono::steady_clock::now();
        simulate(s, payload);
        if (!dir.empty()) {
            const auto w0 = std::chrono::steady_clock::now();
            persist::writeV3Shard(dir, m, s,
                                  {payload.data(), payload.size()});
            const auto write_ns = static_cast<std::uint64_t>(
                std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - w0)
                    .count());
            if (obs::metricsEnabled()) {
                static obs::Counter &shardsC =
                    obs::counter("population.shards_written");
                static obs::Counter &bytesC =
                    obs::counter("population.bytes");
                static obs::LatencyHistogram &writeNs =
                    obs::histogram("population.shard_write_ns");
                shardsC.inc();
                bytesC.inc(payload.size() * sizeof(double));
                writeNs.recordNs(write_ns);
            }
            ++st.shardsWritten;
        }
        st.simSeconds += std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - s0)
                             .count();
        if (obs::metricsEnabled()) {
            static obs::Counter &cellsC =
                obs::counter("population.cells");
            cellsC.inc(cells);
        }
        consume(s, {payload.data(), payload.size()});
        st.cellsSimulated += cells;
        if (verbose) {
            std::ostringstream os;
            os << "  [" << label << "] shard " << (s + 1) << "/"
               << shards << " (" << cells << " cells)";
            logLine(os.str());
        }
    }
    return st;
}

persist::V3Manifest
populationManifest(const std::string &simulator, std::uint32_t cores,
                   std::uint64_t target_uops,
                   const std::vector<PolicyKind> &policies,
                   const std::vector<BenchmarkProfile> &suite,
                   std::uint64_t first_rank, std::uint64_t last_rank,
                   std::uint64_t shard_rows)
{
    const WorkloadPopulation pop(
        static_cast<std::uint32_t>(suite.size()), cores);
    const std::uint64_t last = last_rank == 0 ? pop.size() : last_rank;
    if (first_rank >= last || last > pop.size())
        WSEL_FATAL("rank range [" << first_rank << ", " << last
                   << ") invalid for a population of " << pop.size());
    persist::V3Manifest m;
    m.fingerprint = campaignFingerprint(simulator, cores, target_uops,
                                        policies, suite);
    m.simulator = simulator;
    m.cores = cores;
    m.targetUops = target_uops;
    for (PolicyKind p : policies)
        m.policies.push_back(toString(p));
    for (const BenchmarkProfile &p : suite)
        m.benchmarks.push_back(p.name);
    m.popBenchmarks = pop.numBenchmarks();
    m.popCores = cores;
    m.firstRank = first_rank;
    m.lastRank = last;
    m.shardRows = shard_rows;
    m.instructions = m.rows() * policies.size() * cores * target_uops;
    return m;
}

PopulationResult
runBadcoPopulationCampaign(
    const WorkloadPopulation &pop,
    const std::vector<PolicyKind> &policies,
    std::uint64_t target_uops, BadcoModelStore &store,
    const std::vector<BenchmarkProfile> &suite,
    const std::vector<PopulationPairSpec> &pairs,
    const std::string &out_dir, const PopulationOptions &opts)
{
    if (policies.empty())
        WSEL_FATAL("population campaign needs policies");
    if (pop.numBenchmarks() != suite.size())
        WSEL_FATAL("population is over " << pop.numBenchmarks()
                   << " benchmarks but the suite has "
                   << suite.size());
    for (const PopulationPairSpec &s : pairs) {
        if (s.x >= policies.size() || s.y >= policies.size())
            WSEL_FATAL("pair " << s.label
                       << " references a policy index outside the "
                          "campaign's " << policies.size()
                       << " policies");
    }

    const auto t0 = std::chrono::steady_clock::now();
    obs::Span span("population.run");
    const std::size_t jobs = exec::resolveJobs(opts.jobs);
    const std::size_t np = policies.size();
    const std::uint32_t k = pop.cores();

    persist::V3Manifest m = populationManifest(
        "badco", k, target_uops, policies, suite, opts.firstRank,
        opts.lastRank,
        std::max<std::uint64_t>(
            1, opts.shardCells / std::max<std::size_t>(1, np)));

    const std::vector<const BadcoModel *> models =
        store.getSuite(suite, jobs);
    m.refIpc = badcoReferenceIpcs(models, k, target_uops, opts.seed, jobs);

    std::error_code ec;
    fs::create_directories(out_dir, ec);
    if (ec)
        WSEL_FATAL("cannot create campaign directory " << out_dir
                   << ": " << ec.message());
    if (!opts.resume) {
        // A fresh run must not inherit shards from an older (maybe
        // differently-shaped) campaign in the same directory.
        const std::uint64_t shards = m.shardCount();
        for (std::uint64_t s = 0; s < shards; ++s)
            fs::remove(persist::v3ShardPath(out_dir, s), ec);
        fs::remove(persist::v3ManifestPath(out_dir), ec);
    }

    std::vector<UncoreConfig> ucfgs;
    ucfgs.reserve(np);
    for (PolicyKind p : policies)
        ucfgs.push_back(UncoreConfig::forCores(k, p));

    const WorkloadSet all = WorkloadSet::fullPopulation(pop);

    // Each shard's cells are spread over the jobs threads by the
    // batch runner (sim/batch.hh). The Welford, histogram and
    // sketch merges are order-insensitive in value, but merging one
    // partial per shard in shard order keeps the floating-point
    // result reproducible.
    PopulationResult result;
    result.dir = out_dir;
    result.pairs = makeAccumulators(pairs, opts);
    const ShardLoopStats st = runShardLoop(
        m, out_dir, opts.resume,
        [&](std::uint64_t s, std::vector<double> &payload) {
            simulatePopulationShardBatched(m, all, ucfgs, models,
                                           opts.seed, s, jobs,
                                           payload);
        },
        [&](std::uint64_t s, std::span<const double> payload) {
            std::vector<PopulationPairSummary> part =
                makeAccumulators(pairs, opts);
            accumulateShard(m, pop, s, payload, m.refIpc, part);
            for (std::size_t i = 0; i < result.pairs.size(); ++i) {
                result.pairs[i].d.merge(part[i].d);
                result.pairs[i].hist.merge(part[i].hist);
                result.pairs[i].sketch.merge(part[i].sketch);
            }
        },
        opts.verbose, "population");
    result.cellsSimulated = st.cellsSimulated;
    result.cellsResumed = st.cellsResumed;
    result.shardsWritten = st.shardsWritten;
    result.shardsResumed = st.shardsResumed;
    // simSeconds is this run's simulation wall only; instructions
    // (populationManifest) describe the whole artifact, resumed
    // shards included.
    m.simSeconds += st.simSeconds;

    // The manifest is the commit point: it only exists once every
    // shard it describes does.
    persist::writeV3Manifest(out_dir, m);
    result.manifest = std::move(m);
    result.wallSeconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
    if (obs::metricsEnabled() && result.wallSeconds > 0.0) {
        obs::gauge("population.cells_per_sec")
            .set(static_cast<double>(result.cellsSimulated) /
                 result.wallSeconds);
    }
    return result;
}

} // namespace wsel
