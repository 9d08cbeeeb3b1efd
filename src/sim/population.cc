#include "sim/population.hh"

#include <chrono>
#include <filesystem>
#include <optional>
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

/**
 * Per-shard statistics partial: one accumulator triple per pair,
 * filled while the shard's payload is in cache and merged into the
 * campaign totals right after, in shard order, so the merged
 * result does not depend on the job count.
 */
struct ShardPartial
{
    std::vector<PopulationPairSummary> pairs;
    std::uint64_t cellsSimulated = 0;
    std::uint64_t cellsResumed = 0;
    bool written = false;
    bool resumed = false;
    double simWall = 0.0;
};

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
                ShardPartial &part)
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
        for (PopulationPairSummary &a : part.pairs) {
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
                        const WorkloadPopulation &pop,
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
    const std::uint64_t rows = m.rowsInShard(shard);
    payload.assign(static_cast<std::size_t>(rows) * np * k, 0.0);
    WorkloadCursor cur(pop, m.shardFirstRank(shard));
    for (std::uint64_t r = 0; r < rows; ++r, cur.next()) {
        const std::uint64_t rank = cur.rank();
        double *row = payload.data() + r * np * k;
        for (std::size_t p = 0; p < np; ++p) {
            persist::faultPoint("population.cell");
            const BadcoMulticoreSim sim(
                ucfgs[p], k, m.targetUops,
                campaignCellSeed(m.fingerprint, base_seed, p,
                                 rank));
            const SimResult res = sim.run(cur.benchmarks(), models);
            for (std::uint32_t c = 0; c < k; ++c)
                row[p * k + c] = res.ipc[c];
            if (cells_done)
                cells_done->fetch_add(1, std::memory_order_relaxed);
        }
    }
}

void
simulatePopulationShardBatched(
    const persist::V3Manifest &m, const WorkloadPopulation &pop,
    const std::vector<UncoreConfig> &ucfgs,
    const std::vector<const BadcoModel *> &models,
    std::uint64_t base_seed, std::uint64_t shard,
    std::uint32_t batch_cells, std::size_t jobs,
    std::vector<double> &payload,
    std::atomic<std::uint64_t> *cells_done)
{
    const std::size_t np = m.policies.size();
    if (ucfgs.size() != np)
        WSEL_FATAL("shard simulation got " << ucfgs.size()
                   << " uncore configs for " << np << " policies");
    const std::uint32_t k = m.cores;
    const std::uint64_t rows = m.rowsInShard(shard);
    payload.assign(static_cast<std::size_t>(rows) * np * k, 0.0);
    BadcoBatchRunner runner({ucfgs.data(), ucfgs.size()}, k,
                            m.targetUops, models,
                            resolveBatchCells(batch_cells), jobs,
                            cells_done);
    WorkloadCursor cur(pop, m.shardFirstRank(shard));
    for (std::uint64_t r = 0; r < rows; ++r, cur.next()) {
        const std::uint64_t rank = cur.rank();
        double *row = payload.data() + r * np * k;
        for (std::size_t p = 0; p < np; ++p) {
            persist::faultPoint("population.cell");
            runner.add(campaignCellSeed(m.fingerprint, base_seed,
                                        p, rank),
                       static_cast<std::uint32_t>(p),
                       cur.benchmarks(), row + p * k);
        }
    }
    runner.run();
}

void
simulateDetailedPopulationShard(
    const persist::V3Manifest &m, const WorkloadPopulation &pop,
    const CoreConfig &core_cfg,
    const std::vector<UncoreConfig> &ucfgs,
    const std::vector<BenchmarkProfile> &suite,
    std::uint64_t base_seed, std::uint64_t shard,
    std::vector<double> &payload,
    std::atomic<std::uint64_t> *cells_done)
{
    const std::size_t np = m.policies.size();
    if (ucfgs.size() != np)
        WSEL_FATAL("shard simulation got " << ucfgs.size()
                   << " uncore configs for " << np << " policies");
    const std::uint32_t k = m.cores;
    const std::uint64_t rows = m.rowsInShard(shard);
    payload.assign(static_cast<std::size_t>(rows) * np * k, 0.0);
    WorkloadCursor cur(pop, m.shardFirstRank(shard));
    for (std::uint64_t r = 0; r < rows; ++r, cur.next()) {
        const std::uint64_t rank = cur.rank();
        const Workload w{std::vector<std::uint32_t>(
            cur.benchmarks().begin(), cur.benchmarks().end())};
        // Pin the row's trace chunks once: all np x k cursors of
        // this row read the same <= k benchmarks, so one pin per
        // row keeps a tight WSEL_TRACE_MEM budget from thrashing a
        // chunk out between cells only to rebuild it for the next
        // one. Dropped (and the budget re-converged) per row.
        BatchPin pin;
        for (std::uint32_t bench : w.benchmarks()) {
            if (bench < suite.size())
                pin.pin(TraceStore::global(), suite[bench],
                        m.targetUops);
        }
        double *row = payload.data() + r * np * k;
        for (std::size_t p = 0; p < np; ++p) {
            persist::faultPoint("fidelity.escalate");
            const DetailedMulticoreSim sim(
                core_cfg, ucfgs[p], k, m.targetUops,
                campaignCellSeed(m.fingerprint, base_seed, p,
                                 rank));
            const SimResult res = sim.run(w, suite);
            for (std::uint32_t c = 0; c < k; ++c)
                row[p * k + c] = res.ipc[c];
            if (cells_done)
                cells_done->fetch_add(1, std::memory_order_relaxed);
        }
    }
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
    const std::uint64_t last =
        opts.lastRank == 0 ? pop.size() : opts.lastRank;
    if (opts.firstRank >= last || last > pop.size())
        WSEL_FATAL("population rank range [" << opts.firstRank
                   << ", " << last << ") invalid for size "
                   << pop.size());
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

    persist::V3Manifest m;
    m.fingerprint = campaignFingerprint("badco", k, target_uops,
                                        policies, suite);
    m.simulator = "badco";
    m.cores = k;
    m.targetUops = target_uops;
    for (PolicyKind p : policies)
        m.policies.push_back(toString(p));
    for (const BenchmarkProfile &p : suite)
        m.benchmarks.push_back(p.name);
    m.popBenchmarks = pop.numBenchmarks();
    m.popCores = k;
    m.firstRank = opts.firstRank;
    m.lastRank = last;
    m.shardRows = std::max<std::uint64_t>(
        1, opts.shardCells / std::max<std::size_t>(1, np));

    const std::vector<const BadcoModel *> models =
        store.getSuite(suite, jobs);
    {
        UncoreConfig ref = UncoreConfig::forCores(k, PolicyKind::LRU);
        BadcoMulticoreSim ref_sim(ref, 1, target_uops, opts.seed);
        m.refIpc = ref_sim.referenceIpcs(models);
    }

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

    const std::uint64_t shards = m.shardCount();
    const std::uint32_t batch_cells =
        resolveBatchCells(opts.batchCells);

    auto run_shard = [&](std::size_t s) {
        ShardPartial part;
        part.pairs = makeAccumulators(pairs, opts);
        const std::uint64_t rows = m.rowsInShard(s);
        const std::uint64_t cells = rows * np;
        const std::string shard_path =
            persist::v3ShardPath(out_dir, s);

        if (opts.resume) {
            try {
                const std::vector<double> payload =
                    persist::readV3Shard(out_dir, m, s);
                accumulateShard(m, pop, s, payload, m.refIpc, part);
                part.cellsResumed = cells;
                part.resumed = true;
                return part;
            } catch (const persist::CacheInvalid &e) {
                if (fs::exists(shard_path)) {
                    const std::string moved =
                        persist::quarantineFile(shard_path);
                    warn("corrupt campaign shard " + shard_path +
                         " (" + e.what() + ")" +
                         (moved.empty()
                              ? ""
                              : "; quarantined to " + moved) +
                         "; re-simulating");
                }
            }
        }

        obs::Span sspan("population.shard",
                        "shard=" + std::to_string(s));
        const auto s0 = std::chrono::steady_clock::now();
        std::vector<double> payload;
        simulatePopulationShardBatched(m, pop, ucfgs, models,
                                       opts.seed, s, batch_cells,
                                       jobs, payload);
        {
            std::uint64_t write_ns = 0;
            {
                const auto w0 = std::chrono::steady_clock::now();
                persist::writeV3Shard(out_dir, m, s,
                                      {payload.data(),
                                       payload.size()});
                write_ns = static_cast<std::uint64_t>(
                    std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - w0)
                        .count());
            }
            if (obs::metricsEnabled()) {
                static obs::Counter &cellsC =
                    obs::counter("population.cells");
                static obs::Counter &shardsC =
                    obs::counter("population.shards_written");
                static obs::Counter &bytesC =
                    obs::counter("population.bytes");
                static obs::LatencyHistogram &writeNs =
                    obs::histogram("population.shard_write_ns");
                cellsC.inc(cells);
                shardsC.inc();
                bytesC.inc(payload.size() * sizeof(double));
                writeNs.recordNs(write_ns);
            }
        }
        accumulateShard(m, pop, s, {payload.data(), payload.size()},
                        m.refIpc, part);
        part.cellsSimulated = cells;
        part.written = true;
        part.simWall = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - s0)
                           .count();
        if (opts.verbose) {
            std::ostringstream os;
            os << "  [population] shard " << (s + 1) << "/"
               << shards << " (" << cells << " cells)";
            logLine(os.str());
        }
        return part;
    };

    // Shards run one after another in rank order, so at most one
    // shard's payload is live; the batch runner spreads each
    // shard's cells over the jobs threads (sim/batch.hh). The
    // Welford, histogram and sketch merges are order-insensitive in
    // value, but merging in shard order keeps the floating-point
    // result reproducible.
    PopulationResult result;
    result.dir = out_dir;
    result.pairs = makeAccumulators(pairs, opts);
    double sim_seconds = 0.0;
    for (std::uint64_t s = 0; s < shards; ++s) {
        const ShardPartial part = run_shard(s);
        for (std::size_t i = 0; i < result.pairs.size(); ++i) {
            result.pairs[i].d.merge(part.pairs[i].d);
            result.pairs[i].hist.merge(part.pairs[i].hist);
            result.pairs[i].sketch.merge(part.pairs[i].sketch);
        }
        result.cellsSimulated += part.cellsSimulated;
        result.cellsResumed += part.cellsResumed;
        result.shardsWritten += part.written ? 1 : 0;
        result.shardsResumed += part.resumed ? 1 : 0;
        sim_seconds += part.simWall;
    }
    m.simSeconds += sim_seconds;
    // Instructions describe the whole artifact (resumed shards
    // included); simSeconds is this run's simulation wall only.
    m.instructions = m.rows() * np * k * target_uops;

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
