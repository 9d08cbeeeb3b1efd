/**
 * @file
 * The traced run.  For each workload it
 *
 *  1. runs the campaign once untraced (the wall, CPU and digest the
 *     traced run is compared with),
 *  2. re-composes the same campaign from the layers' public calls —
 *     BadcoBatchRunner batches, persist::writeV3Shard, the d(w)
 *     fold, EscalationOracle, DetailedMulticoreSim, TraceStore,
 *     serve::Client — under Tracer spans, into a second directory,
 *     and checks that its artifacts are byte-identical,
 *  3. runs isolated probes: BADCO cells recorded against a real
 *     Uncore and replayed to split the node walk from the uncore,
 *     trace chunk build and cursor reads, shard reads and the
 *     workload cursor, and, for the layers the workload's campaign
 *     never calls, a few detailed cells, the escalation oracle and
 *     client round trips to an idle coordinator.
 *
 * So every time is measured on every workload; only counts of a
 * layer the campaign never calls (leases, escalated rows) are 0.
 */

#include "layers.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <thread>

#include "badco/badco_machine.hh"
#include "exec/scheduler.hh"
#include "fidelity/escalation.hh"
#include "fidelity/persist_fidelity.hh"
#include "mem/uncore.hh"
#include "obs/metrics.hh"
#include "serve/protocol.hh"
#include "sim/batch.hh"
#include "sim/campaign.hh"
#include "sim/multicore.hh"
#include "stats/persist_v3.hh"
#include "trace/trace_store.hh"
#include "tracer.hh"

namespace perfbench
{

namespace fs = std::filesystem;
using namespace wsel;

namespace
{

/**
 * trace.coverage must fall in this range (README.md).  It is a ratio
 * of two single-campaign walls, and one campaign's wall time on a
 * shared host varies by up to a quarter either way.
 */
constexpr double kCoverageLo = 0.5;
constexpr double kCoverageHi = 2.0;

/** Layers the traced runs attribute wall time to. */
constexpr const char *kLayers[] = {"sim.badco", "sim.detailed",
                                   "stats.write", "stats.read",
                                   "stats.fold", "fidelity", "trace",
                                   "serve", "exec"};

/** Rows of the campaign window replayed by the record/replay probe. */
constexpr std::uint64_t kReplayRows = 8;

/** Rows the detailed probe simulates where the campaign runs none. */
constexpr std::uint64_t kDetailedProbeRows = 1;

/** Round trips of the idle-coordinator status probe. */
constexpr int kStatusProbes = 200;

/** Keeps probe loops from being optimized away. */
volatile std::uint64_t gSink = 0;

/** Nearest-rank quantile; 0 for an empty sample. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
mean(const std::vector<double> &v)
{
    double sum = 0.0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

template <typename Fn>
void
forEachParallel(Tracer &tr, std::size_t n, std::size_t jobs, Fn &&fn)
{
    if (jobs <= 1 || n <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    exec::ThreadPool pool(std::min(jobs, n));
    Tracer::Span wait(tr, "exec", true);
    exec::parallel_for(pool, std::size_t{0}, n, fn);
}

/** Timings the traced BADCO sweep collects besides its spans. */
struct Sweep
{
    persist::V3Manifest manifest;
    std::vector<double> pairStats;
    std::vector<double> cellUs;  ///< per batch, µs per cell
    std::vector<double> writeMs; ///< per shard
    double simSeconds = 0.0;     ///< summed shard simulation time
    double foldSeconds = 0.0;
    std::uint64_t foldValues = 0; ///< d(w) values folded
};

/**
 * runBadcoPopulationCampaign re-composed from its layers' public
 * calls, writing the same campaign_v3 artifact into @p dir.
 */
Sweep
tracedSweep(Tracer &tr, const Shape &s, Setup &setup,
            const std::string &dir, std::size_t jobs)
{
    const std::vector<BenchmarkProfile> &suite = spec2006Suite();
    const WorkloadPopulation &pop = populationOf(s);
    const std::uint32_t k = s.cores;
    const std::size_t np = s.policies.size();
    Sweep out;
    persist::V3Manifest &m = out.manifest;
    m.fingerprint =
        campaignFingerprint("badco", k, s.uops, s.policies, suite);
    m.simulator = "badco";
    m.cores = k;
    m.targetUops = s.uops;
    for (PolicyKind p : s.policies)
        m.policies.push_back(toString(p));
    for (const BenchmarkProfile &p : suite)
        m.benchmarks.push_back(p.name);
    m.popBenchmarks = pop.numBenchmarks();
    m.popCores = k;
    m.firstRank = s.firstRank;
    m.lastRank = s.lastRank;
    m.shardRows = std::max<std::uint64_t>(1, s.shardCells / np);
    {
        Tracer::Span span(tr, "sim.badco");
        const UncoreConfig ref =
            UncoreConfig::forCores(k, PolicyKind::LRU);
        m.refIpc = BadcoMulticoreSim(ref, 1, s.uops, s.baseSeed)
                       .referenceIpcs(setup.models);
    }
    fs::create_directories(dir);
    std::vector<UncoreConfig> ucfgs;
    for (PolicyKind p : s.policies)
        ucfgs.push_back(UncoreConfig::forCores(k, p));

    const std::uint64_t shards = m.shardCount();
    std::vector<std::vector<PopulationPairSummary>> parts(shards);
    std::vector<std::vector<double>> cellUs(shards);
    std::vector<double> writeMs(shards), simS(shards), foldS(shards);
    forEachParallel(tr, shards, jobs, [&](std::size_t sh) {
        std::vector<double> payload(m.rowsInShard(sh) * np * k, 0.0);
        {
            Tracer::Span span(tr, "sim.badco");
            BadcoBatchRunner runner({ucfgs.data(), ucfgs.size()}, k,
                                    s.uops, setup.models,
                                    resolveBatchCells(0),
                                    resolveBatchWave(0));
            auto flush = [&] {
                const std::size_t cells = runner.pending();
                const Clock::time_point b0 = Clock::now();
                runner.run();
                cellUs[sh].push_back(1e6 * secondsSince(b0) /
                                     static_cast<double>(cells));
            };
            WorkloadCursor cur(pop, m.shardFirstRank(sh));
            for (std::uint64_t r = 0; r < m.rowsInShard(sh);
                 ++r, cur.next()) {
                for (std::size_t p = 0; p < np; ++p) {
                    if (runner.full())
                        flush();
                    runner.add(campaignCellSeed(m.fingerprint,
                                                s.baseSeed, p,
                                                cur.rank()),
                               static_cast<std::uint32_t>(p),
                               cur.benchmarks(),
                               payload.data() + (r * np + p) * k);
                }
            }
            if (runner.pending() > 0)
                flush();
            simS[sh] = span.elapsed();
        }
        {
            Tracer::Span span(tr, "stats.write");
            persist::writeV3Shard(dir, m, sh,
                                  {payload.data(), payload.size()});
            writeMs[sh] = 1e3 * span.elapsed();
        }
        Tracer::Span span(tr, "stats.fold");
        parts[sh] = makeAccumulators(s);
        foldShard(m, pop, sh, payload, parts[sh]);
        foldS[sh] = span.elapsed();
    });
    {
        Tracer::Span span(tr, "stats.fold");
        std::vector<PopulationPairSummary> total = makeAccumulators(s);
        for (const auto &part : parts) {
            for (std::size_t i = 0; i < total.size(); ++i) {
                total[i].d.merge(part[i].d);
                total[i].hist.merge(part[i].hist);
                total[i].sketch.merge(part[i].sketch);
            }
        }
        out.pairStats = pairStatsOf(total);
    }
    {
        Tracer::Span span(tr, "stats.write");
        m.instructions = m.rows() * np * k * s.uops;
        persist::writeV3Manifest(dir, m);
    }
    for (std::uint64_t sh = 0; sh < shards; ++sh) {
        out.cellUs.insert(out.cellUs.end(), cellUs[sh].begin(),
                          cellUs[sh].end());
        out.simSeconds += simS[sh];
        out.foldSeconds += foldS[sh];
    }
    out.writeMs = writeMs;
    out.foldValues = m.rows() * pairsOf(s).size();
    return out;
}

/** One uncore call of a recorded BADCO cell. */
struct Call
{
    bool writeback;
    bool write;
    bool prefetch;
    std::uint32_t core;
    std::uint64_t cycle;
    std::uint64_t vaddr;
    std::uint64_t pc;
    std::uint64_t done; ///< completion cycle (access only)
};

/** Forwards to a real Uncore and logs every call. */
class RecordingUncore final : public UncoreIf
{
  public:
    RecordingUncore(Uncore &u, std::vector<Call> &log)
        : u_(u), log_(log)
    {}

    std::uint64_t
    access(std::uint64_t cycle, std::uint32_t core,
           std::uint64_t vaddr, bool write, std::uint64_t pc,
           bool prefetch) override
    {
        const std::uint64_t done =
            u_.access(cycle, core, vaddr, write, pc, prefetch);
        log_.push_back({false, write, prefetch, core, cycle, vaddr, pc,
                        done});
        return done;
    }

    void
    writeback(std::uint64_t cycle, std::uint32_t core,
              std::uint64_t vaddr) override
    {
        u_.writeback(cycle, core, vaddr);
        log_.push_back({true, false, false, core, cycle, vaddr, 0, 0});
    }

    std::uint32_t hitLatency() const override { return u_.hitLatency(); }

  private:
    Uncore &u_;
    std::vector<Call> &log_;
};

/** Answers from a recorded log; flags any divergence. */
class ReplayUncore final : public UncoreIf
{
  public:
    ReplayUncore(const std::vector<Call> &log, std::uint32_t hit)
        : log_(log), hit_(hit)
    {}

    std::uint64_t
    access(std::uint64_t cycle, std::uint32_t core,
           std::uint64_t vaddr, bool write, std::uint64_t pc,
           bool prefetch) override
    {
        const Call *c = next();
        if (c == nullptr || c->writeback || c->cycle != cycle ||
            c->core != core || c->vaddr != vaddr || c->write != write ||
            c->pc != pc || c->prefetch != prefetch) {
            diverged_ = true;
            return cycle + hit_;
        }
        return c->done;
    }

    void
    writeback(std::uint64_t cycle, std::uint32_t core,
              std::uint64_t vaddr) override
    {
        const Call *c = next();
        if (c == nullptr || !c->writeback || c->cycle != cycle ||
            c->core != core || c->vaddr != vaddr)
            diverged_ = true;
    }

    std::uint32_t hitLatency() const override { return hit_; }

    /** True when every call matched and the log was consumed. */
    bool exact() const { return !diverged_ && at_ == log_.size(); }

  private:
    const Call *
    next()
    {
        return at_ < log_.size() ? &log_[at_++] : nullptr;
    }

    const std::vector<Call> &log_;
    std::uint32_t hit_;
    std::size_t at_ = 0;
    bool diverged_ = false;
};

/**
 * One BADCO cell under BadcoMulticoreSim's rotating-quantum
 * schedule (its defaults: calibrated window, 16 outstanding loads,
 * 50-cycle quantum, finished threads restart) against @p u.
 */
std::vector<double>
runMachines(UncoreIf &u, const std::vector<const BadcoModel *> &models,
            std::span<const std::uint32_t> benches, std::uint64_t uops,
            std::uint64_t &requests)
{
    const auto k = static_cast<std::uint32_t>(benches.size());
    std::vector<std::unique_ptr<BadcoMachine>> ms;
    for (std::uint32_t c = 0; c < k; ++c)
        ms.push_back(std::make_unique<BadcoMachine>(
            *models[benches[c]], u, c, uops));
    std::uint64_t t = 0;
    std::uint32_t first = 0;
    while (!std::all_of(ms.begin(), ms.end(), [](const auto &m) {
        return m->reachedTarget();
    })) {
        t += 50;
        for (std::uint32_t i = 0; i < k; ++i) {
            BadcoMachine &m = *ms[(first + i) % k];
            if (m.localClock() < t)
                m.run(t);
        }
        first = (first + 1) % k;
    }
    std::vector<double> ipc;
    for (const auto &m : ms) {
        ipc.push_back(m->ipc());
        requests += m->stats().requests;
    }
    return ipc;
}

bool
sameBits(const std::vector<double> &a, const double *b)
{
    return std::memcmp(a.data(), b, a.size() * sizeof(double)) == 0;
}

/**
 * Record/replay split of a sample of the campaign's BADCO cells
 * (the first kReplayRows rows, every policy), checked bitwise
 * against the IPCs the engine committed to shard 0 of @p dir.
 */
bool
replayProbe(const Shape &s, Setup &setup, const std::string &dir,
            Json &out)
{
    const persist::V3Manifest m = persist::readV3Manifest(dir);
    const std::vector<double> payload = persist::readV3Shard(dir, m, 0);
    const std::uint32_t k = s.cores;
    const std::size_t np = s.policies.size();
    const std::uint64_t rows = std::min(kReplayRows, m.rowsInShard(0));
    double walkS = 0.0, uncoreS = 0.0;
    std::uint64_t cells = 0, accesses = 0, requests = 0, hits = 0,
                  demand = 0;
    bool ok = true;
    WorkloadCursor cur(populationOf(s), m.firstRank);
    for (std::uint64_t r = 0; r < rows; ++r, cur.next()) {
        for (std::size_t p = 0; p < np; ++p) {
            const UncoreConfig cfg =
                UncoreConfig::forCores(k, s.policies[p]);
            const std::uint64_t seed = campaignCellSeed(
                m.fingerprint, s.baseSeed, p, cur.rank());
            const double *engine = payload.data() + (r * np + p) * k;

            std::vector<Call> log;
            Uncore real(cfg, k, seed);
            RecordingUncore rec(real, log);
            std::uint64_t unused = 0;
            const std::vector<double> recorded = runMachines(
                rec, setup.models, cur.benchmarks(), s.uops, unused);
            ok = ok && sameBits(recorded, engine);
            hits += real.llcStats().demandHits;
            demand += real.llcStats().demandAccesses;

            ReplayUncore replay(log, real.hitLatency());
            const Clock::time_point w0 = Clock::now();
            const std::vector<double> replayed = runMachines(
                replay, setup.models, cur.benchmarks(), s.uops,
                requests);
            walkS += secondsSince(w0);
            ok = ok && replay.exact() && sameBits(replayed, engine);

            Uncore fresh(cfg, k, seed);
            std::uint64_t mismatches = 0;
            const Clock::time_point u0 = Clock::now();
            for (const Call &c : log) {
                if (c.writeback) {
                    fresh.writeback(c.cycle, c.core, c.vaddr);
                } else {
                    mismatches += fresh.access(c.cycle, c.core, c.vaddr,
                                               c.write, c.pc,
                                               c.prefetch) != c.done;
                    ++accesses;
                }
            }
            uncoreS += secondsSince(u0);
            ok = ok && mismatches == 0;
            ++cells;
        }
    }
    const double n = static_cast<double>(cells);
    out.add("badco.walk_us_per_cell", 1e6 * walkS / n);
    out.add("mem.uncore_us_per_cell", 1e6 * uncoreS / n);
    out.add("mem.accesses_per_cell", static_cast<double>(accesses) / n);
    out.add("badco.requests_per_cell",
            static_cast<double>(requests) / n);
    out.add("mem.llc_hit_ratio",
            demand ? static_cast<double>(hits) /
                         static_cast<double>(demand)
                   : 0.0);
    return ok;
}

/** Chunk build and cursor reads on a private trace store. */
void
traceProbe(const Shape &s, Json &out)
{
    const std::vector<BenchmarkProfile> &suite = spec2006Suite();
    TraceStore store;
    const Clock::time_point b0 = Clock::now();
    for (const BenchmarkProfile &p : suite)
        store.ensureBuilt(p, s.uops);
    const double buildS = secondsSince(b0);
    std::uint64_t sink = 0;
    const Clock::time_point c0 = Clock::now();
    for (const BenchmarkProfile &p : suite) {
        TraceCursor cur = store.cursor(p);
        for (std::uint64_t i = 0; i < s.uops; ++i)
            sink += cur.next().addr;
    }
    const double cursorS = secondsSince(c0);
    gSink = sink;
    out.add("trace.chunk_build_ms",
            1e3 * buildS / static_cast<double>(suite.size()));
    out.add("trace.cursor_ns_per_uop",
            1e9 * cursorS / static_cast<double>(suite.size() * s.uops));
}

/** Shard reads of a committed campaign and the workload cursor. */
void
readProbe(const Shape &s, const std::string &dir, Json &out)
{
    const persist::V3Manifest m = persist::readV3Manifest(dir);
    const Clock::time_point r0 = Clock::now();
    for (std::uint64_t sh = 0; sh < m.shardCount(); ++sh)
        gSink = persist::readV3Shard(dir, m, sh).size();
    out.add("stats.shard_read_ms",
            1e3 * secondsSince(r0) /
                static_cast<double>(m.shardCount()));

    // Walk the whole population: one window is too short to time.
    const WorkloadPopulation &pop = populationOf(s);
    std::uint64_t sink = 0;
    const Clock::time_point w0 = Clock::now();
    for (WorkloadCursor cur(pop, 0); !cur.atEnd(); cur.next())
        sink += cur.benchmarks()[0];
    gSink = sink;
    out.add("core.workload.rank_ns",
            1e9 * secondsSince(w0) / static_cast<double>(pop.size()));
}

/**
 * EscalationOracle intervals of policy 0 against policy 1 for every
 * row of the campaign in @p dir, then selectEscalations under the
 * hybrid knobs.  @p ms gets the oracle plus selection time.
 */
std::vector<std::uint8_t>
escalate(Tracer &tr, const Shape &s,
         const fidelity::ErrorProfile &profile,
         const persist::V3Manifest &m, const std::string &dir,
         double &ms)
{
    const HybridOptions opts = hybridOptions(s);
    const WorkloadPopulation &pop = populationOf(s);
    const std::uint32_t k = s.cores;
    const std::size_t np = s.policies.size();
    std::vector<fidelity::CellInterval> cells;
    double seconds = 0.0;
    for (std::uint64_t sh = 0; sh < m.shardCount(); ++sh) {
        std::vector<double> payload;
        {
            Tracer::Span span(tr, "stats.read");
            payload = persist::readV3Shard(dir, m, sh);
        }
        Tracer::Span span(tr, "fidelity");
        fidelity::EscalationOracle oracle(ThroughputMetric::IPCT,
                                          profile, opts.quantile,
                                          m.refIpc);
        WorkloadCursor cur(pop, m.shardFirstRank(sh));
        for (std::uint64_t r = 0; r < m.rowsInShard(sh);
             ++r, cur.next()) {
            const double *row = payload.data() + r * np * k;
            cells.push_back(oracle.interval(cur.benchmarks(), {row, k},
                                            {row + k, k}));
        }
        seconds += span.elapsed();
    }
    Tracer::Span span(tr, "fidelity");
    std::vector<std::uint8_t> flags = fidelity::selectEscalations(
        cells, opts.threshold, opts.budgetFraction);
    ms = 1e3 * (seconds + span.elapsed());
    return flags;
}

/**
 * For a workload whose campaign runs no detailed cell: the detailed
 * simulator on the first kDetailedProbeRows rows of its window
 * (every policy), then the escalation oracle over its committed
 * campaign in @p dir, with an error profile learned from those
 * cells against the BADCO IPCs the campaign committed.
 */
void
detailedProbe(const Shape &s, const std::string &dir, Json &out)
{
    const std::vector<BenchmarkProfile> &suite = spec2006Suite();
    const WorkloadPopulation &pop = populationOf(s);
    const persist::V3Manifest m = persist::readV3Manifest(dir);
    const std::vector<double> payload = persist::readV3Shard(dir, m, 0);
    const std::uint32_t k = s.cores;
    const std::size_t np = s.policies.size();
    const std::uint64_t fp =
        campaignFingerprint("detailed", k, s.uops, s.policies, suite);
    fidelity::ErrorProfile profile(suite);
    std::vector<double> cellMs;
    WorkloadCursor cur(pop, m.firstRank);
    for (std::uint64_t r = 0; r < kDetailedProbeRows; ++r, cur.next()) {
        const Workload w = pop.unrank(cur.rank());
        for (std::uint32_t b : cur.benchmarks())
            TraceStore::global().ensureBuilt(suite[b], s.uops);
        for (std::size_t p = 0; p < np; ++p) {
            const DetailedMulticoreSim sim(
                CoreConfig{}, UncoreConfig::forCores(k, s.policies[p]),
                k, s.uops,
                campaignCellSeed(fp, s.baseSeed, p, cur.rank()));
            const Clock::time_point c0 = Clock::now();
            const SimResult res = sim.run(w, suite);
            cellMs.push_back(1e3 * secondsSince(c0));
            const double *badco = payload.data() + (r * np + p) * k;
            for (std::uint32_t c = 0; c < k; ++c)
                profile.record(cur.benchmarks()[c], badco[c],
                               res.ipc[c]);
        }
    }
    out.add("sim.detailed.cell_ms_p50", quantile(cellMs, 0.5));
    out.add("sim.detailed.cell_ms_p90", quantile(cellMs, 0.9));
    Tracer untimed;
    double oracleMs = 0.0;
    escalate(untimed, s, profile, m, dir, oracleMs);
    out.add("fidelity.oracle_ms", oracleMs);
}

/**
 * Median serve::Client::status round trip, in µs, to an idle
 * in-process coordinator with its store under @p dir.
 */
double
statusProbe(const std::string &dir)
{
    Shape idle;
    idle.jobs = 0; // no workers: the coordinator only answers
    ServeSession session(idle, "probe.sock", dir + "/probe-store", "");
    std::vector<double> rttUs;
    {
        serve::Client client(session.socket());
        for (int i = 0; i < kStatusProbes; ++i) {
            const Clock::time_point q0 = Clock::now();
            (void)client.status(1);
            rttUs.push_back(1e6 * secondsSince(q0));
        }
    }
    session.finish();
    return quantile(rttUs, 0.5);
}

void
sweepMetrics(const Sweep &sw, Json &out)
{
    out.add("sim.badco.cell_us_p50", quantile(sw.cellUs, 0.5));
    out.add("sim.badco.cell_us_p90", quantile(sw.cellUs, 0.9));
    out.add("stats.shard_write_ms", mean(sw.writeMs));
    out.add("stats.fold_ns_per_row",
            1e9 * sw.foldSeconds / static_cast<double>(sw.foldValues));
}

/**
 * runHybridCampaign re-composed: the traced BADCO sweep, the
 * escalation oracle, the trace store and the detailed cells, with
 * the splice and report left to the library by resuming it over the
 * traced artifacts (which it must accept without re-simulating).
 */
bool
tracedHybrid(Tracer &tr, const Shape &s, Setup &setup,
             const std::string &dir, Json &out, std::string &dig)
{
    const std::vector<BenchmarkProfile> &suite = spec2006Suite();
    const WorkloadPopulation &pop = populationOf(s);
    const HybridOptions opts = hybridOptions(s);
    const std::uint32_t k = s.cores;
    const std::size_t np = s.policies.size();
    const Sweep sw = tracedSweep(tr, s, setup, dir, s.jobs);
    sweepMetrics(sw, out);
    const persist::V3Manifest &m = sw.manifest;
    const std::uint64_t detailed_fp =
        campaignFingerprint("detailed", k, s.uops, s.policies, suite);

    double oracleMs = 0.0;
    const std::vector<std::uint8_t> flags =
        escalate(tr, s, setup.profile, m, dir, oracleMs);
    out.add("fidelity.oracle_ms", oracleMs);
    fidelity::EscalationRecord rec;
    {
        Tracer::Span span(tr, "fidelity");
        rec.badcoFingerprint = m.fingerprint;
        rec.detailedFingerprint = detailed_fp;
        rec.seed = opts.seed;
        rec.metric = toString(ThroughputMetric::IPCT);
        rec.policyX = m.policies[0];
        rec.policyY = m.policies[1];
        rec.quantile = opts.quantile;
        rec.budgetFraction = opts.budgetFraction;
        rec.threshold = opts.threshold;
        rec.firstRank = m.firstRank;
        rec.lastRank = m.lastRank;
        rec.resizeBitmap();
        for (std::uint64_t r = 0; r < m.rows(); ++r) {
            if (flags[r]) {
                rec.setEscalated(r);
                ++rec.escalatedCount;
            }
        }
        fidelity::writeEscalationRecord(dir, rec);
    }
    out.add("fidelity.escalated_rows", rec.escalatedCount);

    std::vector<std::uint64_t> ranks;
    for (std::uint64_t r = 0; r < m.rows(); ++r)
        if (rec.escalated(r))
            ranks.push_back(m.firstRank + r);
    {
        Tracer::Span span(tr, "trace");
        TraceStore &ts = TraceStore::global();
        forEachParallel(tr, suite.size(), s.jobs, [&](std::size_t i) {
            Tracer::Span build(tr, "trace");
            ts.ensureBuilt(suite[i], s.uops);
        });
    }
    const std::uint64_t batches =
        (ranks.size() + opts.batchRows - 1) / opts.batchRows;
    std::vector<std::vector<double>> cellMs(batches);
    forEachParallel(tr, batches, s.jobs, [&](std::size_t b) {
        fidelity::FidelityBatch batch;
        batch.detailedFingerprint = detailed_fp;
        batch.index = b;
        batch.firstOrdinal = b * opts.batchRows;
        batch.cores = k;
        batch.numPolicies = static_cast<std::uint32_t>(np);
        const std::size_t count = std::min<std::size_t>(
            opts.batchRows, ranks.size() - batch.firstOrdinal);
        batch.ranks.assign(ranks.begin() + batch.firstOrdinal,
                           ranks.begin() + batch.firstOrdinal + count);
        for (std::uint64_t rank : batch.ranks) {
            const Workload w = pop.unrank(rank);
            for (std::size_t p = 0; p < np; ++p) {
                Tracer::Span span(tr, "sim.detailed");
                const DetailedMulticoreSim sim(
                    opts.coreCfg, UncoreConfig::forCores(k, s.policies[p]),
                    k, s.uops,
                    campaignCellSeed(detailed_fp, opts.seed, p, rank));
                const SimResult res = sim.run(w, suite);
                batch.ipc.insert(batch.ipc.end(), res.ipc.begin(),
                                 res.ipc.end());
                cellMs[b].push_back(1e3 * span.elapsed());
            }
        }
        Tracer::Span span(tr, "fidelity");
        fidelity::writeFidelityBatch(dir, batch);
    });
    std::vector<double> all;
    for (const auto &v : cellMs)
        all.insert(all.end(), v.begin(), v.end());
    out.add("sim.detailed.cell_ms_p50", quantile(all, 0.5));
    out.add("sim.detailed.cell_ms_p90", quantile(all, 0.9));

    fidelity::ErrorProfile profile = setup.profile;
    HybridResult h;
    {
        Tracer::Span span(tr, "fidelity");
        h = runHybridCampaign(pop, s.policies[0], s.policies[1],
                              ThroughputMetric::IPCT, s.uops,
                              *setup.store, suite, profile, dir, opts);
    }
    dig = digest(dir, pairStatsOf(h.badco.pairs));
    return h.badco.cellsSimulated == 0 && h.detailedCellsSimulated == 0 &&
           h.detailedCellsResumed == ranks.size() * np;
}

/** The distributed campaign with its client calls traced. */
bool
tracedDistributed(Tracer &tr, const Shape &s, const std::string &dir,
                  const std::string &cache_dir,
                  std::vector<double> &rttUs, std::string &artifact)
{
    std::optional<ServeSession> session;
    {
        Tracer::Span span(tr, "serve");
        session.emplace(s, "traced.sock", dir + "/store", cache_dir);
    }
    serve::StatusMsg st;
    {
        Tracer::Span span(tr, "serve");
        serve::Client client(session->socket());
        const std::uint64_t id = client.submit(campaignSpec(s));
        while (true) {
            const Clock::time_point q0 = Clock::now();
            st = client.status(id);
            rttUs.push_back(1e6 * secondsSince(q0));
            if (st.state != serve::CampaignState::Queued &&
                st.state != serve::CampaignState::Running)
                break;
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
    }
    Tracer::Span span(tr, "serve");
    const bool clean = session->finish();
    artifact = st.dir;
    return clean && st.state == serve::CampaignState::Done &&
           st.shardsDeduped == 0 && st.shardsQuarantined == 0;
}

double
sumValues(const std::map<std::string, double> &m)
{
    double sum = 0.0;
    for (const auto &kv : m)
        sum += kv.second;
    return sum;
}

} // namespace

bool
traceRun(const Shape &s, const std::string &dir,
         const std::string &profile, Json &out)
{
    Setup setup = setUp(s, dir + "/models", profile);
    out.add("badco.model_build_s", setup.modelSeconds);

    // Untraced runs before and after the traced one; each starts
    // from an empty process-wide trace store, like a fresh process.
    auto untraced_run = [&](const std::string &sub) {
        TraceStore::global().clear();
        const CampaignRun r = runCampaign(s, setup, dir + "/" + sub);
        TraceStore::global().clear();
        return r;
    };
    const CampaignRun u = untraced_run("before");
    const std::string untraced = digest(u.artifactDir, u.pairStats);
    out.add("digest", untraced);
    out.add("exec.shards", u.shards);
    bool ok = u.resumed == 0 && u.dedupHits == 0 && u.quarantined == 0;

    Tracer tr;
    std::string traced;
    double tracedWall = 0.0;
    double inprocCompute = 0.0;
    const std::string tdir = dir + "/traced";
    if (s.kind == Kind::Population) {
        const Clock::time_point t0 = Clock::now();
        const Sweep sw = tracedSweep(tr, s, setup, tdir, s.jobs);
        tracedWall = secondsSince(t0);
        traced = digest(tdir, sw.pairStats);
        sweepMetrics(sw, out);
    } else if (s.kind == Kind::Hybrid) {
        const Clock::time_point t0 = Clock::now();
        ok = tracedHybrid(tr, s, setup, tdir, out, traced) && ok;
        tracedWall = secondsSince(t0);
    } else {
        obs::enableMetrics(true);
        std::vector<double> rtt;
        std::string artifact;
        const Clock::time_point t0 = Clock::now();
        ok = tracedDistributed(tr, s, tdir, dir + "/models", rtt,
                               artifact) &&
             ok;
        tracedWall = secondsSince(t0);
        traced = digest(artifact, foldShards(s, artifact));
        out.add("serve.status_rtt_us", quantile(rtt, 0.5));
        out.add("serve.leases_granted",
                obs::counter("serve.leases_granted").value());
        out.add("serve.leases_expired",
                obs::counter("serve.leases_expired").value());
        const std::uint64_t dedup =
            obs::counter("serve.dedup_hits").value();
        out.add("serve.dedup_hits", dedup);
        ok = ok && dedup == 0;
        obs::enableMetrics(false);

        // The same shards computed in-process: the compute the
        // workers shared, and a cross-check of their bytes.
        Tracer inproc;
        const std::string idir = dir + "/inproc";
        const Sweep sw = tracedSweep(inproc, s, setup, idir, s.jobs);
        sweepMetrics(sw, out);
        ok = ok && digest(idir, sw.pairStats) == untraced;
        inprocCompute = sw.simSeconds;
    }

    // The traced run is compared with this warm campaign: the first
    // one pays the process's cold-start costs, which the traced run
    // does not, and at small sizes they dominate its wall time.
    const CampaignRun u2 = untraced_run("after");
    const double wall = u2.wall;
    ok = ok && u2.resumed == 0 && u2.dedupHits == 0 &&
         u2.quarantined == 0;
    // 0 unless distributed: in-process compute the workers shared.
    out.add("serve.efficiency",
            inprocCompute / (static_cast<double>(s.jobs) * wall));
    out.add("exec.busy_fraction",
            u2.cpu / (wall * static_cast<double>(s.jobs)));
    const bool same = traced == untraced &&
                      digest(u2.artifactDir, u2.pairStats) == untraced;

    std::map<std::string, double> attributed = tr.attribute();
    for (const char *layer : kLayers)
        out.add(std::string(layer) + ".share", attributed[layer] / wall);
    const double coverage = sumValues(attributed) / wall;
    out.add("trace.coverage", coverage);
    out.add("obs.trace_overhead", tracedWall / wall);

    const bool replayed = replayProbe(s, setup, u.artifactDir, out);
    traceProbe(s, out);
    readProbe(s, u.artifactDir, out);
    if (s.kind != Kind::Hybrid) {
        detailedProbe(s, u.artifactDir, out);
        out.add("fidelity.escalated_rows", std::uint64_t{0});
    }
    if (s.kind != Kind::Distributed) {
        out.add("serve.status_rtt_us", statusProbe(dir));
        for (const char *n : {"serve.leases_granted",
                              "serve.leases_expired",
                              "serve.dedup_hits"})
            out.add(n, std::uint64_t{0});
    }

    const bool covered = coverage >= kCoverageLo && coverage <= kCoverageHi;
    out.add("check.traced_equals_untraced", same);
    out.add("check.replay_bitwise", replayed);
    out.add("check.coverage_in_bound", covered);
    ok = ok && same && replayed && covered;
    out.add("self_checks_ok", ok);
    return ok;
}

} // namespace perfbench
