#include "sim/hybrid.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <sstream>

#include "core/confidence/confidence.hh"
#include "exec/scheduler.hh"
#include "fidelity/escalation.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/campaign.hh"
#include "sim/multicore.hh"
#include "stats/logging.hh"
#include "stats/persist.hh"

namespace wsel
{

namespace
{

/** Combined-bound z: two-sided ~95% on the sampling term. */
constexpr double kComboZ = 1.959963984540054;

/**
 * Identity of one hybrid campaign's online profile update, used
 * with ErrorProfile::markApplied so a killed-and-resumed run never
 * records the same residuals twice.
 */
std::uint64_t
applyId(std::uint64_t detailed_fp, const HybridOptions &opts,
        std::uint64_t last_rank)
{
    persist::Fnv1a h;
    h.update("wsel-hybrid-apply-1");
    h.updateU64(detailed_fp);
    h.updateU64(opts.seed);
    h.updateU64(opts.firstRank);
    h.updateU64(last_rank);
    return h.digest();
}

} // namespace

HybridResult
runHybridCampaign(const WorkloadPopulation &pop, PolicyKind x,
                  PolicyKind y, ThroughputMetric metric,
                  std::uint64_t target_uops, BadcoModelStore &store,
                  const std::vector<BenchmarkProfile> &suite,
                  fidelity::ErrorProfile &profile,
                  const std::string &out_dir,
                  const HybridOptions &opts)
{
    if (x == y)
        WSEL_FATAL("hybrid campaign needs two distinct policies");
    if (pop.numBenchmarks() != suite.size())
        WSEL_FATAL("population is over " << pop.numBenchmarks()
                   << " benchmarks but the suite has "
                   << suite.size());
    // Refuse bad knobs before the sweep; the planner checks again.
    fidelity::checkProfileSuite(profile, suite);
    fidelity::checkEscalationKnobs(opts.quantile, opts.budgetFraction);
    if (opts.batchRows == 0)
        WSEL_FATAL("hybrid batch size must be positive");

    obs::Span span("fidelity.hybrid");
    const std::size_t jobs = exec::resolveJobs(opts.jobs);
    const std::vector<PolicyKind> policies = {x, y};
    const std::uint32_t k = pop.cores();
    const std::size_t np = policies.size();

    // Phase 1: the BADCO sweep, via the population engine (shard
    // resume, determinism contract and campaign_v3 artifacts come
    // with it).
    PopulationOptions pop_opts;
    pop_opts.seed = opts.seed;
    pop_opts.jobs = opts.jobs;
    pop_opts.shardCells = opts.shardCells;
    pop_opts.firstRank = opts.firstRank;
    pop_opts.lastRank = opts.lastRank;
    pop_opts.resume = opts.resume;
    pop_opts.verbose = opts.verbose;
    std::vector<PopulationPairSpec> pairs(1);
    pairs[0].x = 0;
    pairs[0].y = 1;
    pairs[0].metric = metric;
    pairs[0].label = toString(x) + std::string(" vs ") +
                     toString(y);

    HybridResult result;
    result.dir = out_dir;
    result.badco = runBadcoPopulationCampaign(
        pop, policies, target_uops, store, suite, pairs, out_dir,
        pop_opts);
    const persist::V3Manifest &m = result.badco.manifest;
    const std::uint64_t rows = m.rows();
    const std::uint64_t detailed_fp = campaignFingerprint(
        "detailed", k, target_uops, policies, suite);

    // Phase 2: the escalation set, committed to the sidecar before
    // any detailed cell runs and pinned across resumes.
    fidelity::EscalationKnobs knobs;
    knobs.metric = metric;
    knobs.quantile = opts.quantile;
    knobs.budgetFraction = opts.budgetFraction;
    knobs.threshold = opts.threshold;
    knobs.seed = opts.seed;
    knobs.detailedFingerprint = detailed_fp;
    const fidelity::EscalationPlan plan = fidelity::planEscalation(
        m, out_dir, pop, suite, profile, knobs, out_dir, opts.resume,
        jobs);
    const fidelity::EscalationRecord &rec = plan.record;
    const std::vector<fidelity::CellInterval> &cells = plan.cells;
    result.escalation = rec;

    // Phase 3: detailed re-simulation of the escalated rows, in
    // rank order, batched for resume.  Cell seeds come from the
    // *detailed* fingerprint, so an escalated cell is bitwise the
    // cell a pure detailed campaign would have produced.
    std::vector<std::uint64_t> esc_ranks;
    esc_ranks.reserve(
        static_cast<std::size_t>(rec.escalatedCount));
    for (std::uint64_t r = 0; r < rows; ++r)
        if (rec.escalated(r))
            esc_ranks.push_back(m.firstRank + r);
    const std::size_t esc_n = esc_ranks.size();
    std::vector<double> det_ipc(esc_n * np * k, 0.0);

    if (esc_n > 0) {
        obs::Span dspan("fidelity.detailed");
        prebuildSuiteTraces(suite, target_uops, jobs);
        std::vector<UncoreConfig> ucfgs;
        ucfgs.reserve(np);
        for (PolicyKind p : policies)
            ucfgs.push_back(UncoreConfig::forCores(k, p));

        // Resumed batches load first; the cells of every other batch
        // then go to the pool one by one, so --jobs threads share
        // the phase even when one batch holds every escalated row.
        // The batch file stays the unit of persistence: whichever
        // cell of a batch finishes last writes it.
        const std::uint64_t batches =
            (esc_n + opts.batchRows - 1) / opts.batchRows;
        auto batch_first = [&](std::uint64_t b) {
            return static_cast<std::size_t>(b * opts.batchRows);
        };
        auto batch_rows = [&](std::uint64_t b) {
            return std::min<std::size_t>(
                static_cast<std::size_t>(opts.batchRows),
                esc_n - batch_first(b));
        };
        // Pending cells in batch, row, policy order.
        struct PendingCell
        {
            std::uint64_t batch;
            std::size_t ord; ///< index into esc_ranks
            std::size_t policy;
        };
        std::vector<PendingCell> pending;
        std::vector<std::atomic<std::size_t>> cells_left(batches);
        for (std::uint64_t b = 0; b < batches; ++b) {
            const std::size_t first = batch_first(b);
            const std::size_t count = batch_rows(b);
            const std::string path =
                fidelity::fidelityBatchPath(out_dir, b);
            if (opts.resume) {
                try {
                    const fidelity::FidelityBatch got =
                        fidelity::readFidelityBatch(out_dir,
                                                    detailed_fp, b);
                    if (got.cores == k &&
                        got.numPolicies == np &&
                        got.firstOrdinal == first &&
                        got.ranks.size() == count &&
                        std::equal(got.ranks.begin(),
                                   got.ranks.end(),
                                   esc_ranks.begin() + first)) {
                        std::copy(got.ipc.begin(), got.ipc.end(),
                                  det_ipc.begin() +
                                      first * np * k);
                        result.detailedCellsResumed += count * np;
                        continue;
                    }
                    // A well-formed batch for a different
                    // escalation set is stale, not corrupt.
                    persist::quarantineArtifact(
                        path, "stale fidelity batch",
                        "written for another escalation set",
                        "re-simulating");
                } catch (const persist::CacheInvalid &e) {
                    persist::quarantineArtifact(
                        path, "corrupt fidelity batch", e.what(),
                        "re-simulating");
                }
            }
            cells_left[b].store(count * np, std::memory_order_relaxed);
            for (std::size_t r = 0; r < count; ++r)
                for (std::size_t p = 0; p < np; ++p)
                    pending.push_back({b, first + r, p});
        }

        auto write_batch = [&](std::uint64_t b) {
            const std::size_t first = batch_first(b);
            const std::size_t count = batch_rows(b);
            fidelity::FidelityBatch batch;
            batch.detailedFingerprint = detailed_fp;
            batch.index = b;
            batch.firstOrdinal = first;
            batch.cores = k;
            batch.numPolicies = static_cast<std::uint32_t>(np);
            batch.ranks.assign(esc_ranks.begin() + first,
                               esc_ranks.begin() + first + count);
            batch.ipc.assign(det_ipc.begin() + first * np * k,
                             det_ipc.begin() +
                                 (first + count) * np * k);
            fidelity::writeFidelityBatch(out_dir, batch);
            if (opts.verbose) {
                std::ostringstream os;
                os << "  [hybrid] detailed batch " << (b + 1)
                   << "/" << batches << " (" << count << " rows)";
                logLine(os.str());
            }
        };
        auto run_cell = [&](std::size_t i) {
            const PendingCell &cell = pending[i];
            const std::size_t p = cell.policy;
            const std::uint64_t rank = esc_ranks[cell.ord];
            persist::faultPoint("fidelity.escalate");
            const auto c0 = std::chrono::steady_clock::now();
            const DetailedMulticoreSim sim(
                opts.coreCfg, ucfgs[p], k, target_uops,
                campaignCellSeed(detailed_fp, opts.seed, p, rank));
            const SimResult res = sim.run(pop.unrank(rank), suite);
            std::copy(res.ipc.begin(), res.ipc.end(),
                      det_ipc.begin() + (cell.ord * np + p) * k);
            if (obs::metricsEnabled()) {
                static obs::LatencyHistogram &detNs =
                    obs::histogram("fidelity.detailed_ns");
                detNs.recordNs(static_cast<std::uint64_t>(
                    std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - c0)
                        .count()));
            }
            if (cells_left[cell.batch].fetch_sub(
                    1, std::memory_order_acq_rel) == 1)
                write_batch(cell.batch);
        };
        const std::size_t n = pending.size();
        exec::forEachIndex(jobs, n, run_cell);
        result.detailedCellsSimulated += n;
    }

    // Phase 4: splice detailed d(w) values over BADCO's and emit
    // the confidence report.  The model-error slack is the mean
    // remaining interval width of the rows we did NOT escalate
    // (escalated rows are ground truth and contribute none).
    fidelity::Welford d_stats;
    double model_lo_sum = 0.0;
    double model_hi_sum = 0.0;
    {
        std::vector<double> refs(k, 1.0);
        std::size_t ord = 0;
        WorkloadCursor cur(pop, m.firstRank);
        for (std::uint64_t r = 0; r < rows; ++r, cur.next()) {
            double d;
            if (rec.escalated(r)) {
                const std::span<const std::uint32_t> benches =
                    cur.benchmarks();
                for (std::uint32_t c = 0; c < k; ++c)
                    refs[c] = m.refIpc[benches[c]];
                const double *row =
                    det_ipc.data() + ord * np * k;
                const double tx = perWorkloadThroughput(
                    metric, {row, k}, refs);
                const double ty = perWorkloadThroughput(
                    metric, {row + k, k}, refs);
                d = perWorkloadDifference(metric, tx, ty);
                ++ord;
            } else {
                const fidelity::CellInterval &ci =
                    cells[static_cast<std::size_t>(r)];
                d = ci.d;
                model_lo_sum += ci.dLo - ci.d;
                model_hi_sum += ci.dHi - ci.d;
            }
            d_stats.add(d);
        }
    }

    fidelity::HybridReportRecord rep;
    rep.badcoFingerprint = m.fingerprint;
    rep.detailedFingerprint = detailed_fp;
    rep.metric = toString(metric);
    rep.policyX = m.policies[0];
    rep.policyY = m.policies[1];
    rep.workloads = rows;
    rep.escalated = rec.escalatedCount;
    rep.escalationFraction =
        rows == 0 ? 0.0
                  : static_cast<double>(rec.escalatedCount) /
                        static_cast<double>(rows);
    rep.meanD = d_stats.mean;
    rep.sigma = d_stats.stddevPopulation();
    rep.se = rows == 0 ? 0.0
                       : rep.sigma /
                             std::sqrt(static_cast<double>(rows));
    rep.cv = rep.meanD == 0.0 ? 0.0 : rep.sigma / rep.meanD;
    rep.confidence = modelConfidence(
        rep.cv, static_cast<std::size_t>(rows));
    rep.modelLo =
        rows == 0 ? 0.0
                  : model_lo_sum / static_cast<double>(rows);
    rep.modelHi =
        rows == 0 ? 0.0
                  : model_hi_sum / static_cast<double>(rows);
    rep.comboLo = rep.meanD + rep.modelLo - kComboZ * rep.se;
    rep.comboHi = rep.meanD + rep.modelHi + kComboZ * rep.se;
    rep.yWins = rep.meanD > opts.threshold ? 1 : 0;
    fidelity::writeHybridReport(out_dir, rep);
    result.report = rep;
    result.manifest = m;

    if (obs::metricsEnabled()) {
        static obs::Counter &escC =
            obs::counter("fidelity.cells_escalated");
        static obs::Counter &totC =
            obs::counter("fidelity.cells_total");
        escC.inc(rec.escalatedCount * np * k);
        totC.inc(rows * np * k);
        obs::gauge("fidelity.escalation_fraction")
            .set(rep.escalationFraction);
    }

    // Online learning: feed the escalated cells' (badco, detailed)
    // IPC pairs back into the profile, exactly once per campaign
    // across kills and resumes.  A second shard pass collects the
    // BADCO IPCs of just the escalated rows.
    if (esc_n > 0 &&
        profile.markApplied(
            applyId(detailed_fp, opts, m.lastRank))) {
        result.profileUpdated = true;
        std::size_t ord = 0;
        const std::uint64_t shards = m.shardCount();
        std::vector<std::uint32_t> benches;
        for (std::uint64_t s = 0; s < shards && ord < esc_n; ++s) {
            const std::uint64_t first = m.shardFirstRank(s);
            const std::uint64_t n = m.rowsInShard(s);
            if (esc_ranks[ord] >= first + n)
                continue;
            const std::vector<double> payload =
                persist::readV3Shard(out_dir, m, s);
            while (ord < esc_n && esc_ranks[ord] < first + n) {
                const std::uint64_t rank = esc_ranks[ord];
                pop.unrankInto(rank, benches);
                const double *brow =
                    payload.data() + (rank - first) * np * k;
                const double *drow =
                    det_ipc.data() + ord * np * k;
                for (std::size_t p = 0; p < np; ++p)
                    for (std::uint32_t c = 0; c < k; ++c)
                        profile.record(benches[c],
                                       brow[p * k + c],
                                       drow[p * k + c]);
                ++ord;
            }
        }
    }

    if (opts.verbose) {
        std::ostringstream os;
        os << "  [hybrid] " << rows << " workloads, "
           << rec.escalatedCount << " escalated ("
           << 100.0 * rep.escalationFraction
           << "%), mean d = " << rep.meanD << " in ["
           << rep.comboLo << ", " << rep.comboHi << "]";
        logLine(os.str());
    }
    return result;
}

} // namespace wsel
