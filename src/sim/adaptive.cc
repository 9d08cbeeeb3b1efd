#include "sim/adaptive.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <optional>
#include <utility>

#include "exec/scheduler.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/batch.hh"
#include "sim/campaign.hh"
#include "sim/multicore.hh"
#include "stats/logging.hh"
#include "stats/persist.hh"

namespace fs = std::filesystem;

namespace wsel
{

const char *
toString(AdaptiveMethod m)
{
    switch (m) {
    case AdaptiveMethod::Random:
        return "random";
    case AdaptiveMethod::RankedSet:
        return "ranked-set";
    }
    return "unknown";
}

AdaptiveMethod
parseAdaptiveMethod(const std::string &name)
{
    if (name == "random")
        return AdaptiveMethod::Random;
    if (name == "ranked-set" || name == "ranked_set")
        return AdaptiveMethod::RankedSet;
    WSEL_FATAL("unknown adaptive method '" << name
               << "' (want random or ranked-set)");
}

std::vector<std::vector<double>>
approxPerBenchmarkIpcs(const WorkloadPopulation &pop,
                       const std::vector<PolicyKind> &policies,
                       std::uint64_t target_uops,
                       BadcoModelStore &store,
                       const std::vector<BenchmarkProfile> &suite,
                       std::uint64_t seed, std::size_t jobs)
{
    if (pop.numBenchmarks() != suite.size())
        WSEL_FATAL("population is over " << pop.numBenchmarks()
                   << " benchmarks but the suite has "
                   << suite.size());
    obs::Span span("adaptive.prepass");
    const std::uint32_t k = pop.cores();
    const std::size_t nb = suite.size();
    const std::size_t np = policies.size();
    // A fingerprint of its own keeps pre-pass cell seeds disjoint
    // from the detailed campaign's rank-keyed seeds.
    const std::uint64_t fp = campaignFingerprint(
        "badco-approx", k, target_uops, policies, suite);
    const std::vector<const BadcoModel *> models =
        store.getSuite(suite, jobs);

    std::vector<UncoreConfig> ucfgs;
    ucfgs.reserve(np);
    for (PolicyKind p : policies)
        ucfgs.push_back(UncoreConfig::forCores(k, p));

    // Row-major (policy, benchmark) cells of k IPCs each.
    std::vector<double> cells(np * nb * k, 0.0);
    BadcoBatchRunner runner({ucfgs.data(), ucfgs.size()}, k,
                            target_uops, models, jobs);
    std::vector<std::uint32_t> benches(k);
    for (std::size_t p = 0; p < np; ++p) {
        for (std::size_t b = 0; b < nb; ++b) {
            std::fill(benches.begin(), benches.end(),
                      static_cast<std::uint32_t>(b));
            runner.add(campaignCellSeed(fp, seed, p, b),
                       static_cast<std::uint32_t>(p),
                       {benches.data(), benches.size()},
                       cells.data() + (p * nb + b) * k);
        }
    }
    runner.run();

    std::vector<std::vector<double>> ipc(
        np, std::vector<double>(nb, 0.0));
    for (std::size_t p = 0; p < np; ++p) {
        for (std::size_t b = 0; b < nb; ++b) {
            const double *cell = cells.data() + (p * nb + b) * k;
            double sum = 0.0;
            for (std::uint32_t c = 0; c < k; ++c)
                sum += cell[c];
            ipc[p][b] = sum / static_cast<double>(k);
        }
    }
    return ipc;
}

namespace
{

/** Delete batch files + decision so a fresh run owns the dir. */
void
clearAdaptiveDir(const std::string &dir)
{
    std::error_code ec;
    for (const auto &e : fs::directory_iterator(dir, ec)) {
        const std::string name = e.path().filename().string();
        if (name.starts_with("batch-") && name.ends_with(".bin"))
            fs::remove(e.path(), ec);
    }
    fs::remove(persist::adaptiveDecisionPath(dir), ec);
}

/** Resolve the ranked-set draw at @p position (serial; the cheap
 *  ApproxRanker reuses scratch and is not thread-safe). */
std::uint64_t
rankedSetRank(const ApproxRanker &ranker,
              const WorkloadPopulation &pop, std::uint64_t fp,
              std::uint64_t seed, std::uint64_t position,
              std::size_t set_size,
              std::vector<std::uint32_t> &scratch,
              std::vector<std::pair<double, std::uint64_t>> &set)
{
    set.clear();
    for (std::size_t j = 0; j < set_size; ++j) {
        const std::uint64_t cand = adaptiveCandidateRank(
            fp, seed, position, j, pop.size());
        pop.unrankInto(cand, scratch);
        set.emplace_back(ranker.score(scratch), cand);
    }
    // (score, rank) pairs order totally, so the pick is
    // deterministic even under tied cheap-model scores.
    std::sort(set.begin(), set.end());
    return set[position % set_size].second;
}

} // namespace

AdaptiveResult
runAdaptiveCampaign(const WorkloadPopulation &pop, PolicyKind x,
                    PolicyKind y, ThroughputMetric metric,
                    std::uint64_t target_uops,
                    BadcoModelStore &store,
                    const std::vector<BenchmarkProfile> &suite,
                    const std::string &out_dir,
                    const AdaptiveOptions &opts)
{
    if (pop.numBenchmarks() != suite.size())
        WSEL_FATAL("population is over " << pop.numBenchmarks()
                   << " benchmarks but the suite has "
                   << suite.size());
    if (opts.batchWorkloads == 0)
        WSEL_FATAL("adaptive campaign needs a non-zero batch size");
    if (opts.method == AdaptiveMethod::RankedSet && opts.setSize < 2)
        WSEL_FATAL("ranked-set size must be at least 2");

    const auto t0 = std::chrono::steady_clock::now();
    obs::Span span("adaptive.run");
    const std::size_t jobs = exec::resolveJobs(opts.jobs);
    const std::uint32_t k = pop.cores();
    const std::vector<PolicyKind> policies{x, y};
    const std::uint64_t fp = campaignFingerprint(
        "badco", k, target_uops, policies, suite);

    const std::vector<const BadcoModel *> models =
        store.getSuite(suite, jobs);
    const std::vector<double> ref_ipc =
        badcoReferenceIpcs(models, k, target_uops, opts.seed, jobs);

    std::error_code ec;
    fs::create_directories(out_dir, ec);
    if (ec)
        WSEL_FATAL("cannot create adaptive directory " << out_dir
                   << ": " << ec.message());
    if (!opts.resume)
        clearAdaptiveDir(out_dir);

    AdaptiveResult result;
    result.dir = out_dir;

    // The ranked-set pre-pass: 2B homogeneous cells feed the cheap
    // per-benchmark table the candidate ranking composes.
    std::optional<ApproxRanker> ranker;
    if (opts.method == AdaptiveMethod::RankedSet) {
        auto ipc = approxPerBenchmarkIpcs(pop, policies, target_uops,
                                          store, suite, opts.seed,
                                          jobs);
        result.prepassCells = ipc.size() * ipc[0].size();
        ranker.emplace(metric, std::move(ipc[0]), std::move(ipc[1]),
                       ref_ipc);
    }

    const std::vector<UncoreConfig> ucfgs{
        UncoreConfig::forCores(k, x), UncoreConfig::forCores(k, y)};
    BadcoBatchRunner runner({ucfgs.data(), ucfgs.size()}, k,
                            target_uops, models, jobs);

    SequentialController ctl(opts.stop, pop.size());
    result.budgetWorkloads = ctl.budgetWorkloads();

    std::vector<double> all_d; // position order, for subsampling
    std::vector<double> trajectory;
    std::vector<std::uint32_t> rs_scratch;
    std::vector<std::pair<double, std::uint64_t>> rs_set;
    std::uint64_t batch_index = 0;
    std::uint64_t position = 0;

    while (!ctl.decision().stop()) {
        const std::uint64_t remaining =
            ctl.budgetWorkloads() - ctl.observed().count();
        const std::uint64_t rows =
            std::min<std::uint64_t>(opts.batchWorkloads, remaining);

        persist::AdaptiveBatch batch;
        bool resumed = false;
        if (opts.resume) {
            try {
                batch = persist::readAdaptiveBatch(out_dir, fp,
                                                   batch_index);
                if (batch.firstPosition != position ||
                    batch.ranks.size() != rows)
                    throw persist::CacheInvalid(
                        "batch shape mismatch (batch size or "
                        "budget changed?)");
                resumed = true;
            } catch (const persist::CacheInvalid &e) {
                persist::quarantineArtifact(
                    persist::adaptiveBatchPath(out_dir, batch_index),
                    "corrupt adaptive batch", e.what(),
                    "re-simulating");
            }
        }

        if (!resumed) {
            obs::Span bspan("adaptive.batch",
                            "{\"index\":" +
                                std::to_string(batch_index) + "}");
            batch.fingerprint = fp;
            batch.index = batch_index;
            batch.firstPosition = position;
            // Resolve the schedule serially (cheap, and the
            // ranked-set scorer reuses scratch); simulate the
            // resolved ranks in parallel.
            batch.ranks.resize(rows);
            for (std::uint64_t r = 0; r < rows; ++r) {
                const std::uint64_t p = position + r;
                batch.ranks[r] =
                    ranker ? rankedSetRank(*ranker, pop, fp,
                                           opts.seed, p,
                                           opts.setSize, rs_scratch,
                                           rs_set)
                           : adaptiveScheduleRank(fp, opts.seed, p,
                                                  pop.size());
            }
            // Every cell of the batch goes through the one runner,
            // spread over the jobs threads. Each cell is an
            // independent computation, so neither the thread count
            // nor the batch size can change any d value.
            std::vector<double> ipc(
                static_cast<std::size_t>(rows) * 2 * k, 0.0);
            std::vector<std::uint32_t> benches;
            for (std::uint64_t r = 0; r < rows; ++r) {
                const std::uint64_t rank = batch.ranks[r];
                pop.unrankInto(rank, benches);
                for (std::size_t p = 0; p < 2; ++p) {
                    persist::faultPoint("adaptive.cell");
                    runner.add(campaignCellSeed(fp, opts.seed, p, rank),
                               static_cast<std::uint32_t>(p),
                               {benches.data(), benches.size()},
                               ipc.data() + (r * 2 + p) * k);
                }
            }
            runner.run();
            batch.d.assign(rows, 0.0);
            std::vector<double> refs(k, 1.0);
            for (std::uint64_t r = 0; r < rows; ++r) {
                pop.unrankInto(batch.ranks[r], benches);
                for (std::uint32_t c = 0; c < k; ++c)
                    refs[c] = ref_ipc[benches[c]];
                double t[2] = {0.0, 0.0};
                for (std::size_t p = 0; p < 2; ++p)
                    t[p] = perWorkloadThroughput(
                        metric, {ipc.data() + (r * 2 + p) * k, k},
                        refs);
                batch.d[r] = perWorkloadDifference(metric, t[0], t[1]);
            }
            persist::writeAdaptiveBatch(out_dir, batch);
        }

        // Merge in position order: the controller's verdict is a
        // pure function of the batch sequence, never of job count.
        RunningStats bs;
        for (double d : batch.d)
            bs.add(d);
        const SequentialDecision &dec = ctl.observeBatch(bs);
        trajectory.push_back(dec.confidence);
        all_d.insert(all_d.end(), batch.d.begin(), batch.d.end());

        if (resumed) {
            ++result.batchesResumed;
            result.cellsResumed += batch.d.size() * 2;
        } else {
            ++result.batchesRun;
            result.cellsSimulated += batch.d.size() * 2;
        }
        if (obs::metricsEnabled()) {
            static obs::Counter &batchesC =
                obs::counter("adaptive.batches");
            static obs::Counter &cellsC =
                obs::counter("adaptive.cells");
            static obs::Counter &resumedC =
                obs::counter("adaptive.cells_resumed");
            batchesC.inc();
            if (resumed)
                resumedC.inc(batch.d.size() * 2);
            else
                cellsC.inc(batch.d.size() * 2);
            obs::gauge("adaptive.confidence").set(dec.confidence);
        }
        if (opts.verbose) {
            logLine(std::string("[adaptive] batch ") +
                    std::to_string(batch_index) +
                    (resumed ? " (resumed)" : "") + ": n=" +
                    std::to_string(dec.workloads) + " conf=" +
                    std::to_string(dec.confidence) + " cv=" +
                    std::to_string(dec.cv));
        }
        position += rows;
        ++batch_index;

        if (!ctl.decision().stop() && opts.wallClockBudget > 0.0) {
            const double elapsed =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            if (elapsed >= opts.wallClockBudget) {
                ctl.observeWallClockExpired();
                warn("adaptive campaign stopped on wall clock "
                     "after " + std::to_string(elapsed) +
                     "s; the artifact records a non-replayable "
                     "stop");
            }
        }
    }

    result.verdict = ctl.decision();
    result.d = ctl.observed();

    if (opts.subsampleRedraws > 0 && all_d.size() >= 2) {
        // Deterministic redraw stream keyed by campaign identity.
        persist::Fnv1a h;
        h.update("wsel.adaptive.subsample");
        h.updateU64(fp);
        h.updateU64(opts.seed);
        Rng rng(h.digest());
        result.subsample = repeatedSubsample(
            all_d, std::max<std::size_t>(2, all_d.size() / 2),
            opts.subsampleRedraws, rng);
    }

    persist::AdaptiveDecisionRecord rec;
    rec.fingerprint = fp;
    rec.reason = static_cast<std::uint8_t>(result.verdict.reason);
    rec.yWins = result.verdict.yWins ? 1 : 0;
    rec.method = toString(opts.method);
    rec.batches = ctl.batches();
    rec.workloads = result.verdict.workloads;
    rec.confidence = result.verdict.confidence;
    rec.cv = result.verdict.cv;
    rec.target = opts.stop.targetConfidence;
    rec.trajectory = std::move(trajectory);
    // The commit point: a directory with adaptive.bin is a finished
    // campaign; without it, an interrupted one.
    persist::writeAdaptiveDecision(out_dir, rec);
    result.decision = std::move(rec);

    result.wallSeconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
    if (obs::metricsEnabled()) {
        static obs::Counter &savedC =
            obs::counter("adaptive.cells_saved");
        savedC.inc(result.cellsSaved());
    }
    return result;
}

} // namespace wsel
