/**
 * @file
 * Figure 5 reproduction: 1/cv measured with BADCO on the full
 * 4-core population, for all ten policy pairs and all three
 * metrics, showing that the metrics rank policies identically
 * (same signs) but require different sample sizes (different
 * magnitudes).
 *
 * Two population-engine sections extend the figure
 * (docs/PERFORMANCE.md, "Population campaigns"):
 *
 *  - an 8-core streamed run (WSEL_POP8_ROWS rows, default 1500;
 *    0 = the full 4.3M-workload population) reporting per-pair
 *    1/cv from the one-pass Welford statistics, cells/sec, and
 *    peak RSS — the paper's Figure 5 point that 8-core populations
 *    are only approachable with bounded-memory streaming;
 *  - a batched-cell-engine sweep (sim/batch.hh) over
 *    --batch-cells {1, 8, 16, 32, 64} on a 4-core rank range at
 *    --jobs 8 (WSEL_POP_BENCH_ROWS sizes it, default 600 rows),
 *    reporting cells/sec and peak RSS per batch size
 *    (docs/PERFORMANCE.md, "Batched execution"). Peak RSS is the
 *    process high-water mark, so later sweep points can only
 *    inherit earlier peaks — flat numbers across the sweep mean
 *    batching added nothing.
 *
 * When WSEL_BENCH_JSON names a file, the 8-core section is
 * archived there as JSON (tools/ci.sh stores it as
 * BENCH_population.json); WSEL_BENCH_JSON_BATCH does the same for
 * the batch sweep (BENCH_batch.json), which tools/ci.sh also uses
 * as its batched-throughput floor check.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#if __has_include(<sys/resource.h>)
#include <sys/resource.h>
#define WSEL_HAVE_RUSAGE 1
#endif

#include "bench_util.hh"
#include "exec/scheduler.hh"
#include "sim/model_store.hh"
#include "sim/population.hh"

namespace
{

using namespace wsel;
using namespace wsel::bench;

double
peakRssMib()
{
#ifdef WSEL_HAVE_RUSAGE
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) == 0)
        return static_cast<double>(ru.ru_maxrss) / 1024.0;
#endif
    return 0.0;
}

std::vector<PopulationPairSpec>
paperPairSpecs(const std::vector<PolicyKind> &policies,
               ThroughputMetric m)
{
    auto index_of = [&](PolicyKind k) {
        for (std::size_t i = 0; i < policies.size(); ++i)
            if (policies[i] == k)
                return i;
        WSEL_FATAL("policy not in campaign");
    };
    std::vector<PopulationPairSpec> specs;
    for (const PolicyPair &pair : paperPolicyPairs()) {
        PopulationPairSpec s;
        s.y = index_of(pair.a); // hypothesized winner
        s.x = index_of(pair.b);
        s.metric = m;
        s.label = pair.label();
        specs.push_back(std::move(s));
    }
    return specs;
}

} // namespace

int
main()
{
    namespace fs = std::filesystem;

    const Campaign c = standardBadcoCampaign(4);

    std::printf("FIGURE 5. 1/cv on the 4-core population "
                "(%zu workloads, BADCO)\n\n",
                c.workloads.size());
    std::printf("%-12s %8s %8s %8s   %s\n", "pair", "IPCT", "WSU",
                "HSU", "sign agreement / eq.(8) sample size (IPCT)");

    bool all_signs_agree = true;
    for (const PolicyPair &pair : paperPolicyPairs()) {
        double inv[3];
        int i = 0;
        for (ThroughputMetric m : paperMetrics())
            inv[i++] = pairStats(c, pair, m).inverseCv();
        const bool agree = (inv[0] >= 0) == (inv[1] >= 0) &&
                           (inv[1] >= 0) == (inv[2] >= 0);
        all_signs_agree = all_signs_agree && agree;
        const double cv_ipct = 1.0 / inv[0];
        std::printf("%-12s %8.3f %8.3f %8.3f   %s  W=%zu\n",
                    pair.label().c_str(), inv[0], inv[1], inv[2],
                    agree ? "same sign" : "SIGN FLIP",
                    requiredSampleSize(cv_ipct));
    }
    std::printf("\nall three metrics rank the policies identically: "
                "%s\n",
                all_signs_agree ? "yes (as in the paper)" : "NO");
    std::printf("paper shape: sign of 1/cv identical across "
                "metrics; magnitudes differ, so the required\n"
                "sample size (eq. 8) depends on the metric "
                "(paper example: RND-FIFO needs 32 with HSU,\n"
                "50 with IPCT).\n");

    const std::uint64_t target = targetUops();
    const auto &suite = spec2006Suite();
    const std::uint32_t b =
        static_cast<std::uint32_t>(suite.size());
    const WorkloadPopulation pop4(b, 4);
    const std::uint64_t bench_rows = std::min<std::uint64_t>(
        pop4.size(), envU64("WSEL_POP_BENCH_ROWS", 600));
    const auto policies = paperPolicies();
    const std::size_t np = policies.size();
    const std::string scratch = ".wsel_bench_population";
    fs::create_directories(scratch);

    const UncoreConfig ucfg =
        UncoreConfig::forCores(4, PolicyKind::LRU);
    BadcoModelStore store(CoreConfig{}, target, ucfg.llcHitLatency,
                          defaultCacheDir());
    // Build the models outside the timed runs.
    (void)store.getSuite(suite, exec::resolveJobs(0));

    const double cells4 =
        static_cast<double>(bench_rows) * static_cast<double>(np);

    // --------------------------------------------------------------
    // Batched cell engine: cells/sec vs batch size B on a 4-core
    // rank range. batch=1 is the serial engine shape; the
    // artifact bytes are identical at every B (tests/test_batch.cc),
    // so this sweep measures pure execution efficiency.
    // --------------------------------------------------------------
    struct BatchPoint
    {
        std::uint32_t batch;
        double sec;
        double cps;
        double rssMib;
    };
    std::vector<BatchPoint> batch_points;
    std::printf("\nBATCHED CELL ENGINE (badco, 4 cores, %llu "
                "workloads x %zu policies, jobs=8)\n\n",
                static_cast<unsigned long long>(bench_rows), np);
    std::printf("%-12s %10s %12s %12s\n", "batch-cells", "seconds",
                "cells/sec", "peak-RSS-MiB");
    for (std::uint32_t bsz : {1u, 8u, 16u, 32u, 64u}) {
        const std::string out =
            scratch + "/batch" + std::to_string(bsz) + ".v3";
        PopulationOptions opts;
        opts.jobs = 8;
        opts.lastRank = bench_rows;
        opts.resume = false;
        opts.batchCells = bsz;
        const auto t0 = std::chrono::steady_clock::now();
        const PopulationResult r = runBadcoPopulationCampaign(
            pop4, policies, target, store, suite, {}, out, opts);
        const double sec =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
        batch_points.push_back(
            {bsz, sec, cells4 / sec, peakRssMib()});
        std::printf("%-12u %10.2f %12.0f %12.1f\n", bsz, sec,
                    batch_points.back().cps,
                    batch_points.back().rssMib);
        (void)r;
    }

    if (const char *json = std::getenv("WSEL_BENCH_JSON_BATCH");
        json && *json) {
        FILE *f = std::fopen(json, "w");
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n", json);
            return 1;
        }
        std::fprintf(f,
                     "{\n"
                     "  \"bench\": \"batch\",\n"
                     "  \"target_uops\": %llu,\n"
                     "  \"workloads\": %llu,\n"
                     "  \"policies\": %zu,\n"
                     "  \"jobs\": 8,\n"
                     "  \"points\": [\n",
                     static_cast<unsigned long long>(target),
                     static_cast<unsigned long long>(bench_rows),
                     np);
        for (std::size_t i = 0; i < batch_points.size(); ++i) {
            const BatchPoint &p = batch_points[i];
            std::fprintf(
                f,
                "    {\"batch\": %u, \"seconds\": %.2f, "
                "\"cells_per_sec\": %.2f, \"peak_rss_mib\": "
                "%.1f}%s\n",
                p.batch, p.sec, p.cps, p.rssMib,
                i + 1 == batch_points.size() ? "" : ",");
        }
        std::fprintf(f, "  ]\n}\n");
        std::fclose(f);
    }

    // --------------------------------------------------------------
    // 8-core streamed population: per-pair 1/cv from the one-pass
    // statistics, plus throughput and peak RSS.
    // --------------------------------------------------------------
    const WorkloadPopulation pop8(b, 8);
    const std::uint64_t rows8_req = envU64("WSEL_POP8_ROWS", 1500);
    const std::uint64_t rows8 =
        rows8_req == 0 ? pop8.size()
                       : std::min<std::uint64_t>(pop8.size(),
                                                 rows8_req);
    BadcoModelStore store8(CoreConfig{}, target,
                           UncoreConfig::forCores(8, PolicyKind::LRU)
                               .llcHitLatency,
                           defaultCacheDir());
    (void)store8.getSuite(suite, exec::resolveJobs(0));

    PopulationOptions opts8;
    opts8.jobs = 0; // $WSEL_JOBS, else hardware threads
    opts8.lastRank = rows8;
    opts8.resume = false;
    const PopulationResult r8 = runBadcoPopulationCampaign(
        pop8, policies, target, store8, suite,
        paperPairSpecs(policies, ThroughputMetric::IPCT),
        scratch + "/pop8.v3", opts8);

    std::printf("\n8-CORE STREAMED POPULATION "
                "(%llu of %llu workloads, IPCT)\n\n",
                static_cast<unsigned long long>(rows8),
                static_cast<unsigned long long>(pop8.size()));
    std::printf("%-12s %8s %8s %8s\n", "pair", "1/cv", "eq8-W",
                "strata");
    for (const PopulationPairSummary &p : r8.pairs) {
        const StreamedWorkloadStrata strata(
            p.sketch, p.d.count(), WorkloadStrataConfig{});
        std::printf("%-12s %8.3f %8zu %7zu\n", p.spec.label.c_str(),
                    p.inverseCv(), requiredSampleSize(p.cv()),
                    strata.strataCount());
    }
    const double rss = peakRssMib();
    std::printf("\n%llu cells at %.0f cells/sec into %llu shards; "
                "peak RSS %.1f MiB\n",
                static_cast<unsigned long long>(r8.cellsSimulated),
                r8.cellsPerSec(),
                static_cast<unsigned long long>(r8.shardsWritten),
                rss);

    if (const char *json = std::getenv("WSEL_BENCH_JSON");
        json && *json) {
        FILE *f = std::fopen(json, "w");
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n", json);
            return 1;
        }
        std::fprintf(
            f,
            "{\n"
            "  \"bench\": \"population\",\n"
            "  \"target_uops\": %llu,\n"
            "  \"pop8\": {\n"
            "    \"workloads\": %llu,\n"
            "    \"population\": %llu,\n"
            "    \"cells\": %llu,\n"
            "    \"cells_per_sec\": %.2f,\n"
            "    \"shards\": %llu,\n"
            "    \"peak_rss_mib\": %.1f\n"
            "  }\n"
            "}\n",
            static_cast<unsigned long long>(target),
            static_cast<unsigned long long>(rows8),
            static_cast<unsigned long long>(pop8.size()),
            static_cast<unsigned long long>(r8.cellsSimulated),
            r8.cellsPerSec(),
            static_cast<unsigned long long>(r8.shardsWritten), rss);
        std::fclose(f);
    }

    std::error_code ec;
    fs::remove_all(scratch, ec);
    return 0;
}
