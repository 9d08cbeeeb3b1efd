/**
 * @file
 * Mixed-fidelity campaign sweep (docs/FIDELITY.md): how much of the
 * detailed ranking accuracy does the hybrid recover as a function
 * of the escalation budget?
 *
 * One seeded 4-core DIP-vs-DRRIP question over the full population
 * of a suite prefix is answered three ways: pure BADCO (budget 0),
 * hybrid at a ladder of budgets, and the pure detailed ground
 * truth.  For every budget the table reports the escalated row
 * fraction, the spliced mean d(w), its distance from the detailed
 * mean, whether the verdict sign agrees with the detailed one, and
 * whether the combined (sampling + model) bound contains the
 * detailed mean.  When WSEL_BENCH_JSON names a file, the rows are
 * archived there for CI trend tracking (tools/ci.sh release leg).
 *
 * Knobs: WSEL_INSNS (per-benchmark uops, default 100000),
 * WSEL_HYBRID_BENCHES (suite-prefix size, default 5).
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "fidelity/calibrate.hh"
#include "sim/hybrid.hh"

int
main()
{
    using namespace wsel;
    using namespace wsel::bench;
    namespace fs = std::filesystem;
    using clock = std::chrono::steady_clock;

    const std::uint32_t cores = 4;
    const std::uint64_t target = targetUops();
    const auto &full = spec2006Suite();
    const std::size_t nbench = static_cast<std::size_t>(
        envU64("WSEL_HYBRID_BENCHES", 5));
    const std::vector<BenchmarkProfile> suite(
        full.begin(),
        full.begin() + std::min(nbench, full.size()));
    const WorkloadPopulation pop(
        static_cast<std::uint32_t>(suite.size()), cores);
    const PolicyKind x = PolicyKind::DIP;
    const PolicyKind y = PolicyKind::DRRIP;
    const ThroughputMetric m = ThroughputMetric::IPCT;

    const UncoreConfig ucfg =
        UncoreConfig::forCores(cores, PolicyKind::LRU);
    BadcoModelStore store(CoreConfig{}, target, ucfg.llcHitLatency,
                          defaultCacheDir());

    std::printf("HYBRID FIDELITY. escalation budget vs recovered "
                "ranking accuracy\n");
    std::printf("DIP vs DRRIP, IPCT, %u cores, %llu-row "
                "population, %llu uops/benchmark\n\n",
                cores, static_cast<unsigned long long>(pop.size()),
                static_cast<unsigned long long>(target));

    // Ground truth: the full campaign pair (cached across runs).
    CampaignOptions copts;
    copts.jobs = 0; // auto: $WSEL_JOBS, else hardware threads
    std::string tag = "k";
    tag += std::to_string(cores) + "_b" +
           std::to_string(suite.size()) + "_u" +
           std::to_string(target);
    const std::uint64_t fpb =
        campaignFingerprint("badco", cores, target, {x, y}, suite);
    const Campaign bad = cachedCampaign(
        defaultCacheDir(), "hybrid_bench_badco_" + tag, fpb,
        [&](const std::string &checkpoint) {
            CampaignOptions o = copts;
            o.checkpointDir = checkpoint;
            return runBadcoCampaign(WorkloadSet::fullPopulation(pop),
                                    {x, y}, cores, target, store,
                                    suite, o);
        });
    const std::uint64_t fpd = campaignFingerprint(
        "detailed", cores, target, {x, y}, suite);
    const Campaign det = cachedCampaign(
        defaultCacheDir(), "hybrid_bench_detailed_" + tag, fpd,
        [&](const std::string &checkpoint) {
            CampaignOptions o = copts;
            o.checkpointDir = checkpoint;
            std::fprintf(stderr, "[wsel] detailed ground truth "
                                 "(%llu rows x 2 policies)...\n",
                         static_cast<unsigned long long>(
                             pop.size()));
            return runDetailedCampaign(
                WorkloadSet::fullPopulation(pop), {x, y}, cores,
                target, CoreConfig{}, suite, o);
        });

    auto meanD = [&](const Campaign &c) {
        const auto tx = c.perWorkloadThroughputs(0, m);
        const auto ty = c.perWorkloadThroughputs(1, m);
        double s = 0.0;
        for (std::size_t i = 0; i < tx.size(); ++i)
            s += perWorkloadDifference(m, tx[i], ty[i]);
        return s / static_cast<double>(tx.size());
    };
    const double mBadco = meanD(bad);
    const double mDetailed = meanD(det);
    std::printf("pure BADCO mean d = %+.6f   detailed mean d = "
                "%+.6f   %s\n\n",
                mBadco, mDetailed,
                (mBadco > 0) == (mDetailed > 0)
                    ? "(signs agree)"
                    : "(BADCO FLIPS the verdict)");

    // A profile calibrated from the pair; each budget run gets a
    // fresh copy so the online update of one run cannot leak into
    // the next.
    fidelity::ErrorProfile calibrated(suite);
    fidelity::calibrateProfile(calibrated, det, bad);

    const std::string scratch =
        (fs::temp_directory_path() / "wsel_bench_hybrid").string();
    fs::remove_all(scratch);

    struct Row
    {
        double budget;
        std::uint64_t escalated;
        double fraction;
        double meanD;
        double absErr;
        bool signOk;
        bool boundOk;
        double comboLo, comboHi;
        double seconds;
    };
    std::vector<Row> rows;

    std::printf("%-8s %10s %9s %11s %10s %6s %7s %9s\n", "budget",
                "escalated", "fraction", "mean-d", "|d-det|",
                "sign", "bound", "secs");
    for (double budget : {0.0, 0.05, 0.1, 0.2, 0.4}) {
        fidelity::ErrorProfile profile = calibrated;
        HybridOptions o;
        o.jobs = static_cast<std::size_t>(envU64("WSEL_JOBS", 0));
        o.quantile = 0.95;
        o.budgetFraction = budget;
        const std::string out =
            scratch + "/b" + std::to_string(budget);
        const auto t0 = clock::now();
        const HybridResult r = runHybridCampaign(
            pop, x, y, m, target, store, suite, profile, out, o);
        const double secs =
            std::chrono::duration<double>(clock::now() - t0)
                .count();
        const bool sign_ok =
            (r.report.meanD > 0) == (mDetailed > 0);
        const bool bound_ok = r.report.comboLo <= mDetailed &&
                              mDetailed <= r.report.comboHi;
        std::printf("%-8.2f %10llu %9.3f %+11.6f %10.6f %6s %7s "
                    "%8.1f\n",
                    budget,
                    static_cast<unsigned long long>(
                        r.report.escalated),
                    r.report.escalationFraction, r.report.meanD,
                    std::abs(r.report.meanD - mDetailed),
                    sign_ok ? "ok" : "FLIP",
                    bound_ok ? "ok" : "MISS", secs);
        rows.push_back({budget, r.report.escalated,
                        r.report.escalationFraction, r.report.meanD,
                        std::abs(r.report.meanD - mDetailed),
                        sign_ok, bound_ok, r.report.comboLo,
                        r.report.comboHi, secs});
    }
    std::printf("\nthe escalation budget buys back the detailed "
                "verdict: the spliced mean marches\nfrom the BADCO "
                "estimate toward the detailed one while the "
                "combined bound keeps\nthe ground truth inside "
                "(docs/FIDELITY.md).\n");

    if (const char *json = std::getenv("WSEL_BENCH_JSON");
        json && *json) {
        FILE *f = std::fopen(json, "w");
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n", json);
            return 1;
        }
        std::fprintf(f,
                     "{\n"
                     "  \"bench\": \"hybrid_fidelity\",\n"
                     "  \"target_uops\": %llu,\n"
                     "  \"cores\": %u,\n"
                     "  \"benchmarks\": %zu,\n"
                     "  \"population\": %llu,\n"
                     "  \"mean_d_badco\": %.8f,\n"
                     "  \"mean_d_detailed\": %.8f,\n"
                     "  \"runs\": [\n",
                     static_cast<unsigned long long>(target), cores,
                     suite.size(),
                     static_cast<unsigned long long>(pop.size()),
                     mBadco, mDetailed);
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const Row &r = rows[i];
            std::fprintf(
                f,
                "    {\"budget\": %.2f, \"escalated\": %llu, "
                "\"fraction\": %.4f, \"mean_d\": %.8f, "
                "\"abs_err_vs_detailed\": %.8f, "
                "\"sign_matches_detailed\": %s, "
                "\"bound_contains_detailed\": %s, "
                "\"combo_lo\": %.8f, \"combo_hi\": %.8f, "
                "\"seconds\": %.3f}%s\n",
                r.budget,
                static_cast<unsigned long long>(r.escalated),
                r.fraction, r.meanD, r.absErr,
                r.signOk ? "true" : "false",
                r.boundOk ? "true" : "false", r.comboLo, r.comboHi,
                r.seconds, i + 1 < rows.size() ? "," : "");
        }
        std::fprintf(f, "  ]\n}\n");
        std::fclose(f);
        std::fprintf(stderr, "[wsel] bench json -> %s\n", json);
    }

    fs::remove_all(scratch);
    return 0;
}
