/**
 * @file
 * Table IV reproduction: classification of the 22 benchmarks by LLC
 * memory intensity (MPKI), measured with the detailed simulator on
 * the 4-core uncore running each benchmark alone.
 *
 * Also runs the automatic alternative mentioned in the paper's
 * §II-B (Vandierendonck & Seznec): k-means clustering of the MPKI
 * values instead of manual thresholds.
 */

#include <cstdio>
#include <map>
#include <vector>

#include "bench_util.hh"
#include "cpu/detailed_core.hh"
#include "mem/uncore.hh"
#include "stats/kmeans.hh"
#include "trace/trace_generator.hh"

int
main()
{
    using namespace wsel;
    using namespace wsel::bench;

    const std::uint64_t target = targetUops();
    const auto &suite = spec2006Suite();
    const UncoreConfig ucfg =
        UncoreConfig::forCores(4, PolicyKind::LRU);

    std::printf("TABLE IV. CLASSIFICATION OF BENCHMARKS BY MEMORY "
                "INTENSITY\n");
    std::printf("thresholds scaled %gx: Low < %g, Medium < %g, "
                "High >= %g MPKI (paper: 1 / 5)\n\n",
                kMpkiClassScale, 1.0 * kMpkiClassScale,
                5.0 * kMpkiClassScale, 5.0 * kMpkiClassScale);

    std::vector<double> mpkis;
    std::map<MpkiClass, std::vector<std::string>> classes;
    int agree = 0;
    std::printf("%-12s %8s %8s %8s %6s\n", "benchmark", "MPKI",
                "class", "paper", "match");
    for (const auto &p : suite) {
        Uncore uncore(ucfg, 1, 1);
        CoreConfig ccfg;
        DetailedCore core(ccfg, TraceStore::global().cursor(p),
                          uncore, 0, target, 1);
        runToTarget(core);
        const double mpki =
            static_cast<double>(uncore.coreStats(0).demandMisses) /
            (static_cast<double>(target) / 1000.0);
        mpkis.push_back(mpki);
        const MpkiClass cls = classifyMpki(mpki);
        classes[cls].push_back(p.name);
        const bool match = cls == p.paperClass;
        agree += match;
        std::printf("%-12s %8.2f %8s %8s %6s\n", p.name.c_str(),
                    mpki, toString(cls).c_str(),
                    toString(p.paperClass).c_str(),
                    match ? "ok" : "DIFF");
    }
    std::printf("\nagreement with the paper's classes: %d/22\n\n",
                agree);

    for (MpkiClass c :
         {MpkiClass::Low, MpkiClass::Medium, MpkiClass::High}) {
        std::printf("%-8s:", toString(c).c_str());
        for (const auto &n : classes[c])
            std::printf(" %s", n.c_str());
        std::printf("\n");
    }

    // Automatic 3-class clustering (paper §II-B alternative).
    Rng rng(5);
    double best_inertia = 1e300;
    KMeansResult best;
    for (int restart = 0; restart < 10; ++restart) {
        Rng r(100 + restart);
        KMeansResult res = kmeans1d(mpkis, 3, r);
        if (res.inertia < best_inertia) {
            best_inertia = res.inertia;
            best = std::move(res);
        }
    }
    (void)rng;
    std::printf("\nautomatic k-means(3) clustering of the same MPKI "
                "values:\n");
    for (std::size_t c = 0; c < 3; ++c) {
        std::printf("  cluster around %.2f MPKI:",
                    best.centroids[c][0]);
        for (std::size_t i = 0; i < suite.size(); ++i) {
            if (best.assignment[i] == c)
                std::printf(" %s", suite[i].name.c_str());
        }
        std::printf("\n");
    }
    return 0;
}
