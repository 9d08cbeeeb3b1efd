/**
 * @file
 * Ablation of the BADCO machine's model parameters: the calibrated
 * effective window (vs fixed overrides), the outstanding-request
 * cap, and the multicore simulation quantum — accuracy against the
 * detailed simulator and simulation speed.
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "sim/model_store.hh"
#include "sim/multicore.hh"
#include "badco/badco_machine.hh"
#include "cpu/detailed_core.hh"
#include "trace/trace_generator.hh"
#include "stats/summary.hh"

int
main()
{
    using namespace wsel;
    using namespace wsel::bench;

    const std::uint64_t target = targetUops();
    const auto &suite = spec2006Suite();
    const UncoreConfig ucfg =
        UncoreConfig::forCores(4, PolicyKind::LRU);
    BadcoModelStore store(CoreConfig{}, target, ucfg.llcHitLatency,
                          defaultCacheDir());
    const auto models = store.getSuite(suite);

    // References: detailed single-thread CPI per benchmark against
    // (a) the real uncore and (b) the uniform slow uncore the
    // second-trace calibration targets.
    std::vector<double> ref_cpi, ref_cpi_slow;
    {
        DetailedMulticoreSim det(CoreConfig{}, ucfg, 1, target);
        for (double ipc : det.referenceIpcs(suite))
            ref_cpi.push_back(1.0 / ipc);
        UncoreConfig slow_cfg = ucfg;
        for (const auto &p : suite) {
            PerfectUncore slow(ucfg.llcHitLatency + 200);
            CoreConfig ccfg;
            DetailedCore core(ccfg, TraceStore::global().cursor(p),
                              slow, 0, target, 1);
            runToTarget(core);
            ref_cpi_slow.push_back(
                static_cast<double>(core.stats().cyclesToTarget) /
                static_cast<double>(target));
        }
        (void)slow_cfg;
    }

    std::printf("ABLATION: BADCO machine window "
                "(single-thread CPI error vs detailed)\n\n");
    std::printf("calibrated per-benchmark windows: ");
    for (std::size_t i = 0; i < suite.size(); ++i)
        std::printf("%s%u", i ? "," : "", models[i]->window);
    std::printf("\n\n%-22s %14s %14s\n", "window setting",
                "|err| real-unc", "|err| slow-unc");

    auto evalWindow = [&](std::uint32_t window,
                          const char *label) {
        RunningStats abs_err, abs_err_slow;
        BadcoMulticoreSim bad(ucfg, 1, target, 1, window);
        for (std::size_t i = 0; i < suite.size(); ++i) {
            Workload w({static_cast<std::uint32_t>(i)});
            const SimResult r = bad.run(w, models);
            abs_err.add(std::abs(1.0 / r.ipc[0] - ref_cpi[i]) /
                        ref_cpi[i]);
            // Replay against the calibration operating point.
            PerfectUncore slow(ucfg.llcHitLatency + 200);
            BadcoMachine m(*models[i], slow, 0, target, window);
            while (!m.reachedTarget())
                m.run(m.localClock() + 100000);
            const double cpi_b =
                static_cast<double>(m.stats().cyclesToTarget) /
                static_cast<double>(target);
            abs_err_slow.add(std::abs(cpi_b - ref_cpi_slow[i]) /
                             ref_cpi_slow[i]);
        }
        std::printf("%-22s %13.2f%% %13.2f%%\n", label,
                    100.0 * abs_err.mean(),
                    100.0 * abs_err_slow.mean());
    };

    evalWindow(0, "calibrated (model)");
    evalWindow(4, "fixed 4");
    evalWindow(8, "fixed 8");
    evalWindow(16, "fixed 16");
    evalWindow(64, "fixed 64");
    evalWindow(128, "fixed 128 (ROB)");

    std::printf("\nmulticore quantum (4 cores, one heavy mixed "
                "workload):\n%-12s %10s %10s\n", "quantum",
                "IPC[0]", "MIPS");
    const Workload mix({1, 11, 16, 20});
    for (std::uint64_t q : {10u, 50u, 200u, 1000u}) {
        BadcoMulticoreSim bad(ucfg, 4, target, 1, 0, 16, q);
        const SimResult r = bad.run(mix, models);
        std::printf("%-12llu %10.3f %10.1f\n",
                    static_cast<unsigned long long>(q), r.ipc[0],
                    r.mips());
    }
    std::printf("\nreading: the calibrated window matches the "
                "detailed core at its calibration operating\npoint "
                "(slow-uncore column) by construction, preserving "
                "each benchmark's latency\nsensitivity — what "
                "multicore contention accuracy needs (fig2's "
                "speedup error). A small\nfixed window can score "
                "better on single-thread real-uncore CPI but "
                "collapses\nhigh-ILP threads under contention; a "
                "ROB-sized window is far too optimistic\n"
                "everywhere. The quantum is a speed/skew tradeoff "
                "with mild IPC sensitivity.\n");
    return 0;
}
