/**
 * @file
 * Developer calibration tool: per-benchmark single-thread runs with
 * full stat breakdowns, used to tune the synthetic profiles so the
 * suite lands in the paper's Table IV MPKI classes with sane IPCs.
 */

#include <cstdio>

#include "cpu/detailed_core.hh"
#include "mem/uncore.hh"
#include "sim/model_store.hh"
#include "badco/badco_machine.hh"
#include "trace/benchmark_profile.hh"
#include "trace/trace_generator.hh"

int
main(int argc, char **argv)
{
    using namespace wsel;
    const std::uint64_t target =
        argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 100000;

    const auto &suite = spec2006Suite();
    const CoreConfig ccfg;
    const UncoreConfig ucfg =
        UncoreConfig::forCores(4, PolicyKind::LRU);

    std::printf("%-12s %6s %6s | %7s %7s %7s %6s %6s %6s %6s | "
                "%5s %6s\n",
                "bench", "IPC", "bIPC", "dl1MPK", "llcMPK", "class",
                "il1m", "dtlbm", "brMPR", "pfMPK", "cls?", "cyc/u");
    for (const auto &p : suite) {
        Uncore uncore(ucfg, 1, 1);
        DetailedCore core(ccfg, TraceStore::global().cursor(p),
                          uncore, 0, target, 1);
        runToTarget(core);
        const CoreStats &cs = core.stats();
        const double kinsn = static_cast<double>(target) / 1000.0;
        const double llc_mpki =
            static_cast<double>(uncore.coreStats(0).demandMisses) /
            kinsn;
        const double dl1_mpki =
            static_cast<double>(cs.dl1Misses) / kinsn;
        const double pf_mpki =
            static_cast<double>(cs.uncorePrefetches) / kinsn;

        // BADCO single-thread IPC for the same benchmark.
        BadcoModel model = buildBadcoModel(p, ccfg, target,
                                           ucfg.llcHitLatency);
        Uncore uncore2(ucfg, 1, 1);
        BadcoMachine machine(model, uncore2, 0, target);
        while (!machine.reachedTarget())
            machine.run(machine.localClock() + 1000);

        const MpkiClass cls = classifyMpki(llc_mpki);
        std::printf("%-12s %6.3f %6.3f | %7.2f %7.2f %7s %6llu "
                    "%6llu %5.1f%% %6.2f | %5s %6.1f\n",
                    p.name.c_str(), core.ipc(), machine.ipc(),
                    dl1_mpki, llc_mpki, toString(cls).c_str(),
                    static_cast<unsigned long long>(cs.il1Misses),
                    static_cast<unsigned long long>(cs.dtlbMisses),
                    100.0 * static_cast<double>(
                        cs.branchMispredicts) /
                        static_cast<double>(cs.branches),
                    pf_mpki,
                    cls == p.paperClass ? "ok" : "MISS",
                    static_cast<double>(cs.cyclesToTarget) /
                        static_cast<double>(target));
    }
    return 0;
}
