/**
 * @file
 * Extending the suite: define a custom synthetic benchmark profile,
 * inspect its trace, measure its MPKI class, build its BADCO model,
 * and co-schedule it with suite benchmarks on a 4-core CMP.
 */

#include <cstdio>

#include "badco/badco_machine.hh"
#include "cpu/detailed_core.hh"
#include "sim/model_store.hh"
#include "sim/multicore.hh"
#include "trace/trace_generator.hh"

int
main()
{
    using namespace wsel;

    // A "database-like" benchmark: pointer chasing over a large
    // index plus a hot row buffer.
    BenchmarkProfile dbms;
    dbms.name = "dbms";
    dbms.seed = 777;
    dbms.loadFrac = 0.34;
    dbms.storeFrac = 0.12;
    dbms.branchFrac = 0.17;
    dbms.fpFrac = 0.01;
    dbms.l1Frac = 0.70;
    dbms.hotFrac = 0.12;
    dbms.streamFrac = 0.02;
    dbms.randomFrac = 0.06;
    dbms.chaseFrac = 0.10;
    dbms.l1Bytes = 8 * 1024;
    dbms.hotBytes = 48 * 1024;
    dbms.footprintBytes = 16 * 1024 * 1024;
    dbms.chaseBytes = 4 * 1024 * 1024;
    dbms.staticBlocks = 768;
    dbms.branchBias = 0.75;
    dbms.branchNoise = 0.15;
    dbms.validate();

    const std::uint64_t target = 100000;

    // 1. Inspect the trace stream.
    TraceGenerator gen(dbms);
    std::uint64_t loads = 0, chase = 0;
    for (int i = 0; i < 50000; ++i) {
        const MicroOp &u = gen.next();
        if (u.kind == OpKind::Load) {
            ++loads;
            if (u.addr >= TraceGenerator::chaseBase &&
                u.addr < TraceGenerator::streamBase)
                ++chase;
        }
    }
    std::printf("trace check: %llu loads / 50k uops, %.1f%% "
                "pointer-chasing\n",
                static_cast<unsigned long long>(loads),
                100.0 * static_cast<double>(chase) /
                    static_cast<double>(loads));

    // 2. Single-thread characterization with the detailed core.
    const UncoreConfig ucfg =
        UncoreConfig::forCores(4, PolicyKind::LRU);
    Uncore uncore(ucfg, 1, 1);
    CoreConfig ccfg;
    DetailedCore core(ccfg, TraceStore::global().cursor(dbms),
                      uncore, 0, target, 1);
    runToTarget(core);
    const double mpki =
        static_cast<double>(uncore.coreStats(0).demandMisses) /
        (static_cast<double>(target) / 1000.0);
    std::printf("alone on the 4-core uncore: IPC %.3f, LLC %.1f "
                "MPKI -> class %s\n",
                core.ipc(), mpki,
                toString(classifyMpki(mpki)).c_str());

    // 3. BADCO model (two detailed traces internally).
    const BadcoModel model =
        buildBadcoModel(dbms, ccfg, target, ucfg.llcHitLatency);
    std::printf("BADCO model: %zu nodes, %llu loads, calibrated "
                "window %u uops\n",
                model.nodes.size(),
                static_cast<unsigned long long>(model.loadCount),
                model.window);

    // 4. Co-schedule with three suite benchmarks.
    const auto &suite = spec2006Suite();
    std::vector<BenchmarkProfile> extended = suite;
    extended.push_back(dbms);
    BadcoModelStore store(ccfg, target, ucfg.llcHitLatency,
                          defaultCacheDir());
    const auto models = store.getSuite(extended);
    BadcoMulticoreSim sim(ucfg, 4, target);

    std::vector<std::uint32_t> ids;
    for (const char *n : {"povray", "bzip2", "libquantum"}) {
        for (std::uint32_t i = 0; i < extended.size(); ++i)
            if (extended[i].name == n)
                ids.push_back(i);
    }
    ids.push_back(static_cast<std::uint32_t>(extended.size() - 1));
    const Workload w(ids);

    std::printf("\nco-scheduled IPCs under each policy:\n");
    std::printf("%-8s", "policy");
    for (std::uint32_t b : w.benchmarks())
        std::printf(" %12s", extended[b].name.c_str());
    std::printf("\n");
    for (PolicyKind pol : paperPolicies()) {
        const UncoreConfig cfg = UncoreConfig::forCores(4, pol);
        BadcoMulticoreSim s(cfg, 4, target);
        const SimResult r = s.run(w, models);
        std::printf("%-8s", toString(pol).c_str());
        for (double ipc : r.ipc)
            std::printf(" %12.3f", ipc);
        std::printf("\n");
    }
    return 0;
}
