#include "sim/characterize.hh"

#include <algorithm>

#include "cpu/detailed_core.hh"
#include "exec/scheduler.hh"
#include "mem/uncore.hh"
#include "stats/logging.hh"
#include "trace/trace_store.hh"

namespace wsel
{

std::vector<double>
BenchmarkFeatures::toVector() const
{
    return {loadFrac,
            storeFrac,
            branchFrac,
            ipc,
            dl1Mpki,
            llcMpki,
            branchMispredictRate,
            dtlbMpki};
}

BenchmarkFeatures
characterizeBenchmark(const BenchmarkProfile &profile,
                      const CoreConfig &core_cfg,
                      const UncoreConfig &uncore_cfg,
                      std::uint64_t target_uops, std::uint64_t seed)
{
    if (target_uops == 0)
        WSEL_FATAL("characterization needs a nonzero trace length");

    // Instruction mix from the trace itself (the simulator sees the
    // same deterministic stream).
    TraceCursor mix_cur = TraceStore::global().cursor(profile);
    std::uint64_t loads = 0, stores = 0, branches = 0;
    for (std::uint64_t i = 0; i < target_uops; ++i) {
        const MicroOp u = mix_cur.next();
        loads += u.kind == OpKind::Load;
        stores += u.kind == OpKind::Store;
        branches += u.kind == OpKind::Branch;
    }

    Uncore uncore(uncore_cfg, 1, seed);
    DetailedCore core(core_cfg, TraceStore::global().cursor(profile),
                      uncore, 0, target_uops, seed);
    runToTarget(core);

    const double n = static_cast<double>(target_uops);
    const double kilo = n / 1000.0;
    const CoreStats &cs = core.stats();

    BenchmarkFeatures f;
    f.name = profile.name;
    f.loadFrac = static_cast<double>(loads) / n;
    f.storeFrac = static_cast<double>(stores) / n;
    f.branchFrac = static_cast<double>(branches) / n;
    f.ipc = core.ipc();
    f.dl1Mpki = static_cast<double>(cs.dl1Misses) / kilo;
    f.llcMpki =
        static_cast<double>(uncore.coreStats(0).demandMisses) /
        kilo;
    f.branchMispredictRate =
        cs.branches ? static_cast<double>(cs.branchMispredicts) /
                          static_cast<double>(cs.branches)
                    : 0.0;
    f.dtlbMpki = static_cast<double>(cs.dtlbMisses) / kilo;
    return f;
}

std::vector<BenchmarkFeatures>
characterizeSuite(const std::vector<BenchmarkProfile> &suite,
                  const CoreConfig &core_cfg,
                  const UncoreConfig &uncore_cfg,
                  std::uint64_t target_uops, std::uint64_t seed,
                  std::size_t jobs)
{
    std::vector<BenchmarkFeatures> out(suite.size());
    exec::forEachIndex(
        exec::resolveJobs(jobs), suite.size(), [&](std::size_t i) {
            out[i] = characterizeBenchmark(
                suite[i], core_cfg, uncore_cfg, target_uops, seed);
        });
    return out;
}

std::vector<std::vector<double>>
featureMatrix(const std::vector<BenchmarkFeatures> &features)
{
    std::vector<std::vector<double>> out;
    out.reserve(features.size());
    for (const BenchmarkFeatures &f : features)
        out.push_back(f.toVector());
    return out;
}

} // namespace wsel
