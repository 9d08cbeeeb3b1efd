/**
 * @file
 * Table III reproduction: simulation speed (MIPS) of the detailed
 * simulator vs the BADCO simulator for 1, 2, 4 and 8 cores, and the
 * resulting speedup. The paper reports 0.17->0.017 MIPS for Zesto
 * and 2.5->1.2 MIPS for BADCO (speedups 15x to 68x); absolute
 * numbers differ on our scaled substrate, the shape (BADCO much
 * faster, speedup growing with core count) is the target.
 *
 * A second table reports host-parallel scaling: the same BADCO
 * campaign run with --jobs 1/2/4/8 on the exec/ thread
 * pool, with wall-clock speedup over the serial run and a check
 * that every job count produced the identical IPC matrix
 * (docs/PARALLELISM.md).  WSEL_SCALE_WORKLOADS sizes the campaign
 * (default 24 workloads).
 *
 * A third section benchmarks the shared trace store hot path
 * (docs/PERFORMANCE.md): cells/sec of an 8-core BADCO campaign at
 * --jobs 1 and 8 (WSEL_TS_WORKLOADS sizes it, default 24), with
 * the trace_store.* observability counters sampled at the end.
 * When WSEL_BENCH_JSON names a file, the section is archived there
 * as JSON (tools/ci.sh stores it as BENCH_trace_store.json).
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "bench_util.hh"
#include "exec/scheduler.hh"
#include "obs/metrics.hh"
#include "sim/model_store.hh"
#include "sim/multicore.hh"
#include "trace/trace_store.hh"

int
main()
{
    using namespace wsel;
    using namespace wsel::bench;

    // Count trace-store activity from the first chunk build: the
    // final section snapshots the trace_store.* counters.
    obs::enableMetrics();

    const std::uint64_t target = targetUops();
    const auto &suite = spec2006Suite();
    const std::size_t reps =
        static_cast<std::size_t>(envU64("WSEL_SPEED_REPS", 6));

    std::printf("TABLE III. AVERAGE SIMULATION SPEEDUP "
                "(%llu uops/thread, %zu workloads per cell)\n\n",
                static_cast<unsigned long long>(target), reps);
    std::printf("%-18s %8s %8s %8s %8s\n", "number of cores", "1",
                "2", "4", "8");

    double mips_det[4] = {0, 0, 0, 0};
    double mips_bad[4] = {0, 0, 0, 0};
    const std::uint32_t core_counts[4] = {1, 2, 4, 8};

    for (int i = 0; i < 4; ++i) {
        const std::uint32_t k = core_counts[i];
        const UncoreConfig ucfg =
            UncoreConfig::forCores(k == 1 ? 2 : k, PolicyKind::LRU);
        const WorkloadPopulation pop(
            static_cast<std::uint32_t>(suite.size()), k);
        Rng rng(33 + k);
        std::vector<Workload> ws;
        for (std::size_t r = 0; r < reps; ++r)
            ws.push_back(pop.sampleUniform(rng));

        DetailedMulticoreSim det(CoreConfig{}, ucfg, k, target);
        BadcoModelStore store(CoreConfig{}, target,
                              ucfg.llcHitLatency,
                              defaultCacheDir());
        const auto models = store.getSuite(suite);
        BadcoMulticoreSim bad(ucfg, k, target);

        double det_insn = 0, det_sec = 0, bad_insn = 0, bad_sec = 0;
        for (const Workload &w : ws) {
            const SimResult rd = det.run(w, suite);
            det_insn += static_cast<double>(rd.instructions);
            det_sec += rd.wallSeconds;
            const SimResult rb = bad.run(w, models);
            bad_insn += static_cast<double>(rb.instructions);
            bad_sec += rb.wallSeconds;
        }
        mips_det[i] = det_insn / det_sec / 1e6;
        mips_bad[i] = bad_insn / bad_sec / 1e6;
    }

    std::printf("%-18s", "MIPS - detailed");
    for (int i = 0; i < 4; ++i)
        std::printf(" %8.3f", mips_det[i]);
    std::printf("   (paper Zesto: 0.170 0.096 0.049 0.017)\n");
    std::printf("%-18s", "MIPS - BADCO");
    for (int i = 0; i < 4; ++i)
        std::printf(" %8.2f", mips_bad[i]);
    std::printf("   (paper BADCO: 2.52 2.41 1.89 1.19)\n");
    std::printf("%-18s", "speedup");
    for (int i = 0; i < 4; ++i)
        std::printf(" %8.1f", mips_bad[i] / mips_det[i]);
    std::printf("   (paper: 14.8 25.2 38.9 68.1)\n");

    // Host-parallel scaling of one BADCO campaign across worker
    // threads.  The matrices must match bitwise for every job
    // count; the speedup column shows what the exec/ scheduler
    // buys on this host (bounded by its hardware threads).
    const std::size_t scale_n = static_cast<std::size_t>(
        envU64("WSEL_SCALE_WORKLOADS", 24));
    const std::uint32_t scale_cores = 4;
    const WorkloadPopulation pop(
        static_cast<std::uint32_t>(suite.size()), scale_cores);
    const auto workloads = subsamplePopulation(pop, scale_n);
    const UncoreConfig ucfg =
        UncoreConfig::forCores(scale_cores, PolicyKind::LRU);
    BadcoModelStore store(CoreConfig{}, target, ucfg.llcHitLatency,
                          defaultCacheDir());

    std::printf("\nHOST-PARALLEL CAMPAIGN SCALING "
                "(badco, %u cores, %zu workloads x %zu policies, "
                "%u hardware threads)\n\n",
                scale_cores, workloads.size(),
                paperPolicies().size(),
                static_cast<unsigned>(exec::hardwareConcurrency()));
    std::printf("%-10s %10s %10s %12s\n", "jobs", "seconds",
                "speedup", "matrix");

    double serial_sec = 0.0;
    Campaign ref;
    const std::size_t job_counts[4] = {1, 2, 4, 8};
    for (int i = 0; i < 4; ++i) {
        CampaignOptions opts;
        opts.jobs = job_counts[i];
        const auto t0 = std::chrono::steady_clock::now();
        const Campaign c =
            runBadcoCampaign(workloads, paperPolicies(),
                             scale_cores, target, store, suite,
                             opts);
        const double sec = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() -
                               t0)
                               .count();
        if (i == 0) {
            serial_sec = sec;
            ref = c;
        }
        const bool same = c.ipc == ref.ipc && c.refIpc == ref.refIpc;
        std::printf("%-10zu %10.2f %10.2f %12s\n", job_counts[i],
                    sec, serial_sec / sec,
                    same ? "identical" : "DIVERGED");
        if (!same)
            return 1;
    }

    // Trace-store throughput: cells/sec of an 8-core BADCO campaign
    // at jobs 1 and 8.  The cells walk the finalize()d SoA model
    // views and the optimized uncore, and model building streams
    // µops through shared TraceStore cursors, so this tracks the
    // docs/PERFORMANCE.md hot path end to end.
    const std::size_t ts_n = static_cast<std::size_t>(
        envU64("WSEL_TS_WORKLOADS", 24));
    const std::uint32_t ts_cores = 8;
    const WorkloadPopulation pop8(
        static_cast<std::uint32_t>(suite.size()), ts_cores);
    const auto ts_workloads = subsamplePopulation(pop8, ts_n);
    const UncoreConfig ucfg8 =
        UncoreConfig::forCores(ts_cores, PolicyKind::LRU);
    BadcoModelStore store8(CoreConfig{}, target, ucfg8.llcHitLatency,
                           defaultCacheDir());
    // Build the models outside the timed loop: the section measures
    // campaign cell throughput, not one-time model construction.
    (void)store8.getSuite(suite);
    const double cells = static_cast<double>(ts_workloads.size()) *
                         static_cast<double>(paperPolicies().size());

    std::printf("\nTRACE-STORE HOT PATH "
                "(badco, %u cores, %.0f cells)\n\n",
                ts_cores, cells);
    std::printf("%-10s %10s %12s %12s\n", "jobs", "seconds",
                "cells/sec", "matrix");

    double cps[2] = {0, 0};
    Campaign ts_ref;
    const std::size_t ts_jobs[2] = {1, 8};
    for (int i = 0; i < 2; ++i) {
        CampaignOptions opts;
        opts.jobs = ts_jobs[i];
        const auto t0 = std::chrono::steady_clock::now();
        const Campaign c =
            runBadcoCampaign(ts_workloads, paperPolicies(), ts_cores,
                             target, store8, suite, opts);
        const double sec = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
        cps[i] = cells / sec;
        if (i == 0)
            ts_ref = c;
        const bool same =
            c.ipc == ts_ref.ipc && c.refIpc == ts_ref.refIpc;
        std::printf("%-10zu %10.2f %12.1f %12s\n", ts_jobs[i], sec,
                    cps[i], same ? "identical" : "DIVERGED");
        if (!same)
            return 1;
    }

    const std::uint64_t chunks_built =
        obs::counter("trace_store.chunks_built").value();
    const std::uint64_t chunk_hits =
        obs::counter("trace_store.chunk_hits").value();
    const std::uint64_t chunks_evicted =
        obs::counter("trace_store.chunks_evicted").value();
    const std::size_t resident = TraceStore::global().residentBytes();
    std::printf("\ntrace store: %llu chunks built, %llu hits, "
                "%llu evicted, %zu bytes resident\n",
                static_cast<unsigned long long>(chunks_built),
                static_cast<unsigned long long>(chunk_hits),
                static_cast<unsigned long long>(chunks_evicted),
                resident);

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
            "  \"bench\": \"trace_store\",\n"
            "  \"cores\": %u,\n"
            "  \"workloads\": %zu,\n"
            "  \"policies\": %zu,\n"
            "  \"target_uops\": %llu,\n"
            "  \"cells\": %.0f,\n"
            "  \"cells_per_sec_jobs1\": %.2f,\n"
            "  \"cells_per_sec_jobs8\": %.2f,\n"
            "  \"parallel_speedup\": %.2f,\n"
            "  \"trace_store\": {\n"
            "    \"chunks_built\": %llu,\n"
            "    \"chunk_hits\": %llu,\n"
            "    \"chunks_evicted\": %llu,\n"
            "    \"resident_bytes\": %zu\n"
            "  }\n"
            "}\n",
            ts_cores, ts_workloads.size(), paperPolicies().size(),
            static_cast<unsigned long long>(target), cells, cps[0],
            cps[1], cps[1] / cps[0],
            static_cast<unsigned long long>(chunks_built),
            static_cast<unsigned long long>(chunk_hits),
            static_cast<unsigned long long>(chunks_evicted),
            resident);
        std::fclose(f);
        std::printf("bench json written to %s\n", json);
    }
    return 0;
}
