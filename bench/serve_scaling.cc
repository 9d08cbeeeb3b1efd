/**
 * @file
 * Distributed campaign service scaling (docs/ROBUSTNESS.md,
 * "Distributed campaigns"): cells/sec of one population campaign
 * served by 1/2/4/8 single-threaded (`--jobs 1`) `wsel_worker`
 * processes through the coordinator, so that axis measures
 * process scaling alone, plus one worker at its default job count
 * (every host thread inside one process), against the in-process
 * population runner at --jobs 8 on the same rank range.  The
 * distributed path pays for process isolation (socket round-trips
 * per lease, per-worker model loads, shard files through the
 * kernel) and this bench quantifies that overhead.
 *
 * A last row measures the fixed cost of one campaign: 20
 * back-to-back one-shard campaigns of 40 cells on one daemon and
 * one worker (default --jobs), each on its own rank window so none
 * dedups.  A campaign's submit-to-Done wall minus the in-process
 * time of its shard, at the same thread count, is latency that is
 * not simulation.
 *
 * Environment knobs (beyond bench_util.hh's):
 *  - WSEL_SERVE_ROWS: population rows in the campaign
 *    (default 96);
 *  - WSEL_SERVE_SHARD_ROWS: rows per shard (default 4 — small
 *    shards so even 8 workers see plenty of leases).
 *
 * When WSEL_BENCH_JSON names a file, the numbers are archived
 * there as JSON (tools/ci.sh stores it as BENCH_serve.json).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "cache/replacement.hh"
#include "exec/scheduler.hh"
#include "serve/context.hh"
#include "serve/coordinator.hh"
#include "serve/protocol.hh"
#include "serve/spawn.hh"
#include "sim/model_store.hh"
#include "sim/population.hh"

namespace
{

using namespace wsel;
using namespace wsel::bench;

namespace fs = std::filesystem;

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

serve::CampaignSpec
benchSpec(std::uint64_t rows, std::uint64_t shard_rows,
          std::uint64_t target)
{
    serve::CampaignSpec s;
    s.cores = 4;
    s.targetUops = target;
    s.seed = 1;
    s.firstRank = 0;
    s.lastRank = rows;
    s.shardRows = shard_rows;
    s.policies = {"LRU", "RND", "FIFO", "DIP", "DRRIP"};
    for (const BenchmarkProfile &p : spec2006Suite())
        s.benchmarks.push_back(p.name);
    return s;
}

struct Run
{
    std::size_t workers = 0;
    std::size_t jobs = 0; ///< each worker's --jobs (0 = default)
    double seconds = 0.0;
    double cellsPerSec = 0.0;
};

/**
 * One timed distributed run with @p workers worker processes, each
 * given `--jobs` @p jobs.
 */
Run
runDistributed(const serve::CampaignSpec &spec,
               std::size_t workers, std::size_t jobs,
               const std::string &scratch, const std::string &cache)
{
    const std::string dir = scratch + "/w" +
                            std::to_string(workers) + "j" +
                            std::to_string(jobs);
    fs::remove_all(dir);
    fs::create_directories(dir);

    serve::CoordinatorOptions opts;
    opts.socketPath = dir + "/serve.sock";
    opts.storeRoot = dir + "/store";
    opts.cacheDir = cache;
    serve::Coordinator coordinator(opts);
    std::thread loop([&] { coordinator.run(); });

    const std::string worker_bin = serve::findWorkerBinary();
    std::vector<pid_t> pids;
    for (std::size_t i = 0; i < workers; ++i)
        pids.push_back(serve::spawnProcess(
            {worker_bin, "--socket", opts.socketPath,
             "--cache-dir", cache, "--jobs",
             std::to_string(jobs)}));

    Run r;
    r.workers = workers;
    r.jobs = jobs;
    const auto t0 = std::chrono::steady_clock::now();
    {
        serve::Client client(opts.socketPath);
        const serve::StatusMsg st =
            client.waitFinished(client.submit(spec));
        r.seconds = secondsSince(t0);
        if (st.state != serve::CampaignState::Done)
            WSEL_FATAL("distributed bench campaign failed: "
                       << st.message);
    }

    coordinator.requestStop();
    loop.join();
    for (const pid_t pid : pids)
        (void)serve::waitProcess(pid);

    const double cells = static_cast<double>(
        (spec.lastRank - spec.firstRank) * spec.policies.size());
    r.cellsPerSec = cells / r.seconds;
    fs::remove_all(dir);
    return r;
}

struct Overhead
{
    double campaignMs = 0.0;   ///< median submit-to-Done wall
    double simulationMs = 0.0; ///< median in-process shard time
    double overheadMs = 0.0;   ///< median of their differences
};

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** The fixed-overhead row (see the file comment). */
Overhead
runFixedOverhead(std::size_t campaigns, std::uint64_t rows,
                 std::uint64_t target, const std::string &scratch,
                 const std::string &cache)
{
    const std::string dir = scratch + "/overhead";
    fs::remove_all(dir);
    fs::create_directories(dir);
    serve::CoordinatorOptions opts;
    opts.socketPath = dir + "/serve.sock";
    opts.storeRoot = dir + "/store";
    opts.cacheDir = cache;
    serve::Coordinator coordinator(opts);
    std::thread loop([&] { coordinator.run(); });
    const pid_t worker = serve::spawnProcess(
        {serve::findWorkerBinary(), "--socket", opts.socketPath,
         "--cache-dir", cache});

    const std::size_t jobs = exec::resolveJobs(0);
    std::vector<double> wall, sim, overhead;
    {
        serve::Client client(opts.socketPath);
        for (std::size_t i = 0; i < campaigns; ++i) {
            serve::CampaignSpec spec = benchSpec(rows, rows, target);
            spec.firstRank = i * rows;
            spec.lastRank = spec.firstRank + rows;

            const auto t0 = std::chrono::steady_clock::now();
            const serve::StatusMsg st =
                client.waitFinished(client.submit(spec));
            wall.push_back(1e3 * secondsSince(t0));
            if (st.state != serve::CampaignState::Done)
                WSEL_FATAL("overhead bench campaign failed: "
                           << st.message);

            const serve::CampaignContext ctx(spec, cache, jobs);
            std::vector<double> payload;
            const auto s0 = std::chrono::steady_clock::now();
            simulatePopulationShardBatched(
                ctx.manifest(),
                WorkloadSet::fullPopulation(ctx.population()),
                ctx.uncores(), ctx.models(), ctx.seed(), 0, jobs,
                payload);
            sim.push_back(1e3 * secondsSince(s0));
            overhead.push_back(wall.back() - sim.back());
        }
    }

    coordinator.requestStop();
    loop.join();
    (void)serve::waitProcess(worker);
    fs::remove_all(dir);
    return {median(wall), median(sim), median(overhead)};
}

} // namespace

int
main()
{
    ObsSession obs_session;

    const std::uint64_t target = targetUops();
    const std::uint64_t rows = envU64("WSEL_SERVE_ROWS", 96);
    const std::uint64_t shard_rows =
        envU64("WSEL_SERVE_SHARD_ROWS", 4);
    const serve::CampaignSpec spec =
        benchSpec(rows, shard_rows, target);
    const double cells =
        static_cast<double>(rows * spec.policies.size());

    const std::string cache = defaultCacheDir();
    const std::string scratch =
        (fs::temp_directory_path() / "wsel_serve_scaling")
            .string();
    fs::remove_all(scratch);
    fs::create_directories(scratch);

    std::printf("DISTRIBUTED CAMPAIGN SERVICE SCALING\n");
    std::printf("%llu rows x %zu policies x %u cores at %llu uops "
                "(%llu-row shards)\n\n",
                static_cast<unsigned long long>(rows),
                spec.policies.size(), spec.cores,
                static_cast<unsigned long long>(target),
                static_cast<unsigned long long>(shard_rows));

    // Warm the model cache once so every configuration below pays
    // the same (small) model-load cost instead of the first run
    // alone paying the build.
    { serve::CampaignContext warm(spec, cache, 8); }

    // In-process baseline: the population runner at --jobs 8.
    double base_sec = 0.0;
    {
        const auto suite = spec2006Suite();
        std::vector<PolicyKind> policies;
        for (const std::string &p : spec.policies)
            policies.push_back(parsePolicyKind(p));
        const WorkloadPopulation pop(suite.size(), spec.cores);
        BadcoModelStore store(
            CoreConfig{}, target,
            UncoreConfig::forCores(spec.cores, PolicyKind::LRU)
                .llcHitLatency,
            cache);
        PopulationOptions opts;
        opts.jobs = 8;
        opts.lastRank = rows;
        opts.resume = false;
        opts.shardCells = static_cast<std::size_t>(
            shard_rows * spec.policies.size());
        const auto t0 = std::chrono::steady_clock::now();
        (void)runBadcoPopulationCampaign(pop, policies, target,
                                         store, suite, {},
                                         scratch + "/inproc.v3",
                                         opts);
        base_sec = secondsSince(t0);
    }
    const double base_cps = cells / base_sec;
    std::printf("%-24s %10s %10s %12s\n", "configuration", "procs",
                "seconds", "cells/sec");
    std::printf("%-24s %10d %10.2f %12.0f\n", "in-process --jobs 8",
                1, base_sec, base_cps);

    // Single-threaded workers for the process-scaling axis, then
    // one worker at the default (all host threads).
    std::vector<Run> runs;
    for (const std::size_t n : {1u, 2u, 4u, 8u})
        runs.push_back(runDistributed(spec, n, 1, scratch, cache));
    runs.push_back(runDistributed(spec, 1, 0, scratch, cache));
    for (const Run &r : runs) {
        const std::string config =
            "workers --jobs " + std::to_string(r.jobs);
        std::printf("%-24s %10zu %10.2f %12.0f\n", config.c_str(),
                    r.workers, r.seconds, r.cellsPerSec);
    }

    constexpr std::size_t kCampaigns = 20;
    constexpr std::uint64_t kRows = 8; // x 5 policies = 40 cells
    const Overhead oh =
        runFixedOverhead(kCampaigns, kRows, target, scratch, cache);
    std::printf("\n%zu one-shard campaigns of %llu cells, medians: "
                "campaign %.1f ms, in-process shard %.1f ms, "
                "fixed overhead %.1f ms\n",
                kCampaigns,
                static_cast<unsigned long long>(
                    kRows * spec.policies.size()),
                oh.campaignMs, oh.simulationMs, oh.overheadMs);

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
            "  \"bench\": \"serve_scaling\",\n"
            "  \"target_uops\": %llu,\n"
            "  \"rows\": %llu,\n"
            "  \"policies\": %zu,\n"
            "  \"cores\": %u,\n"
            "  \"shard_rows\": %llu,\n"
            "  \"cells\": %.0f,\n"
            "  \"inprocess_jobs8\": "
            "{\"seconds\": %.3f, \"cells_per_sec\": %.1f},\n"
            "  \"distributed\": [\n",
            static_cast<unsigned long long>(target),
            static_cast<unsigned long long>(rows),
            spec.policies.size(), spec.cores,
            static_cast<unsigned long long>(shard_rows), cells,
            base_sec, base_cps);
        for (std::size_t i = 0; i < runs.size(); ++i)
            std::fprintf(
                f,
                "    {\"workers\": %zu, \"jobs\": %zu, "
                "\"seconds\": %.3f, \"cells_per_sec\": %.1f}%s\n",
                runs[i].workers, runs[i].jobs, runs[i].seconds,
                runs[i].cellsPerSec,
                i + 1 < runs.size() ? "," : "");
        std::fprintf(
            f,
            "  ],\n"
            "  \"fixed_overhead\": {\"campaigns\": %zu, "
            "\"cells_each\": %llu, \"median_campaign_ms\": %.2f, "
            "\"median_simulation_ms\": %.2f, "
            "\"median_overhead_ms\": %.2f}\n}\n",
            kCampaigns,
            static_cast<unsigned long long>(
                kRows * spec.policies.size()),
            oh.campaignMs, oh.simulationMs, oh.overheadMs);
        std::fclose(f);
    }

    fs::remove_all(scratch);
    return 0;
}
