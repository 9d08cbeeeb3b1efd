/**
 * @file
 * google-benchmark microbenchmarks for the library's hot paths:
 * RNG draws, trace generation, cache accesses per policy, TAGE
 * prediction, uncore requests, detailed-core cycles, one 4-core
 * detailed cell and BADCO machine steps — plus the observability primitives (counter
 * increments and span enter/exit), measured both enabled and
 * disabled to back the near-zero-overhead-when-off claim in
 * docs/OBSERVABILITY.md.
 */

#include <benchmark/benchmark.h>

#include <filesystem>

#include "badco/badco_machine.hh"
#include "badco/badco_model.hh"
#include "cache/cache.hh"
#include "cache/tagscan.hh"
#include "core/workload/workload.hh"
#include "cpu/detailed_core.hh"
#include "cpu/tage.hh"
#include "mem/uncore.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/batch.hh"
#include "sim/multicore.hh"
#include "stats/persist_v3.hh"
#include "stats/summary.hh"
#include "trace/trace_generator.hh"
#include "trace/trace_store.hh"

namespace
{

using namespace wsel;

void
BM_RngNextInt(benchmark::State &state)
{
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.nextInt(12650));
}
BENCHMARK(BM_RngNextInt);

void
BM_TraceGeneratorNext(benchmark::State &state)
{
    TraceGenerator gen(findProfile("mcf"));
    for (auto _ : state)
        benchmark::DoNotOptimize(&gen.next());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceGeneratorNext);

// Steady-state µop fetch through the memoized SoA store: the
// cursor-vs-generator comparison backing docs/PERFORMANCE.md. The
// walk wraps at the chunk size (the simulators' thread-restart
// pattern), so the one-time chunk build is not in the measurement.
void
BM_TraceCursorNext(benchmark::State &state)
{
    static TraceStore store; // chunks shared across iterations
    TraceCursor cur = store.cursor(findProfile("mcf"));
    for (auto _ : state) {
        if (cur.generated() == TraceStore::kDefaultChunkUops)
            cur.reset();
        MicroOp u = cur.next();
        benchmark::DoNotOptimize(u);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceCursorNext);

// Cost of materializing one chunk (generator replay + SoA pack):
// what a cold start or a post-eviction regeneration pays. A zero
// budget evicts each chunk as the next lands, so every fetch below
// is a fresh build; items = µops packed.
void
BM_TraceChunkBuild(benchmark::State &state)
{
    TraceStore store(0);
    auto stream = store.stream(findProfile("mcf"));
    std::uint64_t idx = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(stream->chunk(idx++));
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        TraceStore::kDefaultChunkUops);
}
BENCHMARK(BM_TraceChunkBuild);

void
BM_CacheAccess(benchmark::State &state)
{
    const PolicyKind kind =
        static_cast<PolicyKind>(state.range(0));
    Cache cache(CacheGeometry{128 * 1024, 16, 64}, kind, 1);
    Rng rng(2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(64 * rng.nextInt(8192), false));
    }
    state.SetLabel(toString(kind));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess)
    ->Arg(static_cast<int>(PolicyKind::LRU))
    ->Arg(static_cast<int>(PolicyKind::Random))
    ->Arg(static_cast<int>(PolicyKind::FIFO))
    ->Arg(static_cast<int>(PolicyKind::DIP))
    ->Arg(static_cast<int>(PolicyKind::DRRIP));

void
BM_TagePredict(benchmark::State &state)
{
    Tage tage;
    Rng rng(3);
    std::uint64_t pc = 0x400000;
    for (auto _ : state) {
        pc = 0x400000 + 4 * rng.nextInt(512);
        benchmark::DoNotOptimize(
            tage.predictAndUpdate(pc, rng.nextBool(0.7)));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TagePredict);

void
BM_UncoreAccess(benchmark::State &state)
{
    const UncoreConfig cfg =
        UncoreConfig::forCores(4, PolicyKind::LRU);
    Uncore uncore(cfg, 1, 1);
    Rng rng(4);
    std::uint64_t cycle = 0;
    for (auto _ : state) {
        cycle += 10;
        benchmark::DoNotOptimize(uncore.access(
            cycle, 0, 64 * rng.nextInt(1 << 16), false, 0x400));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UncoreAccess);

void
BM_DetailedCoreUop(benchmark::State &state)
{
    const BenchmarkProfile &p = findProfile(
        state.range(0) == 0 ? "povray" : "mcf");
    PerfectUncore uncore(6);
    CoreConfig cfg;
    DetailedCore core(cfg, TraceStore::global().cursor(p), uncore,
                      0, 1ULL << 60, 1);
    std::uint64_t now = 0;
    std::uint64_t committed = 0;
    for (auto _ : state) {
        const std::uint64_t before = core.stats().committed;
        core.tick(now);
        const std::uint64_t next = core.nextEventCycle(now);
        now = std::max(now + 1, next == UINT64_MAX ? now + 1 : next);
        committed += core.stats().committed - before;
    }
    state.SetLabel(p.name);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(committed));
}
BENCHMARK(BM_DetailedCoreUop)->Arg(0)->Arg(1);

// One escalated hybrid cell in context: a 4-core DetailedMulticoreSim
// on the real shared Uncore (DRRIP, 20k µops per thread, the
// hybrid-4c shape), beside BM_DetailedCoreUop's isolated core.
void
BM_DetailedCell(benchmark::State &state)
{
    const auto &suite = spec2006Suite();
    const Workload w({0, 5, 11, 21});
    const std::uint64_t target = 20000;
    const DetailedMulticoreSim sim(
        CoreConfig{}, UncoreConfig::forCores(4, PolicyKind::DRRIP), 4,
        target, 7);
    for (auto _ : state) {
        const SimResult r = sim.run(w, suite);
        benchmark::DoNotOptimize(r.ipc.data());
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["uops_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations() * 4 * target),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DetailedCell)->Unit(benchmark::kMillisecond);

// One tag scan over a 16-way set (the Table II LLC geometry), per
// implementation. The hit way cycles through all 16 positions so
// early-exit paths are not flattered by a fixed match index.
void
BM_TagCompare(benchmark::State &state)
{
    const auto path = static_cast<tagscan::Path>(state.range(0));
#ifdef WSEL_TAGSCAN_X86
    if (static_cast<int>(path) >
        static_cast<int>(tagscan::activePath())) {
        state.SkipWithError("path unsupported on this host");
        return;
    }
#else
    if (path != tagscan::Path::Scalar) {
        state.SkipWithError("x86-only path");
        return;
    }
#endif
    alignas(64) std::uint32_t tags[16];
    for (std::uint32_t w = 0; w < 16; ++w)
        tags[w] = ((w + 1) << 1) | 1; // valid-tag encoding
    std::uint32_t i = 0;
    for (auto _ : state) {
        const std::uint32_t want = (((i & 15) + 1) << 1) | 1;
        ++i;
        std::uint32_t r = 0;
        switch (path) {
#ifdef WSEL_TAGSCAN_X86
          case tagscan::Path::Sse2:
            r = tagscan::findSse2(tags, 16, want);
            break;
#endif
          default:
            r = tagscan::findScalar(tags, 16, want);
            break;
        }
        benchmark::DoNotOptimize(r);
    }
    state.SetLabel(tagscan::toString(path));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TagCompare)
    ->Arg(static_cast<int>(tagscan::Path::Scalar))
    ->Arg(static_cast<int>(tagscan::Path::Sse2));

// Models and uncore of the batched-engine microbench:
// load-heavy mcf/povray cells on a 4-core LRU uncore.
constexpr std::uint64_t kBatchTarget = 20000;

const std::vector<const BadcoModel *> &
batchModels()
{
    static const BadcoModel m0 = buildBadcoModel(
        findProfile("mcf"), CoreConfig{}, kBatchTarget, 6);
    static const BadcoModel m1 = buildBadcoModel(
        findProfile("povray"), CoreConfig{}, kBatchTarget, 6);
    static const std::vector<const BadcoModel *> models = {&m0,
                                                           &m1};
    return models;
}

const std::vector<UncoreConfig> &
batchUncores()
{
    static const std::vector<UncoreConfig> ucfgs = {
        UncoreConfig::forCores(4, PolicyKind::LRU)};
    return ucfgs;
}

// One flush of 32 cells per thread at jobs {1, 4} per iteration:
// the jobs=4 point over the jobs=1 point is the flush's thread
// scaling, per-flush barrier (the wait for the slowest thread)
// included. Each cell pays its uncore construction and lane reset,
// i.e. what a population shard pays per (workload, policy) cell.
// Wall-clock rate; items = cells.
void
BM_BatchJobs(benchmark::State &state)
{
    const auto &ucfgs = batchUncores();
    BadcoBatchRunner runner({ucfgs.data(), ucfgs.size()}, 4,
                            kBatchTarget, batchModels(),
                            static_cast<std::size_t>(state.range(0)));
    const std::uint32_t cells = runner.capacity();
    const std::uint32_t benches[4] = {0, 1, 0, 1};
    std::vector<double> out(static_cast<std::size_t>(cells) * 4);
    std::uint64_t seed = 1;
    for (auto _ : state) {
        for (std::uint32_t i = 0; i < cells; ++i)
            runner.add(seed++, 0, {benches, 4}, out.data() + i * 4);
        runner.run();
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * cells);
}
BENCHMARK(BM_BatchJobs)->Arg(1)->Arg(4)->UseRealTime();

void
BM_BadcoMachineStep(benchmark::State &state)
{
    static const BadcoModel model = buildBadcoModel(
        findProfile("mcf"), CoreConfig{}, 50000, 6);
    const UncoreConfig cfg =
        UncoreConfig::forCores(4, PolicyKind::LRU);
    Uncore uncore(cfg, 1, 1);
    BadcoMachine machine(model, uncore, 0, 1ULL << 60);
    for (auto _ : state)
        machine.run(machine.localClock() + 200);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(machine.stats().uops));
}
BENCHMARK(BM_BadcoMachineStep);

// -------------------------------------------------------------------
// Observability primitives (docs/OBSERVABILITY.md)
// -------------------------------------------------------------------

void
BM_ObsCounterInc(benchmark::State &state)
{
    obs::enableMetrics(state.range(0) != 0);
    obs::Counter &c = obs::counter("microbench.counter");
    for (auto _ : state)
        c.inc();
    obs::enableMetrics(false);
    state.SetLabel(state.range(0) ? "enabled" : "disabled");
    state.SetItemsProcessed(state.iterations());
}
// Threads(8) exercises the shard contention story: 8 threads
// incrementing one counter must not bounce a shared cache line.
BENCHMARK(BM_ObsCounterInc)->Arg(0)->Arg(1);
BENCHMARK(BM_ObsCounterInc)->Arg(1)->Threads(8);

void
BM_ObsSpan(benchmark::State &state)
{
    if (state.range(0)) {
        // Small ring: steady-state span cost includes the
        // drop-oldest path, the honest number for a long campaign.
        obs::enableTracing(1 << 10);
    } else {
        obs::disableTracing();
    }
    for (auto _ : state)
        obs::Span span("microbench.span");
    obs::disableTracing();
    state.SetLabel(state.range(0) ? "enabled" : "disabled");
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsSpan)->Arg(0)->Arg(1);

// -------------------------------------------------------------------
// Population-campaign building blocks (docs/PERFORMANCE.md,
// "Population campaigns")
// -------------------------------------------------------------------

// Baseline: materialize the whole 4-core population (12650
// Workloads, one heap vector each).
void
BM_EnumerateAll(benchmark::State &state)
{
    const WorkloadPopulation pop(22, 4);
    for (auto _ : state)
        benchmark::DoNotOptimize(pop.enumerateAll());
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(pop.size()));
}
BENCHMARK(BM_EnumerateAll);

// Streamed alternative: walk the same population with the
// successor-rule cursor; no per-workload allocation.
void
BM_UnrankIterator(benchmark::State &state)
{
    const WorkloadPopulation pop(22, 4);
    WorkloadCursor cur(pop, 0);
    std::uint64_t sum = 0;
    for (auto _ : state) {
        if (cur.atEnd())
            cur = WorkloadCursor(pop, 0);
        sum += cur.benchmarks()[0];
        cur.next();
    }
    benchmark::DoNotOptimize(sum);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UnrankIterator);

// One campaign_v3 shard write (checksum + atomic replace); items =
// IPC cells persisted.
void
BM_CampaignV3ShardWrite(benchmark::State &state)
{
    const std::string dir = ".wsel_microbench_v3";
    std::filesystem::create_directories(dir);
    persist::V3Manifest m;
    m.fingerprint = 0x1234;
    m.simulator = "badco";
    m.cores = 4;
    m.targetUops = 1000;
    m.policies = {"LRU", "RND", "FIFO", "DIP", "DRRIP"};
    m.benchmarks.assign(22, "b");
    m.refIpc.assign(22, 1.0);
    m.popBenchmarks = 22;
    m.popCores = 4;
    m.firstRank = 0;
    m.lastRank = 12650;
    m.shardRows = 64 * 1024 / m.policies.size();
    const std::size_t cells = static_cast<std::size_t>(
        m.rowsInShard(0) * m.policies.size());
    const std::vector<double> payload(cells * m.cores, 1.0);
    for (auto _ : state)
        persist::writeV3Shard(dir, m, 0,
                              {payload.data(), payload.size()});
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(cells));
    state.SetBytesProcessed(
        state.iterations() *
        static_cast<std::int64_t>(payload.size() *
                                  sizeof(double)));
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
}
BENCHMARK(BM_CampaignV3ShardWrite);

// Merging per-shard Welford partials: the per-campaign reduction
// cost of the streamed statistics (1024 partials per iteration).
void
BM_WelfordMerge(benchmark::State &state)
{
    std::vector<RunningStats> parts(1024);
    Rng rng(7);
    for (RunningStats &p : parts)
        for (int i = 0; i < 64; ++i)
            p.add(rng.nextDouble());
    for (auto _ : state) {
        RunningStats total;
        for (const RunningStats &p : parts)
            total.merge(p);
        benchmark::DoNotOptimize(total.mean());
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(parts.size()));
}
BENCHMARK(BM_WelfordMerge);

} // namespace

BENCHMARK_MAIN();
