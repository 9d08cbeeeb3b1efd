/**
 * @file
 * Tests for the batched BADCO cell engine (sim/batch.hh) and its
 * bitwise-identity contract: a batched population shard must equal
 * the serial engine's bytes at every (batch, jobs) combination,
 * through mid-batch kills and resumes, and under a trace-store
 * budget so tight that chunks are evicted and rebuilt between cells
 * (the resident bytes must stay within the budget plus one chunk
 * per cursor). Also covers the tag-scan kernels (cache/tagscan.hh)
 * against the scalar reference on every x86 tier.
 */

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <random>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "cache/tagscan.hh"
#include "fault_injection.hh"
#include "mem/uncore_config.hh"
#include "sim/batch.hh"
#include "sim/campaign.hh"
#include "sim/population.hh"
#include "stats/persist_v3.hh"
#include "test_util.hh"
#include "trace/trace_store.hh"

namespace wsel
{

namespace
{

namespace fs = std::filesystem;

constexpr std::uint64_t kUops = 3000;

std::vector<BenchmarkProfile>
testSuite()
{
    std::vector<BenchmarkProfile> s;
    s.push_back(test::lightProfile(7));
    s.push_back(test::heavyProfile(11));
    s.push_back(test::lightProfile(13));
    return s;
}

const std::vector<PolicyKind> kPolicies = {PolicyKind::LRU,
                                           PolicyKind::DIP};

/** Restores the batch-size knob to "unset" on scope exit. */
struct BatchEnvGuard
{
    ~BatchEnvGuard() { unsetenv("WSEL_BATCH_CELLS"); }
};

// -------------------------------------------------------------------
// resolveBatchCells
// -------------------------------------------------------------------

TEST(ResolveBatchCells, ExplicitRequestWinsAndClamps)
{
    BatchEnvGuard env;
    setenv("WSEL_BATCH_CELLS", "5", 1);
    // A nonzero request ignores the environment entirely.
    EXPECT_EQ(resolveBatchCells(7), 7u);
    EXPECT_EQ(resolveBatchCells(1), 1u);
    EXPECT_EQ(resolveBatchCells(kMaxBatchCells + 1000),
              kMaxBatchCells);
}

TEST(ResolveBatchCells, EnvResolvesWhenUnspecified)
{
    BatchEnvGuard env;
    unsetenv("WSEL_BATCH_CELLS");
    EXPECT_EQ(resolveBatchCells(0), kDefaultBatchCells);
    setenv("WSEL_BATCH_CELLS", "5", 1);
    EXPECT_EQ(resolveBatchCells(0), 5u);
    setenv("WSEL_BATCH_CELLS", "999999", 1);
    EXPECT_EQ(resolveBatchCells(0), kMaxBatchCells);
    // Invalid values fall back to the default (with a warning).
    setenv("WSEL_BATCH_CELLS", "abc", 1);
    EXPECT_EQ(resolveBatchCells(0), kDefaultBatchCells);
    setenv("WSEL_BATCH_CELLS", "0", 1);
    EXPECT_EQ(resolveBatchCells(0), kDefaultBatchCells);
}

// -------------------------------------------------------------------
// Tag-scan kernels (tagscan::find*) vs the scalar reference
// -------------------------------------------------------------------

/** One tag lookup: scan @p n ways at @p tags for @p want. */
struct Probe
{
    const std::uint32_t *tags;
    std::uint32_t n;
    std::uint32_t want;
};

/** Random packed-tag arrays plus probes with ~50% hit rate. */
struct TagScanFixture
{
    std::vector<std::uint32_t> tags;
    std::vector<Probe> probes;

    explicit TagScanFixture(std::size_t count, std::uint32_t ways,
                           std::uint64_t seed)
    {
        std::mt19937_64 rng(seed);
        tags.resize(count * ways);
        for (auto &t : tags) {
            // Mix of valid tags (low bit set), invalid slots and
            // duplicates, drawn from a small alphabet so probes
            // collide often.
            const std::uint32_t v =
                static_cast<std::uint32_t>(rng() % 24);
            t = (rng() % 4 == 0) ? 0u : ((v << 1) | 1u);
        }
        probes.reserve(2 * count);
        for (std::size_t i = 0; i < count; ++i) {
            const std::uint32_t v =
                static_cast<std::uint32_t>(rng() % 24);
            probes.push_back({tags.data() + i * ways, ways,
                              (v << 1) | 1u});
            // The fill path's invalid-way search: every kernel
            // must pick the lowest empty way.
            probes.push_back({tags.data() + i * ways, ways, 0u});
        }
    }
};

TEST(GatheredTagScan, AllKernelsMatchScalarReference)
{
    // Set counts across the SIMD chunk boundaries: 4-way (one SSE2
    // compare), 8-way, 16-way (the Table II LLC) and an odd way
    // count that leaves a scalar tail.
    for (std::uint32_t ways : {4u, 8u, 13u, 16u, 32u}) {
        for (std::size_t count :
             {std::size_t{1}, std::size_t{5}, std::size_t{33}}) {
            const TagScanFixture fx(count, ways,
                                   0x9e3779b9u + ways * 131 + count);
            for (std::size_t i = 0; i < fx.probes.size(); ++i) {
                const Probe &p = fx.probes[i];
                const std::uint32_t want =
                    tagscan::findScalar(p.tags, p.n, p.want);
#if defined(__x86_64__) || defined(_M_X64)
                EXPECT_EQ(tagscan::findSse2(p.tags, p.n, p.want),
                          want)
                    << "sse2 ways " << ways << " probe " << i;
#endif
                EXPECT_EQ(tagscan::find(p.tags, p.n, p.want), want)
                    << "dispatch ways " << ways << " probe " << i;
            }
        }
    }
}

// -------------------------------------------------------------------
// BadcoBatchRunner: direct engine identity
// -------------------------------------------------------------------

/** Shard geometry over the full WorkloadPopulation(3, 4). */
persist::V3Manifest
engineManifest()
{
    persist::V3Manifest m;
    m.fingerprint = 0xbadc0;
    m.simulator = "badco";
    m.cores = 4;
    m.targetUops = kUops;
    m.instructions = 0;
    m.policies = {"LRU", "DIP"};
    m.benchmarks = {"test-light", "test-heavy", "test-light2"};
    m.refIpc = {1.0, 1.0, 1.0};
    m.popBenchmarks = 3;
    m.popCores = 4;
    m.firstRank = 0;
    m.lastRank = 15;
    m.shardRows = 4; // shards of 4, 4, 4, 3 rows
    return m;
}

TEST(BatchEngine, AutoFlushMatchesSerialRunner)
{
    const auto suite = testSuite();
    BadcoModelStore store(CoreConfig{}, kUops, 5);
    const auto models = store.getSuite(suite);
    std::vector<UncoreConfig> ucfgs;
    for (PolicyKind p : kPolicies)
        ucfgs.push_back(UncoreConfig::forCores(4, p));

    const WorkloadPopulation pop(3, 4);
    constexpr std::size_t kCells = 6;
    std::vector<double> serial(kCells * 4), batched(kCells * 4);

    // Capacity 1: every add() runs one cell (the serial shape).
    BadcoBatchRunner one({ucfgs.data(), ucfgs.size()}, 4, kUops,
                         models, 1, std::size_t{1});
    // Capacity 2: add() must auto-flush on the third cell.
    BadcoBatchRunner two({ucfgs.data(), ucfgs.size()}, 4, kUops,
                         models, 2, std::size_t{1});
    EXPECT_EQ(two.capacity(), 2u);
    // Two cells per thread at three jobs: one 6-cell flush spread
    // over three threads.
    std::vector<double> threaded(kCells * 4);
    BadcoBatchRunner wide({ucfgs.data(), ucfgs.size()}, 4, kUops,
                          models, 2, std::size_t{3});
    EXPECT_EQ(wide.threads(), 3u);
    EXPECT_EQ(wide.capacity(), 6u);

    for (std::size_t i = 0; i < kCells; ++i) {
        const Workload w = pop.unrank(2 * i);
        const std::uint64_t seed = 1000 + 17 * i;
        const auto p = static_cast<std::uint32_t>(i % 2);
        one.add(seed, p, {w.benchmarks().data(), 4},
                serial.data() + i * 4);
        two.add(seed, p, {w.benchmarks().data(), 4},
                batched.data() + i * 4);
        EXPECT_LE(two.pending(), 2u);
        wide.add(seed, p, {w.benchmarks().data(), 4},
                 threaded.data() + i * 4);
    }
    EXPECT_TRUE(two.full());
    EXPECT_TRUE(wide.full());
    one.run();
    two.run();
    wide.run();
    EXPECT_EQ(one.pending(), 0u);
    EXPECT_EQ(two.pending(), 0u);
    EXPECT_EQ(wide.pending(), 0u);

    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_GT(batched[i], 0.0);
        EXPECT_EQ(serial[i], batched[i]) << "lane " << i;
        EXPECT_EQ(serial[i], threaded[i]) << "lane " << i;
    }
}

TEST(BatchEngine, BatchedShardMatchesSerialBitwise)
{
    const auto suite = testSuite();
    const persist::V3Manifest m = engineManifest();
    const WorkloadSet all =
        WorkloadSet::fullPopulation(WorkloadPopulation(3, 4));
    BadcoModelStore store(CoreConfig{}, kUops, 5);
    const auto models = store.getSuite(suite);
    std::vector<UncoreConfig> ucfgs;
    for (PolicyKind p : kPolicies)
        ucfgs.push_back(UncoreConfig::forCores(4, p));

    for (std::uint64_t s = 0; s < m.shardCount(); ++s) {
        std::vector<double> serial;
        std::atomic<std::uint64_t> serial_done{0};
        simulatePopulationShard(m, all, ucfgs, models, 1, s,
                                serial, &serial_done);
        ASSERT_FALSE(serial.empty());
        // Every engine counts each finished cell exactly once.
        const std::uint64_t cells =
            m.rowsInShard(s) * m.policies.size();
        EXPECT_EQ(serial_done.load(), cells);
        // Jobs spread each flush over threads: at jobs 7 a shard
        // of 8 cells leaves most threads idle in some flushes (one
        // cell at batch 1), which must not matter either.
        for (std::size_t jobs : {1u, 2u, 4u, 7u}) {
            for (std::uint32_t batch : {1u, 3u, 7u, 32u}) {
                std::vector<double> batched;
                std::atomic<std::uint64_t> done{0};
                simulatePopulationShardBatched(m, all, ucfgs, models,
                                               1, s, batch, jobs,
                                               batched, &done);
                ASSERT_EQ(batched.size(), serial.size());
                EXPECT_EQ(done.load(), cells);
                for (std::size_t i = 0; i < serial.size(); ++i)
                    EXPECT_EQ(serial[i], batched[i])
                        << "shard " << s << " jobs " << jobs
                        << " batch " << batch << " lane " << i;
            }
        }
    }
}

// -------------------------------------------------------------------
// Batched population campaigns on disk
// -------------------------------------------------------------------

/** Per-test scratch directory (the PopulationCampaign idiom). */
class BatchCampaign : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = (fs::temp_directory_path() /
                (std::string("wsel_batch_") + info->name()))
                   .string();
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        unsetenv("WSEL_JOBS");
        unsetenv("WSEL_BATCH_CELLS");
    }

    void
    TearDown() override
    {
        fs::remove_all(dir_);
    }

    std::string
    path(const std::string &name) const
    {
        return dir_ + "/" + name;
    }

    /**
     * 2 policies x the full 4-core population over 3 benchmarks
     * (15 workloads), 8 cells per shard -> 4 shards unless
     * @p shard_cells says otherwise, run with an explicit batch
     * size.
     */
    PopulationResult
    run(const std::string &out, std::size_t jobs,
        std::uint32_t batch, std::size_t shard_cells = 8)
    {
        const auto suite = testSuite();
        const WorkloadPopulation pop(
            static_cast<std::uint32_t>(suite.size()), 4);
        BadcoModelStore store(CoreConfig{}, kUops, 5);
        PopulationOptions opts;
        opts.jobs = jobs;
        opts.shardCells = shard_cells;
        opts.batchCells = batch;
        return runBadcoPopulationCampaign(pop, kPolicies, kUops,
                                          store, suite, {}, out,
                                          opts);
    }

    std::vector<std::string>
    shardBytes(const std::string &out, std::uint64_t shards)
    {
        std::vector<std::string> bytes;
        for (std::uint64_t s = 0; s < shards; ++s)
            bytes.push_back(
                test::readFile(persist::v3ShardPath(out, s)));
        return bytes;
    }

    std::string dir_;
};

TEST_F(BatchCampaign, ShardsBitwiseIdenticalAcrossBatchAndJobs)
{
    const std::string ref = path("ref");
    const PopulationResult rr = run(ref, 1, 1);
    const auto want = shardBytes(ref, rr.manifest.shardCount());
    for (const std::string &b : want)
        ASSERT_FALSE(b.empty());

    for (std::uint32_t batch : {7u, 32u}) {
        for (std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
            const std::string out =
                path("b" + std::to_string(batch) + "j" +
                     std::to_string(jobs));
            const PopulationResult r = run(out, jobs, batch);
            ASSERT_EQ(r.manifest.shardCount(),
                      rr.manifest.shardCount());
            const auto got =
                shardBytes(out, r.manifest.shardCount());
            for (std::size_t s = 0; s < want.size(); ++s)
                EXPECT_EQ(want[s], got[s])
                    << "shard " << s << " batch " << batch
                    << " jobs " << jobs;
        }
    }
}

TEST_F(BatchCampaign, KillMidBatchResumesToIdenticalArtifact)
{
    const std::string ref = path("ref");
    const PopulationResult rr = run(ref, 1, 32);
    const auto want = shardBytes(ref, rr.manifest.shardCount());

    // With batch 32 > the 8 cells of a shard, the whole shard is
    // one pending batch; killing at the 13th cell overall lands on
    // shard 1's fifth cell — mid-batch, with four cells appended
    // and unflushed. The shard is abandoned unwritten, exactly as
    // a serial mid-shard kill.
    const std::string out = path("v3");
    {
        test::FaultInjector fi("population.cell", 13);
        EXPECT_THROW(run(out, 1, 32), test::InjectedFault);
    }
    EXPECT_FALSE(persist::isV3CampaignDir(out));

    // Resume with a *different* batch size: resume semantics are
    // shard-granular and the payload is batch-invariant.
    const PopulationResult r2 = run(out, 1, 1);
    EXPECT_GE(r2.shardsResumed, 1u);
    EXPECT_LT(r2.cellsSimulated, 15u * kPolicies.size());
    EXPECT_EQ(r2.cellsSimulated + r2.cellsResumed,
              15u * kPolicies.size());
    const auto got = shardBytes(out, r2.manifest.shardCount());
    for (std::size_t s = 0; s < want.size(); ++s)
        EXPECT_EQ(want[s], got[s]) << "shard " << s;
    EXPECT_TRUE(persist::isV3CampaignDir(out));
}

TEST_F(BatchCampaign, OneShardAtJobsFourMatchesSerialBatchOne)
{
    // At the default 64 Ki-cell shard size the whole campaign is one
    // shard, so every thread works inside it: the runner, not the
    // shard loop, spreads the cells.
    constexpr std::size_t kDefaultShard = 64 * 1024;
    const std::string ref = path("ref");
    const PopulationResult rr = run(ref, 1, 1, kDefaultShard);
    ASSERT_EQ(rr.manifest.shardCount(), 1u);
    const auto want = shardBytes(ref, 1);
    ASSERT_FALSE(want[0].empty());

    const std::string out = path("j4");
    const PopulationResult r = run(out, 4, 0, kDefaultShard);
    ASSERT_EQ(r.manifest.shardCount(), 1u);
    EXPECT_EQ(r.cellsSimulated, 15u * kPolicies.size());
    EXPECT_EQ(want, shardBytes(out, 1));
}

TEST_F(BatchCampaign, KillMidFlushAtJobsFourResumesAtJobsOne)
{
    const std::string ref = path("ref");
    const PopulationResult rr = run(ref, 1, 1);
    const auto want = shardBytes(ref, rr.manifest.shardCount());

    // Batch 2 per thread at jobs 4 is an 8-cell flush: shard 0's
    // cells run as one flush on four threads and commit; the kill
    // at the 13th appended cell lands in shard 1 with four cells
    // of its flush appended and not yet run.
    const std::string out = path("v3");
    {
        test::FaultInjector fi("population.cell", 13);
        EXPECT_THROW(run(out, 4, 2), test::InjectedFault);
    }
    EXPECT_FALSE(persist::isV3CampaignDir(out));

    const PopulationResult r2 = run(out, 1, 1);
    EXPECT_GE(r2.shardsResumed, 1u);
    EXPECT_EQ(r2.cellsSimulated + r2.cellsResumed,
              15u * kPolicies.size());
    const auto got = shardBytes(out, r2.manifest.shardCount());
    for (std::size_t s = 0; s < want.size(); ++s)
        EXPECT_EQ(want[s], got[s]) << "shard " << s;
    EXPECT_TRUE(persist::isV3CampaignDir(out));
}

// -------------------------------------------------------------------
// Detailed shards under a tight trace-store budget
// -------------------------------------------------------------------

TEST(BatchTraceBudget, TinyBudgetKeepsDetailedShardIdentical)
{
    // A budget too small for even one benchmark's stream forces
    // chunks to be evicted and rebuilt between cells without
    // changing a single bit of the payload.
    persist::V3Manifest m;
    m.fingerprint = 0xde7a11;
    m.simulator = "detailed";
    m.cores = 2;
    m.targetUops = 2000;
    m.instructions = 0;
    m.policies = {"LRU", "DIP"};
    m.benchmarks = {"test-light", "test-heavy"};
    m.refIpc = {1.0, 1.0};
    m.popBenchmarks = 2;
    m.popCores = 2;
    m.firstRank = 0;
    m.lastRank = 3;
    m.shardRows = 3;

    std::vector<BenchmarkProfile> suite;
    suite.push_back(test::lightProfile(7));
    suite.push_back(test::heavyProfile(11));
    const WorkloadSet all =
        WorkloadSet::fullPopulation(WorkloadPopulation(2, 2));
    std::vector<UncoreConfig> ucfgs;
    for (PolicyKind p : kPolicies)
        ucfgs.push_back(UncoreConfig::forCores(2, p));

    // The global store is process state: restore shape and budget
    // whatever happens.
    TraceStore &g = TraceStore::global();
    struct Restore
    {
        TraceStore &g;
        std::size_t budget;
        ~Restore()
        {
            g.clear();
            g.setChunkUops(TraceStore::kDefaultChunkUops);
            g.setBudgetBytes(budget);
        }
    } restore{g, g.budgetBytes()};

    g.clear();
    std::vector<double> plenty;
    std::atomic<std::uint64_t> done{0};
    simulateDetailedPopulationShard(m, all, CoreConfig{}, ucfgs,
                                    suite, 1, 0, 1, plenty, &done);
    ASSERT_EQ(plenty.size(), 3u * 2u * 2u);
    EXPECT_EQ(done.load(), 3u * 2u); // one per (row, policy) cell

    g.clear();
    g.setChunkUops(512);
    g.setBudgetBytes(24 * 1024);
    const std::uint64_t ev0 = g.evictions();
    // Sample the resident bytes before every cell: only cursors pin
    // chunks, one each, so the store may overshoot its budget by at
    // most one chunk per core.
    std::size_t peak = 0;
    persist::setFaultHook([&](const char *point, std::uint64_t) {
        if (std::string_view(point) == "fidelity.escalate")
            peak = std::max(peak, g.residentBytes());
    });
    std::vector<double> tight;
    simulateDetailedPopulationShard(m, all, CoreConfig{}, ucfgs,
                                    suite, 1, 0, 1, tight);
    persist::setFaultHook(nullptr);
    EXPECT_GT(g.evictions(), ev0);
    const std::size_t chunk = g.stream(suite[1])->chunk(0)->bytes();
    EXPECT_GT(peak, 0u);
    EXPECT_LE(peak, g.budgetBytes() + m.cores * chunk)
        << "chunk " << chunk << " bytes";

    ASSERT_EQ(tight.size(), plenty.size());
    for (std::size_t i = 0; i < plenty.size(); ++i)
        EXPECT_EQ(plenty[i], tight[i]) << "lane " << i;
}

} // namespace

} // namespace wsel
