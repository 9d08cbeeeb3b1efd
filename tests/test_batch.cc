/**
 * @file
 * Tests for the batched BADCO cell engine (sim/batch.hh) and its
 * bitwise-identity contract: a batched population shard must equal
 * the serial engine's bytes at every (batch, wave, jobs)
 * combination, through mid-batch (and mid-wave) kills and resumes
 * — including resume at a different wave size — and under
 * trace-store budget pressure that forces chunk eviction and
 * re-pinning. Also covers the gathered tag-scan sweeps
 * (cache/tagscan.hh findMany*) against the scalar reference on
 * every dispatch tier, the WSEL_WAVE_MEM resident-uncore clamp,
 * and the BatchPin budget semantics: pinned chunks are ineligible
 * eviction victims, and the budget converges as soon as a batch
 * releases its pins.
 */

#include <cstdlib>
#include <filesystem>
#include <random>
#include <span>
#include <string>
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

/** Restores the batch-engine knobs to "unset" on scope exit. */
struct BatchEnvGuard
{
    ~BatchEnvGuard()
    {
        unsetenv("WSEL_BATCH_CELLS");
        unsetenv("WSEL_BATCH_WAVE");
        unsetenv("WSEL_WAVE_MEM");
    }
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
// resolveBatchWave
// -------------------------------------------------------------------

TEST(ResolveBatchWave, ExplicitRequestWinsAndClamps)
{
    BatchEnvGuard env;
    setenv("WSEL_BATCH_WAVE", "5", 1);
    // A nonzero request ignores the environment entirely.
    EXPECT_EQ(resolveBatchWave(7), 7u);
    EXPECT_EQ(resolveBatchWave(1), 1u);
    EXPECT_EQ(resolveBatchWave(kMaxBatchCells + 1000),
              kMaxBatchCells);
}

TEST(ResolveBatchWave, EnvResolvesWhenUnspecified)
{
    BatchEnvGuard env;
    unsetenv("WSEL_BATCH_WAVE");
    EXPECT_EQ(resolveBatchWave(0), kDefaultBatchWave);
    setenv("WSEL_BATCH_WAVE", "5", 1);
    EXPECT_EQ(resolveBatchWave(0), 5u);
    setenv("WSEL_BATCH_WAVE", "999999", 1);
    EXPECT_EQ(resolveBatchWave(0), kMaxBatchCells);
    // Invalid values fall back to the default (with a warning).
    setenv("WSEL_BATCH_WAVE", "abc", 1);
    EXPECT_EQ(resolveBatchWave(0), kDefaultBatchWave);
    setenv("WSEL_BATCH_WAVE", "0", 1);
    EXPECT_EQ(resolveBatchWave(0), kDefaultBatchWave);
}

// -------------------------------------------------------------------
// Gathered tag scans (tagscan::findMany*) vs the scalar reference
// -------------------------------------------------------------------

/** Random packed-tag arrays plus probes with ~50% hit rate. */
struct GatherFixture
{
    std::vector<std::uint32_t> tags;
    std::vector<tagscan::Probe> probes;

    explicit GatherFixture(std::size_t count, std::uint32_t ways,
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
        probes.reserve(count);
        for (std::size_t i = 0; i < count; ++i) {
            const std::uint32_t v =
                static_cast<std::uint32_t>(rng() % 24);
            probes.push_back({tags.data() + i * ways, ways,
                              (v << 1) | 1u});
        }
    }
};

/** Scalar per-probe reference for any gathered kernel. */
std::vector<std::uint32_t>
scalarReference(const std::vector<tagscan::Probe> &probes)
{
    std::vector<std::uint32_t> want(probes.size());
    for (std::size_t i = 0; i < probes.size(); ++i)
        want[i] = tagscan::findScalar(probes[i].tags, probes[i].n,
                                      probes[i].want);
    return want;
}

TEST(GatheredTagScan, AllKernelsMatchScalarReference)
{
    // Sweep counts across the AVX2 pair/tail boundaries (0, 1, odd,
    // even) and both 16-way (SIMD fast path) and oddball ways
    // (per-probe fallback inside the gathered kernels).
    for (std::uint32_t ways : {4u, 8u, 16u}) {
        for (std::size_t count :
             {std::size_t{0}, std::size_t{1}, std::size_t{2},
              std::size_t{5}, std::size_t{16}, std::size_t{33}}) {
            const GatherFixture fx(count, ways,
                                   0x9e3779b9u + ways * 131 + count);
            const auto want = scalarReference(fx.probes);

            std::vector<std::uint32_t> got(count + 1, 0xdeadbeefu);
            tagscan::findManyScalar(fx.probes.data(), count,
                                    got.data());
            for (std::size_t i = 0; i < count; ++i)
                EXPECT_EQ(got[i], want[i])
                    << "scalar ways " << ways << " probe " << i;

            std::fill(got.begin(), got.end(), 0xdeadbeefu);
            tagscan::findManySwar(fx.probes.data(), count,
                                  got.data());
            for (std::size_t i = 0; i < count; ++i)
                EXPECT_EQ(got[i], want[i])
                    << "swar ways " << ways << " probe " << i;

#if defined(__x86_64__) || defined(_M_X64)
            std::fill(got.begin(), got.end(), 0xdeadbeefu);
            tagscan::findManySse2(fx.probes.data(), count,
                                  got.data());
            for (std::size_t i = 0; i < count; ++i)
                EXPECT_EQ(got[i], want[i])
                    << "sse2 ways " << ways << " probe " << i;

            if (__builtin_cpu_supports("avx2")) {
                std::fill(got.begin(), got.end(), 0xdeadbeefu);
                tagscan::findManyAvx2(fx.probes.data(), count,
                                      got.data());
                for (std::size_t i = 0; i < count; ++i)
                    EXPECT_EQ(got[i], want[i])
                        << "avx2 ways " << ways << " probe " << i;
            }
#endif

            std::fill(got.begin(), got.end(), 0xdeadbeefu);
            tagscan::findMany(fx.probes.data(), count, got.data());
            for (std::size_t i = 0; i < count; ++i)
                EXPECT_EQ(got[i], want[i])
                    << "dispatch ways " << ways << " probe " << i;
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
                         models, 1, 1, 1);
    // Capacity 2: add() must auto-flush on the third cell.
    BadcoBatchRunner two({ucfgs.data(), ucfgs.size()}, 4, kUops,
                         models, 2, 1, 1);
    EXPECT_EQ(two.capacity(), 2u);
    // Two cells per thread at three jobs: one 6-cell flush spread
    // over three threads.
    std::vector<double> threaded(kCells * 4);
    BadcoBatchRunner wide({ucfgs.data(), ucfgs.size()}, 4, kUops,
                          models, 2, 1, 3);
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
    const WorkloadPopulation pop(3, 4);
    BadcoModelStore store(CoreConfig{}, kUops, 5);
    const auto models = store.getSuite(suite);
    std::vector<UncoreConfig> ucfgs;
    for (PolicyKind p : kPolicies)
        ucfgs.push_back(UncoreConfig::forCores(4, p));

    for (std::uint64_t s = 0; s < m.shardCount(); ++s) {
        std::vector<double> serial;
        simulatePopulationShard(m, pop, ucfgs, models, 1, s,
                                serial);
        ASSERT_FALSE(serial.empty());
        // Jobs spread each flush over threads: at jobs 7 a shard
        // of 8 cells leaves most threads idle in some flushes (one
        // cell at batch 1, two wave-4 groups), which must not
        // matter either.
        for (std::size_t jobs : {1u, 2u, 4u, 7u}) {
            for (std::uint32_t batch : {1u, 3u, 7u, 32u}) {
                // Wave 1 is cell-major; larger waves interleave
                // lanes across resident uncores. All must be
                // bit-identical.
                for (std::uint32_t wave : {1u, 2u, 3u, 4u, 32u}) {
                    std::vector<double> batched;
                    simulatePopulationShardBatched(
                        m, pop, ucfgs, models, 1, s, batch, wave,
                        jobs, batched);
                    ASSERT_EQ(batched.size(), serial.size());
                    for (std::size_t i = 0; i < serial.size(); ++i)
                        EXPECT_EQ(serial[i], batched[i])
                            << "shard " << s << " jobs " << jobs
                            << " batch " << batch << " wave "
                            << wave << " lane " << i;
                }
            }
        }
    }
}

TEST(BatchEngine, WaveClampsToBatchAndMemoryBudget)
{
    BatchEnvGuard env;
    const auto suite = testSuite();
    BadcoModelStore store(CoreConfig{}, kUops, 5);
    const auto models = store.getSuite(suite);
    std::vector<UncoreConfig> ucfgs;
    for (PolicyKind p : kPolicies)
        ucfgs.push_back(UncoreConfig::forCores(4, p));
    const std::span<const UncoreConfig> cfgs{ucfgs.data(),
                                             ucfgs.size()};

    // A wave wider than the batch is useless: clamp to the batch.
    BadcoBatchRunner narrow(cfgs, 4, kUops, models, 4, 32);
    EXPECT_EQ(narrow.wave(), 4u);

    // One resident uncore costs well over a (conservative) page,
    // so a tiny WSEL_WAVE_MEM budget forces the wave down...
    const std::size_t per = estimateUncoreFootprint(ucfgs[0], 4);
    EXPECT_GT(per, std::size_t{64} * 1024);
    setenv("WSEL_WAVE_MEM", "1", 1); // 1 MiB
    BadcoBatchRunner tight(cfgs, 4, kUops, models, 64, 64);
    EXPECT_LE(tight.wave() * per,
              std::size_t{1} * 1024 * 1024 + per); // >= 1 kept
    EXPECT_GE(tight.wave(), 1u);
    EXPECT_LT(tight.wave(), 64u);

    // ...and a roomy budget leaves the request alone.
    setenv("WSEL_WAVE_MEM", "65536", 1); // 64 GiB
    BadcoBatchRunner roomy(cfgs, 4, kUops, models, 64, 64);
    EXPECT_EQ(roomy.wave(), 64u);

    // Clamped runners still produce serial-identical lanes.
    const WorkloadPopulation pop(3, 4);
    std::vector<double> serial(4), waved(4);
    BadcoBatchRunner one(cfgs, 4, kUops, models, 1, 1);
    const Workload w = pop.unrank(3);
    one.add(77, 1, {w.benchmarks().data(), 4}, serial.data());
    tight.add(77, 1, {w.benchmarks().data(), 4}, waved.data());
    one.run();
    tight.run();
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(serial[i], waved[i]) << "lane " << i;
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
        unsetenv("WSEL_BATCH_WAVE");
        unsetenv("WSEL_WAVE_MEM");
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
     * @p shard_cells says otherwise, run with explicit batch and
     * wave sizes (wave 1 = cell-major).
     */
    PopulationResult
    run(const std::string &out, std::size_t jobs,
        std::uint32_t batch, std::uint32_t wave = 1,
        std::size_t shard_cells = 8)
    {
        const auto suite = testSuite();
        const WorkloadPopulation pop(
            static_cast<std::uint32_t>(suite.size()), 4);
        BadcoModelStore store(CoreConfig{}, kUops, 5);
        PopulationOptions opts;
        opts.jobs = jobs;
        opts.shardCells = shard_cells;
        opts.batchCells = batch;
        opts.batchWave = wave;
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

TEST_F(BatchCampaign, ShardsBitwiseIdenticalAcrossWaveBatchJobs)
{
    const std::string ref = path("ref");
    const PopulationResult rr = run(ref, 1, 1, 1);
    const auto want = shardBytes(ref, rr.manifest.shardCount());
    for (const std::string &b : want)
        ASSERT_FALSE(b.empty());

    for (std::uint32_t wave : {2u, 8u}) {
        for (std::uint32_t batch : {7u, 32u}) {
            for (std::size_t jobs :
                 {std::size_t{1}, std::size_t{8}}) {
                const std::string out =
                    path("w" + std::to_string(wave) + "b" +
                         std::to_string(batch) + "j" +
                         std::to_string(jobs));
                const PopulationResult r =
                    run(out, jobs, batch, wave);
                ASSERT_EQ(r.manifest.shardCount(),
                          rr.manifest.shardCount());
                const auto got =
                    shardBytes(out, r.manifest.shardCount());
                for (std::size_t s = 0; s < want.size(); ++s)
                    EXPECT_EQ(want[s], got[s])
                        << "shard " << s << " wave " << wave
                        << " batch " << batch << " jobs " << jobs;
            }
        }
    }
}

TEST_F(BatchCampaign, KillMidWaveResumesAtDifferentWaveSize)
{
    // Reference: serial cell-major at batch 1.
    const std::string ref = path("ref");
    const PopulationResult rr = run(ref, 1, 1, 1);
    const auto want = shardBytes(ref, rr.manifest.shardCount());

    // Kill at the 13th appended cell of a wave-4 batch-32 run: the
    // whole shard is one pending batch whose lanes advance in
    // waves of four resident uncores, so the kill lands with a
    // partially-assembled batch that is abandoned unwritten.
    const std::string out = path("v3");
    {
        test::FaultInjector fi("population.cell", 13);
        EXPECT_THROW(run(out, 1, 32, 4), test::InjectedFault);
    }
    EXPECT_FALSE(persist::isV3CampaignDir(out));

    // Resume at a *different* wave (and batch) size: resume
    // semantics are shard-granular and the payload is invariant to
    // both knobs, so the artifact must be byte-identical.
    const PopulationResult r2 = run(out, 1, 1, 1);
    EXPECT_GE(r2.shardsResumed, 1u);
    EXPECT_EQ(r2.cellsSimulated + r2.cellsResumed,
              15u * kPolicies.size());
    const auto got = shardBytes(out, r2.manifest.shardCount());
    for (std::size_t s = 0; s < want.size(); ++s)
        EXPECT_EQ(want[s], got[s]) << "shard " << s;
    EXPECT_TRUE(persist::isV3CampaignDir(out));

    // And the mirror image: kill a cell-major run, resume waved.
    const std::string out2 = path("v3b");
    {
        test::FaultInjector fi("population.cell", 13);
        EXPECT_THROW(run(out2, 1, 32, 1), test::InjectedFault);
    }
    const PopulationResult r3 = run(out2, 1, 32, 8);
    EXPECT_GE(r3.shardsResumed, 1u);
    const auto got2 = shardBytes(out2, r3.manifest.shardCount());
    for (std::size_t s = 0; s < want.size(); ++s)
        EXPECT_EQ(want[s], got2[s]) << "shard " << s;
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
    const PopulationResult rr = run(ref, 1, 1, 1, kDefaultShard);
    ASSERT_EQ(rr.manifest.shardCount(), 1u);
    const auto want = shardBytes(ref, 1);
    ASSERT_FALSE(want[0].empty());

    for (std::uint32_t wave : {1u, 4u}) {
        const std::string out = path("j4w" + std::to_string(wave));
        const PopulationResult r = run(out, 4, 0, wave, kDefaultShard);
        ASSERT_EQ(r.manifest.shardCount(), 1u);
        EXPECT_EQ(r.cellsSimulated, 15u * kPolicies.size());
        EXPECT_EQ(want, shardBytes(out, 1)) << "wave " << wave;
    }
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
// BatchPin vs the trace-store budget
// -------------------------------------------------------------------

TEST(BatchPinBudget, PinnedChunksSurviveTrimUntilRelease)
{
    // 8 chunks of 256 µops each far exceed a 16 KiB budget.
    TraceStore store(16 * 1024, 256);
    const BenchmarkProfile prof = test::lightProfile(7);

    BatchPin pin;
    pin.pin(store, prof, 8 * 256);
    EXPECT_EQ(pin.held(), 8u);
    const std::size_t resident = store.residentBytes();
    EXPECT_GT(resident, store.budgetBytes());

    // Every resident chunk is pinned: eviction must leave the
    // overshoot in place rather than un-charge memory a reader
    // still holds.
    store.trimToBudget();
    EXPECT_EQ(store.residentBytes(), resident);

    // Releasing the pins re-runs eviction; the budget converges
    // immediately.
    pin.release();
    EXPECT_EQ(pin.held(), 0u);
    EXPECT_LE(store.residentBytes(), store.budgetBytes());
    EXPECT_GT(store.evictions(), 0u);
}

TEST(BatchPinBudget, RepeatPinsCoalesce)
{
    TraceStore store(TraceStore::kDefaultBudgetBytes, 256);
    const BenchmarkProfile prof = test::lightProfile(7);

    BatchPin pin;
    pin.pin(store, prof, 4 * 256);
    EXPECT_EQ(pin.held(), 4u);
    EXPECT_EQ(pin.saved(), 0u);

    // A second lane of the batch referencing the same benchmark
    // resolves against the held chunks instead of re-pinning.
    pin.pin(store, prof, 4 * 256);
    EXPECT_EQ(pin.held(), 4u);
    EXPECT_EQ(pin.saved(), 4u);
}

TEST(BatchPinBudget, RepinAfterEvictionRegeneratesIdenticalChunks)
{
    // Budget fits about two 256-µop chunks, so walking the stream
    // evicts chunk 0; re-pinning it must rebuild identical bytes.
    TraceStore store(16 * 1024, 256);
    const BenchmarkProfile prof = test::lightProfile(7);
    const auto stream = store.stream(prof);

    TraceChunk first;
    {
        const auto c0 = stream->chunk(0);
        first = *c0;
    }
    const std::uint64_t builds0 = stream->builds();

    for (std::uint64_t i = 1; i < 8; ++i)
        (void)stream->chunk(i);
    EXPECT_GT(store.evictions(), 0u);

    const auto again = stream->chunk(0);
    EXPECT_GT(stream->builds(), builds0);
    EXPECT_EQ(again->firstUop, first.firstUop);
    EXPECT_EQ(again->count, first.count);
    EXPECT_EQ(again->kind, first.kind);
    EXPECT_EQ(again->addr, first.addr);
    EXPECT_EQ(again->pc, first.pc);
    EXPECT_EQ(again->dep1, first.dep1);
    EXPECT_EQ(again->dep2, first.dep2);
    EXPECT_EQ(again->latency, first.latency);
    EXPECT_EQ(again->taken, first.taken);
}

TEST(BatchPinBudget, TinyBudgetKeepsDetailedShardIdentical)
{
    // The detailed shard pins each row's chunks (BatchPin), so a
    // budget too small for even one benchmark's stream must force
    // evict-and-repin between rows without changing a single bit
    // of the payload.
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
    const WorkloadPopulation pop(2, 2);
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
    simulateDetailedPopulationShard(m, pop, CoreConfig{}, ucfgs,
                                    suite, 1, 0, plenty);
    ASSERT_EQ(plenty.size(), 3u * 2u * 2u);

    g.clear();
    g.setChunkUops(512);
    g.setBudgetBytes(24 * 1024);
    const std::uint64_t ev0 = g.evictions();
    std::vector<double> tight;
    simulateDetailedPopulationShard(m, pop, CoreConfig{}, ucfgs,
                                    suite, 1, 0, tight);
    EXPECT_GT(g.evictions(), ev0);

    ASSERT_EQ(tight.size(), plenty.size());
    for (std::size_t i = 0; i < plenty.size(); ++i)
        EXPECT_EQ(plenty[i], tight[i]) << "lane " << i;
}

} // namespace

} // namespace wsel
