/**
 * @file
 * Tests for the BADCO cell engine (sim/batch.hh) and its
 * bitwise-identity contract: a population shard run through it must
 * equal the serial engine's bytes at every job count, on shards that
 * outlast one flush, through mid-flush kills and resumes at another
 * job count, and under a trace-store budget so tight that chunks are
 * evicted and rebuilt between cells (the resident bytes must stay
 * within the budget plus one chunk per cursor). Also covers the
 * tag-scan kernels (cache/tagscan.hh) against the scalar reference
 * on every x86 tier.
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
#include "sim/multicore.hh"
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

/**
 * Seven distinct benchmarks: a 4-core population of C(10, 4) = 210
 * workloads, so a two-policy shard can outlast one flush at every
 * job count the tests use (32 cells per thread, 224 at seven).
 */
std::vector<BenchmarkProfile>
wideSuite()
{
    std::vector<BenchmarkProfile> s;
    for (std::uint64_t i = 0; i < 7; ++i) {
        BenchmarkProfile p = i % 2 ? test::heavyProfile(11 + i)
                                   : test::lightProfile(7 + i);
        p.name.append("-").append(std::to_string(i));
        s.push_back(std::move(p));
    }
    return s;
}

const std::vector<PolicyKind> kPolicies = {PolicyKind::LRU,
                                           PolicyKind::DIP};

/** Job counts every identity test runs at. */
constexpr std::size_t kJobs[] = {1, 2, 4, 7};

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

/**
 * Shard geometry over the full WorkloadPopulation(7, 4) of
 * wideSuite(): 120-row shards of 240 and 180 cells, so at every job
 * count in kJobs the first shard outlasts one flush.
 */
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
    for (const BenchmarkProfile &p : wideSuite()) {
        m.benchmarks.push_back(p.name);
        m.refIpc.push_back(1.0);
    }
    m.popBenchmarks = 7;
    m.popCores = 4;
    m.firstRank = 0;
    m.lastRank = 210;
    m.shardRows = 120;
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

    // More cells than one flush holds at any job count in kJobs, so
    // every runner flushes inside add() at least once.
    const WorkloadPopulation pop(3, 4);
    constexpr std::size_t kCells = 250;
    std::vector<double> serial(kCells * 4);
    for (std::size_t i = 0; i < kCells; ++i) {
        const BadcoMulticoreSim sim(ucfgs[i % 2], 4, kUops,
                                    1000 + 17 * i);
        const SimResult r =
            sim.run(pop.unrank(i % pop.size()), models);
        std::copy(r.ipc.begin(), r.ipc.end(),
                  serial.begin() + i * 4);
    }

    for (std::size_t jobs : kJobs) {
        BadcoBatchRunner runner({ucfgs.data(), ucfgs.size()}, 4,
                                kUops, models, jobs);
        EXPECT_EQ(runner.threads(), jobs);
        EXPECT_EQ(runner.capacity(),
                  BadcoBatchRunner::kCellsPerThread * jobs);
        ASSERT_LT(runner.capacity(), kCells);
        std::vector<double> got(kCells * 4);
        std::size_t flushes = 0;
        for (std::size_t i = 0; i < kCells; ++i) {
            const Workload w = pop.unrank(i % pop.size());
            if (runner.full())
                ++flushes;
            runner.add(1000 + 17 * i,
                       static_cast<std::uint32_t>(i % 2),
                       {w.benchmarks().data(), 4}, got.data() + i * 4);
            EXPECT_LE(runner.pending(), runner.capacity());
        }
        EXPECT_EQ(flushes, (kCells - 1) / runner.capacity())
            << "jobs " << jobs;
        EXPECT_EQ(runner.pending(),
                  kCells - flushes * runner.capacity());
        runner.run();
        EXPECT_EQ(runner.pending(), 0u);
        for (std::size_t i = 0; i < serial.size(); ++i) {
            EXPECT_GT(got[i], 0.0);
            EXPECT_EQ(serial[i], got[i])
                << "jobs " << jobs << " lane " << i;
        }
    }
}

TEST(BatchEngine, BatchedShardMatchesSerialBitwise)
{
    const auto suite = wideSuite();
    const persist::V3Manifest m = engineManifest();
    const WorkloadSet all =
        WorkloadSet::fullPopulation(WorkloadPopulation(7, 4));
    BadcoModelStore store(CoreConfig{}, kUops, 5);
    const auto models = store.getSuite(suite);
    std::vector<UncoreConfig> ucfgs;
    for (PolicyKind p : kPolicies)
        ucfgs.push_back(UncoreConfig::forCores(4, p));
    ASSERT_EQ(m.shardCount(), 2u);

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
        // Shard 0 (240 cells) outlasts one flush at every job count,
        // so it ends with a partial flush; shard 1 (180 cells) fits
        // one flush at seven jobs.
        for (std::size_t jobs : kJobs) {
            std::vector<double> batched;
            std::atomic<std::uint64_t> done{0};
            simulatePopulationShardBatched(m, all, ucfgs, models, 1,
                                           s, jobs, batched, &done);
            ASSERT_EQ(batched.size(), serial.size());
            EXPECT_EQ(done.load(), cells);
            for (std::size_t i = 0; i < serial.size(); ++i)
                EXPECT_EQ(serial[i], batched[i])
                    << "shard " << s << " jobs " << jobs << " lane "
                    << i;
        }
    }
}

// -------------------------------------------------------------------
// Population campaigns on disk
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
     * 2 policies x the full 4-core population of @p suite (15
     * workloads for testSuite()), 8 cells per shard -> 4 shards
     * unless @p shard_cells says otherwise.
     */
    PopulationResult
    run(const std::string &out, std::size_t jobs,
        std::size_t shard_cells = 8,
        const std::vector<BenchmarkProfile> &suite = testSuite())
    {
        const WorkloadPopulation pop(
            static_cast<std::uint32_t>(suite.size()), 4);
        BadcoModelStore store(CoreConfig{}, kUops, 5);
        PopulationOptions opts;
        opts.jobs = jobs;
        opts.shardCells = shard_cells;
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

TEST_F(BatchCampaign, ShardsBitwiseIdenticalAcrossJobs)
{
    // wideSuite()'s 420 cells in 240-cell shards: shard 0 outlasts
    // one flush at every job count, shard 1 (180 cells) fits one
    // flush at seven jobs.
    const auto suite = wideSuite();
    const std::string ref = path("ref");
    const PopulationResult rr = run(ref, 1, 240, suite);
    ASSERT_EQ(rr.manifest.shardCount(), 2u);
    const auto want = shardBytes(ref, rr.manifest.shardCount());
    for (const std::string &b : want)
        ASSERT_FALSE(b.empty());

    for (std::size_t jobs : kJobs) {
        if (jobs == 1)
            continue;
        const std::string out = path("j" + std::to_string(jobs));
        const PopulationResult r = run(out, jobs, 240, suite);
        ASSERT_EQ(r.manifest.shardCount(), rr.manifest.shardCount());
        EXPECT_EQ(want, shardBytes(out, r.manifest.shardCount()))
            << "jobs " << jobs;
    }
}

TEST_F(BatchCampaign, KillMidBatchResumesToIdenticalArtifact)
{
    const std::string ref = path("ref");
    const PopulationResult rr = run(ref, 1);
    const auto want = shardBytes(ref, rr.manifest.shardCount());

    // At one job a flush holds 32 cells, more than the 8 of a
    // shard, so each shard is one flush that runs when the shard
    // ends. Killing at the 13th cell overall lands on shard 1's
    // fifth cell — mid-flush, with four cells appended and not yet
    // run. The shard is abandoned unwritten, exactly as a serial
    // mid-shard kill.
    const std::string out = path("v3");
    {
        test::FaultInjector fi("population.cell", 13);
        EXPECT_THROW(run(out, 1), test::InjectedFault);
    }
    EXPECT_FALSE(persist::isV3CampaignDir(out));

    // Resume at a *different* job count: resume semantics are
    // shard-granular and the payload is thread-invariant.
    const PopulationResult r2 = run(out, 4);
    EXPECT_GE(r2.shardsResumed, 1u);
    EXPECT_LT(r2.cellsSimulated, 15u * kPolicies.size());
    EXPECT_EQ(r2.cellsSimulated + r2.cellsResumed,
              15u * kPolicies.size());
    const auto got = shardBytes(out, r2.manifest.shardCount());
    for (std::size_t s = 0; s < want.size(); ++s)
        EXPECT_EQ(want[s], got[s]) << "shard " << s;
    EXPECT_TRUE(persist::isV3CampaignDir(out));
}

TEST_F(BatchCampaign, OneShardAtJobsFourMatchesJobsOne)
{
    // At the default 64 Ki-cell shard size the whole campaign is one
    // shard, so every thread works inside it: the runner, not the
    // shard loop, spreads the cells.
    constexpr std::size_t kDefaultShard = 64 * 1024;
    const std::string ref = path("ref");
    const PopulationResult rr = run(ref, 1, kDefaultShard);
    ASSERT_EQ(rr.manifest.shardCount(), 1u);
    const auto want = shardBytes(ref, 1);
    ASSERT_FALSE(want[0].empty());

    const std::string out = path("j4");
    const PopulationResult r = run(out, 4, kDefaultShard);
    ASSERT_EQ(r.manifest.shardCount(), 1u);
    EXPECT_EQ(r.cellsSimulated, 15u * kPolicies.size());
    EXPECT_EQ(want, shardBytes(out, 1));
}

TEST_F(BatchCampaign, KillMidFlushAtJobsFourResumesAtJobsOne)
{
    const std::string ref = path("ref");
    const PopulationResult rr = run(ref, 1);
    const auto want = shardBytes(ref, rr.manifest.shardCount());

    // At four jobs each 8-cell shard runs as one flush on four
    // threads: shard 0 commits, and the kill at the 13th appended
    // cell lands in shard 1 with four cells of its flush appended
    // and not yet run.
    const std::string out = path("v3");
    {
        test::FaultInjector fi("population.cell", 13);
        EXPECT_THROW(run(out, 4), test::InjectedFault);
    }
    EXPECT_FALSE(persist::isV3CampaignDir(out));

    const PopulationResult r2 = run(out, 1);
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
