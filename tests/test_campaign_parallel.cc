/**
 * @file
 * Determinism tests for parallel campaign execution: the IPC
 * matrix must be bitwise identical for any --jobs count, a
 * campaign killed mid-run under parallel jobs must resume from its
 * checkpoint shards to the exact uninterrupted matrix (for one-row
 * shards and for a single shard holding the whole run), and the
 * per-cell seed derivation must be stable and collision-free
 * across the matrix.
 */

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fault_injection.hh"
#include "sim/campaign.hh"
#include "sim/characterize.hh"
#include "stats/persist.hh"
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
    return s;
}

const std::vector<PolicyKind> kPolicies = {PolicyKind::LRU,
                                           PolicyKind::DIP};

void
expectSameResults(const Campaign &a, const Campaign &b)
{
    ASSERT_EQ(a.policies.size(), b.policies.size());
    ASSERT_EQ(a.workloads.size(), b.workloads.size());
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    ASSERT_EQ(a.refIpc.size(), b.refIpc.size());
    for (std::size_t i = 0; i < a.refIpc.size(); ++i)
        EXPECT_EQ(a.refIpc[i], b.refIpc[i]) << "refIpc " << i;
    for (std::size_t p = 0; p < a.policies.size(); ++p) {
        for (std::size_t w = 0; w < a.workloads.size(); ++w) {
            ASSERT_EQ(a.ipc[p][w].size(), b.ipc[p][w].size());
            for (std::size_t k = 0; k < a.ipc[p][w].size(); ++k) {
                // Bitwise equality: N jobs must be
                // indistinguishable from 1 job.
                EXPECT_EQ(a.ipc[p][w][k], b.ipc[p][w][k])
                    << "cell (" << p << "," << w << "," << k << ")";
            }
        }
    }
}

/** Per-test scratch directory for models and checkpoints. */
class CampaignParallel : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = (fs::temp_directory_path() /
                (std::string("wsel_parallel_") + info->name()))
                   .string();
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        // A leaked WSEL_JOBS would change what jobs=0 means.
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
     * The standard campaign of these tests: 2 policies x the full
     * @p cores-way workload population over a 2-benchmark suite
     * (3, 5, or 9 workloads for 2, 4, or 8 cores).
     */
    Campaign
    runParallel(std::uint32_t cores, std::size_t jobs,
                const std::string &checkpoint = "",
                std::size_t shard_cells = 256)
    {
        const auto suite = testSuite();
        const WorkloadPopulation pop(2, cores);
        BadcoModelStore store(CoreConfig{}, kUops, 5,
                              path("models"));
        CampaignOptions opts;
        opts.jobs = jobs;
        opts.shardCells = shard_cells;
        opts.checkpointDir = checkpoint;
        return runBadcoCampaign(pop.enumerateAll(), kPolicies,
                                cores, kUops, store, suite, opts);
    }

    std::string dir_;
};

TEST_F(CampaignParallel, JobsInvariantIpcMatrix)
{
    for (const std::uint32_t cores : {2u, 4u, 8u}) {
        const Campaign serial = runParallel(cores, 1);
        const Campaign parallel = runParallel(cores, 8);
        ASSERT_EQ(serial.workloads.size(),
                  static_cast<std::size_t>(cores) + 1);
        expectSameResults(serial, parallel);
    }
}

TEST_F(CampaignParallel, OddJobCountsAgreeToo)
{
    const Campaign serial = runParallel(4, 1);
    for (const std::size_t jobs : {2, 3, 5}) {
        const Campaign parallel = runParallel(4, jobs);
        expectSameResults(serial, parallel);
    }
}

TEST_F(CampaignParallel, KillAndResumeUnderParallelJobs)
{
    const Campaign base = runParallel(4, 1);
    const std::size_t total =
        base.policies.size() * base.workloads.size();
    ASSERT_EQ(total, 10u);

    // 2 cells: one workload row per shard, so every finished row is
    // durable; 256 cells: the whole run is one shard, so a kill
    // anywhere loses all of it.
    int variant = 0;
    for (const std::size_t shard_cells : {2, 256}) {
        const std::size_t per_shard = std::min(shard_cells, total);
        for (const std::size_t n : {std::size_t{2}, total - 1}) {
            const std::string ckpt =
                path("kill" + std::to_string(variant++) +
                     ".partial");
            {
                test::FaultInjector kill("population.cell", n);
                EXPECT_THROW(runParallel(4, 8, ckpt, shard_cells),
                             test::InjectedFault)
                    << "shard " << shard_cells << " kill " << n;
            }
            ASSERT_TRUE(fs::is_directory(ckpt));
            test::FaultInjector counting;
            const Campaign resumed =
                runParallel(4, 8, ckpt, shard_cells);
            expectSameResults(base, resumed);
            // Cell n was never simulated, so its shard and every
            // later one run again; earlier shards are reused.
            EXPECT_EQ(counting.hits("population.cell"),
                      total - (n - 1) / per_shard * per_shard)
                << "shard " << shard_cells << " kill " << n;
        }
    }
}

TEST_F(CampaignParallel, ResumedCheckpointSkipsSimulatedCells)
{
    const std::string ckpt = path("skip.partial");
    const Campaign full = runParallel(4, 8, ckpt, 4);
    // The checkpoint holds all 3 shards, so a rerun reuses them and
    // never simulates (or writes) anything.
    test::FaultInjector counting;
    const Campaign rerun = runParallel(4, 8, ckpt, 4);
    EXPECT_EQ(counting.hits("population.cell"), 0u);
    EXPECT_EQ(counting.hits("atomic.begin"), 0u);
    expectSameResults(full, rerun);
}

TEST_F(CampaignParallel, SerialAndParallelCheckpointsInterchange)
{
    // A checkpoint written by a parallel run must resume a serial
    // run and vice versa: the shard geometry and the per-cell seeds
    // do not depend on the job count.
    const Campaign base = runParallel(2, 1);
    for (const std::size_t writer_jobs : {std::size_t{1}, std::size_t{8}}) {
        const std::string ckpt =
            path("x" + std::to_string(writer_jobs) + ".partial");
        {
            // Killed at cell 3: the first one-row shard is durable.
            test::FaultInjector kill("population.cell", 3);
            EXPECT_THROW(runParallel(2, writer_jobs, ckpt, 2),
                         test::InjectedFault);
        }
        const std::size_t reader_jobs = writer_jobs == 1 ? 8 : 1;
        test::FaultInjector counting;
        const Campaign resumed =
            runParallel(2, reader_jobs, ckpt, 2);
        expectSameResults(base, resumed);
        EXPECT_EQ(counting.hits("population.cell"), 4u); // 6 - 2
    }
}

TEST_F(CampaignParallel, DetailedCampaignIsJobsInvariant)
{
    const auto suite = testSuite();
    const WorkloadPopulation pop(2, 2); // 3 workloads
    CampaignOptions opts;
    opts.jobs = 1;
    const Campaign serial = runDetailedCampaign(
        pop.enumerateAll(), {PolicyKind::LRU}, 2, kUops,
        CoreConfig{}, suite, opts);
    opts.jobs = 4;
    const Campaign parallel = runDetailedCampaign(
        pop.enumerateAll(), {PolicyKind::LRU}, 2, kUops,
        CoreConfig{}, suite, opts);
    expectSameResults(serial, parallel);
}

TEST_F(CampaignParallel, DetailedCampaignJobsInvariantUnderTraceEviction)
{
    // Same contract as DetailedCampaignIsJobsInvariant, but with the
    // shared trace store squeezed to a one-chunk budget so workers
    // evict and regenerate each other's chunks mid-simulation: the
    // IPC matrix must still be bitwise identical at every job count.
    const auto suite = testSuite();
    const WorkloadPopulation pop(2, 2); // 3 workloads
    const auto run = [&](std::size_t jobs) {
        CampaignOptions opts;
        opts.jobs = jobs;
        return runDetailedCampaign(pop.enumerateAll(),
                                   {PolicyKind::LRU}, 2, kUops,
                                   CoreConfig{}, suite, opts);
    };
    const Campaign base = run(1);

    TraceStore &ts = TraceStore::global();
    TraceChunk probe;
    probe.count = 256;
    ts.clear();
    ts.setChunkUops(256);
    ts.setBudgetBytes(probe.bytes());
    const std::uint64_t evictions_before = ts.evictions();

    const Campaign squeezed_serial = run(1);
    const Campaign squeezed_parallel = run(8);

    ts.setChunkUops(TraceStore::kDefaultChunkUops);
    ts.setBudgetBytes(TraceStore::kDefaultBudgetBytes);
    ts.clear();

    expectSameResults(base, squeezed_serial);
    expectSameResults(base, squeezed_parallel);
    EXPECT_GT(ts.evictions(), evictions_before)
        << "budget squeeze forced no evictions; test is vacuous";
}

TEST_F(CampaignParallel, CharacterizationIsJobsInvariant)
{
    const auto suite = testSuite();
    const UncoreConfig ucfg =
        UncoreConfig::forCores(2, PolicyKind::LRU);
    const auto serial =
        characterizeSuite(suite, CoreConfig{}, ucfg, kUops, 1, 1);
    const auto parallel =
        characterizeSuite(suite, CoreConfig{}, ucfg, kUops, 1, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].name, parallel[i].name);
        EXPECT_EQ(serial[i].toVector(), parallel[i].toVector())
            << suite[i].name;
    }
}

TEST_F(CampaignParallel, ModelStoreParallelBuildMatchesSerial)
{
    const auto suite = testSuite();
    BadcoModelStore serial_store(CoreConfig{}, kUops, 5, "");
    BadcoModelStore parallel_store(CoreConfig{}, kUops, 5, "");
    const auto a = serial_store.getSuite(suite, 1);
    const auto b = parallel_store.getSuite(suite, 4);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(parallel_store.modelsBuilt(), suite.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i]->benchmark, b[i]->benchmark);
        ASSERT_EQ(a[i]->nodes.size(), b[i]->nodes.size());
        EXPECT_EQ(a[i]->traceUops, b[i]->traceUops);
    }
    // Repeated lookups serve the in-memory models.
    const auto c = parallel_store.getSuite(suite, 4);
    EXPECT_EQ(parallel_store.modelsBuilt(), suite.size());
    for (std::size_t i = 0; i < b.size(); ++i)
        EXPECT_EQ(b[i], c[i]); // same pointers
}

TEST_F(CampaignParallel, CellSeedIsStableUniqueAndNonZero)
{
    const std::uint64_t fp = 0x1234abcd5678ef01ULL;
    std::vector<std::uint64_t> seen;
    for (std::size_t p = 0; p < 8; ++p) {
        for (std::size_t w = 0; w < 64; ++w) {
            const std::uint64_t s = campaignCellSeed(fp, 1, p, w);
            EXPECT_NE(s, 0u);
            EXPECT_EQ(s, campaignCellSeed(fp, 1, p, w));
            seen.push_back(s);
        }
    }
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()),
              seen.end())
        << "cell seed collision inside one campaign";
    // Different campaigns and base seeds draw different streams.
    EXPECT_NE(campaignCellSeed(fp, 1, 0, 0),
              campaignCellSeed(fp + 1, 1, 0, 0));
    EXPECT_NE(campaignCellSeed(fp, 1, 0, 0),
              campaignCellSeed(fp, 2, 0, 0));
}

} // namespace
} // namespace wsel
