/**
 * @file
 * Tests for campaign running, persistence and throughput extraction.
 */

#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "fault_injection.hh"
#include "sim/campaign.hh"
#include "stats/logging.hh"
#include "stats/persist_v3.hh"
#include "test_util.hh"

namespace wsel
{

namespace
{

std::vector<BenchmarkProfile>
testSuite()
{
    std::vector<BenchmarkProfile> s;
    s.push_back(test::lightProfile(7));
    s.push_back(test::heavyProfile(11));
    return s;
}

Campaign
tinyCampaign()
{
    const auto suite = testSuite();
    const WorkloadPopulation pop(2, 2); // 3 workloads
    BadcoModelStore store(CoreConfig{}, 6000, 5);
    return runBadcoCampaign(pop.enumerateAll(),
                            {PolicyKind::LRU, PolicyKind::DIP}, 2,
                            6000, store, suite);
}

} // namespace

TEST(Campaign, ShapeAndContents)
{
    const Campaign c = tinyCampaign();
    EXPECT_EQ(c.simulator, "badco");
    EXPECT_EQ(c.cores, 2u);
    EXPECT_EQ(c.targetUops, 6000u);
    ASSERT_EQ(c.policies.size(), 2u);
    ASSERT_EQ(c.workloads.size(), 3u);
    ASSERT_EQ(c.refIpc.size(), 2u);
    ASSERT_EQ(c.ipc.size(), 2u);
    for (const auto &per_policy : c.ipc) {
        ASSERT_EQ(per_policy.size(), 3u);
        for (const auto &per_workload : per_policy) {
            ASSERT_EQ(per_workload.size(), 2u);
            for (double ipc : per_workload)
                EXPECT_GT(ipc, 0.0);
        }
    }
    EXPECT_GT(c.simSeconds, 0.0);
    EXPECT_EQ(c.instructions, 2u * 3u * 2u * 6000u);
    EXPECT_GT(c.mips(), 0.0);
}

TEST(Campaign, PolicyIndexLookup)
{
    const Campaign c = tinyCampaign();
    EXPECT_EQ(c.policyIndex(PolicyKind::LRU), 0u);
    EXPECT_EQ(c.policyIndex(PolicyKind::DIP), 1u);
    EXPECT_THROW(c.policyIndex(PolicyKind::FIFO), FatalError);
}

TEST(Campaign, PerWorkloadThroughputsMatchManualFormula)
{
    const Campaign c = tinyCampaign();
    const auto t =
        c.perWorkloadThroughputs(0, ThroughputMetric::WSU);
    ASSERT_EQ(t.size(), c.workloads.size());
    for (std::size_t w = 0; w < t.size(); ++w) {
        double sum = 0.0;
        for (std::size_t k = 0; k < c.cores; ++k)
            sum += c.ipc[0][w][k] / c.refIpc[c.workloads[w][k]];
        EXPECT_NEAR(t[w], sum / c.cores, 1e-12);
    }
}

TEST(Campaign, SaveLoadRoundTrip)
{
    const Campaign c = tinyCampaign();
    const auto path = std::filesystem::temp_directory_path() /
                      "wsel_test_campaign";
    std::filesystem::remove_all(path);
    c.save(path.string());
    EXPECT_TRUE(persist::isV3CampaignDir(path.string()));
    const Campaign r = Campaign::load(path.string());
    EXPECT_EQ(r.simulator, c.simulator);
    EXPECT_EQ(r.cores, c.cores);
    EXPECT_EQ(r.targetUops, c.targetUops);
    EXPECT_EQ(r.policies, c.policies);
    EXPECT_EQ(r.benchmarks, c.benchmarks);
    EXPECT_EQ(r.fingerprint, c.fingerprint);
    EXPECT_EQ(r.instructions, c.instructions);
    EXPECT_EQ(r.simSeconds, c.simSeconds);
    EXPECT_EQ(r.refIpc, c.refIpc);
    EXPECT_TRUE(r.workloads == c.workloads);
    EXPECT_TRUE(r.ipc == c.ipc);
    std::filesystem::remove_all(path);
}

TEST(Campaign, PopulationRangeSavesARangeManifest)
{
    const auto suite = testSuite();
    const WorkloadPopulation pop(2, 2);
    BadcoModelStore store(CoreConfig{}, 6000, 5);
    const Campaign c = runBadcoCampaign(
        WorkloadSet::fullPopulation(pop), {PolicyKind::LRU}, 2, 6000,
        store, suite);
    const auto path = std::filesystem::temp_directory_path() /
                      "wsel_test_campaign_range";
    std::filesystem::remove_all(path);
    c.save(path.string());
    const persist::V3Manifest m = persist::readV3Manifest(path.string());
    EXPECT_TRUE(m.ranks.empty());
    EXPECT_EQ(m.firstRank, 0u);
    EXPECT_EQ(m.lastRank, pop.size());
    const Campaign r = Campaign::load(path.string());
    EXPECT_TRUE(r.workloads.isPopulationRange());
    EXPECT_TRUE(r.ipc == c.ipc);

    // The sampled tiny campaign stores its list as ranks instead.
    tinyCampaign().save(path.string());
    EXPECT_EQ(persist::readV3Manifest(path.string()).ranks,
              (std::vector<std::uint64_t>{0, 1, 2}));
    std::filesystem::remove_all(path);
}

TEST(Campaign, SaveReplacesOnlyACampaignDirectory)
{
    const auto root = std::filesystem::temp_directory_path() /
                      "wsel_test_campaign_replace";
    std::filesystem::remove_all(root);
    std::filesystem::create_directories(root);
    const Campaign c = tinyCampaign();

    // A campaign already there is replaced, stale shards included.
    const std::string dir = (root / "c").string();
    c.save(dir);
    {
        std::ofstream os(persist::v3ShardPath(dir, 7));
        os << "stale";
    }
    c.save(dir);
    EXPECT_FALSE(std::filesystem::exists(persist::v3ShardPath(dir, 7)));
    EXPECT_TRUE(Campaign::load(dir).ipc == c.ipc);

    // A file, or a directory holding anything else, is never
    // overwritten.
    const std::string file = (root / "f").string();
    {
        std::ofstream os(file);
        os << "keep me";
    }
    EXPECT_THROW(c.save(file), FatalError);
    EXPECT_EQ(test::readFile(file), "keep me");
    const std::string other = (root / "other").string();
    std::filesystem::create_directories(other);
    {
        std::ofstream os(other + "/notes.txt");
        os << "keep me";
    }
    EXPECT_THROW(c.save(other), FatalError);
    EXPECT_EQ(test::readFile(other + "/notes.txt"), "keep me");
    std::filesystem::remove_all(root);
}

TEST(Campaign, LoadRejectsGarbage)
{
    const auto path = std::filesystem::temp_directory_path() /
                      "wsel_test_garbage.csv";
    {
        std::ofstream os(path);
        os << "hello,world\n";
    }
    EXPECT_THROW(Campaign::load(path.string()), FatalError);
    std::filesystem::remove(path);
    // A directory with no manifest is no campaign either.
    std::filesystem::create_directories(path);
    EXPECT_THROW(Campaign::load(path.string()), FatalError);
    std::filesystem::remove_all(path);
}

TEST(Campaign, CachedCampaignProducesOnceThenLoads)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     "wsel_test_campaign_cache";
    std::filesystem::remove_all(dir);
    int produced = 0;
    auto produce = [&]() {
        ++produced;
        return tinyCampaign();
    };
    const Campaign a =
        cachedCampaign(dir.string(), "unit_test_key", 0, produce);
    const Campaign b =
        cachedCampaign(dir.string(), "unit_test_key", 0, produce);
    EXPECT_EQ(produced, 1);
    EXPECT_TRUE(persist::isV3CampaignDir(
        (dir / "campaign_v3_unit_test_key").string()));
    EXPECT_TRUE(a.workloads == b.workloads);
    EXPECT_TRUE(a.ipc == b.ipc);
    // An empty cache directory always produces.
    cachedCampaign("", "unit_test_key", 0, produce);
    EXPECT_EQ(produced, 2);
    std::filesystem::remove_all(dir);
}

TEST(Campaign, DetailedCampaignRuns)
{
    const auto suite = testSuite();
    const WorkloadPopulation pop(2, 2);
    const Campaign c = runDetailedCampaign(
        pop.enumerateAll(), {PolicyKind::LRU}, 2, 4000,
        CoreConfig{}, suite);
    EXPECT_EQ(c.simulator, "detailed");
    EXPECT_EQ(c.workloads.size(), 3u);
    for (double ipc : c.ipc[0][0])
        EXPECT_GT(ipc, 0.0);
}

TEST(Campaign, EmptyInputsFatal)
{
    const auto suite = testSuite();
    BadcoModelStore store(CoreConfig{}, 1000, 5);
    EXPECT_THROW(runBadcoCampaign({}, {PolicyKind::LRU}, 2, 1000,
                                  store, suite),
                 FatalError);
}

} // namespace wsel
