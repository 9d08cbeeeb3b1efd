/**
 * @file
 * Cross-cutting determinism and conservation properties: the
 * reproducibility guarantees the experiment methodology rests on.
 */

#include <filesystem>

#include <gtest/gtest.h>

#include "badco/badco_machine.hh"
#include "badco/badco_model.hh"
#include "mem/uncore.hh"
#include "sim/campaign.hh"
#include "sim/model_store.hh"
#include "stats/logging.hh"
#include "test_util.hh"

namespace wsel
{

TEST(Properties, FsbBusyEqualsTransfersTimesOccupancy)
{
    UncoreConfig cfg = UncoreConfig::forCores(4, PolicyKind::LRU);
    cfg.streamPrefetch = false;
    cfg.ipStridePrefetch = false;
    Uncore u(cfg, 1, 1);
    // Clean, distinct-line misses: one transfer each, no
    // writebacks.
    const int n = 40;
    std::uint64_t t = 0;
    for (int i = 0; i < n; ++i) {
        u.access(t, 0, 0x100000 + 4096 * i, false, 0);
        t += 5000; // spaced out: no MSHR or bus queueing
    }
    EXPECT_EQ(u.fsbBusyCycles(),
              static_cast<std::uint64_t>(n) *
                  cfg.fsbCyclesPerTransfer);
}

TEST(Properties, UncoreCompletionNeverBeforeRequest)
{
    UncoreConfig cfg = UncoreConfig::forCores(4, PolicyKind::DRRIP);
    Uncore u(cfg, 2, 7);
    Rng rng(9);
    std::uint64_t t = 0;
    for (int i = 0; i < 2000; ++i) {
        t += rng.nextInt(20);
        const std::uint32_t core =
            static_cast<std::uint32_t>(rng.nextInt(2));
        const std::uint64_t comp = u.access(
            t, core, 64 * rng.nextInt(1 << 14), rng.nextBool(0.3),
            0x400000 + 4 * rng.nextInt(64));
        ASSERT_GE(comp, t + cfg.llcHitLatency);
    }
}

TEST(Properties, BadcoModelBuildIsBitDeterministic)
{
    const BenchmarkProfile p = test::heavyProfile();
    const BadcoModel a = buildBadcoModel(p, CoreConfig{}, 15000, 6);
    const BadcoModel b = buildBadcoModel(p, CoreConfig{}, 15000, 6);
    EXPECT_EQ(test::modelFileBytes(a), test::modelFileBytes(b));
}

TEST(Properties, TraceSeedsProduceDistinctStreams)
{
    BenchmarkProfile p1 = test::lightProfile(1);
    BenchmarkProfile p2 = test::lightProfile(2);
    TraceGenerator g1(p1), g2(p2);
    int same = 0;
    for (int i = 0; i < 2000; ++i) {
        const MicroOp &a = g1.next();
        const MicroOp &b = g2.next();
        same += (a.kind == b.kind && a.addr == b.addr &&
                 a.dep1 == b.dep1);
    }
    EXPECT_LT(same, 1800); // streams must not be near-identical
}

TEST(Properties, CampaignIsDeterministicEndToEnd)
{
    std::vector<BenchmarkProfile> suite = {test::lightProfile(7),
                                           test::heavyProfile(11)};
    const WorkloadPopulation pop(2, 2);
    auto run = [&]() {
        BadcoModelStore store(CoreConfig{}, 5000, 5);
        return runBadcoCampaign(pop.enumerateAll(),
                                {PolicyKind::LRU, PolicyKind::DRRIP},
                                2, 5000, store, suite);
    };
    const Campaign a = run();
    const Campaign b = run();
    for (std::size_t p = 0; p < a.policies.size(); ++p)
        for (std::size_t w = 0; w < a.workloads.size(); ++w)
            EXPECT_EQ(a.ipc[p][w], b.ipc[p][w]);
    EXPECT_EQ(a.refIpc, b.refIpc);
}

TEST(Properties, PolicyOnlyChangesUncoreNotTheTrace)
{
    // The per-thread DL1-filtered request stream is
    // uncore-independent: the same workload under two LLC policies
    // must replay the same number of BADCO requests.
    std::vector<BenchmarkProfile> suite = {test::heavyProfile(11)};
    BadcoModelStore store(CoreConfig{}, 8000, 5);
    const auto models = store.getSuite(suite);
    for (PolicyKind pol : {PolicyKind::LRU, PolicyKind::Random}) {
        UncoreConfig cfg = UncoreConfig::forCores(2, pol);
        Uncore uncore(cfg, 1, 1);
        BadcoMachine m(*models[0], uncore, 0, 8000);
        while (!m.reachedTarget())
            m.run(m.localClock() + 1000);
        // One full slice: requests == model nodes (each node
        // carries exactly one request).
        EXPECT_GE(m.stats().requests, models[0]->nodes.size());
    }
}

TEST(Properties, ModelStoreCacheRoundTripIsExact)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     "wsel_prop_store";
    std::filesystem::remove_all(dir);
    const BenchmarkProfile p = test::heavyProfile(13);
    BadcoModel direct = buildBadcoModel(p, CoreConfig{}, 6000, 5);
    {
        BadcoModelStore store(CoreConfig{}, 6000, 5, dir.string());
        store.get(p);
    }
    BadcoModelStore store2(CoreConfig{}, 6000, 5, dir.string());
    const BadcoModel &loaded = store2.get(p);
    EXPECT_EQ(test::modelFileBytes(direct),
              test::modelFileBytes(loaded));
    std::filesystem::remove_all(dir);
}

} // namespace wsel
