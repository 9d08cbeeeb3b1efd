/**
 * @file
 * Tests for the shared uncore timing model.
 */

#include <gtest/gtest.h>

#include "mem/uncore.hh"
#include "stats/logging.hh"

namespace wsel
{

namespace
{

UncoreConfig
quietConfig()
{
    UncoreConfig cfg = UncoreConfig::forCores(4, PolicyKind::LRU);
    cfg.streamPrefetch = false;
    cfg.ipStridePrefetch = false;
    return cfg;
}

} // namespace

TEST(UncoreConfig, TableIIShapes)
{
    const auto c2 = UncoreConfig::forCores(2, PolicyKind::LRU);
    const auto c4 = UncoreConfig::forCores(4, PolicyKind::DIP);
    const auto c8 = UncoreConfig::forCores(8, PolicyKind::DRRIP);
    // Scaled Table II: capacities double with core count, latency
    // grows 5/6/7, associativity and line size fixed.
    EXPECT_EQ(c4.llc.sizeBytes, 2 * c2.llc.sizeBytes);
    EXPECT_EQ(c8.llc.sizeBytes, 2 * c4.llc.sizeBytes);
    EXPECT_EQ(c2.llcHitLatency, 5u);
    EXPECT_EQ(c4.llcHitLatency, 6u);
    EXPECT_EQ(c8.llcHitLatency, 7u);
    for (const auto &c : {c2, c4, c8}) {
        EXPECT_EQ(c.llc.ways, 16u);
        EXPECT_EQ(c.llc.lineBytes, 64u);
        EXPECT_EQ(c.mshrs, 16u);
        EXPECT_EQ(c.writeBufferEntries, 8u);
        EXPECT_EQ(c.dramLatency, 200u);
    }
    EXPECT_EQ(c4.policy, PolicyKind::DIP);
    EXPECT_THROW(UncoreConfig::forCores(3, PolicyKind::LRU),
                 FatalError);
    EXPECT_FALSE(c4.describe().empty());
}

TEST(Uncore, HitLatencyAfterFill)
{
    Uncore u(quietConfig(), 1, 1);
    // Cold miss pays bus + DRAM + transfer after the LLC lookup.
    const auto &cfg = u.config();
    const std::uint64_t t0 = 1000;
    const std::uint64_t miss = u.access(t0, 0, 0x10000, false, 0);
    EXPECT_GE(miss - t0, cfg.llcHitLatency + cfg.dramLatency);
    // Re-access: pure LLC hit.
    const std::uint64_t t1 = miss + 100;
    const std::uint64_t hit = u.access(t1, 0, 0x10000, false, 0);
    EXPECT_EQ(hit - t1, cfg.llcHitLatency);
}

TEST(Uncore, MshrMergesSameLine)
{
    Uncore u(quietConfig(), 2, 1);
    const std::uint64_t c1 = u.access(100, 0, 0x40000, false, 0);
    // Another request to the same line while in flight completes at
    // the same time (no extra DRAM trip).
    const std::uint64_t c2 = u.access(101, 1, 0x40000, false, 0);
    EXPECT_GE(c2, c1); // but see below: per-core pages differ
    // Same core, same line: true merge.
    Uncore v(quietConfig(), 1, 1);
    const std::uint64_t d1 = v.access(100, 0, 0x40000, false, 0);
    const std::uint64_t d2 = v.access(101, 0, 0x40010, false, 0);
    EXPECT_EQ(d1, d2);
}

TEST(Uncore, PerCorePagesDoNotAlias)
{
    // The same virtual line from two cores must be two physical
    // lines: filling from core 0 must not give core 1 a hit.
    Uncore u(quietConfig(), 2, 1);
    u.access(100, 0, 0x40000, false, 0);
    const std::uint64_t far = 100000;
    const std::uint64_t c = u.access(far, 1, 0x40000, false, 0);
    EXPECT_GT(c - far, u.config().llcHitLatency); // missed
    EXPECT_EQ(u.coreStats(1).demandMisses, 1u);
}

TEST(Uncore, FirstTouchAllocationIsDeterministic)
{
    UncoreConfig cfg = quietConfig();
    Uncore a(cfg, 1, 1), b(cfg, 1, 1);
    for (std::uint64_t i = 0; i < 64; ++i) {
        EXPECT_EQ(a.access(i * 500, 0, i * 4096, false, 0),
                  b.access(i * 500, 0, i * 4096, false, 0));
    }
}

TEST(Uncore, FsbBandwidthSerializesMisses)
{
    UncoreConfig cfg = quietConfig();
    Uncore u(cfg, 1, 1);
    // Issue many misses at the same cycle: completions must be
    // spaced at least fsbCyclesPerTransfer apart.
    std::vector<std::uint64_t> comps;
    for (int i = 0; i < 8; ++i)
        comps.push_back(
            u.access(100, 0, 0x100000 + 4096 * i, false, 0));
    for (std::size_t i = 1; i < comps.size(); ++i)
        EXPECT_GE(comps[i] - comps[i - 1], cfg.fsbCyclesPerTransfer);
    EXPECT_GE(u.fsbBusyCycles(),
              8u * cfg.fsbCyclesPerTransfer);
}

TEST(Uncore, MshrCapacityStallsExtraMisses)
{
    UncoreConfig cfg = quietConfig();
    cfg.mshrs = 2;
    Uncore u(cfg, 1, 1);
    const std::uint64_t c1 =
        u.access(0, 0, 0x100000, false, 0);
    u.access(0, 0, 0x200000, false, 0);
    // Third concurrent miss must wait for an MSHR to free.
    const std::uint64_t c3 =
        u.access(1, 0, 0x300000, false, 0);
    EXPECT_GE(c3, c1);
}

TEST(Uncore, DemandMissCountsPerCore)
{
    Uncore u(quietConfig(), 2, 1);
    u.access(0, 0, 0x0, false, 0);
    u.access(500, 0, 0x0, false, 0); // hit
    u.access(1000, 1, 0x8000, true, 0);
    EXPECT_EQ(u.coreStats(0).reads, 2u);
    EXPECT_EQ(u.coreStats(0).demandMisses, 1u);
    EXPECT_EQ(u.coreStats(1).writes, 1u);
    EXPECT_EQ(u.coreStats(1).demandMisses, 1u);
    EXPECT_GT(u.coreStats(0).meanDemandLatency(), 0.0);
}

TEST(Uncore, PrefetchFlagIsNotDemand)
{
    Uncore u(quietConfig(), 1, 1);
    u.access(0, 0, 0x0, false, 0, true);
    EXPECT_EQ(u.coreStats(0).reads, 0u);
    EXPECT_EQ(u.coreStats(0).demandMisses, 0u);
    EXPECT_EQ(u.llcStats().prefetchMisses, 1u);
    // And the prefetched line now hits for demand.
    const std::uint64_t t = 10000;
    EXPECT_EQ(u.access(t, 0, 0x0, false, 0) - t,
              u.config().llcHitLatency);
}

TEST(Uncore, LlcPrefetcherGeneratesFills)
{
    UncoreConfig cfg = UncoreConfig::forCores(4, PolicyKind::LRU);
    cfg.ipStridePrefetch = false; // stream only
    Uncore u(cfg, 1, 1);
    // A miss stream should trigger stream prefetches.
    std::uint64_t t = 0;
    for (int i = 0; i < 16; ++i) {
        u.access(t, 0, 0x100000 + 64 * i, false, 0);
        t += 1000;
    }
    EXPECT_GT(u.llcStats().prefetchAccesses, 0u);
}

TEST(Uncore, WritebackMarksOrAllocates)
{
    Uncore u(quietConfig(), 1, 1);
    u.writeback(0, 0, 0x7000);
    EXPECT_EQ(u.coreStats(0).writebacksIn, 1u);
    // The line is now LLC-resident: a demand access hits.
    const std::uint64_t t = 10000;
    EXPECT_EQ(u.access(t, 0, 0x7000, false, 0) - t,
              u.config().llcHitLatency);
}

TEST(PerfectUncore, ConstantLatency)
{
    PerfectUncore u(6);
    EXPECT_EQ(u.access(100, 0, 0xdead, false, 0, false), 106u);
    EXPECT_EQ(u.access(100, 3, 0xbeef, true, 0, true), 106u);
    EXPECT_EQ(u.hitLatency(), 6u);
}

TEST(Uncore, RejectsBadConfigs)
{
    UncoreConfig cfg = quietConfig();
    EXPECT_THROW(Uncore(cfg, 0, 1), FatalError);
    cfg.mshrs = 0;
    EXPECT_THROW(Uncore(cfg, 1, 1), FatalError);
}

} // namespace wsel
