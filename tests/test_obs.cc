/**
 * @file
 * Tests for the observability subsystem (src/obs/): sharded
 * counters, gauges, log-2 latency histograms, the snapshot
 * renderers, the ring-buffer tracer with its Chrome-JSON round
 * trip, and the lock-free warn() dedup table.
 *
 * Every suite name starts with "Obs" so the tsan preset's test
 * filter (CMakePresets.json) picks the whole file up.
 */

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/scheduler.hh"
#include "obs/obs.hh"
#include "stats/logging.hh"

namespace wsel
{

namespace
{

/** Restore both obs gates on scope exit so no test leaks state. */
struct ObsGuard
{
    ~ObsGuard()
    {
        obs::enableMetrics(false);
        obs::disableTracing();
    }
};

} // namespace

// -------------------------------------------------------------------
// Counters
// -------------------------------------------------------------------

TEST(ObsCounter, ConcurrentIncrementsSumExactly)
{
    ObsGuard guard;
    obs::enableMetrics();
    obs::Counter &c = obs::counter("test.counter_concurrent");
    const std::uint64_t before = c.value();
    constexpr int kThreads = 8;
    constexpr std::uint64_t kPer = 100000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&c] {
            for (std::uint64_t i = 0; i < kPer; ++i)
                c.inc();
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(c.value() - before, kThreads * kPer);
}

TEST(ObsCounter, DisabledIncrementIsDropped)
{
    ObsGuard guard;
    obs::enableMetrics();
    obs::Counter &c = obs::counter("test.counter_disabled");
    const std::uint64_t before = c.value();
    obs::enableMetrics(false);
    c.inc();
    c.inc(100);
    EXPECT_EQ(c.value(), before);
    obs::enableMetrics();
    c.inc(3);
    EXPECT_EQ(c.value() - before, 3u);
}

TEST(ObsCounter, IncAlwaysIgnoresGate)
{
    ObsGuard guard;
    obs::Counter &c = obs::counter("test.counter_always");
    const std::uint64_t before = c.value();
    obs::enableMetrics(false);
    c.incAlways(7);
    EXPECT_EQ(c.value() - before, 7u);
}

// -------------------------------------------------------------------
// Gauges
// -------------------------------------------------------------------

TEST(ObsGauge, SetAndAdd)
{
    ObsGuard guard;
    obs::enableMetrics();
    obs::Gauge &g = obs::gauge("test.gauge");
    g.set(2.5);
    EXPECT_DOUBLE_EQ(g.value(), 2.5);
    g.add(1.5);
    EXPECT_DOUBLE_EQ(g.value(), 4.0);
    obs::enableMetrics(false);
    g.set(99.0);
    EXPECT_DOUBLE_EQ(g.value(), 4.0);
    g.setAlways(1.0);
    EXPECT_DOUBLE_EQ(g.value(), 1.0);
}

// -------------------------------------------------------------------
// Histograms
// -------------------------------------------------------------------

TEST(ObsHistogram, CountSumMinMax)
{
    ObsGuard guard;
    obs::enableMetrics();
    obs::LatencyHistogram &h = obs::histogram("test.hist_basic");
    h.recordNs(10);
    h.recordNs(1000);
    h.recordNs(100000);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.sumNs(), 101010u);
    EXPECT_EQ(h.minNs(), 10u);
    EXPECT_EQ(h.maxNs(), 100000u);
}

TEST(ObsHistogram, QuantilesAreBucketUpperBounds)
{
    ObsGuard guard;
    obs::enableMetrics();
    obs::LatencyHistogram &h = obs::histogram("test.hist_quant");
    // 90 fast points (~1 µs) and 10 slow ones (~1 ms).
    for (int i = 0; i < 90; ++i)
        h.recordNs(1000);
    for (int i = 0; i < 10; ++i)
        h.recordNs(1000000);
    // 1000 ns lands in bucket 10 (upper bound 1024 ns); 1e6 ns in
    // bucket 20 (upper bound 1048576 ns).
    EXPECT_EQ(h.quantileNs(0.50), 1024u);
    EXPECT_EQ(h.quantileNs(0.90), 1024u);
    EXPECT_EQ(h.quantileNs(0.99), 1048576u);
    EXPECT_GE(h.quantileNs(1.0), h.quantileNs(0.5));
}

TEST(ObsHistogram, TimerRecordsOnlyWhenEnabled)
{
    ObsGuard guard;
    obs::enableMetrics();
    obs::LatencyHistogram &h = obs::histogram("test.hist_timer");
    const std::uint64_t before = h.count();
    {
        obs::LatencyHistogram::Timer t(h);
    }
    EXPECT_EQ(h.count() - before, 1u);
    obs::enableMetrics(false);
    {
        obs::LatencyHistogram::Timer t(h);
    }
    EXPECT_EQ(h.count() - before, 1u);
}

// -------------------------------------------------------------------
// Registry and snapshots
// -------------------------------------------------------------------

TEST(ObsRegistry, SameNameReturnsSameInstrument)
{
    obs::Counter &a = obs::counter("test.registry_same");
    obs::Counter &b = obs::counter("test.registry_same");
    EXPECT_EQ(&a, &b);
}

TEST(ObsRegistry, KindMismatchIsFatal)
{
    obs::counter("test.registry_kind");
    EXPECT_THROW(obs::gauge("test.registry_kind"), FatalError);
    EXPECT_THROW(obs::histogram("test.registry_kind"), FatalError);
}

TEST(ObsSnapshot, CatalogPreRegisteredOnEnable)
{
    ObsGuard guard;
    obs::enableMetrics();
    const obs::MetricsSnapshot snap = obs::metricsSnapshot();
    auto has = [&](const std::string &name) {
        for (const obs::MetricsEntry &e : snap.entries) {
            if (e.name == name)
                return true;
        }
        return false;
    };
    // The acceptance contract: a snapshot always lists the
    // scheduler, campaign shard, and persist-cache instruments, even
    // when their code paths never ran.
    EXPECT_TRUE(has("scheduler.tasks_run"));
    EXPECT_TRUE(has("scheduler.run_ns"));
    EXPECT_TRUE(has("population.cells"));
    EXPECT_TRUE(has("population.shard_write_ns"));
    EXPECT_TRUE(has("persist.cache_hit"));
    EXPECT_TRUE(has("persist.cache_miss"));
    EXPECT_TRUE(has("persist.cache_quarantine"));
    EXPECT_TRUE(has("trace.dropped"));
}

TEST(ObsSnapshot, JsonAndTableRenderInstrument)
{
    ObsGuard guard;
    obs::enableMetrics();
    obs::counter("test.snapshot_render").inc(42);
    obs::histogram("test.snapshot_hist").recordNs(5000);
    const obs::MetricsSnapshot snap = obs::metricsSnapshot();
    const std::string json = snap.toJson();
    EXPECT_NE(json.find("\"test.snapshot_render\""),
              std::string::npos);
    EXPECT_NE(json.find("\"value\": 42"), std::string::npos);
    EXPECT_NE(json.find("\"test.snapshot_hist\""),
              std::string::npos);
    const std::string table = snap.toTable();
    EXPECT_NE(table.find("test.snapshot_render"), std::string::npos);
    // Prefix filtering keeps only the requested section.
    const std::string sched = snap.toTable("scheduler.");
    EXPECT_NE(sched.find("scheduler.tasks_run"), std::string::npos);
    EXPECT_EQ(sched.find("test.snapshot_render"), std::string::npos);
}

TEST(ObsSnapshot, EntriesAreNameSorted)
{
    ObsGuard guard;
    obs::enableMetrics();
    const obs::MetricsSnapshot snap = obs::metricsSnapshot();
    for (std::size_t i = 1; i < snap.entries.size(); ++i)
        EXPECT_LT(snap.entries[i - 1].name, snap.entries[i].name);
}

// -------------------------------------------------------------------
// Tracer
// -------------------------------------------------------------------

TEST(ObsTrace, RingOverflowDropsOldestAndCounts)
{
    ObsGuard guard;
    obs::Counter &dropCounter = obs::counter("trace.dropped");
    const std::uint64_t dropsBefore = dropCounter.value();
    obs::enableTracing(64);
    for (int i = 0; i < 100; ++i) {
        std::string name = "e";
        name += std::to_string(i);
        obs::instant(std::move(name));
    }
    const obs::TraceSnapshot snap = obs::traceSnapshot();
    EXPECT_EQ(snap.events.size(), 64u);
    EXPECT_EQ(snap.dropped, 36u);
    // Drop-oldest: the first retained event is #36, the last #99.
    EXPECT_EQ(snap.events.front().name, "e36");
    EXPECT_EQ(snap.events.back().name, "e99");
    // The drop count is also a metric (recorded past the gate).
    EXPECT_EQ(dropCounter.value() - dropsBefore, 36u);
}

TEST(ObsTrace, DisabledModeEmitsZeroEvents)
{
    ObsGuard guard;
    obs::enableTracing(16); // resets the ring
    obs::disableTracing();
    obs::instant("nope");
    {
        obs::Span span("nope.span");
    }
    EXPECT_EQ(obs::spanDepth(), 0u);
    EXPECT_TRUE(obs::traceSnapshot().events.empty());
    EXPECT_EQ(obs::traceSnapshot().dropped, 0u);
}

TEST(ObsTrace, SpanDepthTracksNesting)
{
    ObsGuard guard;
    obs::enableTracing(256);
    EXPECT_EQ(obs::spanDepth(), 0u);
    {
        obs::Span outer("outer");
        EXPECT_EQ(obs::spanDepth(), 1u);
        {
            obs::Span inner("inner");
            EXPECT_EQ(obs::spanDepth(), 2u);
        }
        EXPECT_EQ(obs::spanDepth(), 1u);
    }
    EXPECT_EQ(obs::spanDepth(), 0u);
}

TEST(ObsTrace, ChromeJsonRoundTrips)
{
    ObsGuard guard;
    obs::enableTracing(1024);
    {
        obs::Span outer("outer", "k=v");
        obs::Span inner("inner");
        obs::instant("marker", "n=1");
    }
    obs::disableTracing();
    const std::string json =
        obs::renderChromeTrace(obs::traceSnapshot());
    const auto events = obs::parseChromeTrace(json);
    ASSERT_EQ(events.size(), 5u);
    int begins = 0, ends = 0, instants = 0;
    for (const obs::ParsedTraceEvent &e : events) {
        EXPECT_EQ(e.pid, 1u);
        EXPECT_GT(e.tid, 0u);
        if (e.ph == 'B')
            ++begins;
        else if (e.ph == 'E')
            ++ends;
        else if (e.ph == 'i')
            ++instants;
    }
    EXPECT_EQ(begins, 2);
    EXPECT_EQ(ends, 2);
    EXPECT_EQ(instants, 1);
    // Events come out time-sorted; B precedes the matching E.
    for (std::size_t i = 1; i < events.size(); ++i)
        EXPECT_LE(events[i - 1].tsUs, events[i].tsUs);
    EXPECT_EQ(events.front().name, "outer");
    EXPECT_EQ(events.back().name, "outer");
}

TEST(ObsTrace, WriteChromeTraceRoundTripsThroughDisk)
{
    ObsGuard guard;
    obs::enableTracing(128);
    {
        obs::Span span("disk.span");
    }
    const std::string path =
        testing::TempDir() + "wsel_obs_trace_test.json";
    obs::writeChromeTrace(path);
    obs::disableTracing();
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ostringstream buf;
    buf << in.rdbuf();
    const auto events = obs::parseChromeTrace(buf.str());
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].name, "disk.span");
    EXPECT_EQ(events[0].ph, 'B');
    EXPECT_EQ(events[1].ph, 'E');
    std::remove(path.c_str());
}

TEST(ObsTrace, ParserRejectsMalformedJson)
{
    EXPECT_THROW(obs::parseChromeTrace("not json"), FatalError);
    EXPECT_THROW(obs::parseChromeTrace("{\"traceEvents\": [{}]}"),
                 FatalError);
}

TEST(ObsTrace, ConcurrentEmittersKeepCapacityInvariant)
{
    ObsGuard guard;
    obs::enableTracing(256);
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([] {
            for (int i = 0; i < 500; ++i)
                obs::Span span("concurrent.span");
        });
    }
    for (std::thread &t : threads)
        t.join();
    const obs::TraceSnapshot snap = obs::traceSnapshot();
    EXPECT_EQ(snap.events.size(), 256u);
    EXPECT_EQ(snap.dropped, 8u * 500u * 2u - 256u);
}

// -------------------------------------------------------------------
// Scheduler integration
// -------------------------------------------------------------------

TEST(ObsScheduler, PoolStatsReachRegistry)
{
    ObsGuard guard;
    obs::enableMetrics();
    obs::Counter &run = obs::counter("scheduler.tasks_run");
    const std::uint64_t before = run.value();
    constexpr std::size_t kTasks = 64;
    std::atomic<std::size_t> executed{0};
    {
        exec::ThreadPool pool(4);
        exec::parallel_for(pool, std::size_t{0}, kTasks,
                           [&executed](std::size_t) { ++executed; });
    }
    EXPECT_EQ(executed.load(), kTasks);
    EXPECT_EQ(run.value() - before, kTasks);
}

// -------------------------------------------------------------------
// warn() dedup table
// -------------------------------------------------------------------

TEST(ObsDedup, CountsSequentialRepeats)
{
    EXPECT_EQ(obs::noteRepeat("test.dedup.seq"), 1u);
    EXPECT_EQ(obs::noteRepeat("test.dedup.seq"), 2u);
    EXPECT_EQ(obs::noteRepeat("test.dedup.seq"), 3u);
    EXPECT_EQ(obs::noteRepeat("test.dedup.other"), 1u);
}

TEST(ObsDedup, ConcurrentCountsAreExact)
{
    constexpr int kThreads = 8;
    constexpr int kPer = 1000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([] {
            for (int i = 0; i < kPer; ++i)
                obs::noteRepeat("test.dedup.concurrent");
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(obs::noteRepeat("test.dedup.concurrent"),
              static_cast<std::uint64_t>(kThreads * kPer + 1));
}

} // namespace wsel
