/**
 * @file
 * Tests for the detailed out-of-order core model.
 */

#include <array>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "cpu/detailed_core.hh"
#include "mem/uncore.hh"
#include "stats/logging.hh"
#include "test_util.hh"
#include "trace/trace_store.hh"

namespace wsel
{

TEST(DetailedCore, ReachesTargetAndCountsCommits)
{
    PerfectUncore uncore(6);
    const CoreStats s =
        test::runSingleCore(test::lightProfile(), uncore, 20000);
    // The final tick may commit a few µops past the target (commit
    // width is 4), but never a full extra group.
    EXPECT_GE(s.committed, 20000u);
    EXPECT_LT(s.committed, 20004u);
    EXPECT_GT(s.cyclesToTarget, 0u);
}

TEST(DetailedCore, IpcBoundedByCommitWidth)
{
    PerfectUncore uncore(6);
    const CoreStats s =
        test::runSingleCore(test::lightProfile(), uncore, 20000);
    const double ipc = s.ipc(20000);
    EXPECT_GT(ipc, 0.05);
    EXPECT_LE(ipc, 4.0); // commit width
}

TEST(DetailedCore, DeterministicAcrossRuns)
{
    UncoreConfig cfg = UncoreConfig::forCores(4, PolicyKind::LRU);
    Uncore u1(cfg, 1, 9), u2(cfg, 1, 9);
    const CoreStats a =
        test::runSingleCore(test::heavyProfile(), u1, 15000, 3);
    const CoreStats b =
        test::runSingleCore(test::heavyProfile(), u2, 15000, 3);
    EXPECT_EQ(a.cyclesToTarget, b.cyclesToTarget);
    EXPECT_EQ(a.dl1Misses, b.dl1Misses);
    EXPECT_EQ(a.branchMispredicts, b.branchMispredicts);
}

TEST(DetailedCore, IdleSkippingPreservesTiming)
{
    // Driving the core with runToTarget() jumps must produce the
    // exact same cycle count as stepping every cycle.
    const BenchmarkProfile p = test::heavyProfile();
    UncoreConfig ucfg = UncoreConfig::forCores(4, PolicyKind::LRU);
    CoreConfig ccfg;
    const std::uint64_t target = 8000;

    Uncore u1(ucfg, 1, 5);
    DetailedCore skip(ccfg, TraceStore::global().cursor(p), u1, 0,
                      target, 1);
    runToTarget(skip);

    Uncore u2(ucfg, 1, 5);
    DetailedCore step(ccfg, TraceStore::global().cursor(p), u2, 0,
                      target, 1);
    std::uint64_t now = 0;
    while (!step.reachedTarget()) {
        step.tick(now);
        ++now;
    }

    EXPECT_EQ(skip.stats().cyclesToTarget,
              step.stats().cyclesToTarget);
    EXPECT_EQ(skip.stats().dl1Misses, step.stats().dl1Misses);
    EXPECT_EQ(skip.stats().uncoreLoads, step.stats().uncoreLoads);
}

namespace
{

/** One request as the shared uncore saw it, with its answer. */
struct UncoreCall
{
    std::uint64_t cycle;
    std::uint32_t core;
    std::uint64_t vaddr;
    bool isWrite;
    bool isPrefetch;
    bool isWriteback;
    std::uint64_t completion;

    bool operator==(const UncoreCall &) const = default;
};

/** Forwards to a real Uncore and records the interleaved stream. */
class RecordingUncore : public UncoreIf
{
  public:
    explicit RecordingUncore(Uncore &inner) : inner_(inner) {}

    std::uint64_t
    access(std::uint64_t cycle, std::uint32_t core_id,
           std::uint64_t vaddr, bool is_write, std::uint64_t pc,
           bool is_prefetch) override
    {
        const std::uint64_t done = inner_.access(
            cycle, core_id, vaddr, is_write, pc, is_prefetch);
        calls.push_back(UncoreCall{cycle, core_id, vaddr, is_write,
                                   is_prefetch, false, done});
        return done;
    }

    void
    writeback(std::uint64_t cycle, std::uint32_t core_id,
              std::uint64_t vaddr) override
    {
        inner_.writeback(cycle, core_id, vaddr);
        calls.push_back(
            UncoreCall{cycle, core_id, vaddr, true, false, true, 0});
    }

    std::uint32_t hitLatency() const override
    {
        return inner_.hitLatency();
    }

    std::vector<UncoreCall> calls;

  private:
    Uncore &inner_;
};

/** Per-core observer of the emitted request events. */
class EventLog : public CoreObserver
{
  public:
    void
    onUncoreRequest(const UncoreRequestEvent &ev) override
    {
        events.push_back({ev.uopSeq, ev.vaddr, ev.pc,
                          static_cast<std::uint64_t>(ev.dependsOn),
                          ev.issueCycle,
                          static_cast<std::uint64_t>(
                              ev.isWrite | ev.isWriteback << 1 |
                              ev.isPrefetch << 2 |
                              ev.isInstruction << 3)});
    }

    std::vector<std::array<std::uint64_t, 6>> events;
};

struct FourCoreRun
{
    std::vector<std::uint64_t> cyclesToTarget;
    std::vector<std::uint64_t> committed;
    std::vector<std::vector<std::array<std::uint64_t, 6>>> events;
    std::vector<UncoreCall> calls;
};

/**
 * Four cores on one shared Uncore, ticked in core order until all
 * have reached their target.  @p skip jumps to the earliest cycle
 * at which any core, finished or not, could progress (finished
 * cores keep running, so they must pace the clock here for the two
 * modes to agree); otherwise every cycle is stepped.
 */
FourCoreRun
runFourCores(const CoreConfig &ccfg, bool skip)
{
    const std::uint64_t target = 6000;
    const std::vector<BenchmarkProfile> profiles = {
        test::heavyProfile(11), test::lightProfile(7),
        test::heavyProfile(23), test::lightProfile(13)};
    Uncore shared(UncoreConfig::forCores(4, PolicyKind::DRRIP), 4,
                  9);
    RecordingUncore rec(shared);
    std::vector<std::unique_ptr<DetailedCore>> cores;
    std::vector<EventLog> logs(profiles.size());
    for (std::uint32_t k = 0; k < profiles.size(); ++k) {
        cores.push_back(std::make_unique<DetailedCore>(
            ccfg, TraceStore::global().cursor(profiles[k]), rec, k,
            target, 3 + k));
        cores.back()->setObserver(&logs[k]);
    }
    std::uint64_t now = 0;
    while (true) {
        bool all_done = true;
        for (auto &c : cores) {
            c->tick(now);
            all_done = all_done && c->reachedTarget();
        }
        if (all_done)
            break;
        std::uint64_t next = now + 1;
        if (skip) {
            next = UINT64_MAX;
            for (auto &c : cores)
                next = std::min(next, c->nextEventCycle(now));
        }
        EXPECT_GT(next, now);
        now = next;
    }
    FourCoreRun r;
    for (std::uint32_t k = 0; k < cores.size(); ++k) {
        r.cyclesToTarget.push_back(cores[k]->stats().cyclesToTarget);
        r.committed.push_back(cores[k]->stats().committed);
        r.events.push_back(std::move(logs[k].events));
    }
    r.calls = std::move(rec.calls);
    return r;
}

} // namespace

TEST(DetailedCore, IdleSkippingPreservesTimingOnSharedUncore)
{
    // Four cores contending for one uncore, stepped every cycle vs
    // jumped by nextEventCycle(): every request, its cycle and the
    // uncore's answer must match, for the Table I core, a ROB that
    // is not a power of two, and queues small enough that RS-full,
    // LDQ-full and MSHR-full stalls are common.
    CoreConfig table1;
    CoreConfig odd_rob;
    odd_rob.robSize = 96;
    CoreConfig tight;
    tight.robSize = 96;
    tight.rsSize = 6;
    tight.ldqSize = 4;
    tight.stqSize = 4;
    tight.dl1Mshrs = 2;
    std::vector<std::uint64_t> base_cycles;
    for (const CoreConfig &ccfg : {table1, odd_rob, tight}) {
        SCOPED_TRACE(ccfg.describe());
        const FourCoreRun step = runFourCores(ccfg, false);
        const FourCoreRun skip = runFourCores(ccfg, true);
        EXPECT_EQ(skip.cyclesToTarget, step.cyclesToTarget);
        EXPECT_EQ(skip.committed, step.committed);
        ASSERT_EQ(skip.events.size(), step.events.size());
        for (std::size_t k = 0; k < step.events.size(); ++k) {
            EXPECT_GT(step.events[k].size(), 50u);
            EXPECT_TRUE(skip.events[k] == step.events[k])
                << "core " << k;
        }
        EXPECT_GT(step.calls.size(), 200u);
        EXPECT_TRUE(skip.calls == step.calls);
        // The small queues must bind on the memory-heavy cores (0
        // and 2); the light cores may even speed up as the heavy
        // ones press the uncore less.
        if (base_cycles.empty()) {
            base_cycles = step.cyclesToTarget;
        } else if (ccfg.rsSize == tight.rsSize) {
            EXPECT_GT(step.cyclesToTarget[0], base_cycles[0]);
            EXPECT_GT(step.cyclesToTarget[2], base_cycles[2]);
        }
    }
}

TEST(DetailedCore, SlowerUncoreMeansMoreCycles)
{
    const BenchmarkProfile p = test::heavyProfile();
    PerfectUncore fast(6), slow(206);
    const CoreStats a = test::runSingleCore(p, fast, 10000);
    const CoreStats b = test::runSingleCore(p, slow, 10000);
    EXPECT_GT(b.cyclesToTarget, a.cyclesToTarget);
}

TEST(DetailedCore, MemoryHeavyProfileMissesMore)
{
    UncoreConfig cfg = UncoreConfig::forCores(4, PolicyKind::LRU);
    Uncore u1(cfg, 1, 1), u2(cfg, 1, 1);
    const CoreStats light =
        test::runSingleCore(test::lightProfile(), u1, 20000);
    const CoreStats heavy =
        test::runSingleCore(test::heavyProfile(), u2, 20000);
    EXPECT_GT(heavy.dl1Misses, light.dl1Misses);
    EXPECT_GT(heavy.uncoreLoads, light.uncoreLoads);
}

TEST(DetailedCore, BranchStatsPopulated)
{
    PerfectUncore uncore(6);
    const CoreStats s =
        test::runSingleCore(test::lightProfile(), uncore, 20000);
    EXPECT_GT(s.branches, 1000u);
    EXPECT_GT(s.branchMispredicts, 0u);
    EXPECT_LT(s.branchMispredicts, s.branches / 2);
}

TEST(DetailedCore, ThreadRestartsAfterTarget)
{
    // Run a core past its target (multiprogram protocol): committed
    // keeps growing, cyclesToTarget freezes.
    const BenchmarkProfile p = test::lightProfile();
    PerfectUncore uncore(6);
    CoreConfig cfg;
    DetailedCore core(cfg, TraceStore::global().cursor(p), uncore,
                      0, 5000, 1);
    std::uint64_t now = 0;
    while (!core.reachedTarget())
        core.tick(now++);
    const std::uint64_t frozen = core.stats().cyclesToTarget;
    const std::uint64_t end = now + 20000;
    while (now < end)
        core.tick(now++);
    EXPECT_EQ(core.stats().cyclesToTarget, frozen);
    EXPECT_GT(core.stats().committed, 5000u);
}

/** Observer-based checks on the emitted uncore request stream. */
class EventCollector : public CoreObserver
{
  public:
    void
    onUncoreRequest(const UncoreRequestEvent &ev) override
    {
        events.push_back(ev);
    }

    std::vector<UncoreRequestEvent> events;
};

TEST(DetailedCore, ObserverSeesConsistentRequestStream)
{
    const BenchmarkProfile p = test::heavyProfile();
    PerfectUncore uncore(6);
    CoreConfig cfg;
    DetailedCore core(cfg, TraceStore::global().cursor(p), uncore,
                      0, 20000, 1);
    EventCollector obs;
    core.setObserver(&obs);
    runToTarget(core);

    ASSERT_GT(obs.events.size(), 100u);
    std::int64_t data_loads = 0;
    for (const auto &ev : obs.events) {
        if (ev.isBlockingLoad() && !ev.isInstruction) {
            // Dependencies must reference earlier data loads only.
            EXPECT_LT(ev.dependsOn, data_loads);
            ++data_loads;
        }
        // Writebacks and prefetches never carry dependencies.
        if (ev.isWriteback || ev.isPrefetch) {
            EXPECT_EQ(ev.dependsOn, -1);
        }
    }
    EXPECT_GT(data_loads, 50);
}

TEST(DetailedCore, RejectsZeroTarget)
{
    const BenchmarkProfile p = test::lightProfile();
    PerfectUncore uncore(6);
    CoreConfig cfg;
    EXPECT_THROW(DetailedCore(cfg, TraceStore::global().cursor(p),
                              uncore, 0, 0, 1),
                 FatalError);
}

TEST(CoreConfig, DescribeMentionsTableIShape)
{
    CoreConfig cfg;
    const std::string d = cfg.describe();
    EXPECT_NE(d.find("4/6/4"), std::string::npos);
    EXPECT_NE(d.find("36/36/24/128"), std::string::npos);
}

} // namespace wsel
