/**
 * @file
 * Tests for the BADCO behavioural model builder and machine.
 */

#include <cmath>
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "badco/badco_machine.hh"
#include "badco/badco_model.hh"
#include "mem/uncore.hh"
#include "stats/logging.hh"
#include "stats/persist.hh"
#include "test_util.hh"

namespace wsel
{

namespace
{

BadcoModel
buildTestModel(const BenchmarkProfile &p, std::uint64_t target)
{
    CoreConfig cfg;
    return buildBadcoModel(p, cfg, target, 6);
}

} // namespace

TEST(BadcoModel, BuildProducesNonTrivialModel)
{
    const BadcoModel m =
        buildTestModel(test::heavyProfile(), 20000);
    EXPECT_EQ(m.benchmark, "test-heavy");
    EXPECT_EQ(m.traceUops, 20000u);
    EXPECT_GT(m.intrinsicCycles, 0u);
    EXPECT_GT(m.nodes.size(), 100u);
    EXPECT_GT(m.loadCount, 50u);
    EXPECT_GE(m.window, 1u);
    EXPECT_LE(m.window, 512u);
}

TEST(BadcoModel, NodesAreProgramOrdered)
{
    const BadcoModel m =
        buildTestModel(test::heavyProfile(), 20000);
    std::uint64_t total_uops = 0, total_weight = 0;
    std::int64_t loads_seen = 0;
    for (const BadcoNode &n : m.nodes) {
        total_uops += n.uops;
        total_weight += n.weight;
        EXPECT_LE(n.uopSeq, m.traceUops);
        if (n.req.type == BadcoReqType::Load) {
            // Load dependencies must point strictly backwards.
            EXPECT_LT(n.req.dependsOn, loads_seen);
            ++loads_seen;
        } else {
            EXPECT_EQ(n.req.dependsOn, -1);
        }
    }
    EXPECT_EQ(loads_seen, static_cast<std::int64_t>(m.loadCount));
    // Node µops plus the tail cover the whole slice.
    EXPECT_EQ(total_uops + m.tailUops, m.traceUops);
    // Node weights plus the tail cover the intrinsic cycles.
    EXPECT_EQ(total_weight + m.tailWeight, m.intrinsicCycles);
}

TEST(BadcoModel, SaveLoadRoundTrip)
{
    const BadcoModel m =
        buildTestModel(test::lightProfile(), 10000);
    const std::string path = test::scratchPath("badco_roundtrip");
    m.save(path);
    const BadcoModel r = BadcoModel::load(path);
    std::filesystem::remove(path);
    EXPECT_EQ(r.benchmark, m.benchmark);
    EXPECT_EQ(r.traceUops, m.traceUops);
    EXPECT_EQ(r.intrinsicCycles, m.intrinsicCycles);
    EXPECT_EQ(r.tailWeight, m.tailWeight);
    EXPECT_EQ(r.tailUops, m.tailUops);
    EXPECT_EQ(r.loadCount, m.loadCount);
    EXPECT_EQ(r.window, m.window);
    ASSERT_EQ(r.nodes.size(), m.nodes.size());
    for (std::size_t i = 0; i < m.nodes.size(); ++i) {
        EXPECT_EQ(r.nodes[i].weight, m.nodes[i].weight);
        EXPECT_EQ(r.nodes[i].uops, m.nodes[i].uops);
        EXPECT_EQ(r.nodes[i].req.vaddr, m.nodes[i].req.vaddr);
        EXPECT_EQ(r.nodes[i].req.type, m.nodes[i].req.type);
        EXPECT_EQ(r.nodes[i].req.dependsOn,
                  m.nodes[i].req.dependsOn);
    }
}

TEST(BadcoModel, LoadRejectsGarbage)
{
    const std::string path = test::scratchPath("badco_garbage");
    {
        std::ofstream out(path, std::ios::binary);
        out << "not a model";
    }
    EXPECT_THROW(BadcoModel::load(path), persist::CacheInvalid);
    std::filesystem::remove(path);
}

TEST(BadcoMachine, ReplayAtPerfectLatencyMatchesIntrinsic)
{
    // Against the same perfect uncore the model was built with, the
    // replay should reproduce the intrinsic cycle count closely
    // (requests never stall: completion always hit-latency away).
    const BadcoModel m =
        buildTestModel(test::lightProfile(), 20000);
    PerfectUncore uncore(6);
    BadcoMachine machine(m, uncore, 0, 20000);
    while (!machine.reachedTarget())
        machine.run(machine.localClock() + 10000);
    const double ratio =
        static_cast<double>(machine.stats().cyclesToTarget) /
        static_cast<double>(m.intrinsicCycles);
    EXPECT_GT(ratio, 0.95);
    EXPECT_LT(ratio, 1.10);
}

TEST(BadcoMachine, CalibratedWindowReproducesSlowUncore)
{
    // The second-trace calibration contract: at the calibration
    // latency, the replay cycle count matches the detailed core's.
    const BenchmarkProfile p = test::heavyProfile();
    const std::uint64_t target = 20000;
    const BadcoModel m = buildTestModel(p, target);

    PerfectUncore slow(206);
    const CoreStats detailed =
        test::runSingleCore(p, slow, target);

    PerfectUncore slow2(206);
    BadcoMachine machine(m, slow2, 0, target);
    while (!machine.reachedTarget())
        machine.run(machine.localClock() + 10000);

    const double err =
        std::abs(static_cast<double>(
                     machine.stats().cyclesToTarget) -
                 static_cast<double>(detailed.cyclesToTarget)) /
        static_cast<double>(detailed.cyclesToTarget);
    EXPECT_LT(err, 0.10);
}

TEST(BadcoMachine, WindowOverrideChangesTiming)
{
    const BadcoModel m =
        buildTestModel(test::heavyProfile(), 20000);
    PerfectUncore u1(206), u2(206);
    BadcoMachine narrow(m, u1, 0, 20000, 1);
    BadcoMachine wide(m, u2, 0, 20000, 512);
    while (!narrow.reachedTarget())
        narrow.run(narrow.localClock() + 10000);
    while (!wide.reachedTarget())
        wide.run(wide.localClock() + 10000);
    EXPECT_GT(narrow.stats().cyclesToTarget,
              wide.stats().cyclesToTarget);
}

TEST(BadcoMachine, RestartsAndKeepsRunning)
{
    const BadcoModel m =
        buildTestModel(test::lightProfile(), 5000);
    PerfectUncore uncore(6);
    BadcoMachine machine(m, uncore, 0, 5000);
    while (!machine.reachedTarget())
        machine.run(machine.localClock() + 1000);
    const std::uint64_t frozen = machine.stats().cyclesToTarget;
    machine.run(machine.localClock() + 100000);
    EXPECT_EQ(machine.stats().cyclesToTarget, frozen);
    EXPECT_GT(machine.stats().uops, 5000u);
}

TEST(BadcoMachine, DeterministicReplay)
{
    const BadcoModel m =
        buildTestModel(test::heavyProfile(), 15000);
    UncoreConfig cfg = UncoreConfig::forCores(4, PolicyKind::DRRIP);
    Uncore u1(cfg, 1, 3), u2(cfg, 1, 3);
    BadcoMachine a(m, u1, 0, 15000), b(m, u2, 0, 15000);
    while (!a.reachedTarget())
        a.run(a.localClock() + 777);
    while (!b.reachedTarget())
        b.run(b.localClock() + 777);
    EXPECT_EQ(a.stats().cyclesToTarget, b.stats().cyclesToTarget);
    EXPECT_EQ(a.stats().requests, b.stats().requests);
}

TEST(BadcoMachine, RejectsDegenerateInputs)
{
    const BadcoModel m =
        buildTestModel(test::lightProfile(), 2000);
    PerfectUncore uncore(6);
    EXPECT_THROW(BadcoMachine(m, uncore, 0, 2000, 5, 0), FatalError);
    BadcoModel empty;
    EXPECT_THROW(BadcoMachine(empty, uncore, 0, 100), FatalError);
}

} // namespace wsel
