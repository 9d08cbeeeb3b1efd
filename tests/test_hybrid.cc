/**
 * @file
 * Tests for the mixed-fidelity campaign runner (sim/hybrid.hh):
 * budget-capped escalation, bitwise jobs-invariance of every
 * artifact, kill/resume identity at the `fidelity.escalate` kill
 * point and at the splice boundary, escalated cells matching a
 * pure detailed campaign bit for bit, and the headline acceptance
 * scenario — a campaign where pure BADCO flips the X-vs-Y ranking
 * and the hybrid recovers the detailed verdict by escalating a
 * bounded fraction of rows.
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fault_injection.hh"
#include "fidelity/calibrate.hh"
#include "fidelity/error_profile.hh"
#include "fidelity/escalation.hh"
#include "fidelity/persist_fidelity.hh"
#include "sim/campaign.hh"
#include "sim/hybrid.hh"
#include "stats/persist_v3.hh"
#include "test_util.hh"

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

class HybridCampaign : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = (fs::temp_directory_path() /
                (std::string("wsel_hybrid_") + info->name()))
                   .string();
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        unsetenv("WSEL_JOBS");
    }

    void TearDown() override { fs::remove_all(dir_); }

    std::string
    path(const std::string &name) const
    {
        return dir_ + "/" + name;
    }

    /**
     * The standard run: LRU vs DIP over the full 4-core population
     * of the 3-benchmark suite (15 rows, 4 shards), quantile 0.95,
     * budget @p budget_fraction (0.25), @p batch_rows rows per detailed batch (2 unless
     * a test asks for the default).  A fresh *empty*
     * profile has an infinite error bound, so every row straddles
     * and the budget alone picks the escalation set — maximally
     * deterministic for the resilience tests.
     */
    HybridResult
    run(const std::string &out, std::size_t jobs = 1,
        std::uint64_t batch_rows = 2, double budget_fraction = 0.25)
    {
        const auto suite = testSuite();
        const WorkloadPopulation pop(
            static_cast<std::uint32_t>(suite.size()), 4);
        BadcoModelStore store(CoreConfig{}, kUops, 5);
        fidelity::ErrorProfile profile(suite);
        HybridOptions opts;
        opts.jobs = jobs;
        opts.shardCells = 8;
        opts.batchRows = batch_rows;
        opts.budgetFraction = budget_fraction;
        batchRows_ = batch_rows;
        return runHybridCampaign(pop, PolicyKind::LRU,
                                 PolicyKind::DIP,
                                 ThroughputMetric::IPCT, kUops,
                                 store, suite, profile, out, opts);
    }

    /**
     * Every artifact of a hybrid campaign directory EXCEPT
     * manifest.bin, which embeds wall-clock simSeconds and is the
     * one legitimately timing-dependent file.
     */
    std::vector<std::pair<std::string, std::string>>
    artifactBytes(const std::string &out, const HybridResult &r)
    {
        std::vector<std::pair<std::string, std::string>> files;
        for (std::uint64_t s = 0; s < r.manifest.shardCount(); ++s)
            files.emplace_back(
                "shard " + std::to_string(s),
                test::readFile(persist::v3ShardPath(out, s)));
        files.emplace_back("fidelity-bitmap",
                           test::readFile(
                               fidelity::escalationRecordPath(out)));
        const std::uint64_t batches =
            (r.escalation.escalatedCount + batchRows_ - 1) /
            batchRows_;
        for (std::uint64_t b = 0; b < batches; ++b)
            files.emplace_back(
                fidelity::fidelityBatchName(b),
                test::readFile(
                    fidelity::fidelityBatchPath(out, b)));
        files.emplace_back(
            "hybrid", test::readFile(fidelity::hybridReportPath(out)));
        return files;
    }

    void
    expectIdenticalArtifacts(const std::string &a,
                             const HybridResult &ra,
                             const std::string &b,
                             const HybridResult &rb)
    {
        const auto fa = artifactBytes(a, ra);
        const auto fb = artifactBytes(b, rb);
        ASSERT_EQ(fa.size(), fb.size());
        for (std::size_t i = 0; i < fa.size(); ++i) {
            EXPECT_EQ(fa[i].first, fb[i].first);
            EXPECT_FALSE(fa[i].second.empty()) << fa[i].first;
            EXPECT_EQ(fa[i].second, fb[i].second) << fa[i].first;
        }
    }

    std::string dir_;
    std::uint64_t batchRows_ = 2; ///< of the latest run()
};

TEST_F(HybridCampaign, BudgetCapsEscalationSet)
{
    const std::string out = path("v3");
    const HybridResult r = run(out);

    // An empty profile wants to escalate all 15 rows; the 0.25
    // budget caps the set at ceil(0.25 * 15) = 4.
    EXPECT_EQ(r.escalation.escalatedCount, 4u);
    EXPECT_EQ(r.report.workloads, 15u);
    EXPECT_EQ(r.report.escalated, 4u);
    EXPECT_NEAR(r.report.escalationFraction, 4.0 / 15.0, 1e-12);
    EXPECT_EQ(r.detailedCellsSimulated, 4u * 2u); // rows x policies
    EXPECT_EQ(r.detailedCellsResumed, 0u);
    EXPECT_TRUE(r.profileUpdated);

    // The in-memory result matches the committed artifacts.
    const fidelity::EscalationRecord rec =
        fidelity::readEscalationRecord(out);
    EXPECT_EQ(rec.escalatedCount, r.escalation.escalatedCount);
    EXPECT_EQ(rec.bitmap, r.escalation.bitmap);
    const fidelity::HybridReportRecord rep =
        fidelity::readHybridReport(out);
    EXPECT_EQ(rep.meanD, r.report.meanD);
    EXPECT_EQ(rep.comboLo, r.report.comboLo);
    EXPECT_EQ(rep.comboHi, r.report.comboHi);
    EXPECT_EQ(rep.escalated, r.report.escalated);

    // The combined bound brackets the point estimate.
    EXPECT_LE(r.report.comboLo, r.report.meanD);
    EXPECT_GE(r.report.comboHi, r.report.meanD);
}

TEST_F(HybridCampaign, OutOfRangeBudgetRunsNoCell)
{
    // Refused before the BADCO sweep, not after it.
    test::FaultInjector count;
    EXPECT_THROW(run(path("v3"), 1, 2, 1.5), FatalError);
    EXPECT_EQ(count.hits("population.cell"), 0u);
    EXPECT_FALSE(fs::exists(path("v3") + "/manifest.bin"));
}

/**
 * planEscalation over the committed sweep of a standard run, with
 * the standard run's knobs and @p profile.
 */
fidelity::EscalationPlan
planStandard(const HybridResult &r, const std::string &sweep_dir,
             const fidelity::ErrorProfile &profile,
             double budget_fraction, const std::string &record_dir,
             bool resume)
{
    const auto suite = testSuite();
    const WorkloadPopulation pop(
        static_cast<std::uint32_t>(suite.size()), 4);
    const HybridOptions opts;
    fidelity::EscalationKnobs knobs;
    knobs.metric = ThroughputMetric::IPCT;
    knobs.quantile = opts.quantile;
    knobs.budgetFraction = budget_fraction;
    knobs.threshold = opts.threshold;
    knobs.seed = opts.seed;
    knobs.detailedFingerprint = r.escalation.detailedFingerprint;
    return fidelity::planEscalation(r.manifest, sweep_dir, pop, suite,
                                    profile, knobs, record_dir,
                                    resume, 1);
}

TEST_F(HybridCampaign, PinnedSetSurvivesProfileDrift)
{
    // With the whole population as budget the empty profile
    // escalates every row.
    const std::string out = path("v3");
    const HybridResult r = run(out, 1, 2, 1.0);
    ASSERT_EQ(r.escalation.escalatedCount, 15u);
    const std::string committed =
        test::readFile(fidelity::escalationRecordPath(out));

    // A profile that learned BADCO is exact: planned afresh, it
    // escalates only the rows whose d(w) is 0.
    fidelity::ErrorProfile drifted(testSuite());
    for (std::uint32_t b = 0; b < 3; ++b)
        for (int i = 0; i < 8; ++i)
            drifted.record(b, 1.0, 1.0);
    const std::string fresh = path("fresh");
    fs::create_directories(fresh);
    const fidelity::EscalationPlan recomputed =
        planStandard(r, out, drifted, 1.0, fresh, false);
    EXPECT_LT(recomputed.record.escalatedCount,
              r.escalation.escalatedCount);

    // On resume the committed set stands, byte for byte.
    const fidelity::EscalationPlan pinned =
        planStandard(r, out, drifted, 1.0, out, true);
    EXPECT_EQ(pinned.record, r.escalation);
    EXPECT_EQ(test::readFile(fidelity::escalationRecordPath(out)),
              committed);
}

TEST_F(HybridCampaign, BudgetChangeRecomputesPinnedSet)
{
    const std::string out = path("v3");
    const HybridResult r = run(out);

    // Another budget is another question: the set is recomputed
    // (ceil(0.5 * 15) = 8 rows, a superset of the 4 most ambiguous)
    // and overwrites the committed record.
    const fidelity::ErrorProfile empty(testSuite());
    const fidelity::EscalationPlan plan =
        planStandard(r, out, empty, 0.5, out, true);
    EXPECT_EQ(plan.record.budgetFraction, 0.5);
    EXPECT_EQ(plan.record.escalatedCount, 8u);
    for (std::uint64_t row = 0; row < plan.record.rows(); ++row)
        EXPECT_TRUE(!r.escalation.escalated(row) ||
                    plan.record.escalated(row))
            << row;
    EXPECT_EQ(fidelity::readEscalationRecord(out), plan.record);
}

TEST_F(HybridCampaign, SerialAndParallelBitwiseIdentical)
{
    const std::string serial = path("serial");
    const std::string parallel = path("parallel");
    const HybridResult rs = run(serial, 1);
    const HybridResult rp = run(parallel, 8);

    // The escalation SET must not depend on the job count...
    EXPECT_EQ(rs.escalation.escalatedCount,
              rp.escalation.escalatedCount);
    EXPECT_EQ(rs.escalation.bitmap, rp.escalation.bitmap);
    // ...and neither may any artifact byte.
    expectIdenticalArtifacts(serial, rs, parallel, rp);
}

TEST_F(HybridCampaign, DefaultBatchRowsJobsInvariant)
{
    // At the default 64 rows every escalation fits one batch file;
    // its cells still spread over the jobs, and the file, like
    // hybrid.bin, must not depend on how many there were.
    const std::uint64_t rows = HybridOptions{}.batchRows;
    const std::string serial = path("serial");
    const std::string parallel = path("parallel");
    const HybridResult rs = run(serial, 1, rows);
    const HybridResult rp = run(parallel, 4, rows);
    EXPECT_EQ(rs.escalation.escalatedCount, 4u);
    EXPECT_EQ(rp.detailedCellsSimulated, 4u * 2u);
    ASSERT_FALSE(fs::exists(fidelity::fidelityBatchPath(serial, 1)));
    expectIdenticalArtifacts(serial, rs, parallel, rp);
}

TEST_F(HybridCampaign, KillMidEscalationResumesIdentical)
{
    const std::string ref = path("ref");
    const HybridResult rr = run(ref);

    // Kill at the 5th escalated cell: batch 0 (2 rows x 2
    // policies) is committed, batch 1 dies mid-flight.
    const std::string out = path("v3");
    {
        test::FaultInjector fi("fidelity.escalate", 5);
        EXPECT_THROW(run(out), test::InjectedFault);
    }
    EXPECT_FALSE(fidelity::hasHybridReport(out));

    const HybridResult r2 = run(out);
    EXPECT_EQ(r2.detailedCellsResumed, 4u);  // batch 0 survives
    EXPECT_EQ(r2.detailedCellsSimulated, 4u); // batch 1 redone
    EXPECT_EQ(r2.badco.cellsSimulated, 0u);  // phase 1 resumed
    expectIdenticalArtifacts(ref, rr, out, r2);
}

TEST_F(HybridCampaign, KillMidEscalationResumesAtOtherJobCount)
{
    // Killed on one thread, resumed on four: the resumed batch loads
    // before the remaining cells fan out, and every byte matches.
    const std::string ref = path("ref");
    const HybridResult rr = run(ref);

    const std::string out = path("v3");
    {
        test::FaultInjector fi("fidelity.escalate", 5);
        EXPECT_THROW(run(out, 1), test::InjectedFault);
    }
    const HybridResult r2 = run(out, 4);
    EXPECT_EQ(r2.detailedCellsResumed, 4u);
    EXPECT_EQ(r2.detailedCellsSimulated, 4u);
    EXPECT_EQ(r2.badco.cellsSimulated, 0u);
    expectIdenticalArtifacts(ref, rr, out, r2);
}

TEST_F(HybridCampaign, KillAtSpliceBoundaryResumesIdentical)
{
    // Count the reference run's atomic renames; the LAST one is
    // hybrid.bin (the commit point), so arming exactly that hit
    // kills the campaign after every detailed batch landed but
    // before the splice was committed.
    const std::string ref = path("ref");
    std::uint64_t renames = 0;
    HybridResult rr;
    {
        test::FaultInjector count;
        rr = run(ref);
        renames = count.hits("atomic.before-rename");
    }
    ASSERT_GT(renames, 0u);

    const std::string out = path("v3");
    {
        test::FaultInjector fi("atomic.before-rename", renames);
        EXPECT_THROW(run(out), test::InjectedFault);
    }
    EXPECT_FALSE(fidelity::hasHybridReport(out));
    EXPECT_TRUE(fidelity::hasEscalationRecord(out));

    const HybridResult r2 = run(out);
    EXPECT_EQ(r2.detailedCellsSimulated, 0u); // all batches kept
    EXPECT_EQ(r2.detailedCellsResumed, 4u * 2u);
    expectIdenticalArtifacts(ref, rr, out, r2);
}

TEST_F(HybridCampaign, ResumingCompleteRunSimulatesNothing)
{
    const std::string out = path("v3");
    const HybridResult r1 = run(out);
    const HybridResult r2 = run(out);
    EXPECT_EQ(r2.badco.cellsSimulated, 0u);
    EXPECT_EQ(r2.detailedCellsSimulated, 0u);
    EXPECT_EQ(r2.detailedCellsResumed, 4u * 2u);
    EXPECT_EQ(r2.escalation.bitmap, r1.escalation.bitmap);
    EXPECT_EQ(r2.report.meanD, r1.report.meanD);
    expectIdenticalArtifacts(out, r1, out, r2);
}

TEST_F(HybridCampaign, EscalatedCellsMatchPureDetailedCampaign)
{
    // The whole point of campaignCellSeed over the *detailed*
    // fingerprint: an escalated cell is bitwise the cell a pure
    // detailed campaign would have produced.
    const std::string out = path("v3");
    const HybridResult r = run(out);

    const auto suite = testSuite();
    const WorkloadPopulation pop(
        static_cast<std::uint32_t>(suite.size()), 4);
    CampaignOptions copts;
    copts.jobs = 8;
    const Campaign det = runDetailedCampaign(
        WorkloadSet::fullPopulation(pop),
        {PolicyKind::LRU, PolicyKind::DIP}, 4, kUops, CoreConfig{},
        suite, copts);

    std::uint64_t checked = 0;
    const std::uint64_t batches =
        (r.escalation.escalatedCount + 1) / 2;
    for (std::uint64_t b = 0; b < batches; ++b) {
        const fidelity::FidelityBatch batch =
            fidelity::readFidelityBatch(
                out, r.escalation.detailedFingerprint, b);
        for (std::size_t i = 0; i < batch.ranks.size(); ++i) {
            const std::size_t w =
                static_cast<std::size_t>(batch.ranks[i]);
            for (std::size_t p = 0; p < 2; ++p) {
                for (std::uint32_t c = 0; c < 4; ++c) {
                    EXPECT_EQ(batch.ipc[(i * 2 + p) * 4 + c],
                              det.ipc[p][w][c])
                        << "rank " << w << " policy " << p
                        << " core " << c;
                    ++checked;
                }
            }
        }
    }
    EXPECT_EQ(checked, r.escalation.escalatedCount * 2 * 4);
}

/**
 * The headline acceptance scenario: a seeded 4-core DIP-vs-DRRIP
 * campaign where the pure BADCO sweep gets the ranking WRONG (mean
 * d has the opposite sign from the detailed ground truth), and the
 * hybrid — with a profile calibrated from a detailed/BADCO pair —
 * recovers the detailed verdict while escalating no more than 25%
 * of the rows, with the combined error bound containing the
 * detailed mean.  The suite/pair/uops combination was found by a
 * systematic search over suites x policy pairs x uops (see the PR
 * notes); everything here is seeded, so the flip reproduces
 * deterministically.
 */
TEST_F(HybridCampaign, RankingFlipRecoveredWithinBudget)
{
    const std::vector<BenchmarkProfile> suite = {
        test::lightProfile(7), test::heavyProfile(11),
        test::heavyProfile(17)};
    const WorkloadPopulation pop(
        static_cast<std::uint32_t>(suite.size()), 4);
    const PolicyKind x = PolicyKind::DIP;
    const PolicyKind y = PolicyKind::DRRIP;
    const ThroughputMetric m = ThroughputMetric::IPCT;

    // Ground truth: both full-population campaigns.
    CampaignOptions copts;
    copts.jobs = 8;
    BadcoModelStore store(CoreConfig{}, kUops, 5);
    const Campaign bad =
        runBadcoCampaign(WorkloadSet::fullPopulation(pop), {x, y},
                         4, kUops, store, suite, copts);
    const Campaign det = runDetailedCampaign(
        WorkloadSet::fullPopulation(pop), {x, y}, 4, kUops,
        CoreConfig{}, suite, copts);
    auto meanD = [&](const Campaign &c) {
        const auto tx = c.perWorkloadThroughputs(0, m);
        const auto ty = c.perWorkloadThroughputs(1, m);
        double s = 0.0;
        for (std::size_t i = 0; i < tx.size(); ++i)
            s += perWorkloadDifference(m, tx[i], ty[i]);
        return s / static_cast<double>(tx.size());
    };
    const double mBadco = meanD(bad);
    const double mDetailed = meanD(det);
    // The scenario's premise: BADCO alone flips the verdict.
    ASSERT_GT(mBadco, 0.0);
    ASSERT_LT(mDetailed, 0.0);

    // Hybrid with a calibrated profile and a 20% row budget.
    fidelity::ErrorProfile profile(suite);
    fidelity::calibrateProfile(profile, det, bad);
    HybridOptions opts;
    opts.jobs = 8;
    opts.shardCells = 8;
    opts.batchRows = 2;
    opts.quantile = 0.95;
    opts.budgetFraction = 0.2;
    const HybridResult r = runHybridCampaign(
        pop, x, y, m, kUops, store, suite, profile, path("v3"),
        opts);

    // Recovery: the spliced verdict agrees with the detailed sign
    // while pure BADCO does not...
    EXPECT_LT(r.report.meanD, 0.0);
    EXPECT_EQ(r.report.yWins, 0u);
    // ...escalating no more than a quarter of the rows...
    EXPECT_EQ(r.report.escalated, 3u);
    EXPECT_LE(r.report.escalationFraction, 0.25);
    // ...and the combined (sampling + model) bound contains the
    // detailed ground truth.
    EXPECT_LE(r.report.comboLo, mDetailed);
    EXPECT_GE(r.report.comboHi, mDetailed);
}

} // namespace

} // namespace wsel
