/**
 * @file
 * Fault-tolerance tests for campaign persistence: checkpoint/resume
 * via campaign_v3 checkpoint shards under injected kill-points,
 * integrity validation of saved campaign_v3 directories (truncation,
 * bit flips, a killed save, campaign_v2 text, fingerprint drift)
 * with quarantine-and-regenerate semantics, atomic file
 * replacement, and advisory locking across processes.
 */

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <csignal>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#define WSEL_TEST_HAVE_FORK 1
#endif

#include <gtest/gtest.h>

#include "fault_injection.hh"
#include "fidelity/calibrate.hh"
#include "obs/metrics.hh"
#include "sim/campaign.hh"
#include "stats/logging.hh"
#include "stats/persist.hh"
#include "stats/persist_v3.hh"
#include "test_util.hh"

namespace wsel
{

namespace
{

namespace fs = std::filesystem;

constexpr std::uint64_t kUops = 4000;

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

/**
 * Run the 2-policy x 3-workload x 2-core BADCO campaign used
 * throughout these tests, checkpointing to @p checkpoint when
 * non-empty.  Shards hold one workload row (2 cells), so the
 * campaign is 3 shards.  @p model_dir (when non-empty) persists
 * BADCO models so repeated runs in one test skip rebuilding them.
 * @p seed and @p reversed (the same 3 workloads in reverse order)
 * make a different campaign of the same size.
 */
Campaign
runTiny(const std::string &checkpoint = "",
        const std::string &model_dir = "", std::uint64_t seed = 1,
        bool reversed = false)
{
    const auto suite = testSuite();
    const WorkloadPopulation pop(2, 2); // 3 workloads
    BadcoModelStore store(CoreConfig{}, kUops, 5, model_dir);
    std::vector<Workload> workloads = pop.enumerateAll();
    if (reversed)
        std::reverse(workloads.begin(), workloads.end());
    CampaignOptions opts;
    opts.seed = seed;
    opts.shardCells = 2;
    opts.checkpointDir = checkpoint;
    return runBadcoCampaign(workloads, kPolicies, 2, kUops, store,
                            suite, opts);
}

void
expectSameResults(const Campaign &a, const Campaign &b)
{
    ASSERT_EQ(a.policies.size(), b.policies.size());
    ASSERT_EQ(a.workloads.size(), b.workloads.size());
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    for (std::size_t p = 0; p < a.policies.size(); ++p) {
        for (std::size_t w = 0; w < a.workloads.size(); ++w) {
            ASSERT_EQ(a.ipc[p][w].size(), b.ipc[p][w].size());
            for (std::size_t k = 0; k < a.ipc[p][w].size(); ++k) {
                // Bitwise equality: a resumed campaign must be
                // indistinguishable from an uninterrupted one.
                EXPECT_EQ(a.ipc[p][w][k], b.ipc[p][w][k])
                    << "cell (" << p << "," << w << "," << k << ")";
            }
        }
    }
}

/** Per-test scratch directory, also exported as WSEL_CACHE_DIR. */
class Resilience : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = (fs::temp_directory_path() /
                (std::string("wsel_resilience_") + info->name()))
                   .string();
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        setenv("WSEL_CACHE_DIR", dir_.c_str(), 1);
    }

    void
    TearDown() override
    {
        unsetenv("WSEL_CACHE_DIR");
        fs::remove_all(dir_);
    }

    std::string
    path(const std::string &name) const
    {
        return dir_ + "/" + name;
    }

    /**
     * Files in the scratch dir (or its subdirectory @p sub) whose
     * name contains @p needle.
     */
    std::size_t
    countContaining(const std::string &needle,
                    const std::string &sub = "") const
    {
        std::size_t n = 0;
        for (const auto &e :
             fs::directory_iterator(sub.empty() ? dir_ : path(sub)))
            if (e.path().filename().string().find(needle) !=
                std::string::npos)
                ++n;
        return n;
    }

    std::string dir_;
};

// ---------------------------------------------------------------
// Format v3: round trip, integrity, strict-load error reporting.
// ---------------------------------------------------------------

TEST_F(Resilience, SaveLoadRoundTripV3)
{
    const Campaign c = runTiny();
    EXPECT_NE(c.fingerprint, 0u);
    const std::string dir = path("roundtrip");
    c.save(dir);

    // One shard (6 cells) and the manifest, whose rank list holds
    // the explicit workload list.
    EXPECT_TRUE(fs::exists(persist::v3ShardPath(dir, 0)));
    EXPECT_FALSE(fs::exists(persist::v3ShardPath(dir, 1)));
    const persist::V3Manifest m = persist::readV3Manifest(dir);
    EXPECT_EQ(m.fingerprint, c.fingerprint);
    EXPECT_EQ(m.ranks, (std::vector<std::uint64_t>{0, 1, 2}));

    const Campaign r = Campaign::load(dir);
    EXPECT_EQ(r.simulator, c.simulator);
    EXPECT_EQ(r.cores, c.cores);
    EXPECT_EQ(r.targetUops, c.targetUops);
    EXPECT_EQ(r.policies, c.policies);
    EXPECT_EQ(r.benchmarks, c.benchmarks);
    EXPECT_EQ(r.refIpc, c.refIpc);
    EXPECT_TRUE(r.workloads == c.workloads);
    expectSameResults(r, c);
}

TEST_F(Resilience, TextCampaignFilesAreRefused)
{
    // A campaign_v2 text file from an older build is no longer
    // read: fatal when the user names it, quarantined when it sits
    // in a cache.
    const std::string file = path("old.csv");
    {
        std::ofstream os(file, std::ios::binary);
        os << "wsel-campaign,v2\nfingerprint,00000000deadbeef\n";
    }
    try {
        Campaign::load(file);
        FAIL() << "loaded a text campaign";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("campaign_v2"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find(file), std::string::npos)
            << e.what();
    }
    EXPECT_THROW(Campaign::load(file, LoadMode::Cached),
                 persist::CacheInvalid);
    EXPECT_FALSE(fs::exists(file));
    EXPECT_TRUE(fs::exists(file + ".corrupt"));
}

TEST_F(Resilience, TruncationAtEveryByteIsDetected)
{
    const Campaign c = runTiny();
    const std::string dir = path("full");
    c.save(dir);
    for (const std::string &file :
         {persist::v3ManifestPath(dir), persist::v3ShardPath(dir, 0)}) {
        const std::string bytes = test::readFile(file);
        for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
            {
                std::ofstream os(file, std::ios::binary);
                os.write(bytes.data(),
                         static_cast<std::streamsize>(cut));
            }
            EXPECT_THROW(Campaign::load(dir), FatalError)
                << file << " truncated at byte " << cut;
        }
        // Sanity: the untruncated file still loads.
        {
            std::ofstream os(file, std::ios::binary);
            os << bytes;
        }
        EXPECT_NO_THROW(Campaign::load(dir));
    }
}

TEST_F(Resilience, BitFlipFailsChecksum)
{
    const Campaign c = runTiny();
    const std::string dir = path("flip");
    c.save(dir);
    // Flip the low mantissa bit of the last IPC value (the 8 bytes
    // before the checksum): the value stays a plausible double, so
    // only the checksum can catch it.
    const std::string shard = persist::v3ShardPath(dir, 0);
    test::flipBit(shard, test::fileSize(shard) - 16, 0);
    EXPECT_THROW(Campaign::load(dir), FatalError);
}

// ---------------------------------------------------------------
// cachedCampaign: quarantine-and-regenerate, never abort.
// ---------------------------------------------------------------

TEST_F(Resilience, CorruptCacheIsQuarantinedAndRegenerated)
{
    int produced = 0;
    auto produce = [&]() {
        ++produced;
        return runTiny();
    };
    const Campaign a = cachedCampaign(dir_, "resil", 0, produce);
    EXPECT_EQ(produced, 1);
    const std::string cached = path("campaign_v3_resil");
    ASSERT_TRUE(persist::isV3CampaignDir(cached));

    const std::string shard = persist::v3ShardPath(cached, 0);
    test::flipBit(shard, test::fileSize(shard) - 16, 0);

    const Campaign b = cachedCampaign(dir_, "resil", 0, produce);
    EXPECT_EQ(produced, 2);
    EXPECT_EQ(countContaining(".corrupt"), 1u);
    expectSameResults(a, b);
    // The regenerated directory is valid again.
    EXPECT_NO_THROW(Campaign::load(cached));
}

TEST_F(Resilience, TruncatedCacheIsQuarantinedAndRegenerated)
{
    int produced = 0;
    auto produce = [&]() {
        ++produced;
        return runTiny();
    };
    cachedCampaign(dir_, "trunc", 0, produce);
    const std::string manifest =
        persist::v3ManifestPath(path("campaign_v3_trunc"));
    test::truncateFile(manifest, test::fileSize(manifest) / 2);
    cachedCampaign(dir_, "trunc", 0, produce);
    EXPECT_EQ(produced, 2);
    EXPECT_EQ(countContaining(".corrupt"), 1u);
}

TEST_F(Resilience, KilledSaveIsQuarantinedAndResumed)
{
    // A save killed after its shard but before its manifest leaves
    // a directory with no commit point.  The next call quarantines
    // it and finishes from the checkpoint, which the killed call
    // had not yet removed, so no cell runs again.
    const std::string models = path("models");
    const Campaign base = runTiny("", models);
    int produced = 0;
    auto produce = [&](const std::string &checkpoint) {
        ++produced;
        return runTiny(checkpoint, models);
    };
    {
        // Atomic writes: 3 checkpoint shards, then the saved shard.
        test::FaultInjector kill("atomic.after-rename", 4);
        EXPECT_THROW(cachedCampaign(dir_, "killed", 0, produce),
                     test::InjectedFault);
    }
    const std::string cached = path("campaign_v3_killed");
    ASSERT_TRUE(fs::exists(persist::v3ShardPath(cached, 0)));
    ASSERT_FALSE(persist::isV3CampaignDir(cached));
    test::FaultInjector counting;
    const Campaign c = cachedCampaign(dir_, "killed", 0, produce);
    EXPECT_EQ(produced, 2);
    EXPECT_EQ(counting.hits("population.cell"), 0u);
    EXPECT_EQ(countContaining("campaign_v3_killed.corrupt"), 1u);
    expectSameResults(base, c);
    EXPECT_TRUE(persist::isV3CampaignDir(cached));
}

TEST_F(Resilience, FingerprintMismatchIsQuarantinedAndRegenerated)
{
    int produced = 0;
    auto produce = [&]() {
        ++produced;
        return runTiny();
    };
    const Campaign a = cachedCampaign(dir_, "fpr", 0, produce);
    EXPECT_EQ(produced, 1);
    // Same key, different expected fingerprint: the config changed
    // in a way the cache key missed -> re-simulate.
    const Campaign b =
        cachedCampaign(dir_, "fpr", a.fingerprint + 1, produce);
    EXPECT_EQ(produced, 2);
    EXPECT_EQ(countContaining(".corrupt"), 1u);
    // Matching fingerprint is served from cache.
    const Campaign d =
        cachedCampaign(dir_, "fpr", a.fingerprint, produce);
    EXPECT_EQ(produced, 2);
    expectSameResults(b, d);
}

TEST_F(Resilience, VersionSkewedCacheIsQuarantinedAndRegenerated)
{
    int produced = 0;
    auto produce = [&]() {
        ++produced;
        return runTiny();
    };
    const Campaign a = cachedCampaign(dir_, "skew", 0, produce);
    // Replace the cached directory with campaign_v2 text, the
    // format of older builds.
    const std::string cached = path("campaign_v3_skew");
    fs::remove_all(cached);
    {
        std::ofstream os(cached, std::ios::binary);
        os << "wsel-campaign,v2\nfingerprint,"
           << persist::toHex(a.fingerprint) << "\n";
    }
    const Campaign b = cachedCampaign(dir_, "skew", 0, produce);
    EXPECT_EQ(produced, 2);
    EXPECT_EQ(countContaining(".corrupt"), 1u);
    expectSameResults(a, b);
    EXPECT_TRUE(persist::isV3CampaignDir(cached));
}

TEST_F(Resilience, CalibrationCampaignsCacheUnderTheirCacheDir)
{
    // runCalibrationCampaigns caches its pair under its cache_dir
    // argument, with $WSEL_CACHE_DIR (here: caching off) ignored,
    // so a second call is two cache hits and simulates nothing.
    setenv("WSEL_CACHE_DIR", "", 1);
    const auto suite = testSuite();
    const std::string cache = path("calib");
    const auto calibrate = [&] {
        return fidelity::runCalibrationCampaigns(2, kUops, 2, 1, suite,
                                                 kPolicies, cache);
    };
    const fidelity::CalibrationCampaigns first = calibrate();
    obs::enableMetrics();
    const std::uint64_t hits0 =
        obs::counter("persist.cache_hit").value();
    test::FaultInjector counting;
    const fidelity::CalibrationCampaigns second = calibrate();
    const std::uint64_t hits =
        obs::counter("persist.cache_hit").value() - hits0;
    obs::enableMetrics(false);
    EXPECT_EQ(hits, 2u);
    EXPECT_EQ(counting.hits("population.cell"), 0u);
    EXPECT_EQ(counting.hits("fidelity.escalate"), 0u);
    expectSameResults(first.detailed, second.detailed);
    expectSameResults(first.badco, second.badco);
}

// ---------------------------------------------------------------
// Checkpoint/resume: kill-point injection at every cell.
// ---------------------------------------------------------------

TEST_F(Resilience, ResumeAfterKillAtEveryPointMatchesUninterrupted)
{
    const std::string models = path("models");
    const Campaign base = runTiny("", models);
    const std::size_t total =
        base.policies.size() * base.workloads.size();
    ASSERT_EQ(total, 6u);
    constexpr std::size_t kShards = 3; // one row (2 cells) each

    // The only atomic writes of a run with cached models are its
    // shard writes: "atomic.begin" #n kills with shard n simulated
    // but not written, "atomic.after-rename" #n right after shard n
    // is durable, and "population.cell" #n before cell n runs.
    struct Point
    {
        const char *name;
        std::size_t hits;
        std::size_t (*shardsDone)(std::size_t);
    };
    const Point points[] = {
        {"atomic.begin", kShards,
         [](std::size_t n) { return n - 1; }},
        {"atomic.after-rename", kShards,
         [](std::size_t n) { return n; }},
        {"population.cell", total,
         [](std::size_t n) { return (n - 1) / 2; }},
    };
    for (const Point &point : points) {
        for (std::size_t n = 1; n <= point.hits; ++n) {
            const std::string ckpt = path(
                std::string("k_") + point.name + std::to_string(n) +
                ".partial");
            {
                test::FaultInjector kill(point.name, n);
                EXPECT_THROW(runTiny(ckpt, models),
                             test::InjectedFault)
                    << point.name << " #" << n;
            }
            ASSERT_TRUE(fs::is_directory(ckpt));
            // The resumed run must reproduce the uninterrupted
            // campaign bit for bit, and must only simulate the
            // cells of the shards the killed run had not written.
            test::FaultInjector counting;
            const Campaign resumed = runTiny(ckpt, models);
            expectSameResults(base, resumed);
            EXPECT_EQ(counting.hits("population.cell"),
                      total - 2 * point.shardsDone(n))
                << point.name << " #" << n;
        }
    }
}

TEST_F(Resilience, DetailedCampaignResumesToo)
{
    const auto suite = testSuite();
    const WorkloadPopulation pop(2, 2);
    CampaignOptions opts;
    opts.shardCells = 1; // 3 shards of one cell
    const Campaign base =
        runDetailedCampaign(pop.enumerateAll(), {PolicyKind::LRU},
                            2, kUops, CoreConfig{}, suite, opts);
    opts.checkpointDir = path("det.partial");
    {
        // Killed before the second cell: shard 0 is durable.
        test::FaultInjector kill("fidelity.escalate", 2);
        EXPECT_THROW(runDetailedCampaign(pop.enumerateAll(),
                                         {PolicyKind::LRU}, 2,
                                         kUops, CoreConfig{}, suite,
                                         opts),
                     test::InjectedFault);
    }
    test::FaultInjector counting;
    const Campaign resumed = runDetailedCampaign(
        pop.enumerateAll(), {PolicyKind::LRU}, 2, kUops,
        CoreConfig{}, suite, opts);
    expectSameResults(base, resumed);
    EXPECT_EQ(counting.hits("fidelity.escalate"), 2u);
}

TEST_F(Resilience, MismatchedJournalIsQuarantinedAndIgnored)
{
    // A text journal left by an older build sits where the
    // checkpoint directory belongs: it is quarantined with a
    // warning, neither fatal nor silently deleted, and the
    // campaign runs from scratch.
    const std::string models = path("models");
    const Campaign base = runTiny("", models);
    const std::string ckpt = path("stale.partial");
    {
        std::ofstream os(ckpt, std::ios::binary);
        os << "wsel-journal,v2,00000000deadbeef,9,9\n"
           << "r,0,0,1.0;1.0,0.1,1000,0123456789abcdef\n";
    }
    test::FaultInjector counting;
    const Campaign c = runTiny(ckpt, models);
    expectSameResults(base, c);
    EXPECT_EQ(counting.hits("population.cell"), 6u);
    EXPECT_EQ(countContaining("stale.partial.corrupt"), 1u);
    EXPECT_TRUE(fs::is_directory(ckpt));
}

TEST_F(Resilience, CheckpointOfAnotherCampaignIsNotReplayed)
{
    // Run A is killed after two of its three shards; runs B (the
    // same workloads in another order) and C (another seed) have
    // the same size and reuse A's checkpoint path.  Each must equal
    // its own uninterrupted run, simulating every cell.
    const std::string models = path("models");
    const Campaign other_list = runTiny("", models, 1, true);
    const Campaign other_seed = runTiny("", models, 2);
    ASSERT_FALSE(other_list.ipc == runTiny("", models).ipc);
    int variant = 0;
    for (const Campaign *want : {&other_list, &other_seed}) {
        const std::string ckpt =
            path("a" + std::to_string(variant++) + ".partial");
        {
            test::FaultInjector kill("atomic.after-rename", 2);
            EXPECT_THROW(runTiny(ckpt, models), test::InjectedFault);
        }
        test::FaultInjector counting;
        const Campaign got =
            want == &other_list ? runTiny(ckpt, models, 1, true)
                                : runTiny(ckpt, models, 2);
        expectSameResults(*want, got);
        EXPECT_EQ(counting.hits("population.cell"), 6u);
        // A's two shards were quarantined, not replayed.
        EXPECT_EQ(countContaining(".corrupt",
                                  fs::path(ckpt).filename().string()),
                  2u);
    }
}

TEST_F(Resilience, DamagedCheckpointShardIsReSimulated)
{
    const std::string models = path("models");
    const Campaign base = runTiny("", models);
    const std::string ckpt = path("tail.partial");
    {
        test::FaultInjector kill("atomic.after-rename", 2);
        EXPECT_THROW(runTiny(ckpt, models), test::InjectedFault);
    }
    // Cut the tail off the second durable shard.
    const std::string shard = ckpt + "/shard-000001.bin";
    test::truncateFile(shard, test::fileSize(shard) - 5);
    test::FaultInjector counting;
    const Campaign resumed = runTiny(ckpt, models);
    expectSameResults(base, resumed);
    // Shard 0 is reused; shards 1 (damaged) and 2 (missing) rerun.
    EXPECT_EQ(counting.hits("population.cell"), 4u);
    EXPECT_EQ(countContaining(".corrupt", "tail.partial"), 1u);
}

TEST_F(Resilience, CachedCampaignResumesAcrossCalls)
{
    const std::string models = path("models");
    const Campaign base = runTiny("", models);
    int produced = 0;
    auto produce = [&](const std::string &checkpoint) {
        ++produced;
        return runTiny(checkpoint, models);
    };
    {
        test::FaultInjector kill("population.cell", 3);
        EXPECT_THROW(cachedCampaign(dir_, "resume", 0, produce),
                     test::InjectedFault);
    }
    EXPECT_TRUE(fs::is_directory(path("campaign_v3_resume.partial")));
    test::FaultInjector counting;
    const Campaign c = cachedCampaign(dir_, "resume", 0, produce);
    EXPECT_EQ(produced, 2);
    expectSameResults(base, c);
    EXPECT_EQ(counting.hits("population.cell"), 4u); // 6 cells - 2
    // Final artifact present, checkpoint directory cleaned up.
    EXPECT_TRUE(persist::isV3CampaignDir(path("campaign_v3_resume")));
    EXPECT_FALSE(fs::exists(path("campaign_v3_resume.partial")));
    // A third call serves the cache without any simulation.
    const Campaign d = cachedCampaign(dir_, "resume", 0, produce);
    EXPECT_EQ(produced, 2);
    expectSameResults(c, d);
}

// ---------------------------------------------------------------
// Atomic replacement, quarantine, locking, cache dir creation.
// ---------------------------------------------------------------

TEST_F(Resilience, AtomicWriteKilledBeforeRenameKeepsOldContents)
{
    const std::string file = path("atomic.txt");
    persist::atomicWriteFile(file, "generation-1");
    {
        test::FaultInjector kill("atomic.before-rename", 1);
        EXPECT_THROW(persist::atomicWriteFile(file, "generation-2"),
                     test::InjectedFault);
    }
    EXPECT_EQ(test::readFile(file), "generation-1");
    persist::atomicWriteFile(file, "generation-2");
    EXPECT_EQ(test::readFile(file), "generation-2");
}

#ifdef WSEL_TEST_HAVE_FORK
TEST_F(Resilience, AtomicWriteFailureRemovesTempFile)
{
    // A write that fails part-way (here EFBIG from RLIMIT_FSIZE,
    // standing in for ENOSPC) must leave the destination untouched
    // and remove the partial temporary file.  The limit is set in a
    // child so the test process keeps its own.
    const std::string file = path("limited.bin");
    persist::atomicWriteFile(file, "generation-1");
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::signal(SIGXFSZ, SIG_IGN);
        rlimit lim{};
        ::getrlimit(RLIMIT_FSIZE, &lim);
        lim.rlim_cur = 4096;
        if (::setrlimit(RLIMIT_FSIZE, &lim) != 0)
            ::_exit(3);
        try {
            persist::atomicWriteFile(file,
                                     std::string(1 << 20, 'x'));
        } catch (const FatalError &) {
            ::_exit(0);
        } catch (...) {
            ::_exit(2);
        }
        ::_exit(1);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0)
        << "1: the oversized write succeeded; 2: it threw something "
           "other than FatalError; 3: setrlimit failed";
    EXPECT_EQ(test::readFile(file), "generation-1");
    for (const auto &e : fs::directory_iterator(dir_))
        EXPECT_EQ(e.path().filename().string().find(".tmp."),
                  std::string::npos)
            << "leftover temporary file " << e.path();
}
#endif

TEST_F(Resilience, QuarantineRenamesWithoutDeleting)
{
    const std::string file = path("artifact.bin");
    persist::atomicWriteFile(file, "payload");
    const std::string moved = persist::quarantineFile(file);
    EXPECT_EQ(moved, file + ".corrupt");
    EXPECT_FALSE(fs::exists(file));
    EXPECT_EQ(test::readFile(moved), "payload");
    // A second corrupt generation gets a numbered suffix.
    persist::atomicWriteFile(file, "payload2");
    const std::string moved2 = persist::quarantineFile(file);
    EXPECT_EQ(moved2, file + ".corrupt.1");

    // With every name up to .corrupt.99 taken, no earlier copy is
    // replaced: the artifact stays in place.
    for (int n = 2; n < 100; ++n)
        persist::atomicWriteFile(file + ".corrupt." + std::to_string(n),
                                 "copy" + std::to_string(n));
    persist::atomicWriteFile(file, "payload100");
    EXPECT_EQ(persist::quarantineFile(file), "");
    EXPECT_EQ(test::readFile(file), "payload100");
    EXPECT_EQ(test::readFile(moved), "payload");
    EXPECT_EQ(test::readFile(moved2), "payload2");
    for (int n = 2; n < 100; ++n)
        EXPECT_EQ(test::readFile(file + ".corrupt." + std::to_string(n)),
                  "copy" + std::to_string(n));

    // A campaign directory is renamed whole.
    const std::string dir = path("campaign");
    runTiny().save(dir);
    EXPECT_EQ(persist::quarantineFile(dir), dir + ".corrupt");
    EXPECT_TRUE(persist::isV3CampaignDir(dir + ".corrupt"));
}

TEST_F(Resilience, FileLockExcludesSecondHolder)
{
    const std::string lockfile = path("x.lock");
    persist::FileLock held(lockfile);
    ASSERT_TRUE(held.held());
    // A second open file description cannot take the lock...
    persist::FileLock second =
        persist::FileLock::tryAcquire(lockfile);
    EXPECT_FALSE(second.held());
    // ...until the first holder releases it.
    held.release();
    persist::FileLock third =
        persist::FileLock::tryAcquire(lockfile);
    EXPECT_TRUE(third.held());
}

#ifdef WSEL_TEST_HAVE_FORK
TEST_F(Resilience, FileLockExcludesAcrossProcesses)
{
    const std::string lockfile = path("proc.lock");
    persist::FileLock held(lockfile);
    ASSERT_TRUE(held.held());
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: the parent's lock must exclude us.
        persist::FileLock mine =
            persist::FileLock::tryAcquire(lockfile);
        ::_exit(mine.held() ? 1 : 0);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "child acquired a lock the parent held";

    held.release();
    pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        persist::FileLock mine =
            persist::FileLock::tryAcquire(lockfile);
        ::_exit(mine.held() ? 0 : 1);
    }
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "child failed to acquire a released lock";
}
#endif

TEST_F(Resilience, DefaultCacheDirCreatesDirectory)
{
    const std::string nested = path("nested/a/b");
    setenv("WSEL_CACHE_DIR", nested.c_str(), 1);
    EXPECT_EQ(defaultCacheDir(), nested);
    EXPECT_TRUE(fs::is_directory(nested));
    setenv("WSEL_CACHE_DIR", "", 1);
    EXPECT_EQ(defaultCacheDir(), "");
}

TEST_F(Resilience, CorruptModelCacheIsQuarantinedAndRebuilt)
{
    const auto profile = test::lightProfile(7);
    {
        BadcoModelStore store(CoreConfig{}, kUops, 5, dir_);
        store.get(profile);
        EXPECT_EQ(store.modelsBuilt(), 1u);
    }
    // Find and damage the persisted model.
    std::string model_file;
    for (const auto &e : fs::directory_iterator(dir_)) {
        const std::string name = e.path().filename().string();
        if (name.rfind("badco_", 0) == 0 &&
            name.find(".bin") != std::string::npos)
            model_file = e.path().string();
    }
    ASSERT_FALSE(model_file.empty());
    test::truncateFile(model_file, 16);
    // A fresh store must rebuild instead of aborting.
    BadcoModelStore store2(CoreConfig{}, kUops, 5, dir_);
    const BadcoModel &m = store2.get(profile);
    EXPECT_EQ(store2.modelsBuilt(), 1u);
    EXPECT_EQ(m.traceUops, kUops);
    EXPECT_EQ(countContaining(".corrupt"), 1u);
    // And the rewritten cache is valid for the next store.
    BadcoModelStore store3(CoreConfig{}, kUops, 5, dir_);
    store3.get(profile);
    EXPECT_EQ(store3.modelsBuilt(), 0u);
}

} // namespace
} // namespace wsel
