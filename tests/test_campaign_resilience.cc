/**
 * @file
 * Fault-tolerance tests for campaign persistence: checkpoint/resume
 * via the journal under injected kill-points, integrity validation
 * (truncation, bit flips, version skew, fingerprint drift) with
 * quarantine-and-regenerate semantics, atomic file replacement, and
 * advisory locking across processes.
 */

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
#include "sim/campaign.hh"
#include "stats/logging.hh"
#include "stats/persist.hh"
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
 * throughout these tests, journaling to @p journal when non-empty.
 * @p model_dir (when non-empty) persists BADCO models so repeated
 * runs in one test skip rebuilding them.
 */
Campaign
runTiny(const std::string &journal = "",
        const std::string &model_dir = "")
{
    const auto suite = testSuite();
    const WorkloadPopulation pop(2, 2); // 3 workloads
    BadcoModelStore store(CoreConfig{}, kUops, 5, model_dir);
    CampaignOptions opts;
    opts.journalPath = journal;
    return runBadcoCampaign(pop.enumerateAll(), kPolicies, 2, kUops,
                            store, suite, opts);
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

    /** Files in the scratch dir whose name contains @p needle. */
    std::size_t
    countContaining(const std::string &needle) const
    {
        std::size_t n = 0;
        for (const auto &e : fs::directory_iterator(dir_))
            if (e.path().filename().string().find(needle) !=
                std::string::npos)
                ++n;
        return n;
    }

    std::string dir_;
};

// ---------------------------------------------------------------
// Format v2: round trip, integrity, strict-load error reporting.
// ---------------------------------------------------------------

TEST_F(Resilience, SaveLoadRoundTripV2)
{
    const Campaign c = runTiny();
    EXPECT_NE(c.fingerprint, 0u);
    const std::string file = path("roundtrip.csv");
    c.save(file);

    const std::string text = test::readFile(file);
    EXPECT_EQ(text.rfind("wsel-campaign,v2\n", 0), 0u);
    EXPECT_NE(text.find("\nfingerprint,"), std::string::npos);
    EXPECT_NE(text.find("\nfooter,"), std::string::npos);

    const Campaign r = Campaign::load(file);
    EXPECT_EQ(r.formatVersion, 2);
    EXPECT_EQ(r.simulator, c.simulator);
    EXPECT_EQ(r.cores, c.cores);
    EXPECT_EQ(r.targetUops, c.targetUops);
    EXPECT_EQ(r.policies, c.policies);
    EXPECT_EQ(r.benchmarks, c.benchmarks);
    expectSameResults(r, c);
}

TEST_F(Resilience, LegacyV1StillLoadsStrict)
{
    const Campaign c = runTiny();
    const std::string file = path("legacy.csv");
    c.save(file);
    // Down-convert the saved v2 file to v1: drop the fingerprint
    // line and the footer, and rewrite the version tag.
    std::string text = test::readFile(file);
    const auto fp_at = text.find("fingerprint,");
    const auto fp_end = text.find('\n', fp_at);
    text.erase(fp_at, fp_end - fp_at + 1);
    const auto foot_at = text.rfind("footer,");
    text.erase(foot_at);
    text.replace(text.find("v2"), 2, "v1");
    const std::string v1 = path("legacy_v1.csv");
    {
        std::ofstream os(v1, std::ios::binary);
        os << text;
    }
    const Campaign r = Campaign::load(v1);
    EXPECT_EQ(r.formatVersion, 1);
    EXPECT_EQ(r.fingerprint, 0u);
    ASSERT_EQ(r.workloads.size(), c.workloads.size());
    for (std::size_t p = 0; p < c.policies.size(); ++p)
        for (std::size_t w = 0; w < c.workloads.size(); ++w)
            EXPECT_EQ(r.ipc[p][w], c.ipc[p][w]);
}

TEST_F(Resilience, MalformedNumericFieldsAreFatalNotStdExceptions)
{
    // v1 has no checksum, so malformed fields reach the numeric
    // parsers directly; each must surface as FatalError (with file
    // and line context), never as a raw std::invalid_argument or
    // std::out_of_range escaping std::stoull/std::stod.
    const std::string base = "wsel-campaign,v1\n"
                             "simulator,badco\n"
                             "cores,2\n"
                             "target,4000\n"
                             "simseconds,0.5\n"
                             "instructions,48000\n"
                             "policies,LRU;DIP\n"
                             "benchmarks,a;b\n"
                             "refipc,1.0;2.0\n"
                             "nworkloads,1\n"
                             "w,0;1\n"
                             "i,0,0,1.0;1.0\n"
                             "i,1,0,1.0;1.0\n";
    const struct
    {
        std::string from, to;
    } cases[] = {
        {"cores,2", "cores,two"},
        {"cores,2", "cores,-2"},
        {"target,4000", "target,40x0"},
        {"target,4000", "target,99999999999999999999999"},
        {"simseconds,0.5", "simseconds,fast"},
        {"instructions,48000", "instructions,"},
        {"refipc,1.0;2.0", "refipc,1.0;two"},
        {"nworkloads,1", "nworkloads,one"},
        {"w,0;1", "w,0;x"},
        {"i,0,0,1.0;1.0", "i,zero,0,1.0;1.0"},
        {"i,0,0,1.0;1.0", "i,0,0,1.0;oops"},
        {"policies,LRU;DIP", "policies,LRU;BOGUS"},
    };
    int idx = 0;
    for (const auto &tc : cases) {
        std::string text = base;
        const auto at = text.find(tc.from);
        ASSERT_NE(at, std::string::npos) << tc.from;
        text.replace(at, tc.from.size(), tc.to);
        const std::string file =
            path("malformed_" + std::to_string(idx++) + ".csv");
        {
            std::ofstream os(file, std::ios::binary);
            os << text;
        }
        try {
            Campaign::load(file);
            FAIL() << "loaded malformed file: " << tc.to;
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(file),
                      std::string::npos)
                << "error lacks file context: " << e.what();
        }
    }
}

TEST_F(Resilience, TruncationAtEveryByteIsDetected)
{
    const Campaign c = runTiny();
    const std::string file = path("full.csv");
    c.save(file);
    const std::string text = test::readFile(file);
    const std::string cut_file = path("cut.csv");
    for (std::size_t cut = 0; cut < text.size(); ++cut) {
        {
            std::ofstream os(cut_file, std::ios::binary);
            os.write(text.data(),
                     static_cast<std::streamsize>(cut));
        }
        EXPECT_THROW(Campaign::load(cut_file), FatalError)
            << "truncation at byte " << cut << " went undetected";
    }
    // Sanity: the untruncated file still loads.
    {
        std::ofstream os(cut_file, std::ios::binary);
        os << text;
    }
    EXPECT_NO_THROW(Campaign::load(cut_file));
}

TEST_F(Resilience, BitFlipFailsChecksum)
{
    const Campaign c = runTiny();
    const std::string file = path("flip.csv");
    c.save(file);
    // Flip a low bit of a digit inside an IPC row: the value stays
    // parseable, so only the checksum can catch it.
    const std::string text = test::readFile(file);
    const auto row = text.find("\ni,0,0,");
    ASSERT_NE(row, std::string::npos);
    test::flipBit(file, row + 8, 0); // a digit of the first value
    EXPECT_THROW(Campaign::load(file), FatalError);
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
    const Campaign a = cachedCampaign("resil", 0, produce);
    EXPECT_EQ(produced, 1);
    const std::string file = path("campaign_v2_resil.csv");
    ASSERT_TRUE(fs::exists(file));

    const auto row = test::readFile(file).find("\ni,0,0,");
    ASSERT_NE(row, std::string::npos);
    test::flipBit(file, row + 8, 0);

    const Campaign b = cachedCampaign("resil", 0, produce);
    EXPECT_EQ(produced, 2);
    EXPECT_EQ(countContaining(".corrupt"), 1u);
    expectSameResults(a, b);
    // The regenerated file is valid again.
    EXPECT_NO_THROW(Campaign::load(file));
}

TEST_F(Resilience, TruncatedCacheIsQuarantinedAndRegenerated)
{
    int produced = 0;
    auto produce = [&]() {
        ++produced;
        return runTiny();
    };
    cachedCampaign("trunc", 0, produce);
    const std::string file = path("campaign_v2_trunc.csv");
    test::truncateFile(file, test::fileSize(file) / 2);
    cachedCampaign("trunc", 0, produce);
    EXPECT_EQ(produced, 2);
    EXPECT_EQ(countContaining(".corrupt"), 1u);
}

TEST_F(Resilience, FingerprintMismatchIsQuarantinedAndRegenerated)
{
    int produced = 0;
    auto produce = [&]() {
        ++produced;
        return runTiny();
    };
    const Campaign a = cachedCampaign("fpr", 0, produce);
    EXPECT_EQ(produced, 1);
    // Same key, different expected fingerprint: the config changed
    // in a way the filename key missed -> re-simulate.
    const Campaign b =
        cachedCampaign("fpr", a.fingerprint + 1, produce);
    EXPECT_EQ(produced, 2);
    EXPECT_EQ(countContaining(".corrupt"), 1u);
    // Matching fingerprint is served from cache.
    const Campaign d =
        cachedCampaign("fpr", a.fingerprint, produce);
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
    const Campaign a = cachedCampaign("skew", 0, produce);
    const std::string file = path("campaign_v2_skew.csv");
    // Replace the cache with a valid *v1* file (old format).
    std::string text = test::readFile(file);
    const auto fp_at = text.find("fingerprint,");
    text.erase(fp_at, text.find('\n', fp_at) - fp_at + 1);
    text.erase(text.rfind("footer,"));
    text.replace(text.find("v2"), 2, "v1");
    {
        std::ofstream os(file, std::ios::binary);
        os << text;
    }
    const Campaign b = cachedCampaign("skew", 0, produce);
    EXPECT_EQ(produced, 2);
    EXPECT_EQ(countContaining(".corrupt"), 1u);
    expectSameResults(a, b);
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

    for (const char *point :
         {"journal.append", "journal.before-append"}) {
        for (std::size_t n = 1; n <= total; ++n) {
            const std::string journal =
                path(std::string("j_") + (point[8] == 'a' ? "a" : "b") +
                     std::to_string(n) + ".partial");
            {
                test::FaultInjector kill(point, n);
                EXPECT_THROW(runTiny(journal, models),
                             test::InjectedFault)
                    << point << " #" << n;
            }
            ASSERT_TRUE(fs::exists(journal));
            // The resumed run must reproduce the uninterrupted
            // campaign bit for bit, and must only simulate the
            // cells the killed run had not completed.
            test::FaultInjector counting;
            const Campaign resumed = runTiny(journal, models);
            expectSameResults(base, resumed);
            const std::size_t completed_before_kill =
                std::string(point) == "journal.append"
                    ? n          // killed after the nth record
                    : n - 1;     // killed before writing the nth
            EXPECT_EQ(counting.hits("journal.append"),
                      total - completed_before_kill)
                << point << " #" << n;
        }
    }
}

TEST_F(Resilience, DetailedCampaignResumesToo)
{
    const auto suite = testSuite();
    const WorkloadPopulation pop(2, 2);
    CampaignOptions opts;
    const Campaign base =
        runDetailedCampaign(pop.enumerateAll(), {PolicyKind::LRU},
                            2, kUops, CoreConfig{}, suite, opts);
    const std::string journal = path("det.partial");
    opts.journalPath = journal;
    {
        test::FaultInjector kill("journal.append", 1);
        EXPECT_THROW(runDetailedCampaign(pop.enumerateAll(),
                                         {PolicyKind::LRU}, 2,
                                         kUops, CoreConfig{}, suite,
                                         opts),
                     test::InjectedFault);
    }
    const Campaign resumed = runDetailedCampaign(
        pop.enumerateAll(), {PolicyKind::LRU}, 2, kUops,
        CoreConfig{}, suite, opts);
    expectSameResults(base, resumed);
}

TEST_F(Resilience, MismatchedJournalIsQuarantinedAndIgnored)
{
    const std::string models = path("models");
    const Campaign base = runTiny("", models);
    const std::string journal = path("stale.partial");
    {
        std::ofstream os(journal, std::ios::binary);
        os << "wsel-journal,v2,00000000deadbeef,9,9\n"
           << "r,0,0,1.0;1.0,0.1,1000,0123456789abcdef\n";
    }
    const Campaign c = runTiny(journal, models);
    expectSameResults(base, c);
    EXPECT_EQ(countContaining("stale.partial.corrupt"), 1u);
}

TEST_F(Resilience, DamagedJournalTailIsDroppedOnResume)
{
    const std::string models = path("models");
    const Campaign base = runTiny("", models);
    const std::string journal = path("tail.partial");
    {
        test::FaultInjector kill("journal.append", 3);
        EXPECT_THROW(runTiny(journal, models), test::InjectedFault);
    }
    // Simulate a record half-written at the kill: valid prefix,
    // garbage tail (no trailing checksum, no newline).
    {
        std::ofstream os(journal,
                         std::ios::binary | std::ios::app);
        os << "r,1,2,0.73";
    }
    const Campaign resumed = runTiny(journal, models);
    expectSameResults(base, resumed);
}

TEST_F(Resilience, CachedCampaignResumesAcrossCalls)
{
    const std::string models = path("models");
    const Campaign base = runTiny("", models);
    int produced = 0;
    auto produce = [&](const std::string &journal) {
        ++produced;
        return runTiny(journal, models);
    };
    {
        test::FaultInjector kill("journal.append", 2);
        EXPECT_THROW(cachedCampaign("resume", 0, produce),
                     test::InjectedFault);
    }
    EXPECT_TRUE(
        fs::exists(path("campaign_v2_resume.csv.partial")));
    test::FaultInjector counting;
    const Campaign c = cachedCampaign("resume", 0, produce);
    EXPECT_EQ(produced, 2);
    expectSameResults(base, c);
    EXPECT_EQ(counting.hits("journal.append"), 4u); // 6 cells - 2
    // Final artifact present, journal cleaned up.
    EXPECT_TRUE(fs::exists(path("campaign_v2_resume.csv")));
    EXPECT_FALSE(
        fs::exists(path("campaign_v2_resume.csv.partial")));
    // A third call serves the cache without any simulation.
    const Campaign d = cachedCampaign("resume", 0, produce);
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
