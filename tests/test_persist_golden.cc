/**
 * @file
 * Byte-level pins of the eight checksummed binary artifacts: the
 * campaign_v3 manifest (of a rank range and of a sampled campaign's
 * rank list) and shard, the adaptive batch and decision,
 * and the error profile, escalation record, fidelity batch and
 * hybrid report.  Each row writes one fixed record through the
 * public writer; PersistGolden pins the size and FNV-1a of the
 * bytes, so any change to an encoder that alters a file (field
 * order, width, endianness, checksum) fails here before it can
 * invalidate caches and result stores written by earlier builds.
 *
 * SealedFileDamage runs the same rows through the damage every
 * reader must refuse: every prefix truncation, every single-bit
 * flip, trailing bytes under a re-sealed checksum, and a missing
 * file must each raise CacheInvalid.
 */

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/adaptive/controller.hh"
#include "fidelity/error_profile.hh"
#include "fidelity/persist_fidelity.hh"
#include "stats/persist.hh"
#include "stats/persist_adaptive.hh"
#include "stats/persist_v3.hh"

namespace wsel
{

namespace
{

namespace fs = std::filesystem;

/** One artifact format: how to write its fixed record, and read it. */
struct Artifact
{
    const char *name;
    /** Write the fixed record into a directory; returns its path. */
    std::function<std::string(const std::string &dir)> write;
    /** Read it back through the public reader (throws on damage). */
    std::function<void(const std::string &dir)> read;
};

persist::V3Manifest
fixedManifest()
{
    persist::V3Manifest m;
    m.fingerprint = 0xfeedface12345678ULL;
    m.simulator = "badco";
    m.cores = 2;
    m.targetUops = 50000;
    m.simSeconds = 1.5;
    m.instructions = 123456;
    m.policies = {"LRU", "DIP"};
    m.benchmarks = {"alpha", "beta", "gamma"};
    m.refIpc = {1.0, 0.9, 1.1};
    m.popBenchmarks = 3;
    m.popCores = 2;
    m.firstRank = 0;
    m.lastRank = 6;
    m.shardRows = 4; // shard 1 is the short tail: 2 rows
    return m;
}

/** The same campaign as a sampled list: the manifest's rank list. */
persist::V3Manifest
fixedRankManifest()
{
    persist::V3Manifest m = fixedManifest();
    m.ranks = {5, 0, 3, 3, 1, 4};
    return m;
}

std::vector<double>
fixedShardPayload()
{
    // rowsInShard(1) x policies x cores = 2 x 2 x 2.
    std::vector<double> p(8);
    for (std::size_t i = 0; i < p.size(); ++i)
        p[i] = 0.25 + 0.125 * static_cast<double>(i);
    return p;
}

persist::AdaptiveBatch
fixedAdaptiveBatch()
{
    persist::AdaptiveBatch b;
    b.fingerprint = 0xfeed;
    b.index = 3;
    b.firstPosition = 12;
    b.ranks = {5, 9, 2, 2};
    b.d = {0.5, -0.25, 0.0, 1.5};
    return b;
}

persist::AdaptiveDecisionRecord
fixedAdaptiveDecision()
{
    persist::AdaptiveDecisionRecord d;
    d.fingerprint = 0xabc;
    d.reason = static_cast<std::uint8_t>(StopReason::TargetReached);
    d.yWins = 1;
    d.method = "ranked-set";
    d.batches = 4;
    d.workloads = 256;
    d.confidence = 0.981;
    d.cv = 2.5;
    d.target = 0.977;
    d.trajectory = {0.6, 0.8, 0.95, 0.981};
    return d;
}

fidelity::ErrorProfile
fixedErrorProfile()
{
    fidelity::ErrorProfile p(
        0xabcdef1234567890ULL, {"alpha", "beta", "gamma"},
        {MpkiClass::Low, MpkiClass::Medium, MpkiClass::High}, 8);
    p.record(0, 1.00, 1.02);
    p.record(0, 0.97, 1.00);
    p.record(1, 0.88, 0.95);
    p.record(2, 0.70, 0.81);
    p.markApplied(42);
    return p;
}

fidelity::EscalationRecord
fixedEscalationRecord()
{
    fidelity::EscalationRecord rec;
    rec.badcoFingerprint = 0x1111222233334444ULL;
    rec.detailedFingerprint = 0x5555666677778888ULL;
    rec.seed = 7;
    rec.metric = "IPCT";
    rec.policyX = "LRU";
    rec.policyY = "DIP";
    rec.quantile = 0.95;
    rec.budgetFraction = 0.25;
    rec.threshold = 0.0;
    rec.firstRank = 0;
    rec.lastRank = 11;
    rec.resizeBitmap();
    rec.setEscalated(1);
    rec.setEscalated(4);
    rec.setEscalated(9);
    rec.escalatedCount = 3;
    return rec;
}

fidelity::FidelityBatch
fixedFidelityBatch()
{
    fidelity::FidelityBatch b;
    b.detailedFingerprint = 0x5555666677778888ULL;
    b.index = 2;
    b.firstOrdinal = 6;
    b.cores = 2;
    b.numPolicies = 2;
    b.ranks = {3, 5, 8};
    b.ipc.resize(3 * 2 * 2);
    for (std::size_t i = 0; i < b.ipc.size(); ++i)
        b.ipc[i] = 0.5 + 0.01 * static_cast<double>(i);
    return b;
}

fidelity::HybridReportRecord
fixedHybridReport()
{
    fidelity::HybridReportRecord rep;
    rep.badcoFingerprint = 0x1111222233334444ULL;
    rep.detailedFingerprint = 0x5555666677778888ULL;
    rep.metric = "IPCT";
    rep.policyX = "LRU";
    rep.policyY = "DIP";
    rep.workloads = 11;
    rep.escalated = 3;
    rep.escalationFraction = 3.0 / 11.0;
    rep.meanD = 0.012;
    rep.sigma = 0.004;
    rep.se = 0.0012;
    rep.cv = 0.33;
    rep.confidence = 0.96;
    rep.modelLo = -0.002;
    rep.modelHi = 0.002;
    rep.comboLo = 0.007;
    rep.comboHi = 0.017;
    rep.yWins = 1;
    return rep;
}

const std::vector<Artifact> &
artifacts()
{
    static const std::vector<Artifact> rows = {
        {"v3-manifest",
         [](const std::string &dir) {
             persist::writeV3Manifest(dir, fixedManifest());
             return persist::v3ManifestPath(dir);
         },
         [](const std::string &dir) {
             (void)persist::readV3Manifest(dir);
         }},
        {"v3-rank-manifest",
         [](const std::string &dir) {
             persist::writeV3Manifest(dir, fixedRankManifest());
             return persist::v3ManifestPath(dir);
         },
         [](const std::string &dir) {
             (void)persist::readV3Manifest(dir);
         }},
        {"v3-shard",
         [](const std::string &dir) {
             persist::writeV3Shard(dir, fixedManifest(), 1,
                                   fixedShardPayload());
             return persist::v3ShardPath(dir, 1);
         },
         [](const std::string &dir) {
             (void)persist::readV3Shard(dir, fixedManifest(), 1);
         }},
        {"adaptive-batch",
         [](const std::string &dir) {
             persist::writeAdaptiveBatch(dir, fixedAdaptiveBatch());
             return persist::adaptiveBatchPath(dir, 3);
         },
         [](const std::string &dir) {
             (void)persist::readAdaptiveBatch(dir, 0xfeed, 3);
         }},
        {"adaptive-decision",
         [](const std::string &dir) {
             persist::writeAdaptiveDecision(dir,
                                            fixedAdaptiveDecision());
             return persist::adaptiveDecisionPath(dir);
         },
         [](const std::string &dir) {
             (void)persist::readAdaptiveDecision(dir);
         }},
        {"error-profile",
         [](const std::string &dir) {
             const std::string path = fidelity::errorProfilePath(dir);
             fidelity::writeErrorProfile(path, fixedErrorProfile());
             return path;
         },
         [](const std::string &dir) {
             (void)fidelity::readErrorProfile(
                 fidelity::errorProfilePath(dir));
         }},
        {"escalation-record",
         [](const std::string &dir) {
             fidelity::writeEscalationRecord(dir,
                                             fixedEscalationRecord());
             return fidelity::escalationRecordPath(dir);
         },
         [](const std::string &dir) {
             (void)fidelity::readEscalationRecord(dir);
         }},
        {"fidelity-batch",
         [](const std::string &dir) {
             fidelity::writeFidelityBatch(dir, fixedFidelityBatch());
             return fidelity::fidelityBatchPath(dir, 2);
         },
         [](const std::string &dir) {
             (void)fidelity::readFidelityBatch(
                 dir, 0x5555666677778888ULL, 2);
         }},
        {"hybrid-report",
         [](const std::string &dir) {
             fidelity::writeHybridReport(dir, fixedHybridReport());
             return fidelity::hybridReportPath(dir);
         },
         [](const std::string &dir) {
             (void)fidelity::readHybridReport(dir);
         }},
    };
    return rows;
}

std::string
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** Replace the trailing FNV-1a with the checksum of what precedes it. */
std::string
reseal(std::string bytes)
{
    bytes.resize(bytes.size() - 8);
    const std::uint64_t sum = persist::fnv1a(bytes);
    for (int i = 0; i < 8; ++i)
        bytes.push_back(static_cast<char>((sum >> (8 * i)) & 0xff));
    return bytes;
}

class PersistGolden : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = (fs::temp_directory_path() /
                (std::string("wsel_persist_golden_") + info->name()))
                   .string();
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    std::string dir_;
};

struct Pin
{
    const char *name;
    std::size_t size;
    std::uint64_t fnv;
};

// Recorded from the encoders before they were moved onto the shared
// sealed-file codec (the rank-list manifest: when it was added).
// These constants must never change: a new value means files
// written by earlier builds no longer read back.
constexpr Pin kPins[] = {
    {"v3-manifest", 169, 0x36c1c80c0de96c7dULL},
    {"v3-rank-manifest", 225, 0xfb1fadcfbd1ffee9ULL},
    {"v3-shard", 116, 0xbfd629fbe994a61dULL},
    {"adaptive-batch", 116, 0x9d02418ca91271d2ULL},
    {"adaptive-decision", 120, 0x96134265ea95acb2ULL},
    {"error-profile", 369, 0x62939952b3894373ULL},
    {"escalation-record", 116, 0xab459926904f759bULL},
    {"fidelity-batch", 172, 0x49589dd465e511f2ULL},
    {"hybrid-report", 155, 0xcc60c7502907d223ULL},
};

TEST_F(PersistGolden, EveryArtifactBytesPinned)
{
    const auto &rows = artifacts();
    ASSERT_EQ(rows.size(), std::size(kPins));
    for (std::size_t i = 0; i < rows.size(); ++i) {
        SCOPED_TRACE(rows[i].name);
        ASSERT_STREQ(rows[i].name, kPins[i].name);
        const std::string bytes = readBytes(rows[i].write(dir_));
        EXPECT_EQ(bytes.size(), kPins[i].size);
        EXPECT_EQ(persist::fnv1a(bytes), kPins[i].fnv)
            << "0x" << persist::toHex(persist::fnv1a(bytes));
    }
}

class SealedFileDamage : public PersistGolden
{};

TEST_F(SealedFileDamage, EveryArtifactRejectsEveryDamage)
{
    for (const Artifact &a : artifacts()) {
        SCOPED_TRACE(a.name);
        const std::string path = a.write(dir_);
        const std::string full = readBytes(path);
        ASSERT_GT(full.size(), 20u);
        const auto rejected = [&](const std::string &bytes) {
            writeBytes(path, bytes);
            try {
                a.read(dir_);
            } catch (const persist::CacheInvalid &) {
                return true;
            }
            return false;
        };

        for (std::size_t len = 0; len < full.size(); ++len)
            EXPECT_TRUE(rejected(full.substr(0, len)))
                << "accepted a file truncated to " << len << " of "
                << full.size() << " bytes";
        // The checksum covers every byte before it and is itself
        // compared, so any single flipped bit must be caught.
        for (std::size_t byte = 0; byte < full.size(); ++byte) {
            for (int bit = 0; bit < 8; ++bit) {
                std::string damaged = full;
                damaged[byte] =
                    static_cast<char>(damaged[byte] ^ (1 << bit));
                EXPECT_TRUE(rejected(damaged))
                    << "byte " << byte << " bit " << bit;
            }
        }
        // Bytes appended to the body, with a checksum that matches
        // them: only the schema's own end check can refuse these.
        for (const std::size_t extra : {1u, 8u}) {
            std::string longer = full;
            longer.insert(full.size() - 8, std::string(extra, '\0'));
            EXPECT_TRUE(rejected(reseal(longer)))
                << extra << " trailing bytes";
        }

        writeBytes(path, full);
        EXPECT_NO_THROW(a.read(dir_));
        fs::remove(path);
        EXPECT_THROW(a.read(dir_), persist::CacheInvalid)
            << "missing file";
    }
}

} // namespace

} // namespace wsel
