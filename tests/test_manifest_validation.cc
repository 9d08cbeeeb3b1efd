/**
 * @file
 * Hostile-input tests for the campaign_v3 manifest reader: a
 * manifest is untrusted disk input (truncation, bit rot, a crafted
 * write), so readV3Manifest must answer every damaged byte stream
 * with CacheInvalid — never a crash, a giant allocation, or an
 * overflowed size computation.  Fuzz-ish coverage: every prefix
 * truncation, every single-byte bit flip, plus crafted manifests
 * whose individual fields (the rank list of a sampled campaign
 * included) lie about their bounds.
 */

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/campaign.hh"
#include "stats/logging.hh"
#include "stats/persist.hh"
#include "stats/persist_v3.hh"

namespace wsel
{

namespace
{

namespace fs = std::filesystem;

persist::V3Manifest
validManifest()
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
    m.shardRows = 2;
    return m;
}

class ManifestValidation : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = (fs::temp_directory_path() /
                (std::string("wsel_manifest_fuzz_") + info->name()))
                   .string();
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    std::string
    manifestBytes(const persist::V3Manifest &m)
    {
        persist::writeV3Manifest(dir_, m);
        std::ifstream in(persist::v3ManifestPath(dir_),
                         std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
    }

    void
    putManifestBytes(const std::string &bytes)
    {
        std::ofstream out(persist::v3ManifestPath(dir_),
                          std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }

    /**
     * Overwrite the u64 field @p offset_from_body_end bytes before
     * the end of the manifest BODY (shardRows is 8, lastRank 16,
     * firstRank 24) and re-seal the trailing checksum — a crafted
     * manifest the trusted writer itself would refuse to produce.
     */
    std::string
    patchTailU64(std::string bytes,
                 std::size_t offset_from_body_end,
                 std::uint64_t value)
    {
        bytes.resize(bytes.size() - 8); // strip checksum
        const std::size_t at = bytes.size() - offset_from_body_end;
        for (int i = 0; i < 8; ++i)
            bytes[at + i] =
                static_cast<char>((value >> (8 * i)) & 0xff);
        const std::uint64_t sum = persist::fnv1a(bytes);
        for (int i = 0; i < 8; ++i)
            bytes.push_back(
                static_cast<char>((sum >> (8 * i)) & 0xff));
        return bytes;
    }

    std::string dir_;
};

TEST_F(ManifestValidation, IntactManifestRoundTrips)
{
    const persist::V3Manifest m = validManifest();
    manifestBytes(m);
    const persist::V3Manifest back = persist::readV3Manifest(dir_);
    EXPECT_EQ(back.fingerprint, m.fingerprint);
    EXPECT_EQ(back.policies, m.policies);
    EXPECT_EQ(back.benchmarks, m.benchmarks);
    EXPECT_EQ(back.lastRank, m.lastRank);
    EXPECT_EQ(back.shardRows, m.shardRows);
}

TEST_F(ManifestValidation, EveryTruncationRejected)
{
    const std::string full = manifestBytes(validManifest());
    ASSERT_GT(full.size(), 16u);
    for (std::size_t len = 0; len < full.size(); ++len) {
        putManifestBytes(full.substr(0, len));
        EXPECT_THROW(persist::readV3Manifest(dir_),
                     persist::CacheInvalid)
            << "accepted a manifest truncated to " << len
            << " of " << full.size() << " bytes";
    }
}

TEST_F(ManifestValidation, EverySingleBitFlipRejected)
{
    const std::string full = manifestBytes(validManifest());
    // The trailing FNV-1a covers every preceding byte and is itself
    // covered by the comparison, so ANY one-bit flip must surface
    // as CacheInvalid.
    for (std::size_t byte = 0; byte < full.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string damaged = full;
            damaged[byte] =
                static_cast<char>(damaged[byte] ^ (1 << bit));
            putManifestBytes(damaged);
            EXPECT_THROW(persist::readV3Manifest(dir_),
                         persist::CacheInvalid)
                << "byte " << byte << " bit " << bit;
        }
    }
}

// Crafted manifests: checksum-valid bytes whose fields lie.  The
// writer is the trusted side and does not validate, which lets the
// tests produce well-formed files with implausible contents.

TEST_F(ManifestValidation, ImplausibleCoreCountRejected)
{
    persist::V3Manifest m = validManifest();
    m.cores = 100000;
    manifestBytes(m);
    EXPECT_THROW(persist::readV3Manifest(dir_),
                 persist::CacheInvalid);
}

TEST_F(ManifestValidation, ImplausibleNameLengthsRejected)
{
    persist::V3Manifest m = validManifest();
    m.simulator = std::string(4096, 'x');
    manifestBytes(m);
    EXPECT_THROW(persist::readV3Manifest(dir_),
                 persist::CacheInvalid);

    m = validManifest();
    m.benchmarks[1] = std::string(100000, 'b');
    manifestBytes(m);
    EXPECT_THROW(persist::readV3Manifest(dir_),
                 persist::CacheInvalid);
}

TEST_F(ManifestValidation, InvertedRankRangeRejected)
{
    // The trusted writer refuses an inverted range, so forge one
    // behind its back: patch firstRank past lastRank and re-seal.
    const std::string full = manifestBytes(validManifest());
    putManifestBytes(patchTailU64(full, 24, 10)); // firstRank = 10
    EXPECT_THROW(persist::readV3Manifest(dir_),
                 persist::CacheInvalid);
}

TEST_F(ManifestValidation, ZeroShardRowsRejected)
{
    const std::string full = manifestBytes(validManifest());
    putManifestBytes(patchTailU64(full, 8, 0)); // shardRows = 0
    EXPECT_THROW(persist::readV3Manifest(dir_),
                 persist::CacheInvalid);
}

TEST_F(ManifestValidation, AbsurdRowCountRejected)
{
    persist::V3Manifest m = validManifest();
    m.lastRank = 1ULL << 49; // rows() over the 2^48 cap
    manifestBytes(m);
    EXPECT_THROW(persist::readV3Manifest(dir_),
                 persist::CacheInvalid);
}

TEST_F(ManifestValidation, ShardPayloadOverflowRejected)
{
    // shardRows x policies x cores would overflow the per-shard
    // payload bound even though each factor alone looks sane.
    persist::V3Manifest m = validManifest();
    m.shardRows = 1ULL << 40;
    m.lastRank = 1ULL << 41;
    manifestBytes(m);
    EXPECT_THROW(persist::readV3Manifest(dir_),
                 persist::CacheInvalid);
}

TEST_F(ManifestValidation, OversizedMaterializationRefusedByLoad)
{
    // A checksum-valid manifest may still describe a campaign too
    // large to materialize in memory; Campaign::load must refuse
    // BEFORE allocating the workload list or the IPC matrix, not
    // OOM first.  A 65536-benchmark 2-core population is ~2.1e9
    // workloads, so ranks up to 2^30 are inside the population but
    // 2^30 rows x 2 policies x 2 cores = 2^32 cells is over the
    // materialization cap.
    persist::V3Manifest m = validManifest();
    m.popBenchmarks = 65536;
    m.benchmarks.clear();
    m.refIpc.clear();
    for (std::uint32_t i = 0; i < m.popBenchmarks; ++i) {
        std::string name = "b";
        name += std::to_string(i);
        m.benchmarks.push_back(std::move(name));
        m.refIpc.push_back(1.0);
    }
    m.firstRank = 0;
    m.lastRank = 1ULL << 30;
    m.shardRows = 1ULL << 20;
    manifestBytes(m);
    // LoadMode::Strict wraps cache damage in FatalError; the point
    // here is that it throws promptly instead of allocating.
    EXPECT_THROW(Campaign::load(dir_), FatalError);
}

TEST_F(ManifestValidation, OverflowingPopulationShapeIsCacheDamage)
{
    // 64 benchmarks x 64 cores is a checksum-valid shape whose
    // population size overflows 64 bits: a cached load quarantines
    // it instead of aborting.
    persist::V3Manifest m = validManifest();
    m.cores = m.popCores = 64;
    m.popBenchmarks = 64;
    m.benchmarks.assign(64, "b");
    m.refIpc.assign(64, 1.0);
    manifestBytes(m);
    EXPECT_THROW(Campaign::load(dir_, LoadMode::Cached),
                 persist::CacheInvalid);
    EXPECT_TRUE(fs::exists(dir_ + ".corrupt"));
    fs::remove_all(dir_ + ".corrupt");
}

TEST_F(ManifestValidation, RankCountPastTheEndRejected)
{
    // The count is bounded by the bytes left before it sizes the
    // list, so a count that runs past the end (or a huge one) is
    // CacheInvalid, not a giant allocation.
    persist::V3Manifest m = validManifest();
    m.ranks = {5, 0, 3, 3, 1, 4};
    const std::string full = manifestBytes(m);
    for (const std::uint64_t count : {7ULL, 1ULL << 40, ~0ULL}) {
        // The count sits just before the 6 ranks at the body end.
        putManifestBytes(patchTailU64(full, 8 * 7, count));
        EXPECT_THROW(persist::readV3Manifest(dir_),
                     persist::CacheInvalid)
            << count;
    }
    // A count that disagrees with the row range is refused too.
    putManifestBytes(patchTailU64(full, 8 * 7, 5));
    EXPECT_THROW(persist::readV3Manifest(dir_), persist::CacheInvalid);
}

TEST_F(ManifestValidation, RankOutsidePopulationRefusedByLoad)
{
    // A 3-benchmark 2-core population has 6 workloads: rank 6 is
    // checksum-valid but names no workload.
    persist::V3Manifest m = validManifest();
    m.ranks = {5, 0, 3, 6, 1, 4};
    manifestBytes(m);
    EXPECT_NO_THROW(persist::readV3Manifest(dir_));
    try {
        Campaign::load(dir_);
        FAIL() << "loaded a rank outside the population";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("rank 6"),
                  std::string::npos)
            << e.what();
    }
}

} // namespace

} // namespace wsel
