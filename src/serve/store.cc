#include "serve/store.hh"

#include <filesystem>

#include "stats/logging.hh"
#include "stats/persist.hh"

namespace wsel::serve
{

namespace fs = std::filesystem;

std::uint64_t
campaignGeometryHash(std::uint64_t seed, std::uint64_t firstRank,
                     std::uint64_t lastRank,
                     std::uint64_t shardRows,
                     std::uint32_t fidelity)
{
    persist::Fnv1a h;
    h.update("wsel-serve-geom-2");
    h.updateU64(seed);
    h.updateU64(firstRank);
    h.updateU64(lastRank);
    h.updateU64(shardRows);
    h.updateU64(fidelity);
    return h.digest();
}

ResultStore::ResultStore(std::string root) : root_(std::move(root))
{
    if (root_.empty())
        WSEL_FATAL("result store needs a root directory");
    persist::ensureDirTree(root_);
}

std::string
ResultStore::campaignDir(std::uint64_t fingerprint,
                         std::uint64_t geometryHash) const
{
    return root_ + "/c-" + persist::toHex(fingerprint) + "-" +
           persist::toHex(geometryHash);
}

void
ResultStore::ensureCampaignDir(const std::string &dir) const
{
    persist::ensureDirTree(dir);
}

bool
ResultStore::hasShard(const std::string &dir,
                      const persist::V3Manifest &m,
                      std::uint64_t shard)
{
    const std::string path = persist::v3ShardPath(dir, shard);
    std::error_code ec;
    if (!fs::exists(path, ec))
        return false;
    try {
        (void)persist::readV3Shard(dir, m, shard);
        return true;
    } catch (const persist::CacheInvalid &e) {
        persist::quarantineArtifact(path, "corrupt result-store shard",
                                    e.what(), "recomputing");
        return false;
    }
}

bool
ResultStore::commitShard(const std::string &dir,
                         const persist::V3Manifest &m,
                         std::uint64_t shard,
                         std::span<const double> payload)
{
    if (hasShard(dir, m, shard))
        return false;
    persist::writeV3Shard(dir, m, shard, payload);
    return true;
}

void
ResultStore::commitManifest(const std::string &dir,
                            const persist::V3Manifest &m)
{
    try {
        const persist::V3Manifest have =
            persist::readV3Manifest(dir);
        if (have.fingerprint == m.fingerprint &&
            have.firstRank == m.firstRank &&
            have.lastRank == m.lastRank &&
            have.shardRows == m.shardRows)
            return; // already committed by an earlier campaign
    } catch (const persist::CacheInvalid &) {
        // absent or damaged: (re)write below
    }
    persist::writeV3Manifest(dir, m);
}

bool
ResultStore::isComplete(const std::string &dir)
{
    if (!persist::isV3CampaignDir(dir))
        return false;
    try {
        const persist::V3Manifest m =
            persist::readV3Manifest(dir);
        const std::uint64_t shards = m.shardCount();
        for (std::uint64_t s = 0; s < shards; ++s) {
            std::error_code ec;
            if (!fs::exists(persist::v3ShardPath(dir, s), ec))
                return false;
        }
        return true;
    } catch (const persist::CacheInvalid &) {
        return false;
    }
}

} // namespace wsel::serve
