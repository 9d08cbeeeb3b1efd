/**
 * @file
 * Sharded binary campaign format (`campaign_v3`) for
 * population-scale runs (docs/PERFORMANCE.md, "Population
 * campaigns").
 *
 * A v3 artifact is a *directory*:
 *
 *     <dir>/manifest.bin        written last (the commit point)
 *     <dir>/shard-000000.bin    fixed-width IPC cells
 *     <dir>/shard-000001.bin
 *     ...
 *
 * Every file is a sealed file (persist::Writer in stats/persist.hh
 * describes the frame), so checkpoint/resume holds at shard
 * granularity: a crash leaves each shard either absent, complete,
 * or quarantinable, and a resumed run regenerates exactly the
 * missing/invalid shards.
 *
 * Shard s covers workload ranks
 * [firstRank + s*shardRows, firstRank + min((s+1)*shardRows, rows))
 * of the population in rank order.  Its payload is
 * rowsInShard(s) x policies x cores doubles, row-major (workload,
 * then policy, then core) — the order cells are produced in, so
 * writers stream.  Shards carry no wall-clock timing (that lives in
 * the manifest), which is what makes serial and --jobs N runs
 * bitwise identical per shard.
 *
 * campaign_v2 (text, explicit workload list) remains the format for
 * sampled campaigns; Campaign::load dispatches on the path type.
 */

#ifndef WSEL_STATS_PERSIST_V3_HH
#define WSEL_STATS_PERSIST_V3_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace wsel::persist
{

inline constexpr std::uint32_t kV3Version = 1;

/** Shard payload geometry and campaign identity (manifest.bin). */
struct V3Manifest
{
    std::uint64_t fingerprint = 0; ///< campaignFingerprint()
    std::string simulator;         ///< "badco" / "detailed"
    std::uint32_t cores = 0;       ///< K (threads per workload)
    std::uint64_t targetUops = 0;
    double simSeconds = 0.0;   ///< CPU seconds across cells
    std::uint64_t instructions = 0;
    std::vector<std::string> policies; ///< toString(PolicyKind)
    std::vector<std::string> benchmarks;
    std::vector<double> refIpc; ///< per benchmark, single-core ref
    std::uint32_t popBenchmarks = 0; ///< population shape B
    std::uint32_t popCores = 0;      ///< population shape K
    std::uint64_t firstRank = 0;     ///< first population rank
    std::uint64_t lastRank = 0;      ///< one past the last rank
    std::uint64_t shardRows = 0;     ///< workload rows per shard

    std::uint64_t rows() const { return lastRank - firstRank; }
    std::uint64_t shardCount() const;
    std::uint64_t rowsInShard(std::uint64_t shard) const;
    std::uint64_t shardFirstRank(std::uint64_t shard) const
    {
        return firstRank + shard * shardRows;
    }
};

/** "shard-000042.bin". */
std::string v3ShardName(std::uint64_t shard);

std::string v3ManifestPath(const std::string &dir);
std::string v3ShardPath(const std::string &dir, std::uint64_t shard);

/** True when @p path is a directory containing a manifest.bin. */
bool isV3CampaignDir(const std::string &path);

/** Atomically write the manifest (call after all shards). */
void writeV3Manifest(const std::string &dir, const V3Manifest &m);

/** Read + validate the manifest; throws CacheInvalid on damage. */
V3Manifest readV3Manifest(const std::string &dir);

/**
 * Atomically write shard @p shard.  @p payload must hold exactly
 * rowsInShard(shard) * policies * cores doubles in row-major
 * (workload, policy, core) order.
 */
void writeV3Shard(const std::string &dir, const V3Manifest &m,
                  std::uint64_t shard,
                  std::span<const double> payload);

/**
 * Read + validate shard @p shard against the manifest geometry;
 * throws CacheInvalid when missing, truncated, checksum-damaged, or
 * mismatched (fingerprint/shape/index).
 */
std::vector<double> readV3Shard(const std::string &dir,
                                const V3Manifest &m,
                                std::uint64_t shard);

} // namespace wsel::persist

#endif // WSEL_STATS_PERSIST_V3_HH
