#include "stats/persist_v3.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "stats/logging.hh"
#include "stats/persist.hh"

namespace wsel::persist
{

namespace
{

constexpr char kManifestMagic[8] = {'W', 'S', 'V', '3',
                                    'M', 'A', 'N', 'I'};
constexpr char kShardMagic[8] = {'W', 'S', 'V', '3',
                                 'S', 'H', 'R', 'D'};

} // namespace

std::uint64_t
V3Manifest::shardCount() const
{
    if (shardRows == 0)
        WSEL_FATAL("v3 manifest with zero shard rows");
    return (rows() + shardRows - 1) / shardRows;
}

std::uint64_t
V3Manifest::rowsInShard(std::uint64_t shard) const
{
    const std::uint64_t begin = shard * shardRows;
    if (begin >= rows())
        WSEL_FATAL("shard " << shard << " outside campaign of "
                            << rows() << " rows");
    return std::min(shardRows, rows() - begin);
}

std::string
v3ShardName(std::uint64_t shard)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "shard-%06llu.bin",
                  static_cast<unsigned long long>(shard));
    return buf;
}

std::string
v3ManifestPath(const std::string &dir)
{
    return dir + "/manifest.bin";
}

std::string
v3ShardPath(const std::string &dir, std::uint64_t shard)
{
    return dir + "/" + v3ShardName(shard);
}

bool
isV3CampaignDir(const std::string &path)
{
    std::error_code ec;
    return std::filesystem::is_directory(path, ec) &&
           std::filesystem::is_regular_file(v3ManifestPath(path),
                                            ec);
}

void
writeV3Manifest(const std::string &dir, const V3Manifest &m)
{
    if (m.lastRank < m.firstRank)
        WSEL_FATAL("v3 manifest rank range inverted");
    if (m.shardRows == 0)
        WSEL_FATAL("v3 manifest with zero shard rows");
    if (m.refIpc.size() != m.benchmarks.size())
        WSEL_FATAL("v3 manifest refIpc/benchmark size mismatch");
    Writer w(kManifestMagic, kV3Version,
             256 + 16 * (m.policies.size() + m.benchmarks.size()));
    w.u64(m.fingerprint);
    w.str(m.simulator);
    w.u32(m.cores);
    w.u64(m.targetUops);
    w.f64(m.simSeconds);
    w.u64(m.instructions);
    w.u32(static_cast<std::uint32_t>(m.policies.size()));
    for (const std::string &p : m.policies)
        w.str(p);
    w.u32(static_cast<std::uint32_t>(m.benchmarks.size()));
    for (const std::string &b : m.benchmarks)
        w.str(b);
    w.f64s(m.refIpc);
    w.u32(m.popBenchmarks);
    w.u32(m.popCores);
    w.u64(m.firstRank);
    w.u64(m.lastRank);
    w.u64(m.shardRows);
    w.seal(v3ManifestPath(dir));
}

V3Manifest
readV3Manifest(const std::string &dir)
{
    Reader r = Reader::open(v3ManifestPath(dir), kManifestMagic,
                            kV3Version, "campaign_v3 manifest");
    // Every size below is bounded (Reader::count) before it drives
    // an allocation or a multiplication.
    V3Manifest m;
    m.fingerprint = r.u64();
    m.simulator = r.str();
    r.count(m.simulator.size(), 64, "simulator-name length");
    m.cores = r.count(r.u32(), 1024, "core count");
    m.targetUops = r.u64();
    m.simSeconds = r.f64();
    m.instructions = r.u64();
    const std::uint32_t np = r.count(r.u32(), 4096, "policy count");
    m.policies.reserve(np);
    for (std::uint32_t i = 0; i < np; ++i) {
        m.policies.push_back(r.str());
        r.count(m.policies.back().size(), 256, "policy-name length");
    }
    const std::uint32_t nb =
        r.count(r.u32(), 1u << 20, "benchmark count");
    m.benchmarks.reserve(nb);
    for (std::uint32_t i = 0; i < nb; ++i) {
        m.benchmarks.push_back(r.str());
        r.count(m.benchmarks.back().size(), 256,
                "benchmark-name length");
    }
    m.refIpc.resize(nb);
    r.f64s(m.refIpc);
    m.popBenchmarks = r.u32();
    m.popCores = r.u32();
    m.firstRank = r.u64();
    m.lastRank = r.u64();
    m.shardRows = r.u64();
    r.expectEnd();
    if (m.lastRank < m.firstRank || m.shardRows == 0 ||
        m.policies.empty() || m.cores == 0)
        r.fail("inconsistent geometry");
    r.count(m.popBenchmarks, 1u << 20, "population benchmarks");
    r.count(m.popCores, 1024, "population cores");
    // Rank range and shard geometry: cap so rows() and every
    // rows-per-shard x policies x cores product fits comfortably
    // in 64 bits (and a single shard's payload in size_t).
    constexpr std::uint64_t kMaxRows = 1ULL << 48;
    r.count(m.rows(), kMaxRows, "row count");
    r.count(m.shardRows, kMaxRows, "shard rows");
    const std::uint64_t cells_per_row =
        static_cast<std::uint64_t>(np) * m.cores;
    if (m.shardRows > (1ULL << 32) / std::max<std::uint64_t>(
                                         1, cells_per_row))
        r.fail("shard payload would overflow (" +
               std::to_string(m.shardRows) + " rows x " +
               std::to_string(np) + " policies x " +
               std::to_string(m.cores) + " cores)");
    return m;
}

void
writeV3Shard(const std::string &dir, const V3Manifest &m,
             std::uint64_t shard, std::span<const double> payload)
{
    const std::uint64_t rows = m.rowsInShard(shard);
    const std::size_t want = static_cast<std::size_t>(rows) *
                             m.policies.size() * m.cores;
    if (payload.size() != want)
        WSEL_FATAL("shard " << shard << " payload has "
                            << payload.size() << " cells, expected "
                            << want);
    Writer w(kShardMagic, kV3Version, 32 + payload.size_bytes());
    w.u32(static_cast<std::uint32_t>(shard));
    w.u64(m.fingerprint);
    w.u32(m.cores);
    w.u32(static_cast<std::uint32_t>(m.policies.size()));
    w.u64(m.shardFirstRank(shard));
    w.u32(static_cast<std::uint32_t>(rows));
    w.f64s(payload);
    w.seal(v3ShardPath(dir, shard));
}

std::vector<double>
readV3Shard(const std::string &dir, const V3Manifest &m,
            std::uint64_t shard)
{
    Reader r = Reader::open(v3ShardPath(dir, shard), kShardMagic,
                            kV3Version,
                            "campaign_v3 " + v3ShardName(shard));
    if (r.u32() != shard)
        r.fail("wrong shard index");
    if (r.u64() != m.fingerprint)
        r.fail("fingerprint mismatch");
    if (r.u32() != m.cores ||
        r.u32() != static_cast<std::uint32_t>(m.policies.size()))
        r.fail("shape mismatch");
    if (r.u64() != m.shardFirstRank(shard))
        r.fail("rank-range mismatch");
    const std::uint64_t rows = r.u32();
    if (rows != m.rowsInShard(shard))
        r.fail("row-count mismatch");
    const std::size_t cells = static_cast<std::size_t>(rows) *
                              m.policies.size() * m.cores;
    if (r.remaining() != cells * 8)
        r.fail("payload size mismatch");
    std::vector<double> payload(cells);
    r.f64s(payload);
    return payload;
}

} // namespace wsel::persist
