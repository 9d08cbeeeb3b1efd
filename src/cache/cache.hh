/**
 * @file
 * Set-associative cache structure with pluggable replacement.
 *
 * The Cache models tag state only (hit/miss, evictions, dirty bits);
 * timing is the responsibility of the enclosing level (the core for
 * L1s, the Uncore for the shared LLC). This mirrors the split in the
 * paper's toolchain where one uncore model serves both the detailed
 * and the approximate simulator.
 */

#ifndef WSEL_CACHE_CACHE_HH
#define WSEL_CACHE_CACHE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "cache/replacement.hh"
#include "stats/logging.hh"

namespace wsel
{

/** Static shape of a cache. */
struct CacheGeometry
{
    std::uint64_t sizeBytes = 32 * 1024;
    std::uint32_t ways = 8;
    std::uint32_t lineBytes = 64;

    std::uint32_t sets() const;

    /** Fatal unless sizes are consistent powers of two. */
    void validate() const;
};

/** Counters exposed by a Cache. */
struct CacheStats
{
    std::uint64_t demandAccesses = 0;
    std::uint64_t demandHits = 0;
    std::uint64_t demandMisses = 0;
    std::uint64_t prefetchAccesses = 0;
    std::uint64_t prefetchHits = 0;
    std::uint64_t prefetchMisses = 0;
    std::uint64_t writebacksOut = 0; ///< dirty evictions

    double
    demandMissRate() const
    {
        return demandAccesses
                   ? static_cast<double>(demandMisses) /
                         static_cast<double>(demandAccesses)
                   : 0.0;
    }
};

/**
 * Tag-state set-associative cache.
 */
class Cache
{
  public:
    /** A line pushed out by a fill. */
    struct Evicted
    {
        bool valid = false;   ///< an eviction happened
        bool dirty = false;   ///< it needs writing back
        std::uint64_t lineAddr = 0; ///< its line address
    };

    /** Outcome of an access. */
    struct Result
    {
        bool hit = false;
        Evicted evicted; ///< filled-over line (misses only)
    };

    /** Builds a fresh replacement-policy instance (for reset()). */
    using PolicyFactory =
        std::function<std::unique_ptr<ReplacementPolicy>()>;

    /**
     * @param geom Cache shape (validated).
     * @param policy Replacement policy kind.
     * @param seed Seed for randomized policy state.
     * @param name Diagnostic name.
     */
    Cache(const CacheGeometry &geom, PolicyKind policy,
          std::uint64_t seed, std::string name = "cache");

    /**
     * Construct with a custom replacement policy (e.g. DIP/DRRIP
     * with non-default dueling parameters, for ablations).
     *
     * @param geom Cache shape (validated).
     * @param factory Builds the policy; must produce instances
     *        sized for geom.sets() x geom.ways.
     * @param name Diagnostic name.
     */
    Cache(const CacheGeometry &geom, PolicyFactory factory,
          std::string name = "cache");

    /**
     * Look up @p byte_addr; on miss, allocate (write-allocate for
     * both reads and writes) and report any eviction.
     *
     * @param byte_addr Byte address of the access.
     * @param is_write Marks the line dirty on hit/fill.
     * @param is_prefetch Accounted separately from demand traffic.
     */
    Result access(std::uint64_t byte_addr, bool is_write,
                  bool is_prefetch = false);

    /** Tag probe without any state update. */
    bool probe(std::uint64_t byte_addr) const;

    /**
     * Hit half of access() in one tag scan: on a hit, applies
     * exactly the hit-side effects (stats, replacement update,
     * dirty bit) and returns true; on a miss, mutates nothing and
     * returns false — the caller decides whether the miss is ever
     * accounted (it is not when an outstanding MSHR absorbs it).
     * Equivalent to probe() followed by access() on the hit path,
     * without the second scan.
     */
    bool accessIfHit(std::uint64_t byte_addr, bool is_write,
                     bool is_prefetch = false);

    /**
     * Miss half of access() without the tag scan, for callers that
     * already observed the miss (probe() or accessIfHit()) with no
     * intervening fill: accounts the miss and allocates the line.
     * Equivalent to access() on a known-missing address.
     */
    Result missFill(std::uint64_t byte_addr, bool is_write,
                    bool is_prefetch = false);

    /**
     * Write-back from an inner level: marks the line dirty if
     * present; otherwise allocates it dirty (no inclusion tracking).
     */
    Result writeback(std::uint64_t byte_addr);

    /** Invalidate every line and reset statistics. */
    void reset();

    const CacheGeometry &geometry() const { return geom_; }
    const CacheStats &stats() const { return stats_; }
    PolicyKind policyKind() const { return policy_->kind(); }
    const std::string &name() const { return name_; }

    /** Line address (byte address / line size). */
    std::uint64_t
    lineAddr(std::uint64_t byte_addr) const
    {
        return byte_addr >> lineShift_;
    }

  private:
    std::uint32_t setIndex(std::uint64_t line_addr) const;
    Result fill(std::uint64_t line_addr, bool is_write);

    CacheGeometry geom_;
    std::string name_;
    PolicyFactory factory_;
    std::uint32_t lineShift_;
    std::uint32_t setMask_;

    /**
     * Tag metadata split into contiguous per-field arrays so the
     * way-probe loop scans one dense cache line per set instead of
     * striding through full line records. Encoding:
     * tags_[i] = (lineAddr << 1) | 1 for a valid line, 0 when
     * invalid. Tags are packed to 32 bits so a 16-way set scan
     * touches a single host cache line; every address this project
     * generates (virtual regions below ~4.5 GiB, sequentially
     * allocated physical pages) keeps line addresses far below the
     * 31-bit limit, which tagFor() asserts.
     */
    std::uint32_t
    tagFor(std::uint64_t line_addr) const
    {
        WSEL_ASSERT(line_addr >> 31 == 0,
                    "line address exceeds the 31-bit packed-tag "
                    "range in cache '"
                        << name_ << "'");
        return (static_cast<std::uint32_t>(line_addr) << 1) | 1u;
    }

    std::vector<std::uint32_t> tags_;
    std::vector<std::uint8_t> dirty_;

    std::unique_ptr<ReplacementPolicy> policy_;
    CacheStats stats_;
};

} // namespace wsel

#endif // WSEL_CACHE_CACHE_HH
