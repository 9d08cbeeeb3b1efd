/**
 * @file
 * Set-associative cache structure with a closed set of replacement
 * policies.
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
#include <string>
#include <vector>

#include "cache/replacement.hh"
#include "cache/tagscan.hh"
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

    /**
     * @param geom Cache shape (validated).
     * @param policy Replacement policy kind.
     * @param seed Seed for randomized policy state.
     * @param name Diagnostic name.
     * @param tunables DIP/DRRIP dueling and RRIP parameters
     *        (defaults: the papers'; ablations vary them).
     */
    Cache(const CacheGeometry &geom, PolicyKind policy,
          std::uint64_t seed, std::string name = "cache",
          const DuelingConfig &tunables = {});

    /**
     * Look up @p byte_addr; on miss, allocate (write-allocate for
     * both reads and writes) and report any eviction.
     *
     * @param byte_addr Byte address of the access.
     * @param is_write Marks the line dirty on hit/fill.
     * @param is_prefetch Accounted separately from demand traffic.
     */
    Result
    access(std::uint64_t byte_addr, bool is_write,
           bool is_prefetch = false)
    {
        if (accessIfHit(byte_addr, is_write, is_prefetch))
            return Result{true, {}};
        return missFill(byte_addr, is_write, is_prefetch);
    }

    /** Tag probe without any state update. */
    bool
    probe(std::uint64_t byte_addr) const
    {
        const std::uint64_t la = lineAddr(byte_addr);
        return tagscan::find(&tags_[base(la)], geom_.ways,
                             tagFor(la)) < geom_.ways;
    }

    /**
     * Hit half of access() in one tag scan: on a hit, applies
     * exactly the hit-side effects (stats, replacement update,
     * dirty bit) and returns true; on a miss, mutates nothing and
     * returns false — the caller decides whether the miss is ever
     * accounted (it is not when an outstanding MSHR absorbs it).
     * Equivalent to probe() followed by access() on the hit path,
     * without the second scan.
     */
    bool
    accessIfHit(std::uint64_t byte_addr, bool is_write,
                bool is_prefetch = false)
    {
        const std::uint64_t la = lineAddr(byte_addr);
        const std::size_t b = base(la);
        const std::uint32_t w =
            tagscan::find(&tags_[b], geom_.ways, tagFor(la));
        if (w == geom_.ways)
            return false;
        if (is_prefetch) {
            ++stats_.prefetchAccesses;
            ++stats_.prefetchHits;
        } else {
            ++stats_.demandAccesses;
            ++stats_.demandHits;
        }
        policy_.onHit(setIndex(la), w);
        if (is_write)
            dirty_[b + w] = 1;
        return true;
    }

    /**
     * Miss half of access() without the tag scan, for callers that
     * already observed the miss (probe() or accessIfHit()) with no
     * intervening fill: accounts the miss and allocates the line.
     * Equivalent to access() on a known-missing address.
     */
    Result
    missFill(std::uint64_t byte_addr, bool is_write,
             bool is_prefetch = false)
    {
        const std::uint64_t la = lineAddr(byte_addr);
        if (is_prefetch) {
            ++stats_.prefetchAccesses;
            ++stats_.prefetchMisses;
        } else {
            ++stats_.demandAccesses;
            ++stats_.demandMisses;
        }
        policy_.onMiss(setIndex(la));
        return fill(la, is_write);
    }

    /**
     * Write-back from an inner level: marks the line dirty if
     * present; otherwise allocates it dirty (no inclusion tracking).
     */
    Result writeback(std::uint64_t byte_addr);

    /** Invalidate every line and reset statistics. */
    void reset();

    const CacheGeometry &geometry() const { return geom_; }
    const CacheStats &stats() const { return stats_; }
    PolicyKind policyKind() const { return kind_; }
    const std::string &name() const { return name_; }

    /** Line address (byte address / line size). */
    std::uint64_t
    lineAddr(std::uint64_t byte_addr) const
    {
        return byte_addr >> lineShift_;
    }

  private:
    std::uint32_t
    setIndex(std::uint64_t line_addr) const
    {
        return static_cast<std::uint32_t>(line_addr) & setMask_;
    }

    /** Index of the first way of @p line_addr's set. */
    std::size_t
    base(std::uint64_t line_addr) const
    {
        return static_cast<std::size_t>(setIndex(line_addr)) *
               geom_.ways;
    }

    /** Allocate a known-missing line, evicting if the set is full. */
    Result
    fill(std::uint64_t line_addr, bool is_write)
    {
        const std::uint32_t set = setIndex(line_addr);
        const std::size_t b = base(line_addr);
        std::uint32_t *tags = &tags_[b];

        // Lowest invalid way (tag 0), if any; all tagscan paths
        // agree on the lowest-index pick, keeping replacement
        // path-invariant.
        std::uint32_t victim = tagscan::find(tags, geom_.ways, 0u);
        Result res;
        if (victim == geom_.ways) {
            victim = policy_.selectVictim(set);
            WSEL_ASSERT(victim < geom_.ways,
                        "policy returned way " << victim);
            const bool dirty = dirty_[b + victim] != 0;
            res.evicted = Evicted{true, dirty, tags[victim] >> 1};
            if (dirty)
                ++stats_.writebacksOut;
        }
        tags[victim] = tagFor(line_addr);
        dirty_[b + victim] = is_write ? 1 : 0;
        policy_.onFill(set, victim);
        return res;
    }

    CacheGeometry geom_;
    std::string name_;
    PolicyKind kind_;
    std::uint64_t seed_;
    DuelingConfig tunables_;
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

    ReplacementPolicy policy_;
    CacheStats stats_;
};

} // namespace wsel

#endif // WSEL_CACHE_CACHE_HH
